"""Trace-driven superscalar pipeline model (Figures 9 and 10).

An out-of-order-completion, W-wide-fetch model with the structures that
dominate wide-issue behaviour for this study:

- W-way fetch, one taken control transfer per cycle,
- gshare + BTB + return-address stack steering the front end; a
  mispredict stalls fetch until the branch resolves, plus a redirect
  penalty,
- split L1 caches; an I-miss stalls fetch, a D-miss lengthens the
  load's latency (and thereby dependent instructions and branch
  resolution),
- a reorder buffer bounding in-flight instructions; register
  dependences delay an instruction's start, in-order retirement frees
  ROB slots.

The absolute IPC is a model artifact; the experiments use its *relative*
behaviour across modes and widths, as the paper does.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ...native.nisa import FLAG_TAKEN, NCat
from ...obs import TRACER
from ..branch.predictors import BTB, Gshare
from ..kernels import active_kernel

#: Execution latency per category (cycles).
LATENCY = {
    int(NCat.NOP): 1, int(NCat.IALU): 1, int(NCat.IMUL): 4,
    int(NCat.IDIV): 20, int(NCat.FALU): 3, int(NCat.FMUL): 4,
    int(NCat.FDIV): 12, int(NCat.LOAD): 2, int(NCat.STORE): 1,
    int(NCat.BRANCH): 1, int(NCat.JUMP): 1, int(NCat.IJUMP): 1,
    int(NCat.CALL): 1, int(NCat.ICALL): 1, int(NCat.RET): 1,
}


class PipelineConfig:
    """Machine parameters."""

    def __init__(
        self,
        width: int = 4,
        rob_size: int = 64,
        mispredict_penalty: int = 4,
        icache_size: int = 64 << 10,
        dcache_size: int = 64 << 10,
        block: int = 32,
        icache_assoc: int = 2,
        dcache_assoc: int = 4,
        imiss_penalty: int = 8,
        dmiss_penalty: int = 8,
    ) -> None:
        self.width = width
        self.rob_size = rob_size
        self.mispredict_penalty = mispredict_penalty
        self.icache_size = icache_size
        self.dcache_size = dcache_size
        self.block = block
        self.icache_assoc = icache_assoc
        self.dcache_assoc = dcache_assoc
        self.imiss_penalty = imiss_penalty
        self.dmiss_penalty = dmiss_penalty

    def __repr__(self) -> str:
        return f"PipelineConfig(width={self.width})"


class _InlineCache:
    """Minimal LRU set-associative cache for the pipeline's inner loop."""

    __slots__ = ("sets", "set_mask", "block_shift", "assoc", "clock")

    def __init__(self, size: int, block: int, assoc: int) -> None:
        n_sets = size // (block * assoc)
        self.sets = [dict() for _ in range(n_sets)]
        self.set_mask = n_sets - 1
        self.block_shift = block.bit_length() - 1
        self.assoc = assoc
        self.clock = 0

    def access(self, addr: int) -> bool:
        """True on hit."""
        block = addr >> self.block_shift
        s = self.sets[block & self.set_mask]
        self.clock += 1
        if block in s:
            s[block] = self.clock
            return True
        if len(s) >= self.assoc:
            victim = min(s, key=s.get)
            del s[victim]
        s[block] = self.clock
        return False


class PipelineResult:
    """IPC and component counts for one simulation."""

    def __init__(self, instructions: int, cycles: int,
                 mispredicts: int, imisses: int, dmisses: int) -> None:
        self.instructions = instructions
        self.cycles = max(cycles, 1)
        self.mispredicts = mispredicts
        self.imisses = imisses
        self.dmisses = dmisses

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles

    def __repr__(self) -> str:
        return (
            f"PipelineResult(ipc={self.ipc:.2f}, n={self.instructions}, "
            f"cycles={self.cycles})"
        )


def simulate_pipeline(trace, config: PipelineConfig | None = None,
                      kernel: str | None = None) -> PipelineResult:
    """Run a native trace through the pipeline model.

    Accepts a :class:`Trace` or an ``analysis.replay.TraceReplay``; the
    vector kernel takes a replay's memoized streams and branch context.
    """
    cfg = config or PipelineConfig()
    if active_kernel(kernel) == "vector":
        return _simulate_vector(trace, cfg)
    return _simulate_scalar(getattr(trace, "trace", trace), cfg)


def _simulate_scalar(trace, cfg: PipelineConfig) -> PipelineResult:
    """Reference oracle: the original per-event scheduler loop."""
    n = trace.n
    if n == 0:
        return PipelineResult(0, 1, 0, 0, 0)

    pcs = trace.pc.tolist()
    cats = trace.cat.tolist()
    eas = trace.ea.tolist()
    flags = trace.flags.tolist()
    targets = trace.target.tolist()
    dsts = trace.dst.tolist()
    src1s = trace.src1.tolist()
    src2s = trace.src2.tolist()

    icache = _InlineCache(cfg.icache_size, cfg.block, cfg.icache_assoc)
    dcache = _InlineCache(cfg.dcache_size, cfg.block, cfg.dcache_assoc)
    predictor = Gshare()
    btb = BTB()
    ras: list[int] = []

    latency = LATENCY
    BRANCH, JUMP, CALL = int(NCat.BRANCH), int(NCat.JUMP), int(NCat.CALL)
    ICALL, IJUMP, RET = int(NCat.ICALL), int(NCat.IJUMP), int(NCat.RET)
    LOAD, STORE = int(NCat.LOAD), int(NCat.STORE)
    W = cfg.width
    ROB = cfg.rob_size
    MISP = cfg.mispredict_penalty
    IMISS = cfg.imiss_penalty
    DMISS = cfg.dmiss_penalty

    ready = [0] * 33          # per-register availability (index -1 -> [32])
    rob: deque[int] = deque()
    cycle = 0
    slots = 0                  # fetch slots used this cycle
    last_done = 0
    mispredicts = imisses = dmisses = 0

    for i in range(n):
        cat = cats[i]
        # -- fetch ------------------------------------------------------
        if slots >= W:
            cycle += 1
            slots = 0
        if not icache.access(pcs[i]):
            imisses += 1
            cycle += IMISS
            slots = 0
        # -- ROB space ---------------------------------------------------
        while len(rob) >= ROB:
            head = rob.popleft()
            if head > cycle:
                cycle = head
                slots = 0
        # -- dependences / execute ----------------------------------------
        # In-order issue (UltraSPARC-class): an instruction whose
        # operands are not ready stalls issue, so dense dependence
        # chains (compiled code) pay; independent filler (interpreter
        # handler bookkeeping) streams through.
        start = cycle + 1
        s1, s2 = src1s[i], src2s[i]
        if s1 >= 0 and ready[s1] > start:
            start = ready[s1]
        if s2 >= 0 and ready[s2] > start:
            start = ready[s2]
        if start > cycle + 1:
            cycle = start - 1
            slots = 0
        lat = latency[cat]
        if cat == LOAD:
            if not dcache.access(eas[i]):
                dmisses += 1
                lat += DMISS
        elif cat == STORE:
            if not dcache.access(eas[i]):
                dmisses += 1   # write-allocate fill, but stores retire early
        done = start + lat
        dst = dsts[i]
        if dst >= 0:
            ready[dst] = done
        rob.append(done)
        if done > last_done:
            last_done = done
        slots += 1

        # -- control transfers -------------------------------------------
        if cat >= BRANCH:
            pc = pcs[i]
            taken = bool(flags[i] & FLAG_TAKEN)
            target = targets[i]
            mispredicted = False
            if cat == BRANCH:
                predicted = predictor.predict(pc)
                if predicted != taken:
                    mispredicted = True
                elif taken and btb.lookup(pc) != target:
                    mispredicted = True
                predictor.update(pc, taken)
                if taken:
                    btb.update(pc, target)
            elif cat in (JUMP, CALL):
                if cat == CALL:
                    ras.append(pc + 4)
                    if len(ras) > 16:
                        del ras[0]
            elif cat == RET:
                predicted_target = ras.pop() if ras else btb.lookup(pc)
                mispredicted = predicted_target != target
                btb.update(pc, target)
            else:  # IJUMP / ICALL
                mispredicted = btb.lookup(pc) != target
                btb.update(pc, target)
                if cat == ICALL:
                    ras.append(pc + 4)
                    if len(ras) > 16:
                        del ras[0]
            if mispredicted:
                mispredicts += 1
                # Fixed redirect penalty (shallow late-90s pipelines).
                cycle += MISP
                slots = 0
            elif taken:
                # Taken transfer ends the fetch group.
                cycle += 1
                slots = 0

    total_cycles = max(cycle, last_done)
    return PipelineResult(n, total_cycles, mispredicts, imisses, dmisses)


#: Rows per lane of the vector scheduler, rounded up to a multiple of
#: the ROB size so row ``j`` of every lane uses ROB ring slot
#: ``j % rob_size``.
_LANE_ROWS = 256
#: Rows each lane re-runs from its predecessor's end state before the
#: convergence check of :func:`_simulate_vector`.
_VERIFY_ROWS = 64

# Per-lane ready table: registers 0..32 (the scalar model's table), a
# slot nothing writes (read by absent sources) and a slot nothing reads
# (written by absent destinations).
_NO_SRC = 33
_NO_DST = 34
_SLOTS = 35

_LAT_TABLE = np.zeros(max(LATENCY) + 1, dtype=np.int16)
for _cat, _lat in LATENCY.items():
    _LAT_TABLE[_cat] = _lat


def _simulate_vector(trace, cfg: PipelineConfig) -> PipelineResult:
    """Vector kernel: a lane-parallel scheduler, exact to the scalar loop.

    Every cache access, branch outcome and latency is resolved in batch
    first (:class:`_LaneInputs`).  What is left is the in-order
    scheduler, whose state is small: ``cycle``, ``slots``, the register
    ready times, the ROB ring of the last ``rob_size`` done times and
    ``last_done``.  Its behaviour does not change when a constant is
    added to every time, nor when a time already at or below its
    threshold is raised to it (a ready time to ``cycle + 1``, a done
    time or ``last_done`` to ``cycle``).  So the state at a row
    boundary has a canonical form relative to ``cycle``: ``slots`` and
    every time minus its threshold, clipped at 0.

    The trace is cut into L lanes of M rows (M a multiple of
    ``rob_size``), laid out as ``(M, L)`` columns, and every lane steps
    together, one numpy row operation per scheduler step.  Each lane
    runs in its own cycle frame:

    1. Pass 1 starts every lane from the empty state.  Lane 0 is exact.
    2. Pass 2 re-runs the first V rows of each lane from the canonical
       pass-1 end state of the lane before it.  If every lane's
       canonical state at row V equals its pass-1 state at row V, then
       by induction on the lane index every pass-1 end state is exact,
       and lane k took (pass-2 cycles to V) + (pass-1 cycles from V to
       the end).
    3. Otherwise full passes repeat, each lane seeded from its
       predecessor's end state in the previous pass, until those end
       states stop changing (a fixed point is exact because lane 0 is)
       or L passes have run (after pass k, lanes 0..k-1 are exact).

    The last lane is padded to M rows with inert rows; its cycle and
    ``last_done`` are noted when it passes its final real row.  The
    number of passes is counted as ``pipeline.lane_passes``.
    """
    return _LaneInputs(trace, cfg).schedule(cfg.width)


class _LaneInputs:
    """The width-independent part of the vector kernel: cache misses,
    branch outcomes and latencies, folded into ``(M, L)`` lane columns.

    - ``pre``: cycles added before a row issues: the previous row's
      redirect (1 after a taken transfer, the mispredict penalty after a
      mispredict) plus the row's own I-miss penalty;
    - ``ended``: 1 if the previous row ended its fetch group (the width
      check is then skipped, as the scalar loop's ``slots`` is 0);
    - ``restart``: rows that start a fetch group without adding cycles
      (only kept when a penalty is configured as 0);
    - ``lat``: execution latency, D-miss penalty included;
    - ``src1``/``src2``/``dst``: indices into the flat ready table.
    """

    def __init__(self, trace, cfg: PipelineConfig) -> None:
        from ..branch.predictors import extract_transfers
        from ..branch.vector import BranchReplayContext
        from ..caches.vector import miss_stream

        replay = trace if hasattr(trace, "branch_context") else None
        trace = getattr(trace, "trace", trace)
        n = self.n = trace.n
        self.rob_size = cfg.rob_size
        if n == 0:
            return

        # -- caches: per-event miss masks -----------------------------
        cat = np.asarray(trace.cat)
        imiss = miss_stream(cfg.icache_size, cfg.block, cfg.icache_assoc,
                            trace.pc)
        if replay is not None:
            mem = replay.memory_mask()
            ea = replay.data_stream()[0]
            ctx = replay.branch_context()
        else:
            mem = trace.is_memory
            ea = trace.ea[mem]
            ctx = BranchReplayContext(*extract_transfers(trace))
        dmiss = miss_stream(cfg.dcache_size, cfg.block, cfg.dcache_assoc, ea)
        mem_idx = np.flatnonzero(mem)
        self.imisses = int(imiss.sum())
        self.dmisses = int(dmiss.sum())

        # -- branch outcomes over the transfer events -----------------
        misp = np.zeros(ctx.n, dtype=bool)
        if ctx.n:
            wrong_dir = ctx.direction("gshare") != ctx.cond_taken
            misp[ctx.is_branch] = wrong_dir | (
                ctx.cond_taken & ~wrong_dir & ~ctx.btb_correct[ctx.is_branch])
            misp[ctx.is_ijc] = ~ctx.btb_correct[ctx.is_ijc]
            used, popped = ctx.ras_outcome(trim_call=True)
            misp[ctx.is_ret] = np.where(used,
                                        popped != ctx.target[ctx.is_ret],
                                        ~ctx.btb_correct[ctx.is_ret])
        self.mispredicts = int(misp.sum())

        # -- per-row columns ------------------------------------------
        small = np.int16 if max(cfg.imiss_penalty, cfg.dmiss_penalty,
                                 cfg.mispredict_penalty) < 1 << 12 \
            else np.int32
        transfer_idx = np.flatnonzero(cat >= int(NCat.BRANCH))
        redirect = np.zeros(n, dtype=small)
        redirect[transfer_idx[ctx.taken]] = 1
        redirect[transfer_idx[misp]] = cfg.mispredict_penalty
        ended = np.zeros(n, dtype=np.int16)
        ended[transfer_idx[ctx.taken | misp]] = 1
        self.last_redirect = int(redirect[-1])
        pre = imiss.astype(small) * small(cfg.imiss_penalty)
        pre[1:] += redirect[:-1]
        ended[1:] = ended[:-1].copy()
        ended[0] = 0
        lat = _LAT_TABLE[cat].astype(small)
        lat[mem_idx[dmiss & (cat[mem_idx] == int(NCat.LOAD))]] += \
            cfg.dmiss_penalty

        # -- lane layout ----------------------------------------------
        rob = cfg.rob_size
        M = self.rows = -(-min(_LANE_ROWS, n) // rob) * rob
        L = self.lanes = -(-n // M)
        self.tail = n - (L - 1) * M
        self.pre = self._layout(pre, 0)
        self.ended = self._layout(ended, 0)
        self.lat = self._layout(lat, 1)
        self.restart = None
        if cfg.imiss_penalty == 0 or cfg.mispredict_penalty == 0:
            self.restart = self._layout(imiss | (ended > 0), False)
        base = np.arange(L, dtype=np.int32) * _SLOTS
        for name, no_reg in (("src1", _NO_SRC), ("src2", _NO_SRC),
                             ("dst", _NO_DST)):
            idx = self._layout(np.asarray(getattr(trace, name)), no_reg,
                               np.int32)
            idx[idx < 0] = no_reg
            idx += base
            setattr(self, name, idx)

    def _layout(self, col, fill, dtype=None):
        """``col`` as an ``(M, L)`` array, lane ``k`` in column ``k``,
        the last lane padded with ``fill``."""
        M, L, n = self.rows, self.lanes, self.n
        out = np.full((M, L), fill, dtype=dtype or col.dtype)
        full = (L - 1) * M
        out.T[:L - 1] = col[:full].reshape(L - 1, M)
        out[:n - full, L - 1] = col[full:]
        return out

    def schedule(self, width: int) -> PipelineResult:
        """Run the lane scheduler at one issue width."""
        n = self.n
        if n == 0:
            return PipelineResult(0, 1, 0, 0, 0)
        M, L = self.rows, self.lanes
        V = min(_VERIFY_ROWS, M)
        # A row fetches into a new cycle once ``slots`` reaches this.
        full_at = self.ended + np.int16(width)

        first = _LaneState(L, self.rob_size)
        self._advance(first, full_at, 0, V)
        first_at_v = first.canonical()
        self._advance(first, full_at, V, M)
        passes = 1
        if L == 1:
            cycles = first.final
        else:
            second = first.seeds()
            self._advance(second, full_at, 0, V)
            passes = 2
            checked = slice(1, L if self.tail > V else L - 1)
            if second.canonical().same(first_at_v, checked):
                took = (second.x.astype(np.int64) + first.x
                        - first_at_v.x)
                last = (second.final if self.tail <= V else
                        int(second.x[-1]) + first.final
                        - int(first_at_v.x[-1]))
                cycles = int(took[:-1].sum()) + last
            else:
                prev, prev_end = first, first.canonical()
                for _ in range(1, L):
                    state = prev.seeds()
                    self._advance(state, full_at, 0, M)
                    passes += 1
                    end = state.canonical()
                    prev, stable = state, end.same(prev_end,
                                                  slice(0, L - 1))
                    prev_end = end
                    if stable:
                        break
                cycles = int(prev.x[:-1].astype(np.int64).sum()) + prev.final
        TRACER.add("pipeline.lane_passes", passes)
        return PipelineResult(n, cycles, self.mispredicts, self.imisses,
                              self.dmisses)

    def _advance(self, state, full_at, lo, hi) -> None:
        """Step every lane over rows ``lo..hi-1``, noting the last
        lane's final cycle count when it passes its last real row."""
        if lo < self.tail <= hi:
            self._steps(state, full_at, lo, self.tail)
            state.final = max(int(state.x[-1]) + self.last_redirect,
                              int(state.last[-1]))
            lo = self.tail
        self._steps(state, full_at, lo, hi)

    def _steps(self, state, full_at, lo, hi) -> None:
        # ``x`` is the scalar loop's ``cycle`` after a row, less that
        # row's redirect (the next row's ``pre``).  ``ready`` holds
        # done - 1: a dependent row raises ``cycle`` to at least that.
        x, slots, rob, last = state.x, state.s, state.rob, state.last
        ready = state.ready.reshape(-1)
        nrob = len(rob)
        pre, lat, restart = self.pre, self.lat, self.restart
        src1, src2, dst = self.src1, self.src2, self.dst
        for j in range(lo, hi):
            c = x + pre[j]
            c += slots >= full_at[j]
            done = rob[j % nrob]
            np.maximum(c, done, out=c)
            np.maximum(c, ready.take(src1[j]), out=c)
            np.maximum(c, ready.take(src2[j]), out=c)
            new_group = c > x
            if restart is not None:
                new_group |= restart[j]
            slots += 1
            slots[new_group] = 1
            finish = c + lat[j]
            ready[dst[j]] = finish
            np.add(finish, 1, out=done)
            np.maximum(last, done, out=last)
            x = c
        state.x = x


class _LaneState:
    """Scheduler state of every lane, each in its own cycle frame."""

    __slots__ = ("x", "s", "ready", "rob", "last", "final")

    def __init__(self, lanes: int, rob_size: int) -> None:
        self.x = np.zeros(lanes, dtype=np.int32)
        self.s = np.zeros(lanes, dtype=np.int16)
        self.ready = np.zeros((lanes, _SLOTS), dtype=np.int32)
        self.rob = np.zeros((rob_size, lanes), dtype=np.int32)
        self.last = np.zeros(lanes, dtype=np.int32)
        self.final = 0

    def canonical(self) -> "_LaneState":
        """Every time relative to its lane's cycle, clipped at the
        threshold below which it has no effect; ``x`` keeps the
        cycle."""
        out = _LaneState.__new__(_LaneState)
        x = self.x
        out.x = x.copy()
        out.s = self.s.copy()
        out.ready = np.maximum(self.ready - x[:, None], 0)
        out.ready[:, _NO_DST] = 0
        out.rob = np.maximum(self.rob - x, 0)
        out.last = np.maximum(self.last - x, 0)
        return out

    def same(self, other: "_LaneState", lanes: slice) -> bool:
        """Canonical states equal on ``lanes``."""
        return (np.array_equal(self.s[lanes], other.s[lanes])
                and np.array_equal(self.ready[lanes], other.ready[lanes])
                and np.array_equal(self.rob[:, lanes], other.rob[:, lanes])
                and np.array_equal(self.last[lanes], other.last[lanes]))

    def seeds(self) -> "_LaneState":
        """Start states for the next pass: lane ``k`` starts from lane
        ``k - 1``'s canonical end state, lane 0 from the empty state."""
        end = self.canonical()
        out = _LaneState(len(self.x), len(self.rob))
        out.s[1:] = end.s[:-1]
        out.ready[1:] = end.ready[:-1]
        out.rob[:, 1:] = end.rob[:, :-1]
        out.last[1:] = end.last[:-1]
        return out


def ipc_by_width(trace, widths=(1, 2, 4, 8), **kwargs) -> dict[int, PipelineResult]:
    """Figure 9's sweep: IPC at several issue widths.

    Under the vector kernel the width-independent inputs (cache misses,
    branch outcomes, latencies) are computed once and only the lane
    scheduler runs per width.
    """
    if active_kernel() == "vector":
        inputs = _LaneInputs(trace, PipelineConfig(**kwargs))
        return {w: inputs.schedule(w) for w in widths}
    return {
        w: simulate_pipeline(trace, PipelineConfig(width=w, **kwargs))
        for w in widths
    }
