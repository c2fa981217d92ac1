"""The benchmark's three workloads, one operation at a time.

Each workload calls the program's public layer functions itself, in
the order ``analysis.runner.get_trace`` and ``traffic.engine.run_scenario``
call them, so that every layer call gets its own span in the
:class:`~ledger.Ledger`:

``trace-record``
    What a first ``repro.experiments`` run pays before it draws a
    figure: for every SPEC program in ``interp`` and ``jit`` mode, build
    it, run ``JavaVM(record=True)`` and store the trace in an empty
    trace cache.  Loads VM dispatch, first-use JIT translate, recording
    sink emission and the cache writes; the simulators do nothing.
``trace-replay``
    The same traces, recorded once in set-up; each operation loads one
    from disk, decodes it and replays it through a fixed mix of the
    paper's cache, branch and pipeline configurations.  The VM does
    nothing.
``server-api``
    The ``api`` traffic preset (:data:`REQUESTS` requests), closed loop,
    4 simulated worker threads (green threads of the simulated VM),
    under the ``tiered`` ladder: counting sink, tier-up, contended
    monitors; no trace, no disk I/O, no simulator.

The seed orders the (program, mode) visits and seeds the traffic
schedule.  Every operation returns the raw results; :meth:`check`
turns them into counts, simulated-result digests and failure messages,
outside the layer calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

from ledger import Tally
from speed import SpeedSampler
from repro.analysis import cache
from repro.analysis.replay import TraceReplay
from repro.analysis.runner import make_strategy
from repro.arch.branch import compare_predictors
from repro.arch.caches import simulate_split_l1
from repro.arch.pipeline import PipelineConfig, simulate_pipeline
from repro.sync import LOCK_MANAGERS
from repro.traffic.codegen import build_program
from repro.traffic.engine import DEFAULT_WINDOWS, RequestTracker, TrafficResult
from repro.traffic.spec import get_preset
from repro.vm.machine import JavaVM
from repro.workloads.base import SPEC_BENCHMARKS, get_workload

#: Input sizes.  The SPEC programs run at ``s0``: a pass over all 14
#: (program, mode) pairs then takes a few seconds, so one run measures
#: several passes (at the paper's ``s1`` one pass of recording and
#: replay takes longer than a run).  A server pass is one scenario run.
SCALE = "s0"
REQUESTS = 15000
#: The server's untimed warm-up scenario in set-up.
SETUP_REQUESTS = 400

MODES = ("interp", "jit")
PAIRS = tuple(f"{prog}/{mode}" for prog in SPEC_BENCHMARKS for mode in MODES)

#: Replay mix: table3's split L1, fig3's direct-mapped D-cache and the
#: fig7 8K associativity sweep; the four table2 predictors; one 4-wide
#: pipeline.  Chosen so no simulator takes much more than half a pass.
CACHE_CONFIGS = (
    ("table3", {}),
    ("fig3-dm", {"dcache": {"assoc": 1}}),
) + tuple(
    (f"fig7-8k-{a}w", {"icache": {"size": 8 << 10, "assoc": a},
                       "dcache": {"size": 8 << 10, "assoc": a}})
    for a in (1, 2, 4, 8)
)
PREDICTORS = ("2bit", "bht", "gshare", "gap")
PIPELINE_WIDTH = 4
#: Simulator configurations each trace is replayed through.
REPLAY_CONFIGS = len(CACHE_CONFIGS) + len(PREDICTORS) + 1

SERVER_MODE = "tiered"
STEADY_WINDOW, STEADY_CV = 5, 0.10


def _sha256_json(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


TRACE_COLUMNS = ("pc", "cat", "ea", "flags", "target", "dst", "src1", "src2")


def trace_sha256(trace) -> str:
    """sha256 over the trace's columns, in column order."""
    h = hashlib.sha256()
    for col in TRACE_COLUMNS:
        h.update(np.ascontiguousarray(getattr(trace, col)).data)
    return h.hexdigest()


def _vm_counts(tally: Tally, r) -> None:
    tally.add("vm.bytecodes", r.bytecodes_executed)
    tally.add("vm.native_insns", r.instructions)
    tally.add("vm.methods_compiled", r.methods_compiled)
    tally.add("vm.translate_cycles", r.translate_cycles)
    tally.add("vm.install_cycles", r.install_cycles)
    tiering = r.tiering or {}
    tally.add("tiering.promotions", tiering.get("promotions_t1", 0)
              + tiering.get("promotions_t2", 0))
    tally.add("tiering.deopts", tiering.get("deopts", 0))
    tally.add("sync.acquires", r.sync.get("acquire_ops", 0))
    tally.add("sync.cycles", r.sync_cycles)


def _cache_stats_delta(tally: Tally, before: dict) -> None:
    after = cache.STATS.snapshot()
    tally.add("cache.hits", after["trace_hits"] - before["trace_hits"])
    tally.add("cache.misses", after["trace_misses"] - before["trace_misses"])


class Workload:
    """What run.py drives: set-up, then passes of keyed operations.

    Constructed as ``cls(seed, scratch)``, with a scratch directory the
    run owns.  A pass visits every (program, mode) once, in the seed's
    order.
    """

    name = ""

    def pass_ops(self, rng) -> list[str]:
        ops = list(PAIRS)
        rng.shuffle(ops)
        return ops

    def begin_pass(self) -> None:
        pass

    def end_pass(self, tally: Tally | None) -> None:
        pass


class _TraceCache(Workload):
    """The two trace workloads' trace cache, below the run's scratch."""

    def __init__(self, seed: int, scratch: str) -> None:
        self.cache_dir = os.path.join(scratch, "trace-cache")

    def trace_path(self, key: str) -> str:
        prog, mode = key.split("/")
        ckey = cache.cache_key("trace", workload=prog, scale=SCALE,
                               mode=mode)
        return cache.trace_path(self.cache_dir, prog, SCALE, mode, ckey)


class RecordWorkload(_TraceCache):
    name = "trace-record"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self._stdout: dict[str, list] = {}

    # -- set-up and passes ---------------------------------------------
    def setup(self, ledger) -> None:
        """Build every program once and run one warm-up operation
        (lazy templates, stubs and numpy land here), untimed."""
        for prog in SPEC_BENCHMARKS:
            get_workload(prog).build(SCALE)
        self.begin_pass()
        self.run_op("db/jit", ledger)
        self.end_pass(None)

    def begin_pass(self) -> None:
        """Each pass starts from an empty trace cache."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        self._stdout = {}

    @staticmethod
    def _vm(program, mode: str, record: bool) -> JavaVM:
        """The VM ``run_vm`` builds for ``get_trace``."""
        return JavaVM(program, strategy=make_strategy(mode),
                      lock_manager=LOCK_MANAGERS["monitor-cache"](),
                      record=record, profile=False, code_archive="")

    def run_op(self, key: str, ledger):
        """``get_trace`` on an empty cache: lookup (a miss), build,
        record, store."""
        prog, mode = key.split("/")
        path = self.trace_path(key)
        before = cache.STATS.snapshot()
        with ledger.span("cache.lookup"):
            cached = cache.load_trace(path)
        with ledger.span("workloads.build"):
            program = get_workload(prog).build(SCALE)
        with ledger.span("vm.run"):
            result = self._vm(program, mode, record=True).run()
        with ledger.span("cache.store"):
            cache.store_trace(path, result.trace)
        return {"result": result, "path": path, "cached": cached,
                "stats_before": before}

    def check(self, key: str, raw, tally: Tally) -> dict:
        r, trace = raw["result"], raw["result"].trace
        _vm_counts(tally, r)
        _cache_stats_delta(tally, raw["stats_before"])
        tally.add("native.trace_rows", trace.n)
        tally.add("native.trace_bytes", sum(
            getattr(trace, col).nbytes for col in TRACE_COLUMNS))
        tally.add("cache.bytes", os.path.getsize(raw["path"])
                  + os.path.getsize(raw["path"] + ".sha256"))
        if raw["cached"] is not None:
            tally.fail(key, "lookup hit in an empty trace cache")
        if trace.n != r.instructions:
            tally.fail(key, f"trace.n {trace.n} != instructions "
                            f"{r.instructions}")
        if int(r.category_counts.sum()) != r.instructions:
            tally.fail(key, "category counts do not sum to instructions")
        if not np.array_equal(trace.category_counts(), r.category_counts):
            tally.fail(key, "trace category counts differ from the sink's")
        self._stdout[key] = list(r.stdout)
        return {
            "cycles": int(r.cycles),
            "instructions": int(r.instructions),
            "translate_cycles": int(r.translate_cycles),
            "bytecodes": int(r.bytecodes_executed),
            "stdout_sha256": _sha256_json(list(r.stdout)),
            "trace_sha256": trace_sha256(trace),
        }

    def end_pass(self, tally: Tally | None) -> None:
        """jit stdout must equal interp stdout; drop the pass's cache."""
        if tally is not None:
            for prog in SPEC_BENCHMARKS:
                interp = self._stdout.get(f"{prog}/interp")
                jit = self._stdout.get(f"{prog}/jit")
                if interp is not None and jit is not None and interp != jit:
                    tally.fail(f"{prog}/jit", "stdout differs from interp")
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def units(self, counts: dict) -> dict:
        return {"native": counts.get("native.trace_rows", 0),
                "bytecodes": counts.get("vm.bytecodes", 0),
                "requests": counts.get("ops", 0)}

    # -- traced-run extra ----------------------------------------------
    def counting_twin(self, key: str) -> tuple[float, object]:
        """The same run with the counting sink: reference seconds and
        result.

        The difference from the recording run is the cost of the native
        layer's recording sink and trace freeze, which no span outside
        the VM can separate.
        """
        prog, mode = key.split("/")
        program = get_workload(prog).build(SCALE)
        with SpeedSampler() as clock:
            result = self._vm(program, mode, record=False).run()
        return clock.reference_seconds, result


class ReplayWorkload(_TraceCache):
    name = "trace-replay"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        #: Bytecodes each trace stands for, from its recording.
        self.bytecodes: dict[str, int] = {}

    def setup(self, ledger) -> None:
        """Record every trace into an empty cache, as ``trace-record``
        does, then run one warm-up replay, untimed."""
        recorder = RecordWorkload(0, os.path.dirname(self.cache_dir))
        recorder.begin_pass()
        tally = Tally()
        for key in PAIRS:
            raw = recorder.run_op(key, ledger)
            self.bytecodes[key] = recorder.check(key, raw, tally)["bytecodes"]
        if tally.failures:
            raise RuntimeError(f"recording in set-up failed: {tally.failures}")
        self.run_op("db/jit", ledger)

    def run_op(self, key: str, ledger) -> dict:
        """Load the trace, decode it and run the replay mix."""
        before = cache.STATS.snapshot()
        with ledger.span("cache.lookup"):
            trace = cache.load_trace(self.trace_path(key))
        with ledger.span("replay.decode"):
            replay = TraceReplay(trace)
            replay.memory_mask()
            replay.instruction_stream()
            replay.data_stream()
            replay.transfers()
            replay.branch_context()
        caches = []
        for _, cfg in CACHE_CONFIGS:
            with ledger.span("caches.sim"):
                caches.append(simulate_split_l1(replay, **cfg))
        with ledger.span("branch.sim"):
            branch = compare_predictors(replay, names=PREDICTORS)
        with ledger.span("pipeline.sim"):
            pipe = simulate_pipeline(replay,
                                     PipelineConfig(width=PIPELINE_WIDTH))
        return {"n": trace.n, "caches": caches, "branch": branch,
                "pipeline": pipe, "stats_before": before}

    @staticmethod
    def replay_results(raw) -> dict:
        """The replay's simulated results as plain JSON data."""
        def totals(stats):
            return {f: int(np.asarray(getattr(stats, f)).sum())
                    for f in ("refs", "misses", "victim_hits", "write_refs",
                              "write_misses", "compulsory")}
        return {
            "caches": {name: {"icache": totals(res.icache),
                              "dcache": totals(res.dcache)}
                       for (name, _), res in zip(CACHE_CONFIGS,
                                                 raw["caches"])},
            "branch": {name: {k: int(v) for k, v in vars(res).items()}
                       for name, res in raw["branch"].items()},
            "pipeline": {k: int(v) for k, v in vars(raw["pipeline"]).items()},
        }

    def check(self, key: str, raw, tally: Tally) -> dict:
        """The replay digest: rows loaded, and the simulated results."""
        _cache_stats_delta(tally, raw["stats_before"])
        out = self.replay_results(raw)
        n = raw["n"]
        tally.add("native.trace_rows", n)
        tally.add("replay.bytecodes", self.bytecodes[key])
        for name, res in out["caches"].items():
            i, d = res["icache"], res["dcache"]
            tally.add("caches.refs", i["refs"] + d["refs"])
            if i["refs"] != n:
                tally.fail(key, f"{name}: icache refs {i['refs']} != {n}")
        for name, res in out["branch"].items():
            tally.add("branch.transfers", res["transfers"])
        tally.add("pipeline.insns", out["pipeline"]["instructions"])
        if out["pipeline"]["instructions"] != n:
            tally.fail(key, "pipeline instructions != trace rows")
        return {"rows": n, "replay": out}

    def units(self, counts: dict) -> dict:
        """Per instruction and simulator configuration; per bytecode the
        replayed traces stand for; per operation."""
        return {"native": counts.get("native.trace_rows", 0)
                * REPLAY_CONFIGS,
                "bytecodes": counts.get("replay.bytecodes", 0),
                "requests": counts.get("ops", 0)}


class ServerWorkload(Workload):
    name = "server-api"

    def __init__(self, seed: int, scratch: str) -> None:
        self.spec = get_preset("api").replace(requests=REQUESTS, seed=seed)
        self._first: dict | None = None

    def setup(self, ledger) -> None:
        """One untimed scenario run of :data:`SETUP_REQUESTS` requests."""
        self._run(SERVER_MODE, ledger,
                  self.spec.replace(requests=SETUP_REQUESTS))

    def pass_ops(self, rng) -> list[str]:
        """A pass is one scenario run."""
        return ["api"]

    def _run(self, mode, ledger, spec=None):
        """``run_scenario``, one layer call at a time."""
        spec = spec or self.spec
        with ledger.span("traffic.codegen"):
            program = build_program(spec)
        with ledger.span("traffic.schedule"):
            tracker = RequestTracker(spec)
        with ledger.span("vm.run") as sp:
            vm = JavaVM(
                program,
                strategy=make_strategy(mode),
                lock_manager=LOCK_MANAGERS["monitor-cache"](),
                spawn_daemons=False,
                code_archive="",
                max_bytecodes=max(80_000_000, 300 * spec.requests),
            )
            vm.request_source = tracker
            result = vm.run()
        with ledger.span("traffic.reduce"):
            window = max(1, spec.requests // DEFAULT_WINDOWS)
            traffic = TrafficResult(spec, mode, result, tracker, sp.dur,
                                    window, STEADY_WINDOW, STEADY_CV)
            record = traffic.to_dict()
        return {"traffic": traffic, "record": record}

    def run_op(self, key: str, ledger):
        return self._run(SERVER_MODE, ledger)

    def check(self, key: str, raw, tally: Tally) -> dict:
        traffic, rec = raw["traffic"], raw["record"]
        t, r = traffic.tracker, traffic.vm_result
        _vm_counts(tally, r)
        tally.add("traffic.requests", t.n)
        tally.add("traffic.blocked_polls", t.blocked_polls)
        tally.add("traffic.sojourn_p99_cycles",
                  rec["latency_cycles"]["sojourn"]["p99"])
        tally.add("traffic.cold_start_p99_cycles", rec["cold_start"]["p99"])
        if t.completed != self.spec.requests:
            tally.fail(key, f"{t.completed} of {self.spec.requests} "
                            "requests completed")
        if rec["busy_cycles"] + rec["idle_cycles"] != rec["cycles"]:
            tally.fail(key, "busy + idle != cycles")
        if not (np.all(t.arrive <= t.start) and np.all(t.start <= t.end)):
            tally.fail(key, "a request violates arrive <= start <= end")
        simulated = {k: v for k, v in rec.items() if k != "wall_seconds"}
        digest = {
            "cycles": int(rec["cycles"]),
            "stdout": rec["stdout"],
            "sojourn_p99": rec["latency_cycles"]["sojourn"]["p99"],
            "cold_start_p99": rec["cold_start"]["p99"],
            "record_sha256": _sha256_json(simulated),
        }
        if self._first is None:
            self._first = digest
        elif digest != self._first:
            tally.fail(key, "simulated result differs between passes")
        return digest

    def finish(self, ledger, tally: Tally) -> None:
        """Tiered stdout must equal the interpreter's on the same spec.

        Needed only for seeds ``expected.json`` does not cover: its
        stdout was checked against the interpreter when it was written.
        """
        interp = self._run("interp", ledger)["record"]["stdout"]
        if self._first is not None and interp != self._first["stdout"]:
            tally.fail("api/interp", f"tiered stdout {self._first['stdout']}"
                                     f" != interp stdout {interp}")

    def units(self, counts: dict) -> dict:
        return {"native": counts.get("vm.native_insns", 0),
                "bytecodes": counts.get("vm.bytecodes", 0),
                "requests": counts.get("traffic.requests", 0)}


WORKLOADS = {cls.name: cls
             for cls in (RecordWorkload, ReplayWorkload, ServerWorkload)}
