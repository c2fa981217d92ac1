"""Host-time ledger: spans around the benchmark's calls into each layer,
and the tally of what each pass counted and checked.

Every layer call the benchmark makes is wrapped in :meth:`Ledger.span`,
which records ``(name, start, end, parent, op)`` in memory.  The spans
are cheap enough to keep in every pass; the traced run additionally
switches on the program's own ``repro.obs`` tracer, whose events are
folded into the innermost open span when it closes, so a ``vm.run``
span learns how its time split into interpreter dispatch, compiled
execution, JIT translate and install.

Self time is a span's duration minus the durations of its children.
Each span name belongs to one module of the program (:data:`MODULE_OF`),
which is how the traced run's self-time table is keyed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: Span name -> the program module whose public function it wraps.
MODULE_OF = {
    "op": "bench",
    "workloads.build": "workloads",
    "traffic.codegen": "traffic.codegen",
    "traffic.schedule": "traffic",
    "traffic.reduce": "traffic",
    "vm.run": "vm",
    "cache.lookup": "analysis.cache",
    "cache.store": "analysis.cache",
    "replay.decode": "analysis.replay",
    "caches.sim": "arch.caches",
    "branch.sim": "arch.branch",
    "pipeline.sim": "arch.pipeline",
}

#: Events of the program's own tracer that the ledger keeps (summed per
#: span).  ``vm.jit.translate``/``install`` run inside bytecode
#: handlers, so they nest inside the dispatch/execute buckets.
OBS_EVENTS = ("vm.interp.dispatch", "vm.jit.execute", "vm.jit.translate",
              "vm.jit.install", "cache.lock_wait")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "obs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.obs: dict[str, float] = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "obs": self.obs}


class Ledger:
    """In-memory span list for one pass."""

    def __init__(self, tracer=None) -> None:
        #: ``repro.obs.TRACER`` when the program's tracer is on, else None.
        self.tracer = tracer
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        sp = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(sp)
        self._stack.append(index)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if self.tracer is not None:
                self._fold_obs(sp)

    def _fold_obs(self, sp: Span) -> None:
        for event in self.tracer.drain()["events"]:
            name = event["name"]
            if name in OBS_EVENTS:
                sp.obs[name] = sp.obs.get(name, 0.0) + event["dur"]

    # -- reductions ----------------------------------------------------
    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(sp.dur for sp in self.spans if sp.name == name)

    def obs_seconds(self, event: str) -> float:
        return sum(sp.obs.get(event, 0.0) for sp in self.spans)

    def covered_seconds(self) -> float:
        """Time inside layer calls (the direct children of op spans)."""
        return sum(sp.dur for sp in self.spans
                   if sp.parent is not None
                   and self.spans[sp.parent].name == "op")

    def self_seconds(self) -> dict[str, float]:
        """Self time per module; ``vm`` is split by the tracer's events.

        ``vm.run`` self time (its duration, as it has no benchmark child
        spans) becomes ``vm.stepper`` (dispatch + execute handlers minus
        the translate/install work nested inside them), the translate
        and install rows, and ``vm.run.other`` (everything in the run
        outside bytecode handlers: the stepper loop's own bookkeeping,
        scheduling, VM set-up, result and trace freeze).  Without tracer events the whole run is ``vm.stepper``.
        """
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.dur
        out: dict[str, float] = {}

        def add(module, seconds):
            out[module] = out.get(module, 0.0) + seconds

        for i, sp in enumerate(self.spans):
            own = sp.dur - child[i]
            if sp.name != "vm.run":
                add(MODULE_OF.get(sp.name, sp.name), own)
                continue
            handlers = (sp.obs.get("vm.interp.dispatch", 0.0)
                        + sp.obs.get("vm.jit.execute", 0.0))
            if not handlers:
                add("vm.stepper", own)
                continue
            translate = sp.obs.get("vm.jit.translate", 0.0)
            install = sp.obs.get("vm.jit.install", 0.0)
            add("vm.stepper", handlers - translate - install)
            add("vm.jit.translate", translate)
            add("vm.jit.install", install)
            add("vm.run.other", own - handlers)
        return out

    def write(self, fh, **meta) -> None:
        """Append the spans as JSON lines, each tagged with ``meta``."""
        for i, sp in enumerate(self.spans):
            fh.write(json.dumps({**meta, **sp.to_dict(i)}) + "\n")


class Tally:
    """Counts, digests and failures of one pass."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = {}
        self.digests: dict[str, dict] = {}
        self.failures: list[tuple[str, str]] = []

    def add(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def fail(self, key: str, message: str) -> None:
        self.failures.append((key, message))
