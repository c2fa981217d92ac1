#!/usr/bin/env python3
"""The repository benchmark: host time of the paper's three pipelines.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trace-record --seed 0 \\
        --seconds 25 --trace 0

Workloads are ``trace-record``, ``trace-replay`` and ``server-api``
(see ``scenarios.py`` and ``README.md``).  The run times
:data:`SETUP_REPEATS` set-ups, each in a fresh process, and reports
their median as ``setup_s``; it then sets up untimed in this process
and measures whole passes, closed loop, as long as the next pass
should end within ``--seconds`` (at least one), and reports their
median.  Host times are reference seconds: wall seconds at the
machine's nominal speed, which ``speed.py`` samples while it measures.
It checks every output and prints every metric by name and unit.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the
measuring time between untraced and traced passes (the program's
``repro.obs`` tracer on) and reports the per-layer metrics, a self-time
table per module, the share of untraced wall time the layer calls
cover, and the tracing overhead; its spans are written to
``.bench_build/perfbench/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

from ledger import Ledger, Tally
from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Environment switches of the program that would change what is
#: measured (kernel choice, tracer, fault injection, shared caches).
PROGRAM_ENV = ("REPRO_SIM_KERNEL", "REPRO_OBS", "REPRO_FAULTS",
               "REPRO_CODE_ARCHIVE", "REPRO_TRACE_CACHE")

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "host_ns_per_native_insn": "ns",
    "host_ns_per_bytecode": "ns",
    "host_us_per_request": "us",
    "peak_rss_mb": "MB",
}

#: Self-time table rows, one per program module (``vm`` split by the
#: program's tracer events); ``native`` is the counting-sink twin
#: estimate, which lies inside ``vm`` rather than beside it.
SELF_MODULES = ("bench", "workloads", "traffic.codegen", "vm.run.other",
                "vm.stepper", "vm.jit.translate", "vm.jit.install",
                "native", "analysis.cache", "analysis.replay", "arch.caches",
                "arch.branch", "arch.pipeline", "traffic")

PER_LAYER = {
    "workloads.build_s": "s",
    "traffic.codegen_s": "s",
    "vm.run_s": "s",
    "vm.dispatch_s": "s",
    "vm.execute_s": "s",
    "vm.translate_s": "s",
    "vm.install_s": "s",
    "vm.bytecodes": "count",
    "vm.native_insns": "count",
    "vm.ns_per_bytecode": "ns",
    "vm.methods_compiled": "count",
    "vm.translate_cycles": "cycles",
    "vm.install_cycles": "cycles",
    "tiering.promotions": "count",
    "tiering.deopts": "count",
    "sync.acquires": "count",
    "sync.cycles": "cycles",
    "native.record_ns_per_insn": "ns",
    "native.trace_mb": "MB",
    "cache.store_s": "s",
    "cache.load_s": "s",
    "cache.bytes": "bytes",
    "cache.hit_ratio": "ratio",
    "cache.lock_wait_s": "s",
    "replay.decode_s": "s",
    "caches.sim_s": "s",
    "caches.refs": "count",
    "caches.ns_per_ref": "ns",
    "branch.sim_s": "s",
    "branch.transfers": "count",
    "branch.ns_per_transfer": "ns",
    "pipeline.sim_s": "s",
    "pipeline.ns_per_insn": "ns",
    "traffic.schedule_s": "s",
    "traffic.reduce_s": "s",
    "traffic.requests": "count",
    "traffic.blocked_polls": "count",
    "traffic.sojourn_p99_cycles": "cycles",
    "traffic.cold_start_p99_cycles": "cycles",
    **{f"self.{m}_s": "s" for m in SELF_MODULES},
    "bench.coverage": "ratio",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
    "error_rate": "ratio",
    "sim_drift": "count",
}

#: Units whose values the simulation fixes exactly; they repeat run to run.
COUNT_UNITS = ("count", "cycles", "bytes")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("trace-record", "trace-replay", "server-api"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the fresh process of one timed set-up.
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- passes --------------------------------------------------------------

class Pass:
    """One pass: its ledger (spans), tally (counts, digests, checks) and
    clock, from the start of ``begin_pass`` to the end of ``end_pass``,
    output checks included.

    ``wall`` is the pass's wall seconds and ``ref`` its reference
    seconds: seconds at the machine's nominal speed, without the speed
    samples' own time (see ``speed.py``).
    """

    def __init__(self, ledger, tally, traced: bool, clock) -> None:
        self.ledger = ledger
        self.tally = tally
        self.traced = traced
        self.wall = clock.wall
        self.ref = clock.reference_seconds
        self.speed = clock.speed

    @property
    def failed_keys(self) -> set:
        return {key for key, _ in self.tally.failures}


def run_passes(wl, rng, budget: float, tracer) -> list:
    """Closed loop: each operation starts when the previous returns.

    After each operation its results are dropped and the garbage
    collector runs, inside the pass clock, so that the heap one
    operation leaves does not depend on the seed's visit order (without
    it ``peak_rss_mb`` moves with the order by about a fifth).
    """
    passes: list[Pass] = []
    measured = 0.0
    # Start another pass only if it should end within the budget.
    while not passes or measured * (len(passes) + 1) / len(passes) <= budget:
        ledger, tally = Ledger(tracer), Tally()
        with SpeedSampler() as clock:
            wl.begin_pass()
            for key in wl.pass_ops(rng):
                ledger.op = key
                tally.add("ops", 1)
                try:
                    with ledger.span("op"):
                        raw = wl.run_op(key, ledger)
                    tally.digests[key] = wl.check(key, raw, tally)
                except Exception:  # an operation failing is a result
                    traceback.print_exc(file=sys.stderr)
                    tally.fail(key, "raised")
                raw = None
                gc.collect()
            wl.end_pass(tally)
        passes.append(Pass(ledger, tally, tracer is not None, clock))
        measured += passes[-1].wall
    return passes


# -- correctness ---------------------------------------------------------

def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def expected_digests(expected: dict, workload: str, seed: int) -> dict | None:
    """Expected digests of ``workload``: per (program, mode) pair the
    seed-independent record digests, or the rows recorded and the replay
    results; for ``server-api`` the entry of ``seed`` (``None`` when the
    file does not cover it)."""
    if workload == "server-api":
        entry = expected["server-api"].get(str(seed))
        return None if entry is None else {"api": entry}
    if workload == "trace-replay":
        return {key: {"rows": record["instructions"],
                      "replay": expected["trace-replay"][key]}
                for key, record in expected["trace-record"].items()}
    return expected["trace-record"]


def drifted_keys(passes, expected, workload) -> set:
    """Keys whose simulated-result digest differs from the expected file.

    Two mismatches are also wrong outputs: replay results (the expected
    ones come from the scalar reference kernels) and the server's stdout
    (the expected one was checked against the interpreter).
    """
    drifted = set()
    if expected is None:
        return drifted
    for p in passes:
        for key, digest in p.tally.digests.items():
            want = expected.get(key)
            if want == digest:
                continue
            drifted.add(key)
            if workload == "trace-replay" and (
                    want is None or want["replay"] != digest["replay"]):
                p.tally.fail(key, "replay results differ from the "
                                  "scalar reference")
            elif workload == "server-api" and (
                    want is None or want["stdout"] != digest["stdout"]):
                p.tally.fail(key, "stdout differs from the interpreter's")
    return drifted


# -- metrics -------------------------------------------------------------

def end_to_end_metrics(wl, passes, setup_s) -> dict:
    """Medians over the passes of their reference seconds, per pass and
    per unit of work."""
    walls, native, bytecode, request = [], [], [], []
    for p in passes:
        units = wl.units(p.tally.counts)
        walls.append(p.ref)
        native.append(1e9 * _ratio(p.ref, units["native"]))
        bytecode.append(1e9 * _ratio(p.ref, units["bytecodes"]))
        request.append(1e6 * _ratio(p.ref, units["requests"]))
    median = statistics.median
    return {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "host_ns_per_native_insn": median(native),
        "host_ns_per_bytecode": median(bytecode),
        "host_us_per_request": median(request),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def pass_layer_metrics(p: Pass) -> dict:
    led, c = p.ledger, p.tally.counts
    s = led.seconds
    get = c.get
    hits, misses = get("cache.hits", 0), get("cache.misses", 0)
    self_s = led.self_seconds()
    m = {
        "workloads.build_s": s("workloads.build"),
        "traffic.codegen_s": s("traffic.codegen"),
        "vm.run_s": s("vm.run"),
        "vm.dispatch_s": led.obs_seconds("vm.interp.dispatch"),
        "vm.execute_s": led.obs_seconds("vm.jit.execute"),
        "vm.translate_s": led.obs_seconds("vm.jit.translate"),
        "vm.install_s": led.obs_seconds("vm.jit.install"),
        "vm.ns_per_bytecode": 1e9 * _ratio(s("vm.run"),
                                           get("vm.bytecodes", 0)),
        "native.trace_mb": get("native.trace_bytes", 0) / 1e6,
        "cache.store_s": s("cache.store"),
        "cache.load_s": s("cache.lookup"),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.lock_wait_s": led.obs_seconds("cache.lock_wait"),
        "replay.decode_s": s("replay.decode"),
        "caches.sim_s": s("caches.sim"),
        "caches.ns_per_ref": 1e9 * _ratio(s("caches.sim"),
                                          get("caches.refs", 0)),
        "branch.sim_s": s("branch.sim"),
        "branch.ns_per_transfer": 1e9 * _ratio(s("branch.sim"),
                                               get("branch.transfers", 0)),
        "pipeline.sim_s": s("pipeline.sim"),
        "pipeline.ns_per_insn": 1e9 * _ratio(s("pipeline.sim"),
                                             get("pipeline.insns", 0)),
        "traffic.schedule_s": s("traffic.schedule"),
        "traffic.reduce_s": s("traffic.reduce"),
    }
    for name, unit in PER_LAYER.items():
        if unit in COUNT_UNITS and name != "sim_drift":
            m[name] = get(name, 0)
    for module in SELF_MODULES:
        m[f"self.{module}_s"] = self_s.get(module, 0.0)
    return m


def native_twin(wl, untraced, tally) -> float:
    """Seconds the recording sink and trace freeze add to ``vm.run``.

    Re-runs every (program, mode) with the counting sink and subtracts
    its time from the same pair's recording ``vm.run`` in the first
    untraced pass.  The twin's time is taken at that pass's machine
    speed, so that a change of speed between the two does not count.
    The simulation must not notice the sink.
    """
    first = untraced[0]
    record_s = {}
    for sp in first.ledger.spans:
        if sp.name == "vm.run":
            record_s[sp.op] = record_s.get(sp.op, 0.0) + sp.dur
    digests = first.tally.digests
    total = 0.0
    for key in sorted(record_s):
        twin_ref, twin = wl.counting_twin(key)
        total += record_s[key] - twin_ref / first.speed
        want = digests.get(key)
        if want is not None and (twin.cycles, twin.instructions) != (
                want["cycles"], want["instructions"]):
            tally.fail(key, "counting sink and recording sink disagree")
    return total


def layer_metrics(untraced, traced, twin_s) -> dict:
    per_pass = [pass_layer_metrics(p) for p in traced]
    m = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
    for name, unit in PER_LAYER.items():
        if unit in COUNT_UNITS and name in m:
            m[name] = int(round(m[name]))
    rows = traced[0].tally.counts.get("native.trace_rows", 0)
    m["native.record_ns_per_insn"] = 1e9 * _ratio(twin_s, rows)
    m["self.native_s"] = twin_s
    m["bench.coverage"] = statistics.median(
        _ratio(p.ledger.covered_seconds(), p.wall) for p in untraced)
    traced_wall = statistics.median(p.ref for p in traced)
    m["bench.traced_wall_s"] = traced_wall
    m["bench.trace_overhead_s"] = traced_wall - statistics.median(
        p.ref for p in untraced)
    return m


# -- output --------------------------------------------------------------

def print_self_table(workload, m, traced_wall, untraced_ref) -> None:
    """Self seconds per module of the median traced pass, as shares of
    its wall seconds; the tracing overhead in reference seconds."""
    overhead = m["bench.trace_overhead_s"]
    print(f"self time by module, {workload}, traced pass "
          f"(wall {traced_wall:.3f} s; at nominal speed "
          f"{m['bench.traced_wall_s']:.3f} s traced, {untraced_ref:.3f} s "
          f"untraced: tracing overhead {overhead:+.3f} s = "
          f"{100 * _ratio(overhead, untraced_ref):+.1f}%)")
    print(f"  {'module':<20}{'self_s':>10}{'share':>9}")
    for module in SELF_MODULES:
        value = m[f"self.{module}_s"]
        note = "  (inside vm; counting-sink twin)" if module == "native" \
            else ""
        print(f"  {module:<20}{value:>10.4f}"
              f"{100 * _ratio(value, traced_wall):>8.1f}%{note}")
    print(f"  layer calls cover {100 * m['bench.coverage']:.2f}% of "
          "untraced pass wall time")


def timed_setups(args, workdir: str) -> list[float]:
    """Reference seconds of :data:`SETUP_REPEATS` set-ups, each a fresh
    process: interpreter start, imports, workload builds, the untimed
    warm-up operation.  The process samples the machine's speed and
    reports it, with the time its samples took, on its last line."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only",
             workdir],
            stdout=subprocess.PIPE, text=True, check=True)
        wall = time.perf_counter() - started
        clock = json.loads(proc.stdout.splitlines()[-1])
        times.append((wall - clock["spent"]) * clock["speed"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(EXPECTED_PATH):
        print(f"perfbench: missing {EXPECTED_PATH}", file=sys.stderr)
        return 2
    for var in PROGRAM_ENV:
        os.environ.pop(var, None)
    # A terminated run still stops its set-up process and removes its
    # scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, SRC)
    if args.setup_only:
        with SpeedSampler() as clock:
            import scenarios
            wl = scenarios.WORKLOADS[args.workload](args.seed,
                                                    args.setup_only)
            wl.setup(Ledger())
        print(json.dumps({"spent": clock.spent, "speed": clock.speed}))
        return 0
    import scenarios

    from repro.obs import TRACER

    workdir = os.path.join(BUILD_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = timed_setups(args, workdir)
        wl = scenarios.WORKLOADS[args.workload](args.seed, workdir)
        wl.setup(Ledger())
        expected = expected_digests(load_expected(), args.workload,
                                    args.seed)

        rng = random.Random(args.seed)
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run_passes(wl, rng, budget, None)
        traced, twin_s = [], 0.0
        final = Tally()
        if args.trace:
            TRACER.reset()
            TRACER.enable()
            try:
                traced = run_passes(wl, rng, budget, TRACER)
            finally:
                TRACER.disable()
                TRACER.reset()
            if hasattr(wl, "counting_twin"):
                twin_s = native_twin(wl, untraced, final)
        if hasattr(wl, "finish") and expected is None:
            final.add("ops", 1)
            try:
                wl.finish(Ledger(), final)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                final.fail("finish", "raised")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    drift = drifted_keys(passes, expected, args.workload)
    attempted = sum(p.tally.counts.get("ops", 0) for p in passes) \
        + final.counts.get("ops", 0)
    failed = sum(len(p.failed_keys) for p in passes) \
        + len({k for k, _ in final.failures})
    for key, message in [f for p in passes for f in p.tally.failures] \
            + final.failures:
        print(f"perfbench: FAILED {key}: {message}", file=sys.stderr)

    head = (f"perfbench {args.workload} seed={args.seed} "
            f"trace={args.trace}: {len(untraced)} untraced + {len(traced)} "
            f"traced pass(es), {attempted} ops, {failed} failed, "
            f"sim_drift {len(drift)}; set-ups "
            + ", ".join(f"{t:.3f}" for t in setups) + " s; untraced "
            f"pass median {statistics.median(p.wall for p in untraced):.3f}"
            f" s wall, {statistics.median(p.ref for p in untraced):.3f} s at "
            f"nominal speed (machine speed "
            f"{min(p.speed for p in untraced):.2f} to "
            f"{max(p.speed for p in untraced):.2f} of nominal)")
    if expected is None:
        head += (" (seed not in expected.json: digests checked across "
                 "passes and against the interpreter)")
    print(head)
    if args.trace:
        values = layer_metrics(untraced, traced, twin_s)
        values["error_rate"] = _ratio(failed, attempted)
        values["sim_drift"] = len(drift)
        units = PER_LAYER
        print_self_table(args.workload, values,
                         statistics.median(p.wall for p in traced),
                         statistics.median(p.ref for p in untraced))
    else:
        values = end_to_end_metrics(wl, untraced,
                                    statistics.median(setups))
        units = END_TO_END
        print(f"  error_rate = {_ratio(failed, attempted)!r} ratio")
        print(f"  sim_drift = {len(drift)} count")
    for name in units:
        print(f"  {name} = {values[name]!r} {units[name]}")
    if args.trace:
        os.makedirs(BUILD_DIR, exist_ok=True)
        spans_path = os.path.join(
            BUILD_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_path, "w") as fh:
            for i, p in enumerate(passes):
                p.ledger.write(fh, pass_index=i, traced=p.traced)
    print(json.dumps({
        "correct": failed == 0 and not drift,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
