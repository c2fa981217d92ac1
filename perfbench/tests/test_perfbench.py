"""The benchmark's own tests: declared metrics, one-pass smoke runs,
repeatable counts.  Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests

Each workload runs three times, one pass per phase; about two minutes
in all.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("trace-record", "trace-replay", "server-api")

sys.path.insert(0, BENCH)
import run  # noqa: E402


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int = 0,
          repeat: int = 0) -> tuple[dict, list]:
    """(final JSON object, printed ``(name, value, unit)`` metric lines)
    of one short run; ``repeat`` asks for another run of the same args."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = [(f[0], f[2], f[3]) for f in map(str.split, lines[:-1])
               if len(f) == 4 and f[1] == "="]
    return json.loads(lines[-1]), printed


def test_declared_metrics_match_the_code():
    declared = _declared()
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_printed_metric_is_declared(workload, trace):
    declared = _declared()
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    out, printed = bench(workload, trace)
    section = "per_layer" if trace else "end_to_end"
    assert set(out["metrics"]) == {m["name"] for m in declared[section]}
    for name, metric in out["metrics"].items():
        assert metric["unit"] == units[name]
    for name, _, unit in printed:
        if name in units:
            assert units[name] == unit, name
    printed_names = {name for name, _, _ in printed}
    assert printed_names <= set(units)
    assert set(out["metrics"]) <= printed_names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_is_correct(workload):
    out, _ = bench(workload, 1)
    m = out["metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert m["error_rate"]["value"] == 0
    assert m["sim_drift"]["value"] == 0
    # Layer calls cover the pass clock, output checks included.
    assert m["bench.coverage"]["value"] >= 0.9
    plain, _ = bench(workload, 0)
    assert plain["correct"] and plain["failed"] == 0
    assert all(v["value"] > 0 for v in plain["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_exactly(workload):
    first, _ = bench(workload, 1)
    # The seed only orders the trace workloads' visits, so their counts
    # must not move with it; it sets the server's schedule, so the
    # server reruns its own seed.
    if workload == "server-api":
        second, _ = bench(workload, 1, repeat=1)
    else:
        second, _ = bench(workload, 1, seed=1)
    for name, unit in run.PER_LAYER.items():
        if unit in run.COUNT_UNITS:
            assert first["metrics"][name]["value"] == \
                second["metrics"][name]["value"], name


def test_without_sources_exits_nonzero(tmp_path):
    """A directory holding only the benchmark cannot run it."""
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            with open(os.path.join(BENCH, name), "rb") as src:
                (tmp_path / "perfbench" / name).write_bytes(src.read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as src:
        (tmp_path / "BENCHMARK.json").write_bytes(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "server-api",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_speed_sampler_converts_a_window():
    """The sampler samples through a window, leaves its own time out and
    restores the previous SIGALRM handler."""
    import signal
    import time

    from speed import PERIOD_S, SpeedSampler

    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as clock:
        end = time.perf_counter() + 6 * PERIOD_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(clock.speeds) >= 5
    assert 0 < clock.spent < clock.wall
    assert clock.seconds == clock.wall - clock.spent
    assert clock.reference_seconds == clock.seconds * clock.speed > 0
