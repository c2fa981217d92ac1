#!/usr/bin/env python3
"""Regenerate ``perfbench/expected.json``, the benchmark's expected digests.

Usage, from the root of a checkout::

    python3 perfbench/regen_expected.py

The file holds:

- ``trace-record``: per (program, mode) the simulated cycles,
  instructions, translate cycles, bytecodes, stdout digest and the
  sha256 of the trace columns.  The seed only orders the visits, so
  these do not depend on it.
- ``trace-replay``: per (program, mode) the cache, branch and pipeline
  results of the replay mix, computed by the scalar reference kernels
  (``REPRO_SIM_KERNEL=scalar``).  The benchmark's vector run must equal
  them exactly.
- ``server-api``: keyed by seed (:data:`SEEDS`), the scenario's cycles,
  stdout checksum, tail percentiles and a sha256 of its whole simulated
  record.  The tiered stdout is checked against an interpreter run of
  the same spec before it is written.

``trace-record`` checks the first section; ``trace-replay`` checks the
second, and the instructions of the first as the rows of each trace it
loads.

Regenerate only when a change deliberately re-prices the simulated
model; a host-only speedup must leave this file untouched.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BUILD_DIR, EXPECTED_PATH, PROGRAM_ENV, SRC

#: Server seeds covered: the default seed 0 and held-out ones.
SEEDS = range(16)


def regen(workdir: str) -> dict:
    import scenarios
    from ledger import Ledger, Tally

    tally = Tally()
    record, replay, server = {}, {}, {}
    recorder = scenarios.RecordWorkload(0, workdir)
    replayer = scenarios.ReplayWorkload(0, workdir)
    recorder.begin_pass()
    for key in scenarios.PAIRS:
        record[key] = recorder.check(key, recorder.run_op(key, Ledger()),
                                     tally)
        replayer.bytecodes[key] = record[key]["bytecodes"]
        print(f"  record {key}", flush=True)
    os.environ["REPRO_SIM_KERNEL"] = "scalar"
    try:
        for key in scenarios.PAIRS:
            digest = replayer.check(key, replayer.run_op(key, Ledger()),
                                    tally)
            replay[key] = digest["replay"]
            print(f"  scalar replay {key}", flush=True)
    finally:
        del os.environ["REPRO_SIM_KERNEL"]
    recorder.end_pass(tally)
    for seed in SEEDS:
        wl = scenarios.ServerWorkload(seed, workdir)
        server[str(seed)] = wl.check("api", wl.run_op("api", Ledger()),
                                     tally)
        wl.finish(Ledger(), tally)
        print(f"  server-api seed {seed}", flush=True)
    if tally.failures:
        for key, message in tally.failures:
            print(f"FAILED {key}: {message}", file=sys.stderr)
        raise SystemExit("regen_expected: checks failed; file not written")
    return {"trace-record": record, "trace-replay": replay,
            "server-api": server}


def main() -> int:
    for var in PROGRAM_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, SRC)
    workdir = os.path.join(BUILD_DIR, f"regen-{os.getpid()}")
    os.makedirs(workdir)
    try:
        table = regen(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
