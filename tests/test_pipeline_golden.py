"""Golden pipeline results: Figures 9/10's model on two s0 programs.

The pinned (cycles, mispredicts, imisses, dmisses) come from the scalar
reference loop, so a kernel, front-end or replay-memo change that moves
any simulated cycle fails here under either ``REPRO_SIM_KERNEL``.
"""

import pytest

from repro.analysis.replay import TraceReplay
from repro.analysis.runner import run_vm
from repro.arch.pipeline import PipelineConfig, ipc_by_width, simulate_pipeline

WIDTHS = (1, 4, 8)

#: (program, mode) -> {width: (cycles, mispredicts, imisses, dmisses)}.
GOLDEN = {
    ("db", "interp"): {1: (139832, 5095, 135, 513),
                       4: (82342, 5095, 135, 513),
                       8: (77632, 5095, 135, 513)},
    ("db", "jit"): {1: (114750, 1531, 558, 967),
                    4: (81675, 1531, 558, 967),
                    8: (80568, 1531, 558, 967)},
    ("compress", "interp"): {1: (936461, 35981, 116, 878),
                             4: (529512, 35981, 116, 878),
                             8: (493276, 35981, 116, 878)},
    ("compress", "jit"): {1: (282932, 823, 336, 1109),
                          4: (195088, 823, 336, 1109),
                          8: (193835, 823, 336, 1109)},
}

#: Rows of each trace (= PipelineResult.instructions).
ROWS = {("db", "interp"): 117153, ("db", "jit"): 93407,
        ("compress", "interp"): 806968, ("compress", "jit"): 232801}


def _key(result):
    return (result.cycles, result.mispredicts, result.imisses,
            result.dmisses)


@pytest.mark.parametrize("program,mode", sorted(GOLDEN))
def test_pipeline_golden(program, mode):
    trace = run_vm(program, scale="s0", mode=mode, record=True,
                   cache_dir="", code_archive="").trace
    assert trace.n == ROWS[program, mode]
    results = ipc_by_width(trace, widths=WIDTHS)
    assert {w: _key(r) for w, r in results.items()} == GOLDEN[program, mode]
    assert all(r.instructions == trace.n for r in results.values())
    # A replay (shared branch context and memos) gives the same answer.
    replay = TraceReplay(trace)
    assert (_key(simulate_pipeline(replay, PipelineConfig(width=4)))
            == GOLDEN[program, mode][4])
