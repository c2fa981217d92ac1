"""Golden trace digests: the recorded native stream of two s0 programs.

The sha256 of the trace columns pins every recorded event, byte for
byte, under the interpreter, the JIT and the folding interpreter.  A
change to the sinks, the templates or the VM that moves any event
fails here.  The runs also check the identities that tie the recorded
trace to the sink's own totals.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.runner import run_vm
from repro.native import CYCLES_BY_CAT

COLUMNS = ("pc", "cat", "ea", "flags", "target", "dst", "src1", "src2")

#: (program, mode, folding) -> sha256 over the columns in COLUMNS order.
GOLDEN = {
    ("db", "interp", False):
        "59f75ea3448f2dae2ccbe53d93483ff6f2d2b2fc4b4d9200b5e1bcbb957497d1",
    ("db", "jit", False):
        "62f15235f97e2e8b0dfb62c0776c3af05e0ff9f3e67e136e83ca95a733b91b6d",
    ("db", "interp", True):
        "9c772a8c90eac9d1f43df827c4c220a2e1cf1af493e2f5ac5a13f5f9aab965f7",
    ("compress", "interp", False):
        "d777f68768bcf2ece783bb2c5772eb77647b3167e80d9da4c27b8cefa9181a0a",
    ("compress", "jit", False):
        "9724a6a65d904a0b562ebb0330dbea03b39365be7232852d2dc06ece9eb6fbc8",
    ("compress", "interp", True):
        "7620bc8d6f30b8b9f0e8fb1b72679a763260f2f838e226af8c9a014b97fa8fc3",
}


def trace_sha256(trace) -> str:
    h = hashlib.sha256()
    for c in COLUMNS:
        h.update(np.ascontiguousarray(getattr(trace, c)).data)
    return h.hexdigest()


@pytest.mark.parametrize("program,mode,folding", sorted(GOLDEN))
def test_trace_digest(program, mode, folding):
    r = run_vm(program, scale="s0", mode=mode, record=True, folding=folding,
               cache_dir="", code_archive="")
    trace = r.trace
    assert trace_sha256(trace) == GOLDEN[program, mode, folding]
    assert trace.n == r.instructions
    assert np.array_equal(trace.category_counts(), r.category_counts)
    translate_rows = trace.cat[trace.in_translate]
    assert int(CYCLES_BY_CAT[translate_rows].sum()) == r.translate_cycles
