"""Native layer: layout, templates, trace recording."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.native import (
    CYCLES_BY_CAT,
    CountingSink,
    FLAG_TAKEN,
    FLAG_TRANSLATE,
    FLAG_WRITE,
    NCat,
    PATCH,
    RecordingSink,
    Template,
    TemplateBuilder,
    TextRegion,
    Trace,
    concat_templates,
    mix_bucket,
    region_name,
)
from repro.native.layout import (
    BYTECODE_BASE,
    CODE_CACHE_BASE,
    HEAP_BASE,
    INTERP_TEXT_BASE,
    NATIVE_INSTR_BYTES,
    thread_stack_base,
)
from repro.native.nisa import FLAG_SYNC, N_CATEGORIES

COLUMNS = ("pc", "cat", "ea", "flags", "target", "dst", "src1", "src2")
DTYPES = {"pc": np.int64, "cat": np.int16, "ea": np.int64, "flags": np.int16,
          "target": np.int64, "dst": np.int16, "src1": np.int16,
          "src2": np.int16}


class ReferenceRecorder:
    """Test-only oracle: the recorder that writes every emission into
    growable numpy columns with slice assignments, and counts eagerly.

    :class:`RecordingSink` must produce byte-identical columns and the
    same totals.
    """

    def __init__(self) -> None:
        self.cycles = 0
        self.translate_cycles = 0
        self.cat_counts = np.zeros(N_CATEGORIES, dtype=np.int64)
        self.instructions = 0
        self._cap = 16   # small, so that growth is exercised
        self._n = 0
        self._cols = {c: np.zeros(self._cap, dtype=DTYPES[c]) for c in COLUMNS}

    def _ensure(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._cap:
            return
        while self._cap < need:
            self._cap *= 2
        for c in COLUMNS:
            grown = np.zeros(self._cap, dtype=DTYPES[c])
            grown[: self._n] = self._cols[c][: self._n]
            self._cols[c] = grown

    def emit(self, template, eas=(), takens=(), targets=()) -> None:
        self.cycles += template.cycles
        self.instructions += template.n
        self.cat_counts += template.cat_counts
        if template.n and (template.flags[0] & FLAG_TRANSLATE):
            self.translate_cycles += template.cycles
        n = template.n
        if n == 0:
            return
        self._ensure(n)
        s = self._n
        cols = self._cols
        for c in COLUMNS:
            cols[c][s : s + n] = getattr(template, c)
        if len(template.patch_ea):
            cols["ea"][s + template.patch_ea] = eas
        if len(template.patch_taken):
            rows = s + template.patch_taken
            taken_bits = np.asarray(takens, dtype=np.int16) * FLAG_TAKEN
            cols["flags"][rows] = (cols["flags"][rows] & ~FLAG_TAKEN) | taken_bits
        if len(template.patch_target):
            cols["target"][s + template.patch_target] = targets
        self._n += n

    def emit_cycles(self, cycles: int) -> None:
        self.cycles += cycles

    def trace(self) -> Trace:
        return Trace(**{c: self._cols[c][: self._n].copy() for c in COLUMNS})


class TestLayout:
    def test_regions_disjoint(self):
        names = {
            region_name(a)
            for a in (INTERP_TEXT_BASE, CODE_CACHE_BASE, BYTECODE_BASE,
                      HEAP_BASE)
        }
        assert len(names) == 4

    def test_region_name_unmapped(self):
        assert region_name(0x10) == "unmapped"

    def test_thread_stacks_disjoint(self):
        assert thread_stack_base(1) - thread_stack_base(0) >= 0x10000

    def test_text_region_alloc_sequential(self):
        r = TextRegion(0x1000, 0x100, "t")
        a = r.alloc(4)
        b = r.alloc(2)
        assert b == a + 4 * NATIVE_INSTR_BYTES
        assert r.used_bytes == 24

    def test_text_region_exhaustion(self):
        r = TextRegion(0x1000, 16, "t")
        with pytest.raises(MemoryError):
            r.alloc(5)

    def test_text_region_negative(self):
        r = TextRegion(0x1000, 16, "t")
        with pytest.raises(ValueError):
            r.alloc(-1)


class TestTemplateBuilder:
    def test_pcs_sequential(self):
        b = TemplateBuilder("t")
        b.ialu(n=3)
        t = b.build(base_pc=0x100)
        assert list(t.pc) == [0x100, 0x104, 0x108]

    def test_patch_slots_recorded_in_order(self):
        b = TemplateBuilder("t")
        b.load(ea=PATCH)
        b.ialu()
        b.store(ea=PATCH)
        t = b.build(base_pc=0)
        assert list(t.patch_ea) == [0, 2]

    def test_static_ea_not_patched(self):
        b = TemplateBuilder("t")
        b.load(ea=0x1234)
        t = b.build(base_pc=0)
        assert len(t.patch_ea) == 0
        assert t.ea[0] == 0x1234

    def test_store_gets_write_flag(self):
        b = TemplateBuilder("t")
        b.store(ea=0x10)
        t = b.build(base_pc=0)
        assert t.flags[0] & FLAG_WRITE

    def test_unconditional_transfers_taken(self):
        b = TemplateBuilder("t")
        b.instr(NCat.JUMP, target=0x50)
        b.instr(NCat.RET, target=0x60)
        t = b.build(base_pc=0)
        assert all(t.flags & FLAG_TAKEN)

    def test_conditional_branch_not_taken_by_default(self):
        b = TemplateBuilder("t")
        b.instr(NCat.BRANCH, target=0x50)
        t = b.build(base_pc=0)
        assert not (t.flags[0] & FLAG_TAKEN)

    def test_relative_target_resolution(self):
        b = TemplateBuilder("t")
        b.ialu()
        b.instr(NCat.BRANCH, target=b.rel(2))
        t = b.build(base_pc=0x100)
        assert t.target[1] == 0x104 + 8

    def test_base_flags_applied_everywhere(self):
        b = TemplateBuilder("t", base_flags=FLAG_TRANSLATE)
        b.ialu(n=2)
        t = b.build(base_pc=0)
        assert all(t.flags & FLAG_TRANSLATE)

    def test_cycles_match_cost_model(self):
        b = TemplateBuilder("t")
        b.instr(NCat.IDIV)
        b.ialu()
        t = b.build(base_pc=0)
        assert t.cycles == int(CYCLES_BY_CAT[NCat.IDIV] + CYCLES_BY_CAT[NCat.IALU])

    def test_requires_region_or_pc(self):
        with pytest.raises(ValueError):
            TemplateBuilder("t").ialu().build()

    def test_cat_counts(self):
        b = TemplateBuilder("t")
        b.ialu(n=3)
        b.load(ea=0)
        t = b.build(base_pc=0)
        assert t.cat_counts[NCat.IALU] == 3
        assert t.cat_counts[NCat.LOAD] == 1


class TestConcat:
    def test_concat_rebases_patches(self):
        b1 = TemplateBuilder("a")
        b1.load(ea=PATCH)
        t1 = b1.build(base_pc=0)
        b2 = TemplateBuilder("b")
        b2.ialu()
        b2.store(ea=PATCH)
        t2 = b2.build(base_pc=0x100)
        t = concat_templates("ab", [t1, t2])
        assert list(t.patch_ea) == [0, 2]
        assert t.n == 3

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat_templates("x", [])


def _simple_template():
    b = TemplateBuilder("t")
    b.load(dst=5, ea=PATCH)
    b.instr(NCat.BRANCH, src1=5, taken=PATCH, target=PATCH)
    b.store(src1=5, ea=0xAA)
    return b.build(base_pc=0x40)


class TestRecordingSink:
    def test_records_and_patches(self):
        sink = RecordingSink()
        sink.emit(_simple_template(), (0x99,), (True,), (0x123,))
        tr = sink.trace()
        assert tr.n == 3
        assert tr.ea[0] == 0x99
        assert tr.flags[1] & FLAG_TAKEN
        assert tr.target[1] == 0x123
        assert tr.ea[2] == 0xAA

    def test_taken_false_patch(self):
        sink = RecordingSink()
        sink.emit(_simple_template(), (0x99,), (False,), (0x123,))
        tr = sink.trace()
        assert not (tr.flags[1] & FLAG_TAKEN)

    def test_many_emissions(self):
        t = _simple_template()
        sink = RecordingSink()
        for i in range(10_000):
            sink.emit(t, (i,), (i % 2 == 0,), (2 * i,))
        tr = sink.trace()
        assert tr.n == sink.instructions == 30_000
        assert list(tr.ea[0::3][:3]) == [0, 1, 2]
        assert (tr.ea[2::3] == 0xAA).all()
        assert list(tr.is_taken[1::3][:4]) == [True, False, True, False]
        assert (tr.target[1::3] == 2 * np.arange(10_000)).all()
        assert (tr.pc == np.tile(t.pc, 10_000)).all()

    @pytest.mark.parametrize("eas,takens,targets", [
        ((), (True,), (2,)),
        ((1, 2), (True,), (2,)),
        ((1,), (), (2,)),
        ((1,), (True, False), (2,)),
        ((1,), (True,), ()),
        ((1,), (True,), (2, 3)),
    ])
    def test_patch_count_mismatch_raises(self, eas, takens, targets):
        sink = RecordingSink()
        with pytest.raises(ValueError):
            sink.emit(_simple_template(), eas, takens, targets)
        assert sink.trace().n == 0

    def test_patch_free_template_rejects_values(self):
        b = TemplateBuilder("t")
        b.ialu(n=2)
        with pytest.raises(ValueError):
            RecordingSink().emit(b.build(base_pc=0), (1,))

    def test_counting_totals_match(self):
        t = _simple_template()
        c = CountingSink()
        r = RecordingSink()
        for _ in range(7):
            c.emit(t, (1,), (True,), (2,))
            r.emit(t, (1,), (True,), (2,))
        assert c.cycles == r.cycles == 7 * t.cycles
        assert c.instructions == r.instructions == 21
        assert (c.cat_counts == r.cat_counts).all()

    def test_translate_cycles_tracked_by_flag(self):
        b = TemplateBuilder("x", base_flags=FLAG_TRANSLATE)
        b.ialu(n=2)
        t = b.build(base_pc=0)
        sink = CountingSink()
        sink.emit(t)
        assert sink.translate_cycles == t.cycles
        sink.emit(_simple_template(), (1,), (True,), (2,))
        assert sink.translate_cycles == t.cycles  # unflagged not counted


_CATS = [NCat.IALU, NCat.IDIV, NCat.FALU, NCat.LOAD, NCat.STORE,
         NCat.BRANCH, NCat.JUMP, NCat.IJUMP, NCat.CALL, NCat.RET]
_ADDR = st.integers(0, (1 << 40) - 1)


@st.composite
def _instrs(draw):
    return (
        draw(st.sampled_from(_CATS)),
        draw(st.sampled_from(["patch", "none", "static"])),
        draw(st.sampled_from(["patch", "none", "yes", "no"])),
        draw(st.sampled_from(["patch", "none", "static", "rel"])),
        draw(st.integers(-1, 31)),
        draw(st.sampled_from([0, FLAG_TAKEN, FLAG_SYNC])),
    )


@st.composite
def _templates(draw, base_pc):
    translate = draw(st.booleans())
    b = TemplateBuilder("t", base_flags=FLAG_TRANSLATE if translate else 0)
    for cat, ea, taken, target, reg, flags in draw(
            st.lists(_instrs(), max_size=6)):
        b.instr(
            cat, dst=reg, src1=reg, flags=flags,
            ea={"patch": PATCH, "none": None}.get(ea, 0x1000 + 8 * len(b)),
            taken={"patch": PATCH, "none": None, "yes": True,
                   "no": False}[taken],
            target={"patch": PATCH, "none": None,
                    "rel": b.rel(-len(b))}.get(target, 0x7000),
        )
    return b.build(base_pc=base_pc)


def _assert_same(sink, ref):
    got, want = sink.trace(), ref.trace()
    assert got.n == want.n
    for c in COLUMNS:
        col = getattr(got, c)
        assert col.dtype == DTYPES[c]
        assert col.tobytes() == getattr(want, c).tobytes(), c
    assert np.array_equal(got.category_counts(), want.category_counts())
    assert np.array_equal(sink.cat_counts, ref.cat_counts)
    assert sink.cycles == ref.cycles
    assert sink.instructions == ref.instructions
    assert sink.translate_cycles == ref.translate_cycles


class TestRecordingSinkOracle:
    """The log-then-materialise sink against the slice-writing oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        templates = [
            data.draw(_templates(0x10000 * (k + 1)))
            for k in range(data.draw(st.integers(1, 5)))
        ]
        ops = data.draw(st.lists(st.one_of(
            st.tuples(st.just("emit"), st.integers(0, len(templates) - 1)),
            st.tuples(st.just("cycles"), st.integers(0, 1000)),
            st.tuples(st.just("trace"), st.just(0)),
        ), max_size=40))
        sink, ref, counting = RecordingSink(), ReferenceRecorder(), CountingSink()
        for op, arg in ops:
            if op == "emit":
                t = templates[arg]
                values = (
                    data.draw(st.lists(_ADDR, min_size=t.n_ea,
                                       max_size=t.n_ea)),
                    data.draw(st.lists(st.booleans(), min_size=t.n_taken,
                                       max_size=t.n_taken)),
                    data.draw(st.lists(_ADDR, min_size=t.n_target,
                                       max_size=t.n_target)),
                )
                for s in (sink, ref, counting):
                    s.emit(t, *values)
            elif op == "cycles":
                for s in (sink, ref, counting):
                    s.emit_cycles(arg)
            else:
                _assert_same(sink, ref)
        _assert_same(sink, ref)
        _assert_same(sink, ref)   # freezing twice gives the same trace
        assert counting.cycles == ref.cycles
        assert counting.instructions == ref.instructions
        assert counting.translate_cycles == ref.translate_cycles
        assert np.array_equal(counting.cat_counts, ref.cat_counts)

    def test_zero_length_template(self):
        empty = TemplateBuilder("empty").build(base_pc=0)
        sink, ref = RecordingSink(), ReferenceRecorder()
        for s in (sink, ref):
            s.emit(empty)
            s.emit(_simple_template(), (5,), (True,), (6,))
            s.emit(empty)
        _assert_same(sink, ref)

    def test_empty_sink(self):
        _assert_same(RecordingSink(), ReferenceRecorder())


class TestTrace:
    def test_roundtrip_save_load(self, tmp_path):
        sink = RecordingSink()
        sink.emit(_simple_template(), (0x99,), (True,), (0x123,))
        tr = sink.trace()
        path = str(tmp_path / "t.npz")
        tr.save(path)
        tr2 = Trace.load(path)
        assert tr2.n == tr.n
        assert (tr2.pc == tr.pc).all()
        assert (tr2.flags == tr.flags).all()

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Trace.load(str(tmp_path / "nope.npz"))

    def test_select_and_views(self):
        sink = RecordingSink()
        sink.emit(_simple_template(), (0x99,), (True,), (0x123,))
        tr = sink.trace()
        mem = tr.select(tr.is_memory)
        assert mem.n == 2
        assert int(tr.is_write.sum()) == 1
        assert int(tr.is_transfer.sum()) == 1

    def test_concatenate(self):
        sink = RecordingSink()
        sink.emit(_simple_template(), (1,), (True,), (2,))
        a = sink.trace()
        combined = Trace.concatenate([a, a, a])
        assert combined.n == 3 * a.n

    def test_concatenate_empty(self):
        assert Trace.concatenate([]).n == 0

    def test_mismatched_columns_raise(self):
        with pytest.raises(ValueError):
            Trace(
                pc=np.zeros(2, np.int64), cat=np.zeros(1, np.int16),
                ea=np.zeros(2, np.int64), flags=np.zeros(2, np.int16),
                target=np.zeros(2, np.int64), dst=np.zeros(2, np.int16),
                src1=np.zeros(2, np.int16), src2=np.zeros(2, np.int16),
            )

    def test_base_cycles(self):
        sink = RecordingSink()
        t = _simple_template()
        sink.emit(t, (1,), (True,), (2,))
        assert sink.trace().base_cycles() == t.cycles


class TestMixBuckets:
    @pytest.mark.parametrize("cat,bucket", [
        (NCat.LOAD, "load"), (NCat.STORE, "store"), (NCat.BRANCH, "branch"),
        (NCat.CALL, "call"), (NCat.ICALL, "call"), (NCat.IJUMP, "ijump"),
        (NCat.JUMP, "jump"), (NCat.RET, "ret"), (NCat.FALU, "fpu"),
        (NCat.IALU, "ialu"), (NCat.IMUL, "ialu"), (NCat.NOP, "nop"),
    ])
    def test_bucket(self, cat, bucket):
        assert mix_bucket(cat) == bucket
