"""Native trace recording and archives.

The runtime emits native instruction events through a *sink*, one
:class:`~repro.native.template.Template` per emission.  Two sinks exist:
:class:`CountingSink` only accumulates cycle and category counts (cheap;
used for the timing studies of Section 3), and :class:`RecordingSink`
additionally records the full event stream into a columnar
:class:`Trace` archive that the cache / branch / pipeline simulators
replay (the Shade-trace equivalent).

Neither sink does numpy work per emission.  Both keep ``cycles`` current
(the VM reads it mid-run as its clock) and defer everything else: the
counting sink tallies emissions per template and derives instruction,
translate-cycle and category totals from the tally when they are read;
the recording sink logs each emitted template and appends its patch
values to three flat lists, and :meth:`RecordingSink.trace` expands the
log into columns in one vectorised gather plus one scatter per patched
field.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Sequence

import numpy as np

from .costs import CYCLES_BY_CAT
from .nisa import (
    FLAG_TAKEN,
    FLAG_TRANSLATE,
    FLAG_WRITE,
    MEMORY_CATS,
    N_CATEGORIES,
    NCat,
    TRANSFER_CATS,
)
from .template import Template

_COLUMNS = ("pc", "cat", "ea", "flags", "target", "dst", "src1", "src2")
_DTYPES = {
    "pc": np.int64,
    "cat": np.int16,
    "ea": np.int64,
    "flags": np.int16,
    "target": np.int64,
    "dst": np.int16,
    "src1": np.int16,
    "src2": np.int16,
}
#: Structured row dtype of the ``.npy`` archive format.  A plain
#: ``np.save`` of this record array can be reopened with
#: ``mmap_mode="r"``, so loading a cached trace costs a page-table
#: mapping instead of a full decompress-and-copy.
_RECORD_DTYPE = np.dtype([(c, _DTYPES[c]) for c in _COLUMNS])


class Trace:
    """An immutable columnar native-instruction trace.

    Columns (parallel arrays of length ``n``):

    - ``pc``      instruction address
    - ``cat``     :class:`~repro.native.nisa.NCat` code
    - ``ea``      effective address for memory operations (0 otherwise)
    - ``flags``   event flag bits (taken / write / translate / ...)
    - ``target``  control-transfer target pc (0 otherwise)
    - ``dst``, ``src1``, ``src2``  register operands (-1 = none)
    """

    __slots__ = tuple(_COLUMNS) + ("n",)

    def __init__(self, **columns: np.ndarray) -> None:
        lengths = {len(columns[c]) for c in _COLUMNS}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        for c in _COLUMNS:
            setattr(self, c, columns[c])
        self.n = lengths.pop()

    # -- constructors -------------------------------------------------
    @classmethod
    def from_columns(cls, **columns) -> "Trace":
        """Build from any array-likes, coercing dtypes."""
        coerced = {
            c: np.asarray(columns[c], dtype=_DTYPES[c]) for c in _COLUMNS
        }
        return cls(**coerced)

    @classmethod
    def empty(cls) -> "Trace":
        return cls.from_columns(**{c: [] for c in _COLUMNS})

    @classmethod
    def concatenate(cls, traces: Sequence["Trace"]) -> "Trace":
        if not traces:
            return cls.empty()
        return cls(
            **{
                c: np.concatenate([getattr(t, c) for t in traces])
                for c in _COLUMNS
            }
        )

    # -- persistence ---------------------------------------------------
    def to_records(self) -> np.ndarray:
        """The trace as one structured record array (``.npy`` format)."""
        records = np.empty(self.n, dtype=_RECORD_DTYPE)
        for c in _COLUMNS:
            records[c] = getattr(self, c)
        return records

    @classmethod
    def from_records(cls, records: np.ndarray) -> "Trace":
        if records.dtype != _RECORD_DTYPE or records.ndim != 1:
            raise ValueError(
                f"not a trace record array: dtype={records.dtype}, "
                f"ndim={records.ndim}"
            )
        # Field views of a memory map stay lazy: pages fault in as the
        # simulators touch each column.
        return cls(**{c: records[c] for c in _COLUMNS})

    def save(self, path: str) -> None:
        """Persist by extension: ``.npy`` (mappable record array,
        the cache format) or anything else as a compressed ``.npz``."""
        if str(path).endswith(".npy"):
            np.save(path, self.to_records(), allow_pickle=False)
        else:
            np.savez_compressed(
                path, **{c: getattr(self, c) for c in _COLUMNS}
            )

    @classmethod
    def load(cls, path: str) -> "Trace":
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        if str(path).endswith(".npy"):
            records = np.load(path, mmap_mode="r", allow_pickle=False)
            return cls.from_records(records)
        with np.load(path) as data:
            return cls(**{c: data[c] for c in _COLUMNS})

    # -- derived views ---------------------------------------------------
    def select(self, mask: np.ndarray) -> "Trace":
        """A sub-trace of the rows where ``mask`` is true."""
        return Trace(**{c: getattr(self, c)[mask] for c in _COLUMNS})

    @property
    def is_memory(self) -> np.ndarray:
        return np.isin(self.cat, list(MEMORY_CATS))

    @property
    def is_write(self) -> np.ndarray:
        return (self.flags & FLAG_WRITE) != 0

    @property
    def is_transfer(self) -> np.ndarray:
        return np.isin(self.cat, list(TRANSFER_CATS))

    @property
    def is_taken(self) -> np.ndarray:
        return (self.flags & FLAG_TAKEN) != 0

    @property
    def in_translate(self) -> np.ndarray:
        return (self.flags & FLAG_TRANSLATE) != 0

    def category_counts(self) -> np.ndarray:
        """Dynamic count per :class:`NCat`, length ``N_CATEGORIES``."""
        return np.bincount(self.cat, minlength=N_CATEGORIES).astype(np.int64)

    def base_cycles(self) -> int:
        """Total cycles under the flat cost model."""
        return int(CYCLES_BY_CAT[self.cat].sum())

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(n={self.n})"


class CountingSink:
    """Accumulates cycles and per-category counts; records nothing.

    Also tracks the same totals split by the *translate* flag so that
    Section 3's translate-vs-execute accounting works without a full
    trace.  Only :attr:`cycles` is kept eagerly; :attr:`instructions`,
    :attr:`translate_cycles` and :attr:`cat_counts` are computed from
    the per-template emission tally when read.
    """

    records = False

    def __init__(self) -> None:
        self.cycles = 0
        self._emitted: dict[Template, int] = {}

    def emit(self, template: Template, eas=(), takens=(), targets=()) -> None:
        self.cycles += template.cycles
        emitted = self._emitted
        emitted[template] = emitted.get(template, 0) + 1

    def emit_cycles(self, cycles: int) -> None:
        """Charge raw cycles with no instruction stream (lock spins etc.)."""
        self.cycles += cycles

    def _tally(self) -> dict[Template, int]:
        """Emissions so far, per distinct template."""
        return self._emitted

    @property
    def instructions(self) -> int:
        return sum(t.n * k for t, k in self._tally().items())

    @property
    def translate_cycles(self) -> int:
        return sum(
            t.cycles * k
            for t, k in self._tally().items()
            if t.n and (t.flags[0] & FLAG_TRANSLATE)
        )

    @property
    def cat_counts(self) -> np.ndarray:
        counts = np.zeros(N_CATEGORIES, dtype=np.int64)
        for t, k in self._tally().items():
            counts += t.cat_counts * k
        return counts


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` for each ``(s, l)`` pair."""
    total = int(lengths.sum())
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Start of each block when blocks of ``lengths`` are laid end to end."""
    return np.cumsum(lengths) - lengths


class RecordingSink(CountingSink):
    """Counts *and* records the full native event stream.

    ``emit`` only logs: the template, and its ea, taken and target patch
    values extended onto three flat lists.  :meth:`trace` materialises
    the columns from the log.
    """

    records = True

    def __init__(self) -> None:
        super().__init__()
        self._emitted = Counter()
        self._tallied = 0
        self._log: list[Template] = []
        self._eas: list[int] = []
        self._takens: list = []
        self._targets: list[int] = []

    def emit(self, template: Template, eas=(), takens=(), targets=()) -> None:
        if (len(eas) != template.n_ea or len(takens) != template.n_taken
                or len(targets) != template.n_target):
            raise ValueError(
                f"{template.name}: {len(eas)}/{len(takens)}/{len(targets)} "
                f"ea/taken/target values for {template.n_ea}/"
                f"{template.n_taken}/{template.n_target} patch slots"
            )
        self.cycles += template.cycles
        self._log.append(template)
        self._eas.extend(eas)
        self._takens.extend(takens)
        self._targets.extend(targets)

    def _tally(self) -> dict[Template, int]:
        log = self._log
        if self._tallied != len(log):
            self._emitted.update(log[self._tallied:])
            self._tallied = len(log)
        return self._emitted

    def trace(self) -> Trace:
        """Freeze the recorded stream into a :class:`Trace`.

        One gather copies every emission's rows out of a table that
        concatenates the distinct templates; three scatters then write
        the logged patch values into their rows.
        """
        log = self._log
        if not log:
            return Trace.empty()
        distinct = list(dict.fromkeys(log))
        index = {t: i for i, t in enumerate(distinct)}
        which = np.fromiter(map(index.__getitem__, log), dtype=np.intp,
                            count=len(log))
        sizes = np.array([t.n for t in distinct], dtype=np.intp)
        emitted_sizes = sizes[which]
        first_row = _offsets(emitted_sizes)
        table_rows = _ranges(_offsets(sizes)[which], emitted_sizes)
        cols = {
            c: np.concatenate([getattr(t, c) for t in distinct])
            .astype(_DTYPES[c], copy=False)[table_rows]
            for c in _COLUMNS
        }

        def patched_rows(field: str, count: str) -> np.ndarray:
            """Trace rows of every emission's ``field`` patch slots, in
            the order the emissions logged their values."""
            counts = np.array([getattr(t, count) for t in distinct],
                              dtype=np.intp)
            table = np.concatenate([getattr(t, field) for t in distinct])
            emitted_counts = counts[which]
            picked = table[_ranges(_offsets(counts)[which], emitted_counts)]
            return np.repeat(first_row, emitted_counts) + picked

        cols["ea"][patched_rows("patch_ea", "n_ea")] = np.asarray(
            self._eas, dtype=np.int64)
        taken_rows = patched_rows("patch_taken", "n_taken")
        taken_bits = np.asarray(self._takens, dtype=np.int16) * FLAG_TAKEN
        cols["flags"][taken_rows] = (
            (cols["flags"][taken_rows] & ~FLAG_TAKEN) | taken_bits)
        cols["target"][patched_rows("patch_target", "n_target")] = np.asarray(
            self._targets, dtype=np.int64)
        return Trace(**cols)
