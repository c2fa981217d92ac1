"""Compilation strategies: when (or whether) to translate a method.

The paper's Section 3 compares:

- interpret-only (``InterpretOnly``),
- Kaffe's default of compiling every method on its first invocation
  (``CompileOnFirstUse``),
- an idealized oracle that compiles exactly the methods for which
  translation pays off (``OracleStrategy``; decisions are produced by
  :mod:`repro.analysis.hybrid` from profiling runs),
- as an ablation, a HotSpot-style invocation-counter threshold
  (``CounterThreshold``),
- and the online answer to the oracle: ``TieredStrategy``, a hotness
  ladder (interpret -> baseline JIT -> optimizing JIT) driven by the
  invocation and loop-backedge counters the interpreter maintains, with
  on-stack replacement and deoptimization handled by
  :class:`repro.vm.tiering.TieredController`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


class Strategy:
    """Decides, per invocation, whether a method should now be compiled.

    Concrete strategies are frozen dataclasses whose fields are their
    thresholds."""

    name = "abstract"

    def should_compile(self, method, invocation_count: int) -> bool:
        raise NotImplementedError

    def describe(self) -> dict:
        """Manifest-ready config: strategy name plus any thresholds."""
        return {"name": self.name,
                **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class InterpretOnly(Strategy):
    """Never compile — a pure interpreter (JDK/Kaffe -nojit)."""

    name = "interp"

    def should_compile(self, method, invocation_count: int) -> bool:
        return False


@dataclass(frozen=True)
class CompileOnFirstUse(Strategy):
    """Kaffe's default JIT policy: translate on first invocation."""

    name = "jit"

    def should_compile(self, method, invocation_count: int) -> bool:
        return True


@dataclass(frozen=True)
class CounterThreshold(Strategy):
    """Interpret the first ``threshold - 1`` invocations, then compile."""

    name = "counter"
    threshold: int = 2

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")

    def should_compile(self, method, invocation_count: int) -> bool:
        return invocation_count >= self.threshold


@dataclass(frozen=True)
class TieredStrategy(Strategy):
    """Online tier ladder: interpret, then baseline-JIT hot methods, then
    recompile the hottest with the analysis-heavy optimizer
    (``docs/tiering.md``; decisions live in
    :class:`~repro.vm.tiering.TieredController`).

    A method reaches tier 1 once it has *burned* ``compile_ratio`` times
    its estimated translate cost in the interpreter — the online form of
    the oracle's ``n_i > N_i = T_i / (I_i - E_i)`` rule — subject to the
    ``t1_invocations`` / ``osr_backedges`` gates.  Tier 2 is gated by
    ``t2_invocations`` / ``t2_backedges`` and, with ``t2_screen``, by a
    benefit screen.  Counters restart at each deoptimization.
    ``speculate`` enables the tier-2 speculations deoptimization undoes
    (loaded-world CHA devirtualization, lock elision on unproven sites).
    """

    name = "tiered"
    t1_invocations: int = 2
    t2_invocations: int = 64
    osr_backedges: int = 4
    t2_backedges: int = 512
    compile_ratio: float = 0.125
    speculate: bool = True
    t2_screen: bool = True

    def __post_init__(self) -> None:
        if min(self.t1_invocations, self.t2_invocations,
               self.osr_backedges, self.t2_backedges) < 1:
            raise ValueError("tier thresholds must be >= 1")
        if self.t2_invocations <= self.t1_invocations:
            raise ValueError("t2_invocations must exceed t1_invocations")
        if self.compile_ratio <= 0:
            raise ValueError("compile_ratio must be positive")

    def should_compile(self, method, invocation_count: int) -> bool:
        # Entry-point compatibility only; the controller owns the real
        # per-tier decisions (machine.prepare_method routes to it).
        return invocation_count >= self.t1_invocations


@dataclass(frozen=True)
class OracleStrategy(Strategy):
    """The paper's ``opt`` model: a supplied set of methods (chosen with
    perfect knowledge of ``n_i`` and ``N_i``) is compiled on first use;
    everything else is always interpreted."""

    name = "oracle"
    compile_set: frozenset = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "compile_set", frozenset(self.compile_set))

    def should_compile(self, method, invocation_count: int) -> bool:
        return method.qualified_name in self.compile_set

    def describe(self) -> dict:
        return {"name": self.name, "compile_set_size": len(self.compile_set)}
