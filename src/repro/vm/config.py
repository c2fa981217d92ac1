"""Execution configurations: one frozen value per way of running a program.

A :class:`VMConfig` names one point of the space the experiments
compare (strategy and thresholds, JIT passes, lock elision, lock
manager, folding); :data:`CONFIGS` is the registry of the named ones
the experiments, tests, fuzz oracle and traffic engine run, and a
variant is ``replace(...)`` of an entry::

    CONFIGS["counter"].replace(threshold=4).build(program).run()

Knobs that do not change *what* is simulated (trace recording, the
code archive, daemons, the bytecode budget) go to :meth:`VMConfig.build`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from ..sync import LOCK_MANAGERS
from .machine import JavaVM
from .strategy import (
    CompileOnFirstUse,
    CounterThreshold,
    InterpretOnly,
    OracleStrategy,
    Strategy,
    TieredStrategy,
)

#: Strategy name -> constructor over a config's threshold fields.
_STRATEGIES = {
    "interp": lambda c: InterpretOnly(),
    "jit": lambda c: CompileOnFirstUse(),
    "counter": lambda c: CounterThreshold(c.threshold),
    "oracle": lambda c: OracleStrategy(c.compile_set),
    "tiered": lambda c: TieredStrategy(
        t1_invocations=c.t1, t2_invocations=c.t2, osr_backedges=c.osr,
        t2_backedges=c.t2_backedges, compile_ratio=c.compile_ratio,
        speculate=c.speculate, t2_screen=c.t2_screen),
}


@dataclass(frozen=True)
class VMConfig:
    """Everything that selects how one program is executed.

    ``strategy`` picks the compilation policy; ``threshold`` is the
    ``counter`` strategy's, ``t1``..``t2_screen`` the ``tiered``
    ladder's (:class:`~repro.vm.strategy.TieredStrategy`), and
    ``compile_set`` the ``oracle``'s.  The rest are ``JavaVM`` switches.
    """

    strategy: str = "jit"
    threshold: int = 2
    t1: int = 2
    t2: int = 64
    osr: int = 4
    t2_backedges: int = 512
    compile_ratio: float = 0.125
    speculate: bool = True
    t2_screen: bool = True
    compile_set: frozenset = frozenset()
    lock_manager: str = "monitor-cache"
    inline: bool = True
    profile: bool = True
    folding: bool = False
    jit_opt: bool = False
    lock_elision: bool = False
    static_concurrency: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.lock_manager not in LOCK_MANAGERS:
            raise ValueError(f"unknown lock manager {self.lock_manager!r}")
        object.__setattr__(self, "compile_set", frozenset(self.compile_set))

    def replace(self, **changes) -> "VMConfig":
        return dataclasses.replace(self, **changes)

    @property
    def elides(self) -> bool:
        """True when runs may skip monitor operations (proven elision,
        or the tier ladder's tier-2 elision), so their sync case mix is
        not comparable with a non-eliding run."""
        return self.lock_elision or self.strategy == "tiered"

    def key(self) -> str:
        """Canonical text of every field: equal configs, equal keys."""
        values = dict(dataclasses.asdict(self),
                      compile_set=sorted(self.compile_set))
        return json.dumps(values, sort_keys=True, separators=(",", ":"))

    def _fields(self) -> dict:
        return dict(dataclasses.asdict(self),
                    compile_set=len(self.compile_set))

    def __str__(self) -> str:
        """The registry name, or the strategy's entry plus the fields
        that differ from it (``counter+threshold=4``)."""
        for name, config in CONFIGS.items():
            if config == self:
                return name
        base = CONFIGS[self.strategy]._fields()
        return "+".join([self.strategy] + [
            f"{k}={v}" for k, v in self._fields().items() if v != base[k]])

    def describe(self) -> dict:
        """Manifest-ready view: the name plus every field."""
        return {"name": str(self), **self._fields()}

    def make_strategy(self) -> Strategy:
        return _STRATEGIES[self.strategy](self)

    def build(self, program, **runtime) -> JavaVM:
        """A fresh VM for ``program``; ``runtime`` carries the non-config
        ``JavaVM`` keywords (``record``, ``code_archive``, ...)."""
        return JavaVM(
            program,
            strategy=self.make_strategy(),
            lock_manager=LOCK_MANAGERS[self.lock_manager](),
            inline=self.inline,
            profile=self.profile,
            folding=self.folding,
            jit_opt=self.jit_opt,
            lock_elision=self.lock_elision,
            static_concurrency=self.static_concurrency,
            **runtime,
        )


#: The named configurations.  The tiered variants differ on purpose:
#: ``tiered`` is the report ladder (TieredStrategy's defaults);
#: ``tiered_eager`` climbs to tier 2 within the small s0 runs of the
#: differential tests; ``tiered_stress`` also drops the tier-2 screen
#: and prices promotion near zero so speculation and every deopt path
#: fire inside tiny programs (fuzz oracle, cross-check, deopt
#: scenarios); ``tiered_sweep`` is the base of the ``compile_ratio``
#: sweep.  The eager and sweep ladders gate tier 2 at eight times the
#: OSR backedge count, not at TieredStrategy's 512 backedges.
CONFIGS = {
    "interp": VMConfig(strategy="interp"),
    "jit": VMConfig(strategy="jit"),
    "counter": VMConfig(strategy="counter"),
    "oracle": VMConfig(strategy="oracle"),
    "tiered": VMConfig(strategy="tiered"),
    "jit_opt": VMConfig(strategy="jit", jit_opt=True),
    "lock_elision": VMConfig(strategy="jit", lock_elision=True),
    "interp_fold": VMConfig(strategy="interp", folding=True),
    "tiered_eager": VMConfig(strategy="tiered", t2=3, t2_backedges=8 * 4),
    "tiered_sweep": VMConfig(strategy="tiered", t2_backedges=8 * 4),
    "tiered_stress": VMConfig(strategy="tiered", t2=3, t2_backedges=8,
                              compile_ratio=0.01, t2_screen=False),
}


def resolve(config="jit", **overrides) -> VMConfig:
    """A registry name or a :class:`VMConfig`, with field overrides."""
    if isinstance(config, str):
        try:
            config = CONFIGS[config]
        except KeyError:
            raise ValueError(f"unknown config {config!r}; known: "
                             f"{', '.join(CONFIGS)}") from None
    return config.replace(**overrides) if overrides else config
