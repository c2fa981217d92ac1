"""Differential fuzzing of the execution engines.

A seeded generator emits verifier-clean bytecode programs; a
differential oracle runs each under the ``MATRIX`` of registry configs
(interp / jit / jit_opt / lock_elision / tiered_stress, see
:data:`repro.vm.config.CONFIGS`) and flags semantic divergences and
performance anomalies;
a delta-debugging minimizer shrinks failures into checked-in
reproducers.  ``python -m repro.fuzz --help`` for the CLI.
"""

from .gen import FUEL, ProgramSpec, gen_program
from .harness import CampaignResult, Finding, run_campaign
from .minimize import minimize_spec
from .mutate import flip_one_opcode, mutation_sites
from .oracle import (
    DEFAULT_TOLERANCE,
    MATRIX,
    Anomaly,
    Divergence,
    Outcome,
    Verdict,
    run_config,
    run_oracle,
)

__all__ = [
    "Anomaly",
    "CampaignResult",
    "DEFAULT_TOLERANCE",
    "Divergence",
    "FUEL",
    "Finding",
    "MATRIX",
    "Outcome",
    "ProgramSpec",
    "Verdict",
    "flip_one_opcode",
    "gen_program",
    "minimize_spec",
    "mutation_sites",
    "run_campaign",
    "run_config",
    "run_oracle",
]
