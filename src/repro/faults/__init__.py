"""Fault injection for verifier validation (mutation testing the checker).

The proof/lint/trace stack is this project's trusted computing base:
:mod:`repro.faults` earns that trust by injecting the recurring pipeline
defect classes (dropped forwards, off-by-one stalls, wrong enables,
stuck nets, swapped mux arms, mis-staged rollback) into the generated
hardware and demanding every one is detected.  See :mod:`.operators`
for the fault shapes, :mod:`.catalog` for site enumeration over the
built-in cores and :mod:`.campaign` for the staged detection ladder and
coverage report.
"""

from .campaign import (
    CampaignReport,
    DetectParams,
    MutantResult,
    SequentialReference,
    detect,
    detect_formal,
    detect_static,
    run_campaign,
    run_mutant,
)
from .catalog import CORES, OPERATORS, CoreSpec, Mutant, generate_mutants

__all__ = [
    "CORES",
    "CampaignReport",
    "CoreSpec",
    "DetectParams",
    "Mutant",
    "MutantResult",
    "OPERATORS",
    "SequentialReference",
    "detect",
    "detect_formal",
    "detect_static",
    "generate_mutants",
    "run_campaign",
    "run_mutant",
]
