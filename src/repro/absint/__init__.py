"""Word-level abstract interpretation over :mod:`repro.hdl` netlists.

``repro.absint`` computes facts that hold in *all reachable states* of a
sequential :class:`~repro.hdl.netlist.Module` — unlike
:mod:`repro.lint.structural`'s one-shot ternary propagation, which only
sees a single combinational evaluation.  The analysis is a classic
fixpoint iteration over a reduced product of two abstract domains:

* **known bits** — per-bit ternary 0/1/X (a ``(known mask, value)`` pair),
* **intervals** — unsigned word-level ``[lo, hi]`` bounds,

with mutual reduction between the components and widening to force
termination.  From the fixpoint the miner derives candidate invariants
(frozen/constant bits, at-most-one over stall ``fullb`` bits, interval
bounds, implications between enables, machine-declared templates),
filters them against a concrete simulation trace, and then *proves* the
survivors with a Houdini-style simultaneous induction on the incremental
SAT engine.  Only SAT-verified invariants are ever injected as
assumptions into k-induction obligations.
"""

from .cache import InvariantCache
from .domain import (
    ABSINT_VERSION,
    UNKNOWN,
    AbsValue,
    Ternary,
    abs_transfer,
    interval_transfer,
    ternary_transfer,
)
from .fixpoint import FixpointResult, analyze
from .mine import (
    MinedInvariant,
    MiningResult,
    inject_invariants,
    mine_invariants,
    rom_template_violations,
)
from .verify import VerifyOutcome, verify_candidates

__all__ = [
    "ABSINT_VERSION",
    "AbsValue",
    "FixpointResult",
    "InvariantCache",
    "MinedInvariant",
    "MiningResult",
    "Ternary",
    "UNKNOWN",
    "VerifyOutcome",
    "abs_transfer",
    "analyze",
    "inject_invariants",
    "interval_transfer",
    "mine_invariants",
    "rom_template_violations",
    "ternary_transfer",
    "verify_candidates",
]
