"""Formal verification substrate: SAT, AIG bit-blasting, BMC and
k-induction.

These engines discharge the proof obligations the pipeline transformation
emits (the role PVS played in the paper): safety properties of the stall
engine and forwarding logic are proved by k-induction on the generated
netlist, and combinational identities (e.g. forwarding-structure variants)
by equivalence checking.
"""

from .aig import Aig, BitBlaster, BlastError, fresh_vec, to_cnf, vec_value
from .bmc import (
    CheckResult,
    Counterexample,
    TransitionSystem,
    Unroller,
    bmc,
    k_induction,
    prove,
)
from .equiv import EquivResult, check_equivalence, exprs_equal_on
from .refinement import RefinementResult, StepRefinement
from .sat import SatResult, Solver, solve_cnf

__all__ = [
    "Aig",
    "BitBlaster",
    "BlastError",
    "CheckResult",
    "Counterexample",
    "EquivResult",
    "RefinementResult",
    "StepRefinement",
    "SatResult",
    "Solver",
    "TransitionSystem",
    "Unroller",
    "bmc",
    "check_equivalence",
    "exprs_equal_on",
    "fresh_vec",
    "k_induction",
    "prove",
    "solve_cnf",
    "to_cnf",
    "vec_value",
]
