"""Step-refinement proofs: a machine's n-cycle pass implements a
specification step, for *all* states and programs.

The paper assumes the prepared sequential machine is correct and notes
that "automated verification of sequential machines is considered
state-of-the-art" (Section 7).  This module does that verification for
real: unroll the sequential machine ``n`` cycles from a fully *free*
initial state (including free ROM contents, i.e. an arbitrary program),
express the ISA step as expressions over the initial state, and prove by
SAT that the unrolled machine's final state equals the specification —
a theorem over every register file, memory, PC and program at once.

Usage (see ``tests/test_refinement.py`` for the toy machine's theorem)::

    proof = StepRefinement(module, steps=n)
    proof.assume(0, eq(counter, 0))                   # reset assumption
    proof.require_equal(spec_expr, impl_expr)         # spec@0 == impl@n
    result = proof.prove()
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..hdl import expr as E
from ..hdl.netlist import Module
from .aig import Aig
from .bmc import Counterexample, TransitionSystem, Unroller, _solve


@dataclass
class RefinementResult:
    """Outcome of a step-refinement proof."""

    proved: bool | None  # None: solver budget exhausted
    seconds: float
    aig_nodes: int
    counterexample: Counterexample | None = None

    def __bool__(self) -> bool:
        return bool(self.proved)


class StepRefinement:
    """Builds and discharges one step-refinement theorem."""

    def __init__(self, module: Module, steps: int) -> None:
        self.module = module
        self.steps = steps
        system = TransitionSystem.from_module(module)
        # ROMs stay constant across the unrolling but their *contents* are
        # free — the theorem quantifies over every program.
        system.constant_mems = set()
        self.system = system
        self.unroller = Unroller(system)
        self.unroller.add_initial_frame(free=True)
        for _ in range(steps):
            self.unroller.add_step()
        self._assumptions: list[int] = []
        self._checks: list[int] = []

    @property
    def aig(self) -> Aig:
        return self.unroller.aig

    def assume(self, frame: int, expression: E.Expr) -> None:
        """Constrain the given frame (e.g. a reset condition on frame 0)."""
        self._assumptions.append(self.unroller.bit_in_frame(frame, expression))

    def require_equal(
        self,
        spec: E.Expr,
        impl: E.Expr,
        spec_frame: int = 0,
        impl_frame: int | None = None,
    ) -> None:
        """Require ``spec`` (evaluated in ``spec_frame``, default the
        initial state) to equal ``impl`` (evaluated in ``impl_frame``,
        default the final state)."""
        if spec.width != impl.width:
            raise ValueError(f"width mismatch: {spec.width} vs {impl.width}")
        impl_frame = self.steps if impl_frame is None else impl_frame
        spec_vec = self.unroller.blast_in_frame(spec_frame, spec)
        impl_vec = self.unroller.blast_in_frame(impl_frame, impl)
        aig = self.aig
        for a, b in zip(spec_vec, impl_vec):
            self._checks.append(aig.xnor_(a, b))

    def require(self, frame: int, expression: E.Expr) -> None:
        """Require a 1-bit condition to hold in a frame (e.g. the stage
        counter returned to 0)."""
        self._checks.append(self.unroller.bit_in_frame(frame, expression))

    def prove(self) -> RefinementResult:
        """SAT-check that no assignment satisfies the assumptions (and the
        unrolling's memory ties) while violating any required equality."""
        aig = self.aig
        bad = aig.neg(aig.and_many(self._checks))
        start = time.perf_counter()
        result = _solve(aig, self._assumptions + self.unroller.constraints + [bad])
        elapsed = time.perf_counter() - start
        if result.satisfiable is None:
            return RefinementResult(
                proved=None, seconds=elapsed, aig_nodes=len(aig.ands)
            )
        if result.satisfiable:
            return RefinementResult(
                proved=False,
                seconds=elapsed,
                aig_nodes=len(aig.ands),
                counterexample=self.unroller.decode(result.model, self.steps + 1),
            )
        return RefinementResult(
            proved=True, seconds=elapsed, aig_nodes=len(aig.ands)
        )
