"""Cross-obligation proof sharing: one unrolling, many properties.

A :class:`SharedContext` is the incremental BMC / k-induction checker of
this package.  It discharges a *group* of properties over the same
:class:`TransitionSystem`, and a single property is simply a one-member
group: the default engines of :func:`repro.formal.bmc.bmc`,
:func:`~repro.formal.bmc.k_induction` and :func:`~repro.formal.bmc.prove`
run on a one-member context.  The group shares what is expensive and
separates what is not:

* **one** base unrolling (concrete reset frame) and **one** step
  unrolling (free initial frame), both over the *union* of the members'
  cone-of-influence slices — frame blasting and Tseitin encoding are paid
  once per group instead of once per obligation;
* **one** CDCL solver per unrolling, so learned clauses, variable
  activities and saved phases earned while discharging one member carry
  over to its siblings (most of the transition logic is common);
* per-member **activation literals**: everything member-specific — the
  induction hypothesis, per-frame environment assumptions, and the
  "frame ``t`` is violation-free" strengthenings — is added as clauses
  guarded by a fresh activation input, and a member's queries assume its
  own literal.  With the literal unassumed those clauses are vacuously
  satisfiable, so siblings never observe each other's constraints.

Verdict equivalence: for any member, the shared clause database restricted
to that member's activation literal is satisfiability-equivalent to the
database a context of that member alone would build — extra state
variables in the union cone are deterministic functions of free inputs
(always extendable) and other members' guarded clauses are vacuous with
their activation literal free.  ``tests/test_shared.py`` and
``tests/test_bmc_incremental.py`` hold grouped discharge to the same
statuses and methods as the one-shot engines
(``incremental=False``), the test oracle.  (Under a ``max_conflicts``
budget the shared solver may decide a query an isolated one gives up on —
sharing only ever adds derived clauses — so equivalence is exact
precisely when no budget/interrupt fires.)

Grouping itself is keyed by the hash-consed DAG roots of the transition
system (:func:`group_key`): obligations discharge together exactly when
they constrain the same interned next-state functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..hdl import expr as E
from .aig import fresh_vec
from .bmc import (
    CheckResult,
    IncrementalUnroller,
    TransitionSystem,
    Counterexample,
)
from .sat import SatResult


@dataclass(frozen=True)
class SharedMember:
    """One property (plus its environment assumptions) of a group."""

    prop: E.Expr
    assume: tuple[E.Expr, ...] = ()


def group_key(system: TransitionSystem) -> tuple[int, ...]:
    """Hash-consed identity of a transition system.

    Two obligation sets may share a :class:`SharedContext` exactly when
    their systems agree on this key: the interned node ids of every
    state variable's next-state function (plus name/width/init).  Interned
    ids are object identities in the hash-consed DAG, so equal keys mean
    the *same* transition functions, not merely isomorphic ones.
    """
    return tuple(
        hash((var.name, var.width, var.init, id(var.next)))
        for var in system.state
    )


class SharedContext:
    """Grouped incremental discharge over one shared unrolling pair.

    ``bmc_to``, ``induction_step``, ``k_induction`` and ``prove`` take a
    member index; member-specific constraints go through that member's
    activation literal.  Queries at increasing bounds *extend* the
    existing unrollings instead of restarting:

    * the "property violated at frame t" literal is activated via a solver
      assumption, so it can be retracted when moving to t+1;
    * once frame t is proved violation-free, ``prop``@t is added (guarded)
      — it is implied by the database, so this only strengthens later
      searches;
    * environment assumptions are added (guarded) per frame — they are
      required to be invariants;
    * growing induction-step checks reuse one free-init unrolling, its
      frames 0..k-1 constrained by the induction hypothesis.

    Escalation schedules (which k, which bounds, in what order) are the
    caller's business.  ``conflicts`` accumulates solver conflicts per
    member and ``frames`` reports the peak unrolled depth — surfaced per
    obligation by ``repro discharge --profile``.

    ``interrupt`` is a mutable attribute: the group driver points it at
    the *current* member's budget callback before each member's queries,
    which is how per-obligation timeouts survive inside a group.
    """

    def __init__(
        self,
        system: TransitionSystem,
        members: Sequence[SharedMember],
        max_conflicts: int | None = None,
        interrupt: Callable[[], bool] | None = None,
    ) -> None:
        self.system = system
        self.members = list(members)
        if not self.members:
            raise ValueError("a shared context needs at least one member")
        roots: list[E.Expr] = []
        for member in self.members:
            roots.append(member.prop)
            roots.extend(member.assume)
        # union cone: sliced once for the whole group
        self.support = system.cone_of_influence(roots)
        self.max_conflicts = max_conflicts
        self.interrupt = interrupt
        self._base = IncrementalUnroller(
            system, support=self.support, free_init=False
        )
        self._step: IncrementalUnroller | None = None
        n = len(self.members)
        # per-member activation literals (DIMACS), one per unrolling
        self._act_base: list[int | None] = [None] * n
        self._act_step: list[int | None] = [None] * n
        self._base_proved = [-1] * n  # highest frame proved violation-free
        self._step_hyp = [-1] * n  # step frames 0..n carry the hypothesis
        self._step_assumed = [-1] * n  # step frames 0..n carry the assumptions
        self.conflicts = [0] * n  # solver conflicts attributed per member

    @property
    def frames(self) -> int:
        peak = len(self._base.frames)
        if self._step is not None:
            peak = max(peak, len(self._step.frames))
        return peak

    def _activation(self, unroller: IncrementalUnroller, acts: list[int | None], index: int) -> int:
        lit = acts[index]
        if lit is None:
            # a fresh AIG input: encode() emits no defining clauses for it,
            # so the literal is free until the first guarded clause lands
            lit = unroller.emitter.encode(fresh_vec(unroller.aig, 1)[0])
            acts[index] = lit
            if len(self.members) == 1:
                # no sibling to hide a lone member's constraints from:
                # assert its literal outright, so every guarded clause
                # simplifies to the unit clause it stands for
                unroller.solver.add_clause([lit])
        return lit

    def _guard(
        self,
        unroller: IncrementalUnroller,
        act: int,
        frame: int,
        expression: E.Expr,
    ) -> None:
        """Constrain a 1-bit expression to hold in a frame *for one member*:
        the guarded clause (¬act ∨ expr@frame) is vacuous unless the
        member's activation literal is assumed."""
        unroller.solver.add_clause([-act, unroller.literal(frame, expression)])

    def _query(
        self, unroller: IncrementalUnroller, index: int, assumptions: list[int]
    ) -> SatResult:
        result = unroller.solver.solve(
            assumptions=assumptions,
            max_conflicts=self.max_conflicts,
            interrupt=self.interrupt,
        )
        self.conflicts[index] += result.conflicts
        return result

    def _result(
        self,
        index: int,
        holds: bool | None,
        bound: int,
        method: str,
        counterexample: Counterexample | None = None,
    ) -> CheckResult:
        return CheckResult(
            holds=holds,
            bound=bound,
            method=method,
            counterexample=counterexample,
            conflicts=self.conflicts[index],
            frames=self.frames,
        )

    def bmc_to(self, index: int, bound: int) -> CheckResult:
        """Member ``index``'s property checked in frames 0..bound from
        reset, extending any previously checked prefix."""
        member = self.members[index]
        act = self._activation(self._base, self._act_base, index)
        for t in range(self._base_proved[index] + 1, bound + 1):
            self._base.ensure_frames(t + 1)
            for assumption in member.assume:
                self._guard(self._base, act, t, assumption)
            good = self._base.literal(t, member.prop)
            result = self._query(self._base, index, [act, -good])
            if result.satisfiable is True:
                return self._result(
                    index,
                    False,
                    t,
                    "bmc",
                    counterexample=self._base.decode_solver_model(
                        result.model, t + 1
                    ),
                )
            if result.satisfiable is None:
                return self._result(index, None, t, "bmc")
            # implied under act; strengthens this member's frames t+1..
            self._base.solver.add_clause([-act, good])
            self._base_proved[index] = t
        return self._result(index, True, bound, "bmc")

    def induction_step(self, index: int, k: int) -> bool | None:
        """Member ``index``'s k-induction step check on the shared
        free-init unrolling: from any chain of ``k`` frames satisfying the
        member's property and assumptions, the property holds in frame
        ``k``.  Returns True when it passes, None when it fails or the
        budget runs out.  ``k`` must not decrease across calls for one
        member (earlier hypotheses stay asserted)."""
        if k - 1 < self._step_hyp[index]:
            raise ValueError("induction-step bounds must not decrease")
        if self._step is None:
            self._step = IncrementalUnroller(
                self.system, support=self.support, free_init=True
            )
        step = self._step
        member = self.members[index]
        step.ensure_frames(k + 1)
        act = self._activation(step, self._act_step, index)
        for t in range(self._step_hyp[index] + 1, k):
            self._guard(step, act, t, member.prop)
        self._step_hyp[index] = max(self._step_hyp[index], k - 1)
        for t in range(self._step_assumed[index] + 1, k + 1):
            for assumption in member.assume:
                self._guard(step, act, t, assumption)
        self._step_assumed[index] = max(self._step_assumed[index], k)
        result = self._query(
            step, index, [act, -step.literal(k, member.prop)]
        )
        if result.satisfiable is False:
            return True
        return None

    def k_induction(self, index: int, k: int) -> CheckResult:
        base = self.bmc_to(index, k - 1)
        if base.holds is not True:
            return self._result(
                index,
                base.holds,
                base.bound,
                "k-induction(base)",
                base.counterexample,
            )
        if self.induction_step(index, k) is True:
            return self._result(index, True, k, "k-induction")
        return self._result(index, None, k, "k-induction(step)")

    def prove(self, index: int, max_k: int = 4) -> CheckResult:
        last = self._result(index, None, 0, "k-induction")
        for k in range(1, max_k + 1):
            last = self.k_induction(index, k)
            if last.holds is not None:
                return last
        return last
