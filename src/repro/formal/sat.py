"""An incremental CDCL SAT solver.

This replaces the decision procedures the paper drove through PVS: the
bounded-model-checking and k-induction engines of :mod:`repro.formal.bmc`
discharge hardware proof obligations by handing CNF to this solver.

Implemented techniques: two-watched-literal propagation, first-UIP conflict
analysis with clause learning, VSIDS-style activity decision heuristic
(lazy max-heap) with phase saving, Luby restarts, and learned-clause
minimisation (one level of self-subsuming resolution against reason
clauses: a literal goes when every other literal of its reason is already
in the clause or false at level 0).

The solver is *incremental*: clauses may be added between :meth:`Solver.solve`
calls, and ``solve(assumptions=[...])`` treats the given literals as
temporary pseudo-decisions enqueued before any heuristic decision.  Learned
clauses never resolve past a decision, so everything learned under
assumptions is implied by the clause database alone and is retained — along
with variable activities and saved phases — across calls.  The solver never
deletes learned clauses (nor any stored clause), so the clause database only
grows and a proof log of it can be append-only.  When the
instance is unsatisfiable *under the assumptions*, final-conflict analysis
produces an **unsat core**: a subset of the assumption literals sufficient
for the conflict (``SatResult.core``).  An unsatisfiable clause database
(empty core) makes the solver permanently UNSAT; assumption-relative UNSAT
leaves it fully reusable.

Literals use the DIMACS convention: variables are positive integers, a
negative integer denotes the negated variable.

Internally the solver works on a dense layout.  Each DIMACS variable gets
an index ``i`` the first time a clause or an assumption mentions it, and
its literals become the codes ``2i`` (positive) and ``2i + 1`` (negated),
so negation is ``code ^ 1``.  Values and watch lists are lists indexed by
literal code; level, reason clause, activity, saved phase and decision-heap
bookkeeping are lists indexed by variable.  Their size follows the
variables in use, not the largest DIMACS id: the incremental CNF emitter
numbers solver variables by AIG node, so ids run far beyond the number of
variables any clause mentions.  Models and cores are translated back to
DIMACS numbering.

The solver is fully deterministic — no randomness, no wall-clock dependence,
insertion-ordered data structures throughout — so the same sequence of
calls always produces the same verdicts, models and statistics.  Four
invariants pin the search itself, and ``tests/test_sat.py`` holds it to
recorded trajectories:

- clause literals and watch lists are reordered only by propagation's watch
  moves, in visiting order, and nothing is ever removed from a watch list
  except by such a move;
- a reason clause keeps its implied literal at index 0, so conflict
  analysis resolves on ``clause[1:]``;
- the decision heap is keyed on ``(-activity, DIMACS variable)``, so ties
  break towards the smaller DIMACS id;
- every unassigned decidable variable has a heap entry at its current
  activity.  Bumping an assigned variable pushes nothing, and backtracking
  re-queues only variables whose entry is missing or stale; stale entries
  are skipped when popped.

Runs are interruptible in two ways: a ``max_conflicts`` budget (the
discharge engines degrade an exhausted budget to an *unknown* verdict
instead of hanging) and an ``interrupt`` callback polled between
conflicts, which lets a cooperative scheduler cancel an in-flight solve
without killing the process.  Both are per-call: an aborted call leaves
the solver reusable, budgets do not carry over.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

# Bumped whenever a change to the decision procedure could alter verdicts
# (bug fixes included); cached verdicts are keyed on it via
# :mod:`repro.proofs.fingerprint`, so stale results die with the old version.
SOLVER_VERSION = 2

# how many conflicts pass between polls of the `interrupt` callback
_INTERRUPT_GRANULARITY = 64

# activities are rescaled by 1e-100 once one exceeds this
_RESCALE_LIMIT = 1e100

# `_queued` value of a variable without a heap entry at its current activity
_NOT_QUEUED = -1.0


@dataclass
class SatResult:
    """Outcome of a solver run.

    ``satisfiable`` is None when the conflict budget ran out (unknown).
    ``model`` maps variable -> bool for satisfiable instances.
    ``core`` is only meaningful for UNSAT results of an assumption-based
    call: a subset of the assumption literals sufficient for
    unsatisfiability (empty when the clause database alone is UNSAT).
    """

    satisfiable: bool | None
    model: dict[int, bool] = field(default_factory=dict)
    core: list[int] = field(default_factory=list)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    def __bool__(self) -> bool:
        return bool(self.satisfiable)

    def value(self, var: int) -> bool:
        return self.model.get(var, False)


def _luby(i: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class Solver:
    """Incremental CDCL solver over integer DIMACS literals."""

    def __init__(self) -> None:
        self.num_vars = 0
        # DIMACS variable <-> dense index, numbered by first use
        self._index: dict[int, int] = {}
        self._external: list[int] = []
        # per literal code: True / False / None (unassigned), and the
        # clauses watching it
        self._value: list[bool | None] = []
        self._watches: list[list[list[int]]] = []
        # per variable
        self._level: list[int] = []
        self._reason: list[list[int] | None] = []
        self._activity: list[float] = []
        self._phase: list[int] = []  # saved phase as a code bit: 0 true, 1 false
        # Only variables occurring in some clause are decidable: deciding a
        # variable no clause mentions (an assumption-only one) is pure waste.
        self._decidable: list[bool] = []
        # activity of the variable's entry in `_order`, _NOT_QUEUED if none
        self._queued: list[float] = []
        self._seen: list[bool] = []  # conflict-analysis scratch, all False between
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        # lazy decision heap of (-activity, DIMACS variable, index)
        self._order: list[tuple[float, int, int]] = []
        self._propagations = 0
        self._ok = True

    # -- problem construction -------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def _new_index(self, var: int) -> int:
        """Give DIMACS variable ``var`` the next dense index."""
        index = len(self._external)
        self._index[var] = index
        self._external.append(var)
        self._value += (None, None)
        self._watches += ([], [])
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(1)
        self._decidable.append(False)
        self._queued.append(_NOT_QUEUED)
        self._seen.append(False)
        return index

    def _code(self, lit: int) -> int:
        """The literal code of DIMACS literal ``lit``."""
        var = lit if lit > 0 else -lit
        index = self._index.get(var)
        if index is None:
            index = self._new_index(var)
        return index << 1 if lit > 0 else (index << 1) | 1

    def _dimacs(self, code: int) -> int:
        var = self._external[code >> 1]
        return -var if code & 1 else var

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause; duplicate literals are merged, tautologies dropped.

        May be called between :meth:`solve` calls: the clause is simplified
        against the persistent top-level (level-0) assignment, so literals
        already false at level 0 are dropped and clauses already satisfied
        at level 0 are discarded outright.
        """
        if self._trail_lim:  # only after an exception escaped solve()
            self._backtrack(0)
        index_of = self._index
        value = self._value
        decidable = self._decidable
        seen: set[int] = set()
        clause: list[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            var = lit if lit > 0 else -lit
            if var > self.num_vars:
                self.num_vars = var
            index = index_of.get(var)
            if index is None:
                index = self._new_index(var)
            code = index << 1 if lit > 0 else (index << 1) | 1
            assigned = value[code]
            if assigned is True:
                return  # satisfied forever by the level-0 assignment
            if assigned is False:
                continue  # dropped: false forever
            clause.append(code)
            if not decidable[index]:
                decidable[index] = True
                activity = self._activity[index]
                self._queued[index] = activity
                heapq.heappush(self._order, (-activity, var, index))
        if not clause:
            self._ok = False
        elif len(clause) == 1:
            self._enqueue(clause[0], None)  # at level 0, for good
        else:
            self._watches[clause[0]].append(clause)
            self._watches[clause[1]].append(clause)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # -- assignment and propagation ---------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        """Assign the unassigned literal code ``lit`` true."""
        value = self._value
        value[lit] = True
        value[lit ^ 1] = False
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        self._propagations += 1

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause.

        The watched literals are ``clause[0]`` and ``clause[1]``.  Each
        watch list is compacted in place as it is walked; on a conflict
        its unvisited tail stays where it is.
        """
        trail = self._trail
        value = self._value
        watches = self._watches
        level = self._level
        reasons = self._reason
        current = len(self._trail_lim)
        qhead = self._qhead
        assigned = 0
        conflict = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watch_list = watches[false_lit]
            end = len(watch_list)
            i = kept = 0
            while i < end:
                clause = watch_list[i]
                i += 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                first_value = value[first]
                if first_value is True:
                    watch_list[kept] = clause
                    kept += 1
                    continue
                j = 2
                size = len(clause)
                while j < size:
                    other = clause[j]
                    if value[other] is not False:
                        clause[1] = other
                        clause[j] = false_lit
                        watches[other].append(clause)
                        break
                    j += 1
                else:
                    watch_list[kept] = clause
                    kept += 1
                    if first_value is False:
                        conflict = clause
                        break
                    value[first] = True
                    value[first ^ 1] = False
                    var = first >> 1
                    level[var] = current
                    reasons[var] = clause
                    trail.append(first)
                    assigned += 1
            if conflict is not None:
                del watch_list[kept:i]
                qhead = len(trail)
                break
            del watch_list[kept:]
        self._qhead = qhead
        self._propagations += assigned
        return conflict

    # -- conflict analysis -----------------------------------------------------

    def _rescale(self) -> None:
        """Scale every activity down by 1e-100 and rebuild the heap."""
        activity = self._activity
        for var in range(len(activity)):
            activity[var] *= 1e-100
        self._var_inc *= 1e-100
        queued = self._queued
        value = self._value
        external = self._external
        order = []
        for var, decidable in enumerate(self._decidable):
            if decidable and value[var << 1] is None:
                queued[var] = activity[var]
                order.append((-activity[var], external[var], var))
            else:
                queued[var] = _NOT_QUEUED
        heapq.heapify(order)
        self._order = order

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP analysis; returns (learned clause, backjump level).

        Every variable met is assigned, so bumping its activity only makes
        its heap entry (if any) stale; backtracking re-queues it.
        """
        level = self._level
        reasons = self._reason
        activity = self._activity
        seen = self._seen
        trail = self._trail
        var_inc = self._var_inc
        current = len(self._trail_lim)
        learned: list[int] = []
        counter = 0
        clause = conflict
        index = len(trail) - 1
        while True:
            for q in clause:
                var = q >> 1
                if seen[var]:
                    continue
                var_level = level[var]
                if var_level == 0:
                    continue
                seen[var] = True
                bumped = activity[var] + var_inc
                activity[var] = bumped
                if bumped > _RESCALE_LIMIT:
                    self._rescale()
                    var_inc = self._var_inc
                if var_level == current:
                    counter += 1
                else:
                    learned.append(q)
            # the next literal of the current level on the trail
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            clause = reasons[var][1:]

        learned = self._minimize(learned)
        learned.insert(0, lit ^ 1)
        if len(learned) == 1:
            return learned, 0
        # backjump to the second-highest level in the clause, and move its
        # first literal of that level into watch position 1
        back = max(level[q >> 1] for q in learned[1:])
        for i in range(1, len(learned)):
            if level[learned[i] >> 1] == back:
                learned[1], learned[i] = learned[i], learned[1]
                break
        return learned, back

    def _minimize(self, learned: list[int]) -> list[int]:
        """Drop literals implied by the rest of the clause, one level deep.

        ``learned`` holds the non-UIP literals, each with its variable marked
        seen.  A literal goes when every other literal of its reason clause
        is seen or false at level 0; the marks are cleared on return.
        """
        level = self._level
        reasons = self._reason
        seen = self._seen
        result = []
        for q in learned:
            reason = reasons[q >> 1]
            if reason is None:
                result.append(q)
                continue
            for r in reason[1:]:
                var = r >> 1
                if not seen[var] and level[var] > 0:
                    result.append(q)
                    break
        for q in learned:
            seen[q >> 1] = False
        return result

    def _analyze_final(self, failed: int) -> list[int]:
        """Assumption literals (codes) responsible for ``failed`` being false.

        Walks the implication trail backwards from ``failed ^ 1``; every
        pseudo-decision (reason ``None`` above level 0) reached is an
        assumption, because assumptions are the only decisions on the trail
        when an assumption conflict is discovered.  The returned core is a
        subset of the call's assumptions (including ``failed`` itself) whose
        conjunction with the clause database is unsatisfiable.
        """
        core = [failed]
        if not self._trail_lim:
            return core  # forced at level 0 by the clause database
        level = self._level
        reasons = self._reason
        trail = self._trail
        seen = {failed >> 1}
        for index in range(len(trail) - 1, self._trail_lim[0] - 1, -1):
            lit = trail[index]
            var = lit >> 1
            if var not in seen:
                continue
            seen.discard(var)
            reason = reasons[var]
            if reason is None:
                core.append(lit)
                continue
            for q in reason[1:]:
                if level[q >> 1] > 0:
                    seen.add(q >> 1)
        return core

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        limit = trail_lim[level]
        trail = self._trail
        value = self._value
        phase = self._phase
        decidable = self._decidable
        activity = self._activity
        queued = self._queued
        external = self._external
        order = self._order
        for lit in trail[limit:]:
            var = lit >> 1
            phase[var] = lit & 1
            value[lit] = None
            value[lit ^ 1] = None
            if decidable[var] and queued[var] != activity[var]:
                queued[var] = activity[var]
                heapq.heappush(order, (-activity[var], external[var], var))
        del trail[limit:]
        del trail_lim[level:]
        if self._qhead > limit:
            self._qhead = limit

    def _decide(self) -> int | None:
        """The unassigned decidable variable of highest activity."""
        order = self._order
        activity = self._activity
        queued = self._queued
        value = self._value
        while order:
            neg_activity, _, var = heapq.heappop(order)
            if -neg_activity != activity[var]:
                continue  # stale entry
            queued[var] = _NOT_QUEUED
            if value[var << 1] is None:
                return var
        return None

    # -- main loop ---------------------------------------------------------------

    def _result(
        self,
        satisfiable: bool | None,
        conflicts: int,
        decisions: int,
        model: dict[int, bool] | None = None,
        core: list[int] | None = None,
    ) -> SatResult:
        return SatResult(
            satisfiable=satisfiable,
            model=model or {},
            core=[self._dimacs(lit) for lit in core] if core else [],
            conflicts=conflicts,
            decisions=decisions,
            propagations=self._propagations,
        )

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: int | None = None,
        interrupt: Callable[[], bool] | None = None,
    ) -> SatResult:
        """Solve the instance under temporary unit ``assumptions``.

        ``max_conflicts`` caps the search (result ``satisfiable=None`` when
        exhausted); ``interrupt`` is polled every few conflicts and aborts
        the run with ``satisfiable=None`` when it returns True.  Both are
        per-call limits.  The solver is left at decision level 0 and fully
        reusable whatever the outcome; only a clause-database-level conflict
        (``core == []``) pins it to UNSAT permanently.
        """
        self._propagations = 0
        if not self._ok:
            return self._result(False, 0, 0)
        self._backtrack(0)
        # units added since the last call are already on the trail at
        # level 0; propagate them
        if self._propagate() is not None:
            self._ok = False
            return self._result(False, 0, 0)
        assumed = [self._code(lit) for lit in assumptions]
        value = self._value
        trail = self._trail
        trail_lim = self._trail_lim
        watches = self._watches
        conflicts = decisions = 0
        restart_count = 0
        conflicts_until_restart = 100 * _luby(restart_count + 1)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                out_of_budget = max_conflicts is not None and conflicts > max_conflicts
                if not out_of_budget and (
                    interrupt is not None
                    and conflicts % _INTERRUPT_GRANULARITY == 0
                ):
                    out_of_budget = interrupt()
                if out_of_budget:
                    self._backtrack(0)
                    return self._result(None, conflicts, decisions)
                if not trail_lim:
                    self._ok = False
                    return self._result(False, conflicts, decisions)
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self._var_inc *= 1.05
                if len(learned) == 1:
                    self._enqueue(learned[0], None)  # at level 0, for good
                else:
                    watches[learned[0]].append(learned)  # retained across calls
                    watches[learned[1]].append(learned)
                    self._enqueue(learned[0], learned)
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_count += 1
                    conflicts_until_restart = 100 * _luby(restart_count + 1)
                    self._backtrack(0)
                continue

            # pick assumptions first
            decided = False
            for lit in assumed:
                assigned = value[lit]
                if assigned is False:
                    core = self._analyze_final(lit)
                    self._backtrack(0)
                    return self._result(False, conflicts, decisions, core=core)
                if assigned is None:
                    trail_lim.append(len(trail))
                    self._enqueue(lit, None)
                    decided = True
                    break
            if decided:
                continue

            var = self._decide()
            if var is None:
                external = self._external
                model = {external[lit >> 1]: not (lit & 1) for lit in trail}
                result = self._result(True, conflicts, decisions, model=model)
                self._backtrack(0)
                return result
            decisions += 1
            trail_lim.append(len(trail))
            self._enqueue((var << 1) | self._phase[var], None)


def solve_cnf(
    clauses: Iterable[Sequence[int]],
    assumptions: Sequence[int] = (),
    max_conflicts: int | None = None,
    interrupt: Callable[[], bool] | None = None,
) -> SatResult:
    """One-shot convenience wrapper around :class:`Solver`."""
    solver = Solver()
    solver.add_clauses(clauses)
    return solver.solve(
        assumptions=assumptions, max_conflicts=max_conflicts, interrupt=interrupt
    )
