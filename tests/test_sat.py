"""Tests for the CDCL SAT solver."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formal.sat import SOLVER_VERSION, Solver, _luby, solve_cnf


def brute_force(clauses, num_vars):
    """Reference decision procedure for small instances."""
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return assignment
    return None


def check_model(clauses, model):
    return all(
        any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
        for clause in clauses
    )


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestBasics:
    def test_empty_instance_is_sat(self):
        assert solve_cnf([]).satisfiable is True

    def test_single_unit(self):
        result = solve_cnf([[3]])
        assert result.satisfiable
        assert result.value(3) is True

    def test_contradiction(self):
        assert solve_cnf([[1], [-1]]).satisfiable is False

    def test_empty_clause_unsat(self):
        assert solve_cnf([[1], []]).satisfiable is False

    def test_zero_literal_rejected(self):
        solver = Solver()
        with pytest.raises(ValueError):
            solver.add_clause([0])

    def test_tautology_dropped(self):
        assert solve_cnf([[1, -1]]).satisfiable is True

    def test_duplicate_literals_merged(self):
        result = solve_cnf([[2, 2, 2]])
        assert result.satisfiable
        assert result.value(2)

    def test_simple_implication_chain(self):
        # 1 -> 2 -> 3 -> 4, and 1
        result = solve_cnf([[1], [-1, 2], [-2, 3], [-3, 4]])
        assert result.satisfiable
        assert all(result.value(v) for v in (1, 2, 3, 4))

    def test_xor_chain_unsat(self):
        # x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is unsatisfiable
        clauses = [
            [1, 2], [-1, -2],
            [2, 3], [-2, -3],
            [1, 3], [-1, -3],
        ]
        assert solve_cnf(clauses).satisfiable is False

    def test_assumptions_sat_then_unsat(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]).satisfiable is True
        assert solver.solve(assumptions=[-1, -2]).satisfiable is False
        # the solver is reusable after assumption-based calls
        assert solver.solve().satisfiable is True

    def test_conflict_budget(self):
        clauses = pigeonhole(5, 4)
        result = solve_cnf(clauses, max_conflicts=1)
        assert result.satisfiable is None


def pigeonhole(pigeons, holes):
    """PHP(p, h): p pigeons in h holes, unsatisfiable when p > h."""
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestHardInstances:
    def test_pigeonhole_4_3_unsat(self):
        assert solve_cnf(pigeonhole(4, 3)).satisfiable is False

    def test_pigeonhole_5_4_unsat(self):
        assert solve_cnf(pigeonhole(5, 4)).satisfiable is False

    def test_pigeonhole_4_4_sat(self):
        result = solve_cnf(pigeonhole(4, 4))
        assert result.satisfiable is True
        assert check_model(pigeonhole(4, 4), result.model)


class TestRandomInstances:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_3sat_matches_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = 8
        num_clauses = rng.randint(20, 40)
        clauses = []
        for _ in range(num_clauses):
            lits = rng.sample(range(1, num_vars + 1), 3)
            clauses.append([lit if rng.random() < 0.5 else -lit for lit in lits])
        expected = brute_force(clauses, num_vars)
        result = solve_cnf(clauses)
        assert result.satisfiable is (expected is not None)
        if result.satisfiable:
            assert check_model(clauses, result.model)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_hypothesis_cnf(self, clauses):
        expected = brute_force(clauses, 6)
        result = solve_cnf(clauses)
        assert result.satisfiable is (expected is not None)
        if result.satisfiable:
            assert check_model(clauses, result.model)


class TestIncremental:
    """Assumption semantics and solver-state reuse across solve() calls."""

    def test_core_is_subset_of_assumptions(self):
        solver = Solver()
        solver.add_clause([-1, -2])  # at most one of 1, 2
        assumptions = [1, 2, 3, 4]
        result = solver.solve(assumptions=assumptions)
        assert result.satisfiable is False
        assert result.core
        assert set(result.core) <= set(assumptions)
        # the core alone is already unsatisfiable with the database
        assert solver.solve(assumptions=result.core).satisfiable is False

    def test_core_irrelevant_assumptions_excluded(self):
        solver = Solver()
        solver.add_clause([-1])
        result = solver.solve(assumptions=[5, 1, 7])
        assert result.satisfiable is False
        assert set(result.core) == {1}

    def test_core_empty_only_for_database_unsat(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        result = solver.solve(assumptions=[2])
        assert result.satisfiable is False
        assert result.core == []
        # a database-level contradiction pins the solver to UNSAT
        assert solver.solve().satisfiable is False

    def test_core_via_propagation_chain(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([-3, -4])
        result = solver.solve(assumptions=[1, 4])
        assert result.satisfiable is False
        assert set(result.core) <= {1, 4}
        assert len(result.core) == 2  # both assumptions are needed

    def test_reusable_after_sat_and_unsat(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        assert solver.solve(assumptions=[1]).satisfiable is True
        assert solver.solve(assumptions=[-2]).satisfiable is False
        assert solver.solve(assumptions=[2]).satisfiable is True
        assert solver.solve().satisfiable is True

    def test_clauses_added_between_calls(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]).satisfiable is True
        solver.add_clause([-2])
        result = solver.solve(assumptions=[-1])
        assert result.satisfiable is False
        assert set(result.core) == {-1}
        assert solver.solve().satisfiable is True  # 1 forced, fine alone

    def test_learned_clauses_sound_across_assumption_calls(self):
        """Whatever is learned under assumptions must be implied by the
        clause database alone: brute-force every later call."""
        rng = random.Random(7)
        num_vars = 8
        clauses = []
        for _ in range(30):
            lits = rng.sample(range(1, num_vars + 1), 3)
            clauses.append([lit if rng.random() < 0.5 else -lit for lit in lits])
        solver = Solver()
        solver.add_clauses(clauses)
        for trial in range(12):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 3))
            ]
            expected = brute_force([*clauses, *([a] for a in assumptions)], num_vars)
            result = solver.solve(assumptions=assumptions)
            assert result.satisfiable is (expected is not None), (trial, assumptions)
            if result.satisfiable:
                assert check_model(clauses, result.model)
                assert all(result.model.get(abs(a), False) == (a > 0) for a in assumptions)
            else:
                assert set(result.core) <= set(assumptions)

    def test_budget_aborts_mid_incremental_call(self):
        clauses = pigeonhole(6, 5)
        solver = Solver()
        solver.add_clauses(clauses)
        result = solver.solve(assumptions=[1], max_conflicts=2)
        assert result.satisfiable is None
        # budget does not carry over; an unbudgeted retry completes
        result = solver.solve(assumptions=[1])
        assert result.satisfiable is False
        # ... and the solver is still consistent for a different query
        assert solver.solve(assumptions=[1, 2]).satisfiable is False

    def test_interrupt_aborts_mid_incremental_call(self):
        # PHP(7,6) takes >64 conflicts, so the interrupt poll (every 64
        # conflicts) fires at least once mid-search
        clauses = pigeonhole(7, 6)
        solver = Solver()
        solver.add_clauses(clauses)
        calls = []

        def interrupt():
            calls.append(True)
            return True

        result = solver.solve(assumptions=[1], interrupt=interrupt)
        assert result.satisfiable is None
        assert calls  # the callback was actually polled
        # the aborted call leaves the solver reusable
        assert solver.solve(assumptions=[1]).satisfiable is False

    def test_phase_and_activity_survive_calls(self):
        solver = Solver()
        solver.add_clauses(pigeonhole(4, 4))
        first = solver.solve()
        assert first.satisfiable is True
        again = solver.solve()
        assert again.satisfiable is True
        # phase saving replays the previous model without any conflicts
        assert again.conflicts == 0


# ---------------------------------------------------------------------------
# The search trajectory, pinned
#
# Cached verdicts are keyed on SOLVER_VERSION, so any change that could alter
# a verdict has to bump it.  A change that keeps the search step for step
# need not, and these constants are what "step for step" means: for fixed
# instances, every solve() must return the same satisfiability, conflict,
# decision and propagation counts, the same model literals in trail order
# and the same core.  They were recorded on the solver before it moved to
# dense arrays.
# ---------------------------------------------------------------------------


def random_3sat(seed, num_vars, num_clauses):
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        lits = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([lit if rng.random() < 0.5 else -lit for lit in lits])
    return clauses


def trajectory(result):
    return (
        result.satisfiable,
        result.conflicts,
        result.decisions,
        result.propagations,
        [var if value else -var for var, value in result.model.items()],
        result.core,
    )


INSTANCES = {
    "php-5-4": lambda: pigeonhole(5, 4),
    "php-4-4": lambda: pigeonhole(4, 4),
    "3sat-40-0": lambda: random_3sat(0, 40, 170),
    "3sat-40-2": lambda: random_3sat(2, 40, 170),
    "3sat-100-1": lambda: random_3sat(1, 100, 426),
    "3sat-120-1": lambda: random_3sat(1, 120, 511),
}

TRAJECTORIES = {
    "php-5-4": (False, 28, 38, 337, [], []),
    "php-4-4": (
        True, 0, 6, 16,
        [-1, -2, -3, 4, -8, -12, -16, -5, -6, 7, -11, -15, -9, 10, -14, 13],
        [],
    ),
    "3sat-40-0": (False, 49, 54, 739, [], []),
    "3sat-40-2": (False, 65, 71, 995, [], []),
    "3sat-100-1": (
        True, 18, 43, 672,
        [-1, -2, -3, -4, -5, -63, -6, -7, -8, -9, -44, 10, -24, -47, 88, -70,
         -86, 27, -32, 28, 17, -16, -66, 21, -48, -43, -83, -23, -15, 40, -57,
         -41, -51, 84, -50, -29, -92, -65, 30, 74, 96, 13, 71, 87, -26, 73, 19,
         98, 46, 20, -54, -59, -58, -81, 80, 69, 56, 100, -11, -89, -22, -75,
         -38, -78, -97, -36, 64, 93, 99, -67, -52, -79, 76, -85, 33, 82, 72,
         91, -12, -90, -77, 42, -94, 95, -34, -14, 68, 31, 49, -45, -18, 39,
         55, -62, 35, -25, 37, 53, 60, -61],
        [],
    ),
    "3sat-120-1": (
        True, 445, 546, 15933,
        [-51, -18, -77, -41, 12, 32, 120, 35, -23, -92, -108, 2, -58, 28, -45,
         -90, 63, 75, 89, 46, -112, -54, 20, 81, -102, 29, 103, -52, 3, 73, 16,
         -96, -101, -8, 9, -4, -70, 86, -117, 83, 94, -62, 106, -115, -15, 40,
         -31, -21, -78, -55, 67, -104, -111, -110, -113, 53, -49, -10, -65, 56,
         88, -42, 13, -100, -43, 22, -7, -107, 33, -95, -82, -25, -66, 38, 74,
         37, -116, -26, -17, 93, 50, -59, 60, -5, 80, -76, -6, 19, -1, 109,
         119, -64, 48, 14, -85, -91, -57, -98, -99, 36, 105, 84, -34, -114, 79,
         118, 87, -44, 68, 47, 61, 71, 27, 69, 72, 97, 39, -24, 30, 11],
        [],
    ),
    "php-6-5-rescale": (False, 154, 186, 2153, [], []),
}

# one trajectory per solve() of incremental_steps()
INCREMENTAL = [
    (
        True, 3, 39, 109,
        [-31, 32, -33, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12, -13,
         -14, -15, -16, -17, -18, -19, -20, -21, -22, -23, -24, -25, -26, -27,
         -28, -29, -30, -34, 35, -48, 43, 60, 40, 59, -61, -56, -42, 51, 58,
         -55, 38, 54, 53, -50, -47, 37, 49, -39, -57, -44, 36, 52, 45, 46, -41],
        [],
    ),
    (None, 26, 50, 353, [], []),
    (False, 0, 0, 1, [], [-33]),
    (
        True, 0, 40, 61,
        [33, 70, -31, 45, -23, -28, 17, -25, -9, -22, -19, -24, -7, -10, 29,
         -30, -20, -6, 8, -16, -27, -18, -26, 21, 13, -15, -14, -12, -11, 32,
         -57, 35, 37, -48, 60, -34, 43, -61, 58, -55, 38, 49, -39, 40, 59, -56,
         -42, 54, 53, -44, 51, -50, -47, 36, 52, 46, -1, -2, -3, -4, 5, -41],
        [],
    ),
    (False, 153, 181, 2095, [], [31]),
    (False, 0, 0, 8, [], [32, -41, -40]),
    (
        True, 2, 40, 84,
        [33, -31, -12, -15, 2, -10, 13, -23, -5, -25, 20, -28, -17, -8, -30,
         -9, -7, -22, -3, -27, 14, -11, -1, 6, -4, -29, 24, -26, -21, -19, -18,
         -16, -32, -51, 35, 48, -59, -34, -37, 57, 53, -61, 58, 49, -56, -54,
         46, -50, 45, 52, 38, 60, -55, -39, -47, 41, -42, 36, 43, 40, -44],
        [],
    ),
]

# (oid, status, method, conflicts, frames) of the toy suite, sorted by oid
TOY_SUITE = [
    ("consistency.scheduling", "trace-ok", "trace(200 cycles)", 0, 0),
    ("fwd.dhaz_feeds_stall.RF.1.0", "proved", "1-induction", 1, 2),
    ("fwd.dhaz_feeds_stall.RF.1.1", "proved", "1-induction", 1, 2),
    ("fwd.hit_implies_full.RF.1.0.2", "proved", "1-induction", 1, 2),
    ("fwd.hit_implies_full.RF.1.0.3", "proved", "1-induction", 1, 2),
    ("fwd.hit_implies_full.RF.1.1.2", "proved", "1-induction", 1, 2),
    ("fwd.hit_implies_full.RF.1.1.3", "proved", "1-induction", 1, 2),
    ("lemma1.full_iff_diff", "proved", "1-induction", 678, 2),
    ("lemma1.trace", "trace-ok", "trace(200 cycles)", 0, 0),
    ("liveness.bounded", "trace-ok", "trace(200 cycles)", 0, 0),
    ("stall.hazard_blocks_update.0", "proved", "1-induction", 0, 2),
    ("stall.hazard_blocks_update.1", "proved", "1-induction", 0, 2),
    ("stall.hazard_blocks_update.2", "proved", "1-induction", 0, 2),
    ("stall.hazard_blocks_update.3", "proved", "1-induction", 0, 2),
    ("stall.no_overwrite.1", "proved", "1-induction", 0, 2),
    ("stall.no_overwrite.2", "proved", "1-induction", 1, 2),
    ("stall.no_overwrite.3", "proved", "1-induction", 1, 2),
    ("stall.no_ue_when_stalled.0", "proved", "1-induction", 0, 2),
    ("stall.no_ue_when_stalled.1", "proved", "1-induction", 0, 2),
    ("stall.no_ue_when_stalled.2", "proved", "1-induction", 0, 2),
    ("stall.no_ue_when_stalled.3", "proved", "1-induction", 0, 2),
    ("stall.propagates.0", "proved", "1-induction", 0, 2),
    ("stall.propagates.1", "proved", "1-induction", 0, 2),
    ("stall.propagates.2", "proved", "1-induction", 0, 2),
    ("stall.squash_blocks_update.0", "proved", "1-induction", 0, 2),
    ("stall.squash_blocks_update.1", "proved", "1-induction", 0, 2),
    ("stall.squash_blocks_update.2", "proved", "1-induction", 0, 2),
    ("stall.squash_blocks_update.3", "proved", "1-induction", 0, 2),
    ("stall.stall_implies_full.0", "proved", "1-induction", 0, 2),
    ("stall.stall_implies_full.1", "proved", "1-induction", 0, 2),
    ("stall.stall_implies_full.2", "proved", "1-induction", 0, 2),
    ("stall.stall_implies_full.3", "proved", "1-induction", 0, 2),
    ("stall.ue_implies_full.0", "proved", "1-induction", 0, 2),
    ("stall.ue_implies_full.1", "proved", "1-induction", 0, 2),
    ("stall.ue_implies_full.2", "proved", "1-induction", 0, 2),
    ("stall.ue_implies_full.3", "proved", "1-induction", 0, 2),
]


def incremental_steps():
    """Assumptions, a budget abort, an assumption on a variable no clause
    mentions, and clauses added between calls, all on one solver."""
    solver = Solver()
    # PHP(6, 5) guarded by activation variable 31; random 3-SAT over 32..61
    solver.add_clauses([-31, *clause] for clause in pigeonhole(6, 5))
    solver.add_clauses(
        [lit + 31 if lit > 0 else lit - 31 for lit in clause]
        for clause in random_3sat(11, 30, 120)
    )
    steps = [solver.solve(assumptions=[-31, 32, -33])]
    steps.append(solver.solve(assumptions=[31], max_conflicts=25))
    solver.add_clause([-32, 40, 41])
    solver.add_clause([33])
    steps.append(solver.solve(assumptions=[-31, -33, 70]))
    steps.append(solver.solve(assumptions=[70, -31, 45]))
    steps.append(solver.solve(assumptions=[31, 45]))
    solver.add_clause([-31, -34])
    steps.append(solver.solve(assumptions=[-40, -41, 32]))
    steps.append(solver.solve())
    return [trajectory(step) for step in steps]


class TestTrajectory:
    def test_solver_version(self):
        assert SOLVER_VERSION == 2

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_one_shot(self, name):
        assert trajectory(solve_cnf(INSTANCES[name]())) == TRAJECTORIES[name]

    def test_activity_rescale(self):
        # starting near the 1e100 rescale threshold makes the first few
        # conflicts rescale every activity and rebuild the decision order
        solver = Solver()
        solver.add_clauses(pigeonhole(6, 5))
        solver._var_inc = 1e98
        assert trajectory(solver.solve()) == TRAJECTORIES["php-6-5-rescale"]

    def test_incremental_sequence(self):
        assert incremental_steps() == INCREMENTAL

    def test_toy_suite(self, toy_pipelined):
        from repro.jobs import discharge_jobs
        from repro.proofs import generate_obligations

        report = discharge_jobs(
            toy_pipelined, generate_obligations(toy_pipelined), jobs=1, cache=None
        )
        rows = sorted(
            (r.oid, r.status.value, r.method, r.conflicts, r.frames)
            for r in (o.record for o in report.outcomes)
        )
        assert rows == TOY_SUITE
