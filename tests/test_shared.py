"""Cross-obligation proof sharing (repro.formal.shared + group scheduling).

The contract under test: grouped discharge over one shared unrolling is a
pure *cost* optimisation — statuses and methods are what the one-shot
engines (``incremental=False``, the test oracle) decide for each
obligation on its own — and a group task degrades cleanly (a member
timing out mid-group, a SIGKILLed or hung group worker) without costing
its finished siblings anything.

The sabotage pattern mirrors ``test_jobs_robustness``: workers are
forked, so monkeypatching the engine's per-task stream
``repro.jobs.engine._solver_record`` in the parent is inherited by every
child.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

import repro.jobs.engine as engine_mod
from repro.core import transform
from repro.formal.bmc import TransitionSystem, bmc, k_induction
from repro.formal.shared import SharedContext, SharedMember, group_key
from repro.hdl import expr as E
from repro.hdl.netlist import Module
from repro.jobs import EngineParams, discharge_jobs
from repro.proofs import (
    Status,
    discharge_invariant_group,
    generate_obligations,
    resolve_properties,
)
from repro.proofs.obligations import Obligation, ObligationKind

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="worker-pool tests need fork"
)


@pytest.fixture()
def toy_obligations(toy_pipelined):
    return generate_obligations(toy_pipelined)


def _toy_invariants(toy_pipelined, toy_obligations):
    resolve_properties(toy_pipelined, toy_obligations)
    system = TransitionSystem.from_module(toy_pipelined.module)
    return system, toy_obligations.invariants()


def _oracle_verdicts(pipelined, one_shot_verdict):
    """``{oid: (status, method)}`` of every invariant from the one-shot
    oracle, on the obligations the engine solves: properties resolved and
    the mined invariants injected, exactly as ``discharge_jobs`` does."""
    from repro.absint import inject_invariants, mine_invariants

    obligations = generate_obligations(pipelined)
    resolve_properties(pipelined, obligations)
    system = TransitionSystem.from_module(pipelined.module)
    ordered = list(obligations)
    mining = mine_invariants(pipelined, system=system)
    if mining.proven:
        ordered = inject_invariants(ordered, mining.proven, system)
    return {
        o.oid: one_shot_verdict(system, o)
        for o in ordered
        if o.kind is ObligationKind.INVARIANT
    }


def _assert_grouped_match_oracle(pipelined, trace_cycles, one_shot_verdict):
    expected = _oracle_verdicts(pipelined, one_shot_verdict)
    report = discharge_jobs(
        pipelined,
        generate_obligations(pipelined),
        params=EngineParams(trace_cycles=trace_cycles),
        jobs=2,
    )
    grouped = {
        o.record.oid: (o.record.status.value, o.record.method)
        for o in report.outcomes
        if o.record.oid in expected
    }
    assert grouped == expected
    # every invariant verdict came out of a shared-unrolling group
    assert all(
        o.source == "group" for o in report.outcomes if o.record.oid in expected
    )


# ---------------------------------------------------------------------------
# SharedContext unit behaviour


def test_group_key_is_hash_consed_identity(toy_pipelined):
    module = toy_pipelined.module
    a = TransitionSystem.from_module(module)
    b = TransitionSystem.from_module(module)
    assert group_key(a) == group_key(b)


def test_shared_context_matches_one_shot_oracle(
    toy_pipelined, toy_obligations
):
    system, invariants = _toy_invariants(toy_pipelined, toy_obligations)
    sample = invariants[:6]
    context = SharedContext(
        system,
        [SharedMember(o.prop, tuple(o.assume)) for o in sample],
    )
    for index, obligation in enumerate(sample):
        mine = context.k_induction(index, 1)
        theirs = k_induction(
            system,
            obligation.prop,
            k=1,
            assume=list(obligation.assume),
            incremental=False,
        )
        assert mine.holds == theirs.holds, obligation.oid
        assert mine.method == theirs.method, obligation.oid


def test_shared_context_finds_identical_counterexample_bounds(
    toy_pipelined, toy_obligations
):
    """A falsified member reports the same failure bound as the one-shot
    engine (the model itself may legitimately differ)."""
    system, invariants = _toy_invariants(toy_pipelined, toy_obligations)
    good = invariants[0]
    bad_prop = E.bnot(good.prop)
    context = SharedContext(
        system, [SharedMember(good.prop), SharedMember(bad_prop)]
    )
    mine = context.bmc_to(1, 4)
    theirs = bmc(system, bad_prop, bound=4, incremental=False)
    assert mine.holds is False and theirs.holds is False
    assert mine.bound == theirs.bound
    assert mine.counterexample is not None
    # and the sibling's verdict is unaffected by the failing member
    assert context.bmc_to(0, 4).holds is True


def test_shared_context_members_do_not_leak_assumptions(toy_pipelined):
    """A member's (false) assumption must not constrain its siblings."""
    module = toy_pipelined.module
    system = TransitionSystem.from_module(module)
    invariants = generate_obligations(toy_pipelined).invariants()
    prop = invariants[0].prop
    false_assume = E.const(1, 0)
    context = SharedContext(
        system,
        [
            # member 0: assumes false, so *anything* holds vacuously
            SharedMember(E.bnot(prop), (false_assume,)),
            # member 1: the real property, no assumptions
            SharedMember(prop),
        ],
    )
    assert context.bmc_to(0, 2).holds is True
    # if member 0's false assumption leaked, this bmc query would be
    # vacuously UNSAT-happy too; it must still be a real check
    assert context.bmc_to(1, 2).holds is True
    assert bmc(system, prop, bound=2, incremental=False).holds is True


# ---------------------------------------------------------------------------
# Verdict equivalence: grouped == the one-shot oracle


@needs_fork
def test_grouped_verdicts_identical_toy(toy_pipelined, one_shot_verdict):
    _assert_grouped_match_oracle(toy_pipelined, 60, one_shot_verdict)


def _dlx_small_pipelined():
    from repro.dlx import DlxConfig, build_dlx_machine
    from repro.dlx.programs import fibonacci

    workload = fibonacci(5)
    machine = build_dlx_machine(
        workload.program,
        data=workload.data,
        config=DlxConfig(imem_addr_width=6, dmem_addr_width=4),
    )
    return transform(machine)


def _dlx_spec_pipelined():
    from repro.dlx import assemble
    from repro.dlx.speculative import DlxSpecConfig, build_dlx_spec_machine

    source = """
        addi r1, r0, 3
loop:   subi r1, r1, 1
        bnez r1, loop
halt:   j halt
    """
    machine = build_dlx_spec_machine(
        assemble(source),
        config=DlxSpecConfig(
            predictor="btfn", imem_addr_width=5, dmem_addr_width=4
        ),
    )
    return transform(machine)


@needs_fork
@pytest.mark.slow
@pytest.mark.parametrize(
    "build", [_dlx_small_pipelined, _dlx_spec_pipelined],
    ids=["dlx-small", "dlx-spec"],
)
def test_grouped_verdicts_identical_dlx(build, one_shot_verdict):
    _assert_grouped_match_oracle(build(), 100, one_shot_verdict)


# ---------------------------------------------------------------------------
# Per-obligation timeouts inside a group


def _hard_group_module():
    """Two easy invariants around one SAT-hard (but valid) one:
    multiplier commutativity over free inputs, which this CDCL solver
    cannot settle within any small budget."""
    width = 8
    module = Module("hard_group")
    a_in = module.add_input("a_in", width)
    b_in = module.add_input("b_in", width)
    a = module.add_register("a", width, next=a_in)
    b = module.add_register("b", width, next=b_in)
    c = module.add_register("c", 1, init=0)
    module.drive_register("c", E.reg_read("c", 1))
    d = module.add_register("d", 1, init=0)
    module.drive_register("d", E.reg_read("d", 1))
    module.add_probe("p", E.eq(E.mul(a, b), E.mul(b, a)))

    def invariant(oid, prop):
        return Obligation(
            oid=oid, title=oid, kind=ObligationKind.INVARIANT, prop=prop
        )

    obligations = [
        invariant("easy.c", E.eq(c, E.const(1, 0))),
        invariant("hard.mul", E.eq(E.mul(a, b), E.mul(b, a))),
        invariant("easy.d", E.eq(d, E.const(1, 0))),
    ]
    return TransitionSystem.from_module(module), obligations


def test_mid_group_timeout_is_isolated():
    """A member blowing its budget mid-group times out alone; its
    siblings before *and after* still get real verdicts."""
    system, obligations = _hard_group_module()
    records = dict(
        discharge_invariant_group(
            system, obligations, member_timeout=0.5
        )
    )
    assert records[0].status is Status.PROVED
    assert records[2].status is Status.PROVED
    assert records[1].status is Status.UNKNOWN
    assert records[1].method == "timeout(0.5s)"
    assert "deadline inside a shared group" in records[1].detail


def test_group_timeout_discards_late_verdicts(toy_pipelined, toy_obligations):
    """The wall budget is strict, matching the classic pool's hard
    deadline: a member past its deadline is a timeout even if a verdict
    landed moments later.  With a sub-microsecond budget every verdict
    is late — the solver never even polls its interrupt on members this
    easy, so only the post-hoc deadline check can catch them."""
    system, invariants = _toy_invariants(toy_pipelined, toy_obligations)
    sample = invariants[:4]
    records = dict(
        discharge_invariant_group(system, sample, member_timeout=1e-6)
    )
    for index in range(len(sample)):
        assert records[index].status is Status.UNKNOWN
        assert records[index].method.startswith("timeout(")


# ---------------------------------------------------------------------------
# Group-worker robustness under the jobs engine


def _group_sabotage(monkeypatch, behaviour):
    """Wrap the per-task stream; forked workers inherit the patch.

    ``behaviour(obligation)`` runs just before each member's record would
    be shipped."""
    original = engine_mod._solver_record

    def wrapped(system, obligations, params, member_timeout):
        for index, record in original(
            system, obligations, params, member_timeout
        ):
            behaviour(obligations[index])
            yield index, record

    monkeypatch.setattr(engine_mod, "_solver_record", wrapped)


@needs_fork
def test_sigkilled_group_worker_falls_back_cleanly(
    monkeypatch, tmp_path, toy_pipelined, toy_obligations
):
    """A group worker dying mid-group loses nothing: streamed verdicts
    stand, the member on the bench is relaunched alone, the members after
    it rerun as one group, and the run completes with every verdict
    correct."""
    invariant_oids = [o.oid for o in toy_obligations.invariants()]
    victim = invariant_oids[5]
    flag = tmp_path / "killed-once"

    def behaviour(obligation):
        if obligation.oid == victim and not flag.exists():
            flag.touch()
            os.kill(os.getpid(), signal.SIGKILL)

    _group_sabotage(monkeypatch, behaviour)
    report = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=EngineParams(trace_cycles=60, max_retries=1),
        jobs=2,
    )
    assert report.ok
    by_oid = {o.record.oid: o for o in report.outcomes}
    # the victim was relaunched alone and succeeded, carrying the group
    # launch in its attempt count
    assert by_oid[victim].source == "group"
    assert by_oid[victim].attempts == 2
    assert report.crashes == 1 and report.retries == 1
    # verdicts streamed before the crash stand; the members after the
    # victim reran with a clean slate
    assert all(
        by_oid[oid].source == "group" and by_oid[oid].attempts == 1
        for oid in invariant_oids
        if oid != victim
    )


@needs_fork
def test_hung_group_worker_hits_parent_backstop(
    monkeypatch, toy_pipelined, toy_obligations
):
    """A group worker that stops responding entirely (not even the
    cooperative interrupt can fire) is killed by the parent's backstop;
    the member on the bench times out, its siblings are rescued."""
    invariant_oids = [o.oid for o in toy_obligations.invariants()]
    victim = invariant_oids[3]

    def behaviour(obligation):
        if obligation.oid == victim:
            time.sleep(60)

    _group_sabotage(monkeypatch, behaviour)
    monkeypatch.setattr(engine_mod, "_GROUP_GRACE", 0.5)
    report = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=EngineParams(trace_cycles=60),
        jobs=2,
        timeout=1.0,
    )
    by_oid = {o.record.oid: o for o in report.outcomes}
    assert by_oid[victim].source == "timeout"
    assert by_oid[victim].record.status is Status.UNKNOWN
    assert by_oid[victim].record.method == "timeout(1s)"
    # every sibling of the hung member still has its real verdict
    others = [
        o
        for oid, o in by_oid.items()
        if oid != victim and oid in invariant_oids
    ]
    assert others and all(o.record.ok for o in others)
    assert report.wall_seconds < 45


# ---------------------------------------------------------------------------
# Scoped interning across group discharges (satellite regression)


def test_intern_table_pinned_across_group_discharges(
    toy_pipelined, toy_obligations
):
    """Two consecutive grouped discharges leave the intern table exactly
    where it started: everything a group interns is scoped."""
    system, invariants = _toy_invariants(toy_pipelined, toy_obligations)
    size_before = len(E._INTERN)
    for _ in range(2):
        with E.scoped_intern():
            records = dict(discharge_invariant_group(system, invariants))
            assert all(
                records[i].ok for i in range(len(invariants))
            )
        assert len(E._INTERN) == size_before
