"""Tests for proof-obligation generation and discharge."""

import pytest

from repro.core import transform
from repro.hdl import expr as E
from repro.jobs import EngineParams, discharge_jobs
from repro.machine import toy
from repro.proofs import (
    ObligationKind,
    Status,
    generate_obligations,
    instrument_scheduling,
)


@pytest.fixture(scope="module")
def toy_obligations(toy_pipelined_module):
    pipelined, obligations = toy_pipelined_module
    return pipelined, obligations


@pytest.fixture(scope="module")
def toy_pipelined_module():
    program = [toy.li(1, 5), toy.add(2, 1, 1), toy.ld(3, 2), toy.add(0, 3, 3)]
    machine = toy.build_toy_machine(program, {10: 8})
    pipelined = transform(machine)
    return pipelined, generate_obligations(pipelined)


class TestGeneration:
    def test_obligation_inventory(self, toy_obligations):
        _pipelined, obligations = toy_obligations
        ids = {o.oid for o in obligations}
        # stall engine: 5 per stage + 2 per stage boundary
        assert "stall.ue_implies_full.0" in ids
        assert "stall.hazard_blocks_update.3" in ids
        assert "stall.no_overwrite.3" in ids
        # forwarding: per network
        assert any(oid.startswith("fwd.hit_implies_full.RF.1") for oid in ids)
        assert any(oid.startswith("fwd.dhaz_feeds_stall.RF.1") for oid in ids)
        # scheduling lemma (no speculation in this machine)
        assert "lemma1.full_iff_diff" in ids
        # trace obligations
        assert "lemma1.trace" in ids
        assert "consistency.scheduling" in ids
        assert "liveness.bounded" in ids

    def test_kinds_partitioned(self, toy_obligations):
        _pipelined, obligations = toy_obligations
        invariants = obligations.invariants()
        traces = obligations.trace_checks()
        assert len(invariants) + len(traces) == len(obligations)
        assert all(o.kind is ObligationKind.INVARIANT for o in invariants)
        assert all(o.checker for o in traces)

    def test_by_id(self, toy_obligations):
        _pipelined, obligations = toy_obligations
        assert obligations.by_id("lemma1.trace").checker == "lemma1"
        with pytest.raises(KeyError):
            obligations.by_id("nope")

    def test_speculative_machine_uses_commit_checker(self):
        from repro.machine.prepared import SpeculationSpec

        machine = toy.build_toy_machine([toy.li(1, 1)])
        machine.add_speculation(
            SpeculationSpec("s", 0, E.const(1, 0), 2, E.const(1, 0))
        )
        obligations = generate_obligations(transform(machine))
        ids = {o.oid for o in obligations}
        assert "consistency.commits" in ids
        assert "consistency.scheduling" not in ids
        assert "lemma1.full_iff_diff" not in ids  # rollback breaks it


class TestInstrumentation:
    def test_counters_added_once(self, toy_obligations):
        pipelined, _obligations = toy_obligations
        prop_a = instrument_scheduling(pipelined)
        prop_b = instrument_scheduling(pipelined)  # idempotent
        assert prop_a is prop_b
        for k in range(4):
            assert f"isched.{k}" in pipelined.module.registers

    def test_counters_track_schedule(self, toy_pipelined_module):
        from repro.core import compute_schedule
        from repro.hdl.sim import Simulator

        pipelined, _ = toy_pipelined_module
        instrument_scheduling(pipelined)
        sim = Simulator(pipelined.module)
        for _ in range(25):
            sim.step()
        schedule = compute_schedule(sim.trace, 4)
        for k in range(4):
            assert sim.trace.probe(f"isched.{k}.value")[-1] == schedule(k, 24) % 256


class TestDischarge:
    def test_all_obligations_discharge(self, toy_obligations):
        pipelined, obligations = toy_obligations
        report = discharge_jobs(
            pipelined,
            obligations,
            params=EngineParams(trace_cycles=50),
            jobs=1,
            cache=None,
        )
        assert report.ok, [r.oid for r in report.failed]
        counts = report.counts()
        assert counts.get("proved", 0) >= 25
        assert counts.get("trace-ok", 0) == 3
        assert "failed" not in counts

    def test_lemma1_is_inductive(self, toy_obligations):
        pipelined, obligations = toy_obligations
        report = discharge_jobs(
            pipelined,
            obligations,
            params=EngineParams(trace_cycles=30),
            jobs=1,
            cache=None,
        )
        record = next(r for r in report.records if r.oid == "lemma1.full_iff_diff")
        assert record.status is Status.PROVED
        assert "induction" in record.method

    def test_summary_format(self, toy_obligations):
        pipelined, obligations = toy_obligations
        report = discharge_jobs(
            pipelined,
            obligations,
            params=EngineParams(trace_cycles=30),
            jobs=1,
            cache=None,
        )
        text = report.format_text().splitlines()[0]
        assert "obligations" in text
        assert str(len(report.records)) in text

    def test_detects_broken_stall_engine(self):
        """Sabotage the interlock: force dhaz to never stall — obligations
        must fail (both by induction counterexample and by trace)."""
        program = [toy.li(1, 4), toy.ld(2, 1), toy.add(3, 2, 2)]
        machine = toy.build_toy_machine(program, {4: 6})
        pipelined = transform(machine)
        module = pipelined.module
        # Break it: stage 1's full bit update ignores stalls (drops the
        # "or stall" term), so the load-use consumer stalled in stage 1
        # silently vanishes from the pipe.
        module.drive_register(
            "fullb.1",
            pipelined.engine.ue[0],
        )
        obligations = generate_obligations(pipelined)
        report = discharge_jobs(
            pipelined,
            obligations,
            params=EngineParams(trace_cycles=40, max_k=1),
            jobs=1,
            cache=None,
        )
        assert not report.ok
        failing = {r.oid for r in report.failed}
        assert failing  # at least the scheduling/consistency checks break