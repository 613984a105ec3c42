"""Deeper coverage: style-equivalence obligations, external (slow-memory)
stalls on the DLX, and property-based random-program consistency."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    TransformOptions,
    check_data_consistency,
    transform,
)
from repro.dlx import DlxConfig, assemble, build_dlx_machine
from repro.hdl import expr as E
from repro.jobs import EngineParams, discharge_jobs
from repro.machine import toy
from repro.proofs import (
    Obligation,
    ObligationKind,
    ObligationSet,
    Status,
    generate_obligations,
)


class TestStyleEquivalenceObligations:
    @pytest.mark.parametrize("style", ["tree", "bus"])
    def test_emitted_and_proved(self, style):
        program = [toy.li(1, 3), toy.add(2, 1, 1)]
        machine = toy.build_toy_machine(program)
        pipelined = transform(machine, TransformOptions(forwarding_style=style))
        obligations = generate_obligations(pipelined)
        equivalences = obligations.equivalences()
        assert len(equivalences) == 2  # one per operand network
        report = discharge_jobs(
            pipelined,
            obligations,
            params=EngineParams(trace_cycles=40),
            jobs=1,
            cache=None,
        )
        assert report.ok
        records = {
            r.oid: r for r in report.records if "style_equivalent" in r.oid
        }
        assert all(r.status is Status.PROVED for r in records.values())
        assert all(r.method == "sat-equivalence" for r in records.values())

    def test_chain_style_emits_none(self, toy_pipelined):
        obligations = generate_obligations(toy_pipelined)
        assert obligations.equivalences() == []

    def test_failed_equivalence_detected(self, toy_pipelined):
        x = E.input_port("eqx", 8)
        bogus = ObligationSet(
            machine_name="bogus",
            obligations=[
                Obligation(
                    oid="fwd.style_equivalent.bogus",
                    title="x == x + 1",
                    kind=ObligationKind.EQUIVALENCE,
                    equiv=(x, E.add(x, E.const(8, 1))),
                )
            ],
        )
        report = discharge_jobs(
            toy_pipelined,
            bogus,
            params=EngineParams(trace_cycles=1),
            jobs=1,
            cache=None,
        )
        assert not report.ok
        assert report.records[0].status is Status.FAILED
        assert "witness" in report.records[0].detail


class TestDlxExternalStalls:
    """Slow memory: the ext_3 input stalls the MEM stage arbitrarily; the
    machine must stay consistent for every stall pattern."""

    SOURCE = """
        addi r1, r0, 4
        sw   0(r0), r1
        lw   r2, 0(r0)
        add  r3, r2, r2
        sw   4(r0), r3
        lw   r4, 4(r0)
halt:   j halt
        nop
    """

    @pytest.fixture(scope="class")
    def machine(self):
        return build_dlx_machine(
            assemble(self.SOURCE), config=DlxConfig(ext_stall_mem=True)
        )

    def test_ext_input_exists(self, machine):
        pipelined = transform(machine)
        assert "ext.3" in pipelined.module.inputs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_consistent_under_random_memory_stalls(self, machine, seed):
        rng = random.Random(seed)
        pattern = [rng.random() < 0.4 for _ in range(600)]

        def stimulus(cycle):
            return {"ext.3": int(pattern[cycle % len(pattern)])}

        pipelined = transform(machine)
        report = check_data_consistency(
            machine,
            pipelined.module,
            cycles=150,
            inputs=stimulus,
            seq_inputs=stimulus,
        )
        assert report.ok, report.first_violation()

    def test_different_stall_patterns_same_results(self, machine):
        """The architectural outcome is independent of memory timing."""
        from repro.hdl.sim import Simulator

        pipelined = transform(machine)

        def final_state(pattern):
            sim = Simulator(pipelined.module)
            for cycle in range(200):
                sim.step({"ext.3": pattern(cycle)})
            return [sim.mem("GPR", reg) for reg in range(8)]

        fast = final_state(lambda cycle: 0)
        slow = final_state(lambda cycle: int(cycle % 3 == 0))
        very_slow = final_state(lambda cycle: int(cycle % 2 == 0))
        assert fast == slow == very_slow

    def test_stall_actually_delays(self, machine):
        from repro.hdl.sim import Simulator

        pipelined = transform(machine)

        def cycles_to_finish(stall):
            sim = Simulator(pipelined.module)
            for cycle in range(300):
                sim.step({"ext.3": stall(cycle)})
                if sim.mem("GPR", 4) == 8:  # final result: r4 = 2 * r1 * 1
                    return cycle
            raise AssertionError("never finished")

        assert cycles_to_finish(lambda c: c % 2 == 0) > cycles_to_finish(
            lambda c: 0
        )


def random_toy_program(rng: random.Random, length: int) -> list[int]:
    """Random but well-formed toy programs (any mix is legal)."""
    program = []
    for _ in range(length):
        choice = rng.random()
        if choice < 0.35:
            program.append(
                toy.add(rng.randrange(4), rng.randrange(4), rng.randrange(4))
            )
        elif choice < 0.65:
            program.append(toy.li(rng.randrange(4), rng.randrange(16)))
        elif choice < 0.8:
            program.append(toy.ld(rng.randrange(4), rng.randrange(4)))
        else:
            program.append(toy.nop())
    return program


class TestPropertyBasedConsistency:
    """The headline theorem, hypothesis-style: for random programs, random
    data memories and every forwarding style, the transformed machine is
    data-consistent with its sequential elaboration."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        style=st.sampled_from(["chain", "tree", "bus"]),
    )
    def test_random_programs_consistent(self, seed, style):
        rng = random.Random(seed)
        program = random_toy_program(rng, rng.randint(3, 16))
        dmem = {addr: rng.randrange(256) for addr in range(16)}
        machine = toy.build_toy_machine(program, dmem)
        pipelined = transform(machine, TransformOptions(forwarding_style=style))
        report = check_data_consistency(machine, pipelined.module, cycles=60)
        assert report.ok, (seed, style, report.first_violation())

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_programs_interlock_only(self, seed):
        rng = random.Random(seed)
        program = random_toy_program(rng, rng.randint(3, 12))
        dmem = {addr: rng.randrange(256) for addr in range(16)}
        machine = toy.build_toy_machine(program, dmem)
        pipelined = transform(machine, TransformOptions(interlock_only=True))
        report = check_data_consistency(machine, pipelined.module, cycles=100)
        assert report.ok, (seed, report.first_violation())
