"""The trace obligations' runs on the compiled simulator, held to the
interpreter.

The consistency, commit-stream, Lemma 1 and liveness checkers and the
invariant-mining filter all simulate on
:class:`repro.hdl.compile.CompiledSimulator`.  The interpreter
:class:`repro.hdl.sim.Simulator` stays the reference semantics: each test
here re-runs the same machine on it, with the loops written out in the
test, and requires the compiled runs to match exactly:

* the pipelined run (trace and per-cycle visible-state snapshots), the
  sequential reference's per-instruction snapshots and its commit
  streams, on the shipped cores and on the DLX with random external
  memory stalls;
* the mining filter's survivors and rejection reasons, in order;
* and ``discharge_jobs`` simulates each machine once and never builds
  the interpreter.
"""

from __future__ import annotations

import random

import pytest

from repro.absint import mine
from repro.absint.fixpoint import analyze
from repro.core import (
    SpecState,
    collect_spec_states,
    commit_stream,
    compute_schedule,
    run_pipelined,
    seq_commit_side,
    transform,
)
from repro.dlx import DlxConfig, assemble, build_dlx_machine
from repro.faults.catalog import CORES
from repro.hdl import compile as compile_mod
from repro.hdl import sim as sim_mod
from repro.hdl.sim import Evaluator, Simulator
from repro.jobs import EngineParams, discharge_jobs
from repro.machine import build_sequential
from repro.proofs import generate_obligations

CORE_NAMES = ("toy", "dlx-small", "dlx-spec")

EXT_STALL_SOURCE = """
    addi r1, r0, 4
    sw   0(r0), r1
    lw   r2, 0(r0)
    add  r3, r2, r2
    sw   4(r0), r3
    lw   r4, 4(r0)
halt:   j halt
    nop
"""


def _snapshot(machine, sim: Simulator) -> SpecState:
    return SpecState(
        registers={
            reg.name: sim.reg(reg.instance_name(reg.last))
            for reg in machine.visible_registers()
        },
        memories={
            regfile.name: dict(sim.state.memories[regfile.name])
            for regfile in machine.visible_regfiles()
        },
    )


def _stimulus(inputs, cycle):
    return inputs(cycle) if inputs is not None else {}


def interpreted_pipelined(machine, module, cycles, inputs):
    sim = Simulator(module)
    states = [_snapshot(machine, sim)]
    for _ in range(cycles):
        sim.step(_stimulus(inputs, sim.cycle))
        states.append(_snapshot(machine, sim))
    return sim.trace, states


def interpreted_spec_states(machine, instructions, inputs):
    sim = Simulator(build_sequential(machine))
    states = [_snapshot(machine, sim)]
    while len(states) <= instructions:
        if sim.step(_stimulus(inputs, sim.cycle))["seq.instr_done"]:
            states.append(_snapshot(machine, sim))
    return states


def interpreted_seq_side(machine, seq_cycles, inputs, exclude):
    sim = Simulator(build_sequential(machine))
    retired = 0
    for _ in range(seq_cycles):
        retired += sim.step(_stimulus(inputs, sim.cycle))["seq.instr_done"]
    return commit_stream(sim.trace, machine, exclude=exclude), retired


def _ext_stall_stimulus(seed: int):
    rng = random.Random(seed)
    pattern = [rng.random() < 0.4 for _ in range(600)]
    return lambda cycle: {"ext.3": int(pattern[cycle % len(pattern)])}


def _cases():
    for name in CORE_NAMES:
        spec = CORES[name]
        yield pytest.param(
            spec.build_machine, spec.trace_cycles, None, id=name
        )
    for seed in (0, 1, 2):
        yield pytest.param(
            lambda: build_dlx_machine(
                assemble(EXT_STALL_SOURCE), config=DlxConfig(ext_stall_mem=True)
            ),
            150,
            _ext_stall_stimulus(seed),
            id=f"dlx-ext-stall-{seed}",
        )


@pytest.mark.parametrize("build, cycles, inputs", list(_cases()))
def test_compiled_runs_match_the_interpreter(build, cycles, inputs):
    machine = build()
    pipelined = transform(machine)
    module = pipelined.module

    trace = run_pipelined(machine, module, cycles, inputs)
    want_trace, want_states = interpreted_pipelined(
        machine, module, cycles, inputs
    )
    assert trace.probes == want_trace.probes
    assert trace.inputs == want_trace.inputs
    if machine.speculations:
        assert trace.impl_states is None
    else:
        assert trace.impl_states == want_states

    fetched = compute_schedule(trace, machine.n_stages).instructions_fetched()
    assert collect_spec_states(machine, fetched, inputs=inputs) == (
        interpreted_spec_states(machine, fetched, inputs)
    )

    repaired = {
        target.split(".")[0]
        for spec in machine.speculations
        for target in spec.repairs
    }
    seq_cycles = cycles * machine.n_stages
    assert seq_commit_side(
        machine, seq_cycles, seq_inputs=inputs, exclude=repaired
    ) == interpreted_seq_side(machine, seq_cycles, inputs, repaired)


@pytest.mark.parametrize("core", CORE_NAMES)
def test_discharge_simulates_each_machine_once(core, monkeypatch):
    spec = CORES[core]
    pipelined = transform(spec.build_machine())
    obligations = generate_obligations(pipelined)
    sequential = f"{pipelined.machine.name}.sequential"
    compiled: list = []

    def interpreter(self, *args, **kwargs):
        raise AssertionError("the interpreter ran on the discharge path")

    original = compile_mod.CompiledSimulator.__init__

    def counting(self, module, *args, **kwargs):
        compiled.append(module)
        original(self, module, *args, **kwargs)

    monkeypatch.setattr(sim_mod.Simulator, "__init__", interpreter)
    monkeypatch.setattr(compile_mod.CompiledSimulator, "__init__", counting)
    report = discharge_jobs(
        pipelined,
        obligations,
        params=EngineParams(trace_cycles=spec.trace_cycles),
        jobs=1,
        cache=None,
    )
    assert report.ok
    assert sum(module is pipelined.module for module in compiled) == 1
    assert sum(module.name == sequential for module in compiled) == 1


def interpreted_filter(module, candidates, cycles, fixpoint):
    """The mining filter stepped on the interpreter, candidates evaluated
    against each cycle's pre-edge state."""
    alive = dict(candidates)
    rejected: dict[str, str] = {}
    simulated = {
        name: prop
        for name, prop in alive.items()
        if fixpoint is None
        or not (
            (value := fixpoint.eval(prop)).width == 1
            and value.is_const()
            and value.lo == 1
        )
    }
    sim = Simulator(module)
    zero = {name: 0 for name in module.inputs}
    for cycle in range(cycles):
        evaluator = Evaluator(sim.state, zero)
        for name in list(simulated):
            if evaluator.eval(simulated[name]) != 1:
                rejected[name] = f"falsified at trace cycle {cycle}"
                del simulated[name]
                del alive[name]
        sim.step(zero)
    return alive, rejected


@pytest.mark.parametrize("use_fixpoint", [True, False], ids=["fixpoint", "all"])
@pytest.mark.parametrize("core", CORE_NAMES)
def test_mining_filter_matches_the_interpreter(core, use_fixpoint):
    pipelined = transform(CORES[core].build_machine())
    fixpoint = analyze(pipelined.module)
    candidates = {
        name: prop
        for name, (_kind, prop) in mine.generate_candidates(
            pipelined, fixpoint
        ).items()
    }
    used = fixpoint if use_fixpoint else None
    # the trace length mine_invariants filters with by default
    cycles = 64
    alive, rejected = mine._trace_filter(
        pipelined.module, candidates, cycles, fixpoint=used
    )
    want_alive, want_rejected = interpreted_filter(
        pipelined.module, candidates, cycles, used
    )
    assert list(alive) == list(want_alive)
    assert list(rejected.items()) == list(want_rejected.items())
    assert rejected
