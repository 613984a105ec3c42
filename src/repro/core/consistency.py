"""Data consistency and liveness checking (paper, Sections 6.2 and 6.3).

Two complementary checks, both against the machine's own *sequential*
elaboration (the paper's correctness reference):

1. **Scheduling-function data consistency** — the paper's criterion
   ``R_I^T = R_S^i``: during every cycle ``T``, each visible register (and
   register-file word) written by stage ``k`` holds the specification value
   right before instruction ``i = I(k, T)`` executes.  Applicable to
   machines without speculation (the paper's proofs also omit rollback).

2. **Commit-stream equivalence** — the sequences of architectural writes
   (the ``commit.*`` probes shared by both elaborations) must be identical
   prefix-wise.  Squashed speculative instructions never commit, so this
   check also covers machines with rollback.

Liveness (Section 6.3): a finite upper bound on the number of cycles any
fetched instruction needs to retire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..hdl.compile import CompiledSimulator
from ..hdl.netlist import Module
from ..hdl.sim import Trace
from ..machine.prepared import PreparedMachine
from ..machine.sequential import build_sequential
from .scheduling import compute_schedule

InputProvider = Callable[[int], Mapping[str, int]]


@dataclass
class ConsistencyReport:
    """Outcome of a consistency check."""

    ok: bool
    cycles: int
    instructions_retired: int
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def first_violation(self) -> str | None:
        return self.violations[0] if self.violations else None


@dataclass
class SpecState:
    """Visible architectural state of the specification before one
    instruction: register values by name, register-file contents by name."""

    registers: dict[str, int]
    memories: dict[str, dict[int, int]]


def _snapshotter(
    machine: PreparedMachine, sim: CompiledSimulator
) -> Callable[[], SpecState]:
    """The one visible-state snapshot of either elaboration: the
    architectural instance of every visible register and a copy of every
    visible register file, read from the simulator directly (its
    ``state`` would copy every memory, instruction ROM included)."""
    registers = [
        (reg.name, reg.instance_name(reg.last))
        for reg in machine.visible_registers()
    ]
    regfiles = [regfile.name for regfile in machine.visible_regfiles()]

    def snapshot() -> SpecState:
        return SpecState(
            registers={name: sim.reg(instance) for name, instance in registers},
            memories={name: sim.memory(name) for name in regfiles},
        )

    return snapshot


@dataclass
class PipelinedTrace(Trace):
    """The trace of one pipelined run, plus (for a machine without
    speculation) the ``cycles + 1`` visible-state snapshots
    :func:`check_data_consistency` reads, the first taken before cycle 0."""

    impl_states: list[SpecState] | None = None


def run_pipelined(
    machine: PreparedMachine,
    module: Module,
    cycles: int,
    inputs: InputProvider | None = None,
) -> PipelinedTrace:
    """The one pipelined run every trace checker reads: ``cycles`` cycles
    of ``module`` on the compiled simulator under ``inputs``."""
    sim = CompiledSimulator(module)
    snapshot = None if machine.speculations else _snapshotter(machine, sim)
    states = [snapshot()] if snapshot is not None else None
    for _ in range(cycles):
        sim.step(inputs(sim.cycle) if inputs is not None else None)
        if snapshot is not None:
            states.append(snapshot())
    return PipelinedTrace(
        probes=sim.trace.probes, inputs=sim.trace.inputs, impl_states=states
    )


class _SequentialRun:
    """The sequential reference on the compiled simulator, stepped on
    demand under ``inputs``."""

    def __init__(
        self, machine: PreparedMachine, inputs: InputProvider | None
    ) -> None:
        self.sim = CompiledSimulator(build_sequential(machine))
        self._inputs = inputs

    def step(self) -> int:
        """Advance one cycle; 1 when an instruction retired in it."""
        sim = self.sim
        stimulus = self._inputs(sim.cycle) if self._inputs is not None else None
        return sim.step(stimulus)["seq.instr_done"]


class SpecStateCache:
    """Lazily extended sequential-reference snapshots.

    The reference simulation is kept alive and extended on demand, so
    one cache serves every consistency check against one machine: the
    fault campaign shares it among the mutants of a core, which differ
    from each other in the *pipelined* elaboration only.
    """

    def __init__(
        self, machine: PreparedMachine, inputs: InputProvider | None = None
    ) -> None:
        self._machine = machine
        self._inputs = inputs
        self._run: _SequentialRun | None = None
        self._snapshot: Callable[[], SpecState] | None = None
        self._states: list[SpecState] = []
        self._cycles = 0

    def prefix(
        self, instructions: int, max_cycles: int | None = None
    ) -> list[SpecState]:
        """Snapshots before instructions ``0..instructions`` (inclusive);
        the returned list may be longer than requested.  Raises
        :class:`RuntimeError` when the reference has not retired that many
        within ``max_cycles`` cycles in all (default
        ``(instructions + 1) * n_stages * 4``)."""
        if self._run is None:
            self._run = _SequentialRun(self._machine, self._inputs)
            self._snapshot = _snapshotter(self._machine, self._run.sim)
            self._states.append(self._snapshot())
        if max_cycles is None:
            max_cycles = (instructions + 1) * self._machine.n_stages * 4
        while len(self._states) <= instructions and self._cycles < max_cycles:
            retired = self._run.step()
            self._cycles += 1
            if retired:
                self._states.append(self._snapshot())
        if len(self._states) <= instructions:
            raise RuntimeError(
                f"sequential reference retired only {len(self._states) - 1}"
                f" instructions in {self._cycles} cycles (wanted {instructions})"
            )
        return self._states


def collect_spec_states(
    machine: PreparedMachine,
    instructions: int,
    inputs: InputProvider | None = None,
    max_cycles: int | None = None,
) -> list[SpecState]:
    """Run the sequential machine and snapshot the visible state *before*
    each instruction ``0..instructions`` (inclusive: the state before the
    first not-yet-executed instruction is included).

    ``R_S^i`` of the paper is ``result[i]``.
    """
    return SpecStateCache(machine, inputs).prefix(
        instructions, max_cycles=max_cycles
    )


def check_data_consistency(
    machine: PreparedMachine,
    pipelined_module: Module | None,
    cycles: int,
    inputs: InputProvider | None = None,
    seq_inputs: InputProvider | None = None,
    trace: Trace | None = None,
    spec_cache: SpecStateCache | None = None,
) -> ConsistencyReport:
    """The paper's data-consistency criterion via the scheduling function.

    Runs the pipelined module for ``cycles`` cycles, computes ``I(k, T)``
    from its ``ue`` trace, collects the specification states from the
    sequential machine, and checks ``R_I^T = R_S^{I(k,T)}`` for every
    visible register and register-file word in every cycle.

    Precomputed artifacts may be supplied instead of resimulating: a
    :class:`PipelinedTrace` of ``cycles`` cycles (it carries the
    per-cycle snapshots) replaces the internal pipelined run, and a
    shared :class:`SpecStateCache` replaces the per-call sequential run.
    The trace obligations share one pipelined run per machine this way,
    and the fault campaign checks every mutant of a core against one
    reference simulation.
    """
    if machine.speculations:
        raise ValueError(
            "scheduling-function consistency assumes no rollback; use"
            " compare_commit_streams for speculative machines"
        )
    n = machine.n_stages

    if not isinstance(trace, PipelinedTrace) or trace.impl_states is None:
        if pipelined_module is None:
            raise ValueError(
                "need either pipelined_module or a precomputed PipelinedTrace"
            )
        trace = run_pipelined(machine, pipelined_module, cycles, inputs)
    impl_states = trace.impl_states

    schedule = compute_schedule(trace, n)
    retired = schedule.instructions_retired()
    if spec_cache is None:
        spec_cache = SpecStateCache(machine, seq_inputs)
    spec_states = spec_cache.prefix(schedule.instructions_fetched())

    violations: list[str] = []
    for t in range(cycles + 1):
        impl = impl_states[t]
        for reg in machine.visible_registers():
            k = reg.last - 1  # the stage that writes the architectural instance
            i = schedule(k, t)
            spec = spec_states[i]
            if impl.registers[reg.name] != spec.registers[reg.name]:
                violations.append(
                    f"cycle {t}: {reg.name} = {impl.registers[reg.name]:#x}"
                    f" != spec^{i} {spec.registers[reg.name]:#x}"
                )
        for regfile in machine.visible_regfiles():
            k = regfile.write_stage
            i = schedule(k, t)
            spec = spec_states[i]
            impl_mem = impl.memories[regfile.name]
            spec_mem = spec.memories[regfile.name]
            for addr in sorted(set(impl_mem) | set(spec_mem)):
                if impl_mem.get(addr, 0) != spec_mem.get(addr, 0):
                    violations.append(
                        f"cycle {t}: {regfile.name}[{addr}] ="
                        f" {impl_mem.get(addr, 0):#x} != spec^{i}"
                        f" {spec_mem.get(addr, 0):#x}"
                    )
    return ConsistencyReport(
        ok=not violations,
        cycles=cycles,
        instructions_retired=retired,
        violations=violations[:50],
    )


def commit_stream(
    trace: Trace, machine: PreparedMachine, exclude: set[str] | None = None
) -> dict[str, list[tuple]]:
    """Extract the architectural write sequences from the ``commit.*``
    probes, one ordered stream *per resource*: ``(addr, data)`` tuples for
    register files, ``(data,)`` tuples for visible registers.

    Per-resource streams are the right granularity for cross-machine
    comparison: one instruction's writes to different resources commit in
    different stages, so a single interleaved stream would depend on the
    pipeline's timing.
    """
    exclude = exclude or set()
    streams: dict[str, list[tuple]] = {}
    cycles = len(trace)
    for regfile in machine.visible_regfiles():
        name = regfile.name
        if name in exclude or f"commit.{name}.we" not in trace.probes:
            continue
        we = trace.probe(f"commit.{name}.we")
        wa = trace.probe(f"commit.{name}.wa")
        data = trace.probe(f"commit.{name}.data")
        streams[name] = [(wa[t], data[t]) for t in range(cycles) if we[t]]
    for reg in machine.visible_registers():
        name = reg.name
        if name in exclude or f"commit.{name}.we" not in trace.probes:
            continue
        we = trace.probe(f"commit.{name}.we")
        data = trace.probe(f"commit.{name}.data")
        streams[name] = [(data[t],) for t in range(cycles) if we[t]]
    return streams


def repair_targets(machine: PreparedMachine) -> set[str]:
    """The registers speculation repairs (e.g. a predicted PC): rollback
    corrects their wrong-path writes rather than suppressing them, so
    commit-stream comparison leaves their streams out."""
    return {
        target.split(".")[0]
        for spec in machine.speculations
        for target in spec.repairs
    }


def seq_commit_side(
    machine: PreparedMachine,
    seq_cycles: int,
    seq_inputs: InputProvider | None = None,
    exclude: set[str] | None = None,
) -> tuple[dict[str, list[tuple]], int]:
    """The sequential half of a commit-stream comparison: run the
    reference for ``seq_cycles`` and return ``(streams, retired)``.  No
    pipelined elaboration enters it, so the fault campaign computes it
    once per core and passes it to :func:`compare_commit_streams` as
    ``seq_side``."""
    run = _SequentialRun(machine, seq_inputs)
    retired = sum(run.step() for _ in range(seq_cycles))
    return commit_stream(run.sim.trace, machine, exclude=exclude), retired


def compare_commit_streams(
    machine: PreparedMachine,
    pipelined_module: Module | None,
    cycles: int,
    inputs: InputProvider | None = None,
    seq_inputs: InputProvider | None = None,
    seq_cycles: int | None = None,
    pipe_trace: Trace | None = None,
    seq_side: tuple[dict[str, list[tuple]], int] | None = None,
) -> ConsistencyReport:
    """Run both elaborations and compare their per-resource architectural
    write streams prefix-wise (up to the shorter stream).  Works for
    speculative machines: squashed instructions never produce commit
    events.

    Registers that are speculation repair targets (e.g. a predicted PC)
    are excluded: their wrong-path writes are corrected by rollback rather
    than suppressed, so their raw write stream legitimately differs.

    A precomputed ``pipe_trace`` replaces the internal pipelined run, and
    ``seq_side`` (from :func:`seq_commit_side`) replaces the sequential
    one — both must cover the same cycle counts the defaults would use.
    """
    repaired = repair_targets(machine)
    if pipe_trace is None:
        if pipelined_module is None:
            raise ValueError(
                "need either pipelined_module or a precomputed pipe_trace"
            )
        pipe_trace = run_pipelined(machine, pipelined_module, cycles, inputs)
    pipe_streams = commit_stream(pipe_trace, machine, exclude=repaired)

    if seq_side is None:
        seq_cycles = (
            seq_cycles if seq_cycles is not None else cycles * machine.n_stages
        )
        seq_side = seq_commit_side(
            machine, seq_cycles, seq_inputs=seq_inputs, exclude=repaired
        )
    seq_streams, retired = seq_side

    violations: list[str] = []
    for name in seq_streams:
        pipe_events = pipe_streams.get(name, [])
        seq_events = seq_streams[name]
        length = min(len(pipe_events), len(seq_events))
        violations.extend(
            f"{name} commit {index}: pipelined {pipe_events[index]}"
            f" != sequential {seq_events[index]}"
            for index in range(length)
            if pipe_events[index] != seq_events[index]
        )
        if not pipe_events and seq_events:
            violations.append(f"pipelined machine never committed to {name}")
    return ConsistencyReport(
        ok=not violations,
        cycles=cycles,
        instructions_retired=retired,
        violations=violations[:50],
    )


@dataclass
class LivenessReport:
    """Outcome of the liveness check (paper, Section 6.3)."""

    ok: bool
    bound: int
    worst_latency: int
    instructions_checked: int
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_liveness(
    trace: Trace, n_stages: int, bound: int
) -> LivenessReport:
    """Every fetched instruction retires within ``bound`` cycles.

    Uses the scheduling function: instruction ``i`` is fetched in the first
    cycle with ``I(0, T) = i`` and retired in the first cycle with
    ``I(n-1, T) > i``.  Instructions still in flight at the end of the
    trace are ignored (their latency is unknown, not unbounded).
    """
    schedule = compute_schedule(trace, n_stages)
    worst = 0
    checked = 0
    violations: list[str] = []
    for i in range(schedule.instructions_retired()):
        fetched = schedule.fetch_cycle(i)
        retired = schedule.retire_cycle(i)
        if fetched is None or retired is None:
            continue
        latency = retired - fetched
        checked += 1
        worst = max(worst, latency)
        if latency > bound:
            violations.append(
                f"instruction {i}: latency {latency} exceeds bound {bound}"
            )
    return LivenessReport(
        ok=not violations,
        bound=bound,
        worst_latency=worst,
        instructions_checked=checked,
        violations=violations[:50],
    )
