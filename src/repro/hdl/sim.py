"""Cycle-accurate two-phase simulator for :class:`repro.hdl.netlist.Module`.

Each cycle proceeds in two phases, matching synchronous hardware semantics:

1. **evaluate** — all combinational expressions (register next values and
   enables, memory write ports, probes) are computed from the *current*
   state and the cycle's inputs;
2. **commit** — enabled registers and memory writes take effect atomically.

Because all evaluation happens against the pre-edge state there are no
ordering hazards; register-to-register paths behave like real flip-flops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from . import expr as E
from .bitvec import BitVector, from_signed, mask, to_signed
from .netlist import Module, ModuleState


class SimulationError(RuntimeError):
    """Raised on bad stimulus (missing/over-wide input values)."""


class Evaluator:
    """Evaluates expression DAGs against a module state.

    A fresh memo is used per cycle; within a cycle every node is computed at
    most once, and each root's walk stops at the nodes an earlier root
    already evaluated, so a cycle's evaluation is linear in DAG size.
    """

    def __init__(self, state: ModuleState, inputs: Mapping[str, int]) -> None:
        self._state = state
        self._inputs = inputs
        self._memo: dict[E.Expr, int] = {}

    def eval(self, node: E.Expr) -> int:
        memo = self._memo
        value = memo.get(node)
        if value is None:
            for sub in E.walk_new([node], memo):
                memo[sub] = self._eval_node(sub)
            value = memo[node]
        return value

    def _eval_node(self, node: E.Expr) -> int:
        memo = self._memo
        if isinstance(node, E.Const):
            return node.value
        if isinstance(node, E.RegRead):
            return self._state.registers[node.name].value
        if isinstance(node, E.Input):
            if node.name not in self._inputs:
                raise SimulationError(f"no value supplied for input {node.name!r}")
            value = self._inputs[node.name]
            if not 0 <= value <= mask(node.width):
                raise SimulationError(
                    f"input {node.name!r}: value {value} does not fit"
                    f" in {node.width} bits"
                )
            return value
        if isinstance(node, E.MemRead):
            addr = memo[node.addr]
            return self._state.memories[node.mem].get(addr, 0)
        if isinstance(node, E.Unary):
            a = memo[node.a]
            w = node.a.width
            if node.op == "NOT":
                return ~a & mask(w)
            if node.op == "NEG":
                return -a & mask(w)
            if node.op == "REDOR":
                return 1 if a else 0
            if node.op == "REDAND":
                return 1 if a == mask(w) else 0
            if node.op == "REDXOR":
                return bin(a).count("1") & 1
            raise AssertionError(f"unknown unary op {node.op}")
        if isinstance(node, E.Binary):
            a = memo[node.a]
            b = memo[node.b]
            w = node.a.width
            op = node.op
            if op == "AND":
                return a & b
            if op == "OR":
                return a | b
            if op == "XOR":
                return a ^ b
            if op == "ADD":
                return (a + b) & mask(w)
            if op == "SUB":
                return (a - b) & mask(w)
            if op == "MUL":
                return (a * b) & mask(w)
            if op == "EQ":
                return int(a == b)
            if op == "NE":
                return int(a != b)
            if op == "ULT":
                return int(a < b)
            if op == "ULE":
                return int(a <= b)
            if op == "SLT":
                return int(to_signed(a, w) < to_signed(b, w))
            if op == "SLE":
                return int(to_signed(a, w) <= to_signed(b, w))
            amt = min(b, w)
            if op == "SHL":
                return (a << amt) & mask(w)
            if op == "LSHR":
                return a >> amt
            if op == "ASHR":
                return from_signed(to_signed(a, w) >> amt, w)
            raise AssertionError(f"unknown binary op {op}")
        if isinstance(node, E.Mux):
            return memo[node.then] if memo[node.sel] else memo[node.els]
        if isinstance(node, E.Concat):
            value = 0
            for part in node.parts:
                value = (value << part.width) | memo[part]
            return value
        if isinstance(node, E.Slice):
            return (memo[node.a] >> node.low) & mask(node.high - node.low + 1)
        raise AssertionError(f"unknown node type {type(node).__name__}")


@dataclass
class Trace:
    """Per-cycle record of probe values (and the inputs that produced them)."""

    probes: dict[str, list[int]] = field(default_factory=dict)
    inputs: dict[str, list[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        lists = list(self.probes.values()) or list(self.inputs.values())
        return len(lists[0]) if lists else 0

    def probe(self, name: str) -> list[int]:
        return self.probes[name]

    def at(self, cycle: int) -> dict[str, int]:
        """All probe values at one cycle."""
        return {name: values[cycle] for name, values in self.probes.items()}


class Simulator:
    """Stateful cycle simulator for a module: the reference semantics.

    The discharge path and the fault campaign run on
    :class:`repro.hdl.compile.CompiledSimulator`; the differential suites
    hold it to this interpreter.
    """

    def __init__(self, module: Module, state: ModuleState | None = None) -> None:
        module.validate()
        self.module = module
        self.state = state.copy() if state is not None else module.initial_state()
        self.cycle = 0
        self.trace = Trace(
            probes={name: [] for name in module.probes},
            inputs={name: [] for name in module.inputs},
        )

    def peek(self, probe: str, inputs: Mapping[str, int] | None = None) -> int:
        """Evaluate a probe against the current state without stepping."""
        evaluator = Evaluator(self.state, inputs or {})
        return evaluator.eval(self.module.probe(probe))

    def reg(self, name: str) -> int:
        return self.state.registers[name].value

    def mem(self, name: str, addr: int) -> int:
        return self.state.memories[name].get(addr, 0)

    def step(self, inputs: Mapping[str, int] | None = None) -> dict[str, int]:
        """Advance one clock cycle; returns this cycle's probe values.

        Absent inputs read as 0; a declared input's out-of-range value is
        rejected before anything is evaluated, whether or not the cycle
        reads that input.
        """
        inputs = dict(inputs or {})
        for name, width in self.module.inputs.items():
            value = inputs.setdefault(name, 0)
            if not 0 <= value <= mask(width):
                raise SimulationError(
                    f"input {name!r}: value {value} does not fit"
                    f" in {width} bits"
                )
        evaluator = Evaluator(self.state, inputs)

        probe_values: dict[str, int] = {}
        for name, root in self.module.probes.items():
            probe_values[name] = evaluator.eval(root)

        reg_updates: dict[str, BitVector] = {}
        for name, reg in self.module.registers.items():
            if evaluator.eval(reg.enable):
                reg_updates[name] = BitVector(reg.width, evaluator.eval(reg.next))

        mem_updates: list[tuple[str, int, int]] = []
        for name, memory in self.module.memories.items():
            for port in memory.write_ports:
                if evaluator.eval(port.enable):
                    mem_updates.append(
                        (name, evaluator.eval(port.addr), evaluator.eval(port.data))
                    )

        # Commit phase.
        self.state.registers.update(reg_updates)
        for name, addr, data in mem_updates:
            self.state.memories[name][addr] = data

        for name, value in probe_values.items():
            self.trace.probes[name].append(value)
        for name in self.module.inputs:
            self.trace.inputs[name].append(inputs[name])
        self.cycle += 1
        return probe_values

    def run(
        self,
        cycles: int,
        inputs: Callable[[int], Mapping[str, int]] | None = None,
        stop: Callable[[dict[str, int]], bool] | None = None,
    ) -> Trace:
        """Run for up to ``cycles`` cycles.

        ``inputs(cycle)`` supplies stimulus; ``stop(probe_values)`` may end
        the run early (the stopping cycle is included in the trace).
        """
        for _ in range(cycles):
            stimulus = inputs(self.cycle) if inputs is not None else {}
            values = self.step(stimulus)
            if stop is not None and stop(values):
                break
        return self.trace


def simulate(
    module: Module,
    cycles: int,
    inputs: Callable[[int], Mapping[str, int]] | None = None,
    stop: Callable[[dict[str, int]], bool] | None = None,
) -> tuple[Trace, ModuleState]:
    """Convenience wrapper: fresh simulator, run, return trace + final state."""
    sim = Simulator(module)
    trace = sim.run(cycles, inputs=inputs, stop=stop)
    return trace, sim.state


def evaluate(
    roots: Iterable[E.Expr],
    state: ModuleState,
    inputs: Mapping[str, int] | None = None,
) -> list[int]:
    """Evaluate standalone expressions against a state (no stepping)."""
    evaluator = Evaluator(state, inputs or {})
    return [evaluator.eval(root) for root in roots]
