"""A compiling simulator: netlist -> generated Python step function.

The interpreting :class:`repro.hdl.sim.Simulator` walks the expression DAG
every cycle; for long benchmark runs that dominates.  This module compiles
a module once into straight-line Python (one assignment per unique DAG
node, constants folded into literals, masks precomputed) and executes the
compiled function per cycle, with *identical* semantics (property-tested
against the interpreter).  Every simulation on the discharge path runs
here.  On a 2-vCPU Xeon host, 150 cycles of the pipelined dlx-small
machine take 4 ms against the interpreter's 90 ms, plus 6 ms to compile;
its 750-cycle sequential reference run takes 11 ms against 251 ms, plus
6 ms to compile.

Usage::

    sim = CompiledSimulator(module)
    sim.step({"irq": 0})
    sim.trace.probe("ue.4")
"""

from __future__ import annotations

from typing import Callable, Mapping

from . import expr as E
from .bitvec import BitVector, mask
from .netlist import Module, ModuleState
from .sim import Evaluator, SimulationError, Trace


def _signed(width: int, name: str) -> str:
    half = 1 << (width - 1)
    full = 1 << width
    return f"({name} - {full} if {name} >= {half} else {name})"


class _CodeGen:
    """Generates the per-cycle evaluation code for a module."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.lines: list[str] = []
        self.names: dict[int, str] = {}  # id(node) -> local variable / literal
        self._counter = 0

    def _fresh(self) -> str:
        self._counter += 1
        return f"v{self._counter}"

    def name_of(self, node: E.Expr) -> str:
        return self.names[id(node)]

    def emit_roots(self, roots: list[E.Expr]) -> None:
        for node in E.walk(roots):
            if id(node) not in self.names:
                self._emit(node)

    def _assign(self, node: E.Expr, expression: str) -> None:
        name = self._fresh()
        self.lines.append(f"    {name} = {expression}")
        self.names[id(node)] = name

    def _emit(self, node: E.Expr) -> None:
        w = node.width
        m = mask(w)
        if isinstance(node, E.Const):
            self.names[id(node)] = repr(node.value)
            return
        if isinstance(node, E.RegRead):
            self._assign(node, f"R[{node.name!r}]")
            return
        if isinstance(node, E.Input):
            self._assign(node, f"I.get({node.name!r}, 0)")
            return
        if isinstance(node, E.MemRead):
            addr = self.name_of(node.addr)
            self._assign(node, f"M[{node.mem!r}].get({addr}, 0)")
            return
        if isinstance(node, E.Unary):
            a = self.name_of(node.a)
            aw = node.a.width
            am = mask(aw)
            if node.op == "NOT":
                self._assign(node, f"{a} ^ {am}")
            elif node.op == "NEG":
                self._assign(node, f"(-{a}) & {am}")
            elif node.op == "REDOR":
                self._assign(node, f"1 if {a} else 0")
            elif node.op == "REDAND":
                self._assign(node, f"1 if {a} == {am} else 0")
            elif node.op == "REDXOR":
                self._assign(node, f"bin({a}).count('1') & 1")
            else:  # pragma: no cover
                raise AssertionError(node.op)
            return
        if isinstance(node, E.Binary):
            a = self.name_of(node.a)
            b = self.name_of(node.b)
            aw = node.a.width
            am = mask(aw)
            op = node.op
            if op == "AND":
                self._assign(node, f"{a} & {b}")
            elif op == "OR":
                self._assign(node, f"{a} | {b}")
            elif op == "XOR":
                self._assign(node, f"{a} ^ {b}")
            elif op == "ADD":
                self._assign(node, f"({a} + {b}) & {am}")
            elif op == "SUB":
                self._assign(node, f"({a} - {b}) & {am}")
            elif op == "MUL":
                self._assign(node, f"({a} * {b}) & {am}")
            elif op == "EQ":
                self._assign(node, f"1 if {a} == {b} else 0")
            elif op == "NE":
                self._assign(node, f"1 if {a} != {b} else 0")
            elif op == "ULT":
                self._assign(node, f"1 if {a} < {b} else 0")
            elif op == "ULE":
                self._assign(node, f"1 if {a} <= {b} else 0")
            elif op == "SLT":
                self._assign(
                    node, f"1 if {_signed(aw, a)} < {_signed(aw, b)} else 0"
                )
            elif op == "SLE":
                self._assign(
                    node, f"1 if {_signed(aw, a)} <= {_signed(aw, b)} else 0"
                )
            elif op == "SHL":
                self._assign(node, f"({a} << min({b}, {aw})) & {am}")
            elif op == "LSHR":
                self._assign(node, f"{a} >> min({b}, {aw})")
            elif op == "ASHR":
                self._assign(
                    node,
                    f"({_signed(aw, a)} >> min({b}, {aw})) & {am}",
                )
            else:  # pragma: no cover
                raise AssertionError(op)
            return
        if isinstance(node, E.Mux):
            sel = self.name_of(node.sel)
            then = self.name_of(node.then)
            els = self.name_of(node.els)
            self._assign(node, f"{then} if {sel} else {els}")
            return
        if isinstance(node, E.Concat):
            parts = []
            shift = 0
            for part in reversed(node.parts):
                name = self.name_of(part)
                parts.append(name if shift == 0 else f"({name} << {shift})")
                shift += part.width
            self._assign(node, " | ".join(parts))
            return
        if isinstance(node, E.Slice):
            a = self.name_of(node.a)
            low = node.low
            m = mask(node.high - node.low + 1)
            self._assign(node, f"({a} >> {low}) & {m}" if low else f"{a} & {m}")
            return
        raise AssertionError(type(node).__name__)  # pragma: no cover


def compile_module(module: Module) -> Callable:
    """Compile the module into ``step(R, M, I, out)``:

    * ``R`` — register values (name -> int), updated in place;
    * ``M`` — memory contents (name -> {addr: int}), updated in place;
    * ``I`` — this cycle's input values;
    * ``out`` — dict the probe values are written into.

    The function implements exactly the two-phase semantics of
    :class:`repro.hdl.sim.Simulator`.
    """
    module.validate()
    gen = _CodeGen(module)
    gen.emit_roots(module.roots())

    body = ["def _step(R, M, I, out):"]
    body.extend(gen.lines if gen.lines else ["    pass"])

    for name, root in module.probes.items():
        body.append(f"    out[{name!r}] = {gen.name_of(root)}")

    # evaluate-then-commit: collect updates first
    updates: list[str] = []
    for name, reg in module.registers.items():
        enable = gen.name_of(reg.enable)
        value = gen.name_of(reg.next)
        updates.append(f"    if {enable}: R[{name!r}] = {value}")
    for name, memory in module.memories.items():
        for port in memory.write_ports:
            enable = gen.name_of(port.enable)
            addr = gen.name_of(port.addr)
            data = gen.name_of(port.data)
            updates.append(f"    if {enable}: M[{name!r}][{addr}] = {data}")
    body.extend(updates)

    namespace: dict = {}
    exec("\n".join(body), namespace)  # noqa: S102 - trusted generated code
    return namespace["_step"]


class CompiledSimulator:
    """Drop-in replacement for :class:`repro.hdl.sim.Simulator` backed by
    the compiled step function."""

    def __init__(self, module: Module, state: ModuleState | None = None) -> None:
        self.module = module
        self._step = compile_module(module)
        base = state.copy() if state is not None else module.initial_state()
        self._regs = {name: value.value for name, value in base.registers.items()}
        self._mems = {name: dict(words) for name, words in base.memories.items()}
        self.cycle = 0
        self.trace = Trace(
            probes={name: [] for name in module.probes},
            inputs={name: [] for name in module.inputs},
        )

    # -- Simulator-compatible surface ----------------------------------------

    @property
    def state(self) -> ModuleState:
        """Materialise the current state as a ModuleState snapshot."""
        return ModuleState(
            registers={
                name: BitVector(self.module.registers[name].width, value)
                for name, value in self._regs.items()
            },
            memories={name: dict(words) for name, words in self._mems.items()},
        )

    def reg(self, name: str) -> int:
        return self._regs[name]

    def mem(self, name: str, addr: int) -> int:
        return self._mems[name].get(addr, 0)

    def memory(self, name: str) -> dict[int, int]:
        """A copy of one memory's words, without materialising the whole
        :attr:`state`."""
        return dict(self._mems[name])

    def peek(self, probe: str, inputs: Mapping[str, int] | None = None) -> int:
        """Evaluate a probe against the current state without stepping."""
        evaluator = Evaluator(self.state, inputs or {})
        return evaluator.eval(self.module.probe(probe))

    def step(self, inputs: Mapping[str, int] | None = None) -> dict[str, int]:
        stimulus = dict(inputs or {})
        # identical input semantics to Simulator.step: absent inputs read
        # as 0, out-of-range values are rejected before any state changes
        for name, width in self.module.inputs.items():
            value = stimulus.setdefault(name, 0)
            if not 0 <= value <= mask(width):
                raise SimulationError(
                    f"input {name!r}: value {value} does not fit"
                    f" in {width} bits"
                )
        values: dict[str, int] = {}
        self._step(self._regs, self._mems, stimulus, values)
        for name, value in values.items():
            self.trace.probes[name].append(value)
        for name in self.module.inputs:
            self.trace.inputs[name].append(stimulus.get(name, 0))
        self.cycle += 1
        return values

    def run(self, cycles: int, inputs=None, stop=None) -> Trace:
        for _ in range(cycles):
            stimulus = inputs(self.cycle) if inputs is not None else {}
            values = self.step(stimulus)
            if stop is not None and stop(values):
                break
        return self.trace
