"""Bounded model checking and k-induction over HDL modules.

A :class:`TransitionSystem` is extracted from a :class:`repro.hdl.Module`.
Its state is the registers and the memories.  A register's next value is
one expression, ``mux(enable, next, hold)``; a memory stays one array,
its reset words, its write ports and whether it is a ROM
(:class:`ArrayVar`).

:func:`bmc` searches for a property violation within ``k`` steps from the
initial state; :func:`k_induction` proves a property invariant by the
standard base + inductive-step scheme.  Both bit-blast the unrolling to CNF
and use the CDCL solver from :mod:`repro.formal.sat`.

Memories are encoded lazily, after the embedded-memory BMC model of Ganai,
Gupta and Ashar (CAV 2004): the unrolling never expands a memory into
words.  A read in frame ``t`` is a priority chain over the memory's writes
in frames ``0..t-1``, the newest outermost (within one frame the later
port outermost, as later ports win a collision), that ends in a *base
read* of the frame-0 contents.  When those contents are known (a reset
frame, or a memory in :attr:`TransitionSystem.constant_mems` in any
frame) the base read is a mux over the reset words, which folds to a
constant where they agree.  Otherwise it is one fresh vector per distinct
address vector, tied to the memory's other base reads by
``addr_i = addr_j → data_i = data_j``; those ties are the unrolling's
:attr:`Unroller.constraints`, which every engine must assert.  The
encoding is exact: it admits the same runs as one state variable per word.

By default the hot path is **incremental** end-to-end: an
:class:`IncrementalUnroller` owns one AIG and one solver for a whole query,
each new time frame Tseitin-encodes only its own new logic
(:class:`repro.formal.aig.CnfEmitter`), and the property-at-step-``t``
literal is activated through a solver *assumption*, so ``bmc``,
``k_induction`` and ``prove`` extend the same unrolling from bound ``k`` to
``k+1`` — clause/activity/phase state included — instead of restarting.
The incremental engine is a one-member
:class:`repro.formal.shared.SharedContext`, the same checker that
discharges whole obligation groups.  Before any unrolling, the transition
system is sliced to the property's cone of influence, one node per
register and per memory.  Pass ``incremental=False`` to run the one-shot
engines instead: they are the test oracle, and both must agree on every
verdict (the differential suite in ``tests/test_bmc_incremental.py``
holds them to it).  Both engines decide the AIG of the same unrolling, so
their agreement checks the CNF and the search, never the memory encoding
or the bit-blaster; ``tests/test_memory_encoding.py`` checks those against
a word-per-variable encoding and against simulation.

This engine is what discharges the hardware-level proof obligations the
transformation tool emits (the role PVS played for the paper's authors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..hdl import expr as E
from ..hdl.netlist import Module, WritePort
from .aig import (
    Aig,
    BitBlaster,
    BlastError,
    CnfEmitter,
    Vec,
    const_bits,
    fresh_vec,
    mux_tree,
    to_cnf,
)
from .sat import SatResult, Solver

# Bumped whenever the unrolling/encoding strategy could alter a verdict or
# its cost profile; joins SOLVER_VERSION in every obligation fingerprint so
# cached verdicts from an older engine can never alias the new one.
# 3: grouped discharge over one shared unrolling (repro.formal.shared) —
# verdict-equivalent by construction, but the cost profile of every
# invariant obligation changed, so per-obligation entries self-evict.
# 4: width-parametric family verdicts (repro.analysis) — family-certified
# obligations may be served from a family cache keyed by width-erased
# templates, so the universe of entries a fingerprint can alias changed.
# 5: memories are arrays (write chains over base reads): the CNF of every
# cone that holds a written memory changed, and fingerprints carry one
# row per memory instead of one per word.
ENGINE_VERSION = 5


@dataclass(frozen=True)
class StateVar:
    """One register of the transition system's state vector."""

    name: str
    width: int
    init: int
    next: E.Expr


@dataclass(frozen=True, eq=False)
class ArrayVar:
    """One memory of the transition system's state, kept whole.

    ``init`` maps each address with a nonzero reset word to that word
    (every other word resets to 0).  ``ports`` are the write ports in
    priority order: a later port wins an address collision.  A memory
    with no write port is a ROM.
    """

    name: str
    addr_width: int
    data_width: int
    init: Mapping[int, int]
    ports: tuple[WritePort, ...]

    @property
    def rom(self) -> bool:
        return not self.ports

    def roots(self) -> list[E.Expr]:
        """What one step of the memory reads: each port's enable,
        address and data, in port order."""
        return [e for port in self.ports for e in (port.enable, port.addr, port.data)]


class TransitionSystem:
    """A flat synchronous transition system extracted from a module."""

    def __init__(
        self,
        state: list[StateVar],
        inputs: dict[str, int],
        mems: Iterable[ArrayVar] = (),
    ) -> None:
        self.state = state
        self.inputs = inputs
        self.mems: dict[str, ArrayVar] = {mem.name: mem for mem in mems}
        # Memories whose contents are known in every frame, even when the
        # initial frame is otherwise unconstrained: the ROMs.  Sound,
        # since a ROM keeps its reset words in every reachable state.
        self.constant_mems: set[str] = {
            mem.name for mem in self.mems.values() if mem.rom
        }
        self._by_name = {var.name: var for var in state}
        self._closure: DependencyClosure | None = None

    def var(self, name: str) -> StateVar:
        return self._by_name[name]

    def roots_of(self, names: Iterable[str]) -> list[E.Expr]:
        """What one step of the named state elements reads, in order: a
        register's next function, a memory's :meth:`ArrayVar.roots`."""
        roots: list[E.Expr] = []
        for name in names:
            mem = self.mems.get(name)
            if mem is None:
                roots.append(self._by_name[name].next)
            else:
                roots.extend(mem.roots())
        return roots

    def cone_of_influence(self, roots: list[E.Expr]) -> set[str]:
        """Names of the registers and memories transitively needed to
        evaluate ``roots`` across any number of steps.

        A memory is one element: any read of it, at a constant address or
        not, pulls in the whole memory and so its write-port logic.

        The first call closes the state elements' dependency graph
        (:class:`DependencyClosure`); every call after that only reads
        what ``roots`` read directly and unions their closures.
        """
        if self._closure is None:
            self._closure = DependencyClosure(self)
        return self._closure.cone(roots)

    @classmethod
    def from_module(cls, module: Module) -> "TransitionSystem":
        module.validate()
        state = [
            StateVar(
                name=name,
                width=reg.width,
                init=reg.init,
                next=E.mux(reg.enable, reg.next, E.reg_read(name, reg.width)),
            )
            for name, reg in module.registers.items()
        ]
        mems = [
            ArrayVar(
                name=name,
                addr_width=memory.addr_width,
                data_width=memory.data_width,
                init={a: v for a, v in sorted(memory.init.items()) if v},
                ports=tuple(memory.write_ports),
            )
            for name, memory in module.memories.items()
        ]
        return cls(state, dict(module.inputs), mems)


class DependencyClosure:
    """The transitive dependencies of every state element, built once.

    Graph nodes are the registers and the memories, one node each.  A
    register's edges are what its next function reads; a memory's are
    what its write ports read (a read of a memory, at any address, is an
    edge to the memory).  Sets of graph nodes are bitsets (Python ints)
    over their indices.

    * One bottom-up pass over every next function and write port gives
      each DAG node the bitset of graph nodes it reads directly.  The
      memo keeps growing with the roots later cones ask about, and a
      root's walk stops at nodes it already holds.
    * Tarjan's algorithm finds the strongly connected components in
      reverse topological order, so each component's closure is its own
      members plus the finished closures of its successors.

    :meth:`cone` is then the union of the closures of what ``roots`` read
    directly (each distinct cone's name set is built once).
    """

    def __init__(self, system: TransitionSystem) -> None:
        self._names = [var.name for var in system.state] + list(system.mems)
        self._bit = {name: 1 << i for i, name in enumerate(self._names)}
        self._reads: dict[E.Expr, int] = {}
        self._cones: dict[int, frozenset[str]] = {}
        succ = [self._direct([var.next]) for var in system.state]
        succ += [self._direct(mem.roots()) for mem in system.mems.values()]
        self._closure = _close(succ)

    def _direct(self, roots: list[E.Expr]) -> int:
        """Bitset of the graph nodes ``roots`` read without a step."""
        reads = self._reads
        bit = self._bit
        for node in E.walk_new(roots, reads):
            if isinstance(node, E.RegRead):
                bits = bit[node.name]
            elif isinstance(node, E.MemRead):
                bits = bit[node.mem] | reads[node.addr]
            else:
                bits = 0
                for child in node.children():
                    more = reads[child]
                    merged = bits | more
                    if merged != bits:
                        # share one int object among nodes with equal sets
                        bits = more if merged == more else merged
            reads[node] = bits
        direct = 0
        for root in roots:
            direct |= reads[root]
        return direct

    def cone(self, roots: list[E.Expr]) -> set[str]:
        closure = self._closure
        needed = 0
        for i in _indices(self._direct(list(roots))):
            needed |= closure[i]
        names = self._cones.get(needed)
        if names is None:
            names = frozenset(self._names[i] for i in _indices(needed))
            self._cones[needed] = names
        return set(names)


def _indices(bits: int) -> list[int]:
    """Positions of the set bits of ``bits``, ascending."""
    text = bin(bits)[:1:-1]
    out: list[int] = []
    i = text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    return out


def _close(succ: list[int]) -> list[int]:
    """Reflexive-transitive closure of a graph given as successor bitsets.

    Iterative Tarjan: a strongly connected component is complete only once
    every component it reaches is, so its closure is its members plus
    those components' closures, each computed once.
    """
    edges = [_indices(bits) for bits in succ]
    count = len(succ)
    index = [-1] * count
    low = [0] * count
    on_stack = [False] * count
    closure = [0] * count
    stack: list[int] = []
    counter = 0
    for start in range(count):
        if index[start] >= 0:
            continue
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack[start] = True
        work = [(start, 0)]
        while work:
            v, i = work[-1]
            if i < len(edges[v]):
                work[-1] = (v, i + 1)
                w = edges[v][i]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] != index[v]:
                continue
            members: list[int] = []
            reach = 0
            while True:
                w = stack.pop()
                on_stack[w] = False
                members.append(w)
                reach |= 1 << w
                if w == v:
                    break
            for w in members:
                for x in edges[w]:
                    reach |= closure[x]  # 0 inside the component itself
            for w in members:
                closure[w] = reach
    return closure


@dataclass
class Frame:
    """Literal vectors of one unrolled time frame.

    ``writes`` holds, per tracked memory, each write port's
    ``(enable, address, data)`` in this frame, in port order; it is
    filled when the next frame is built.  ``reads`` holds the memory
    reads lowered in this frame, keyed by address vector: the read memo,
    and what a counterexample decodes as the words the trace read.
    """

    regs: dict[str, Vec]
    inputs: dict[str, Vec]
    writes: dict[str, list[tuple[int, Vec, Vec]]] = field(default_factory=dict)
    reads: dict[str, dict[tuple[int, ...], Vec]] = field(default_factory=dict)


@dataclass
class Counterexample:
    """A concrete trace violating a property."""

    length: int
    states: list[dict[str, int]] = field(default_factory=list)
    inputs: list[dict[str, int]] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"counterexample of length {self.length}:"]
        for t, (state, ins) in enumerate(zip(self.states, self.inputs)):
            lines.append(f"  frame {t}: inputs={ins} state={state}")
        return "\n".join(lines)


@dataclass
class CheckResult:
    """Outcome of a BMC or induction run.

    ``conflicts`` and ``frames`` profile the run: total solver conflicts
    across every SAT call the query made, and the peak number of unrolled
    time frames it materialised.
    """

    holds: bool | None  # True = proved/unviolated in bound, False = cex, None = unknown
    bound: int
    method: str
    counterexample: Counterexample | None = None
    conflicts: int = 0
    frames: int = 0

    def __bool__(self) -> bool:
        return bool(self.holds)


class Unroller:
    """Unrolls a transition system into an AIG frame by frame.

    ``support`` restricts the tracked state to a cone of influence: only
    the listed registers and memories are materialised per frame (the set
    must be closed under next-state dependencies, as produced by
    :meth:`TransitionSystem.cone_of_influence`).

    ``constraints`` collects the AIG literals the memory encoding needs
    to hold (the base-read ties, see the module docstring); an engine
    asserts every one of them alongside its own constraints.
    """

    def __init__(
        self,
        system: TransitionSystem,
        support: set[str] | None = None,
    ) -> None:
        self.system = system
        self.aig = Aig()
        self.frames: list[Frame] = []
        self.vars = [
            var
            for var in system.state
            if support is None or var.name in support
        ]
        self.mems = {
            name: mem
            for name, mem in system.mems.items()
            if support is None or name in support
        }
        self.constraints: list[int] = []
        self._free = False
        # free-init base reads per memory, keyed by address vector
        self._base_reads: dict[str, dict[tuple[int, ...], Vec]] = {}
        self._blasters: dict[int, BitBlaster] = {}

    def add_initial_frame(self, free: bool) -> Frame:
        """Frame 0: constants from reset values, or fresh variables.

        A free frame leaves the written memories' contents free too (their
        base reads are fresh); ROM contents stay known, as they are in
        every reachable state.
        """
        self._free = free
        regs = {
            var.name: fresh_vec(self.aig, var.width)
            if free
            else const_bits(var.init, var.width)
            for var in self.vars
        }
        frame = Frame(regs=regs, inputs=self._fresh_inputs())
        self.frames.append(frame)
        return frame

    def _fresh_inputs(self) -> dict[str, Vec]:
        return {
            name: fresh_vec(self.aig, width)
            for name, width in self.system.inputs.items()
        }

    def _blaster(self, index: int) -> BitBlaster:
        """Frame ``index``'s one blaster: its memo spans every expression
        blasted in the frame, the next-state functions included."""
        blaster = self._blasters.get(index)
        if blaster is None:
            frame = self.frames[index]
            blaster = BitBlaster(
                self.aig,
                regs=frame.regs,
                inputs=frame.inputs,
                read_mem=lambda mem, addr: self._read(index, mem, addr),
            )
            self._blasters[index] = blaster
        return blaster

    def add_step(self) -> Frame:
        """Compute frame t+1 from the last frame: the registers' next
        values, and the last frame's memory writes."""
        last = self.frames[-1]
        blaster = self._blaster(len(self.frames) - 1)
        regs = {var.name: blaster.blast(var.next) for var in self.vars}
        for name, mem in self.mems.items():
            last.writes[name] = [
                (
                    blaster.blast(port.enable)[0],
                    blaster.blast(port.addr),
                    blaster.blast(port.data),
                )
                for port in mem.ports
            ]
        frame = Frame(regs=regs, inputs=self._fresh_inputs())
        self.frames.append(frame)
        return frame

    def _read(self, index: int, name: str, addr: Vec) -> Vec:
        """Memory ``name`` at ``addr`` in frame ``index``: the writes of
        frames ``0..index-1`` as a priority chain, newest outermost, over
        the base read of the frame-0 contents."""
        if name not in self.mems:
            raise BlastError(f"unbound memory {name!r}")
        reads = self.frames[index].reads.setdefault(name, {})
        key = tuple(addr)
        value = reads.get(key)
        if value is None:
            g = self.aig
            value = self._base_read(self.mems[name], addr)
            for frame in self.frames[:index]:
                for enable, waddr, data in frame.writes[name]:
                    hit = g.and_(enable, _equal(g, addr, waddr))
                    value = [g.mux_(hit, d, v) for d, v in zip(data, value)]
            reads[key] = value
        return value

    def _base_read(self, mem: ArrayVar, addr: Vec) -> Vec:
        """The frame-0 contents of ``mem`` at ``addr``."""
        if not self._free or mem.name in self.system.constant_mems:
            return self._known_read(mem, addr)
        reads = self._base_reads.setdefault(mem.name, {})
        key = tuple(addr)
        data = reads.get(key)
        if data is None:
            g = self.aig
            data = fresh_vec(g, mem.data_width)
            for other_addr, other_data in reads.items():
                tie = g.implies_(
                    _equal(g, addr, list(other_addr)), _equal(g, data, other_data)
                )
                if tie != 1:  # not folded away (distinct constant addresses)
                    self.constraints.append(tie)
            reads[key] = data
        return data

    def _known_read(self, mem: ArrayVar, addr: Vec) -> Vec:
        """A read of the reset contents: a mux over the nonzero words,
        folding to a constant where neighbouring words agree."""
        init, width = mem.init, mem.data_width
        if not init:
            return const_bits(0, width)
        return mux_tree(
            self.aig, [init.get(a, 0) for a in range(1 << len(addr))], addr, width
        )

    def blast_in_frame(self, index: int, expression: E.Expr) -> Vec:
        """Evaluate an expression over the state/inputs of frame ``index``."""
        return self._blaster(index).blast(expression)

    def bit_in_frame(self, index: int, expression: E.Expr) -> int:
        if expression.width != 1:
            raise ValueError("property expressions must be 1 bit wide")
        return self.blast_in_frame(index, expression)[0]

    def decode(self, model: Mapping[int, bool], frames: int) -> Counterexample:
        """Decode a SAT model into a concrete trace.

        The model only constrains variables in the property's cone; nodes
        that folded out of it (don't-care bits) would decode arbitrarily.
        To make the trace *replayable* on the simulator, state values are
        recomputed by evaluating the AIG from the model's input assignment
        — the ground truth every downstream node follows.  A frame's
        state holds its registers and, as ``"mem[addr]"``, every memory
        word the frame read.
        """
        assignment = {lit >> 1: bool(model.get(lit >> 1, False)) for lit in self.aig._inputs}

        # one evaluation pass covers every literal of every frame
        wanted: list[int] = []
        index: dict[int, int] = {}

        def want(vec: Sequence[int]) -> None:
            for lit in vec:
                if lit not in index:
                    index[lit] = len(wanted)
                    wanted.append(lit)

        for frame in self.frames[:frames]:
            for vec in frame.regs.values():
                want(vec)
            for reads in frame.reads.values():
                for addr, data in reads.items():
                    want(addr)
                    want(data)
            for vec in frame.inputs.values():
                want(vec)
        values = self.aig.evaluate(assignment, wanted)

        def vec_of(vec: Sequence[int]) -> int:
            return sum(1 << i for i, lit in enumerate(vec) if values[index[lit]])

        cex = Counterexample(length=frames)
        for frame in self.frames[:frames]:
            state = {name: vec_of(vec) for name, vec in frame.regs.items()}
            for mem, reads in frame.reads.items():
                words = sorted((vec_of(addr), vec_of(data)) for addr, data in reads.items())
                for addr, data in words:
                    state[f"{mem}[{addr}]"] = data
            cex.states.append(state)
            cex.inputs.append({name: vec_of(vec) for name, vec in frame.inputs.items()})
        return cex


def _equal(aig: Aig, a: Vec, b: Vec) -> int:
    """The literal for ``a == b``."""
    return aig.and_many([aig.xnor_(x, y) for x, y in zip(a, b)])


class IncrementalUnroller(Unroller):
    """An unrolling wired straight into one persistent SAT solver.

    Owns a :class:`repro.formal.sat.Solver` and a
    :class:`repro.formal.aig.CnfEmitter` for its whole lifetime: each new
    frame bit-blasts only its own transition logic, and only the AND nodes
    in the cone of an asserted/assumed literal are Tseitin-encoded — once.
    Learned clauses, variable activities and saved phases therefore carry
    over from bound ``k`` to bound ``k+1``.  Each of the unrolling's
    :attr:`~Unroller.constraints` becomes a global unit clause as soon as
    the frame or literal that created it is handed out.
    """

    def __init__(
        self,
        system: TransitionSystem,
        support: set[str] | None = None,
        free_init: bool = False,
    ) -> None:
        super().__init__(system, support=support)
        self.solver = Solver()
        self.emitter = CnfEmitter(self.aig, self.solver)
        self.free_init = free_init
        self._asserted = 0  # constraints already in the solver

    def _assert_constraints(self) -> None:
        constraints = self.constraints
        while self._asserted < len(constraints):
            self.solver.add_clause([self.emitter.encode(constraints[self._asserted])])
            self._asserted += 1

    def ensure_frames(self, count: int) -> None:
        """Materialise frames 0..count-1 (no-op for already-built frames)."""
        if count > 0 and not self.frames:
            self.add_initial_frame(free=self.free_init)
        while len(self.frames) < count:
            self.add_step()
        self._assert_constraints()

    def literal(self, index: int, expression: E.Expr) -> int:
        """Solver literal for a 1-bit expression in frame ``index``,
        encoding its cone into the solver on first use."""
        lit = self.emitter.encode(self.bit_in_frame(index, expression))
        self._assert_constraints()
        return lit

    def decode_solver_model(self, model: Mapping[int, bool], frames: int) -> Counterexample:
        return self.decode(self.emitter.model_to_aig(model), frames)


def _system(module_or_system: Module | TransitionSystem) -> TransitionSystem:
    if isinstance(module_or_system, TransitionSystem):
        return module_or_system
    return TransitionSystem.from_module(module_or_system)


def _context(
    module_or_system: Module | TransitionSystem,
    prop: E.Expr,
    assume: Sequence[E.Expr],
    max_conflicts: int | None,
    interrupt: Callable[[], bool] | None,
):
    """The incremental engine: a one-member shared context."""
    from .shared import SharedContext, SharedMember

    return SharedContext(
        _system(module_or_system),
        [SharedMember(prop, tuple(assume))],
        max_conflicts=max_conflicts,
        interrupt=interrupt,
    )


def _solve(
    aig: Aig,
    roots: Sequence[int],
    max_conflicts: int | None = None,
    interrupt: Callable[[], bool] | None = None,
) -> SatResult:
    """One-shot SAT check of the conjunction of AIG literals ``roots``.

    ``max_conflicts`` is a deterministic step budget: the solver gives up
    with verdict ``None`` once it is exceeded, so a caller can bound the
    work of a single obligation instead of hanging on a hard instance.
    """
    folded = aig.and_many(list(roots))
    if folded == 0:
        return SatResult(satisfiable=False)
    if folded == 1:
        return SatResult(satisfiable=True)
    clauses, (root_lit,) = to_cnf(aig, [folded])
    solver = Solver()
    solver.add_clauses(clauses)
    solver.add_clause([root_lit])
    return solver.solve(max_conflicts=max_conflicts, interrupt=interrupt)


def bmc(
    module_or_system: Module | TransitionSystem,
    prop: E.Expr,
    bound: int,
    assume: Sequence[E.Expr] = (),
    max_conflicts: int | None = None,
    interrupt: Callable[[], bool] | None = None,
    incremental: bool = True,
) -> CheckResult:
    """Check that 1-bit ``prop`` holds in every frame 0..bound from reset.

    ``assume`` expressions are constrained to 1 in every frame (environment
    assumptions, e.g. "no external stall").  ``max_conflicts`` bounds each
    SAT call; an exhausted budget returns ``holds=None``.  ``interrupt`` is
    polled during each call and aborts with ``holds=None``.

    ``incremental`` (default) runs the single-solver engine; pass False for
    the one-shot-per-bound engine (same verdicts, used differentially).
    """
    if incremental:
        context = _context(module_or_system, prop, assume, max_conflicts, interrupt)
        return context.bmc_to(0, bound)
    system = _system(module_or_system)
    support = system.cone_of_influence([prop, *assume])
    unroller = Unroller(system, support=support)
    unroller.add_initial_frame(free=False)
    aig = unroller.aig
    assumptions: list[int] = []
    conflicts = 0
    for t in range(bound + 1):
        if t > 0:
            unroller.add_step()
        assumptions.extend(
            unroller.bit_in_frame(t, assumption) for assumption in assume
        )
        bad = aig.neg(unroller.bit_in_frame(t, prop))
        result = _solve(
            aig,
            assumptions + unroller.constraints + [bad],
            max_conflicts=max_conflicts,
            interrupt=interrupt,
        )
        conflicts += result.conflicts
        if result.satisfiable is True:
            return CheckResult(
                holds=False,
                bound=t,
                method="bmc",
                counterexample=unroller.decode(result.model, t + 1),
                conflicts=conflicts,
                frames=len(unroller.frames),
            )
        if result.satisfiable is None:
            return CheckResult(
                holds=None, bound=t, method="bmc",
                conflicts=conflicts, frames=len(unroller.frames),
            )
    return CheckResult(
        holds=True, bound=bound, method="bmc",
        conflicts=conflicts, frames=len(unroller.frames),
    )


def k_induction(
    module_or_system: Module | TransitionSystem,
    prop: E.Expr,
    k: int = 1,
    assume: Sequence[E.Expr] = (),
    max_conflicts: int | None = None,
    interrupt: Callable[[], bool] | None = None,
    incremental: bool = True,
) -> CheckResult:
    """Prove ``prop`` invariant by k-induction.

    * base: ``prop`` holds in frames 0..k-1 from the initial state;
    * step: from any state chain of length k in which ``prop`` (and the
      assumptions) hold, ``prop`` holds in frame k.

    Returns ``holds=True`` only if both checks pass.  A failing base check
    returns the concrete counterexample; a failing step check returns
    ``holds=None`` (the property may still hold but is not k-inductive).
    Assumptions must themselves be invariants for the result to be sound.
    """
    if incremental:
        context = _context(module_or_system, prop, assume, max_conflicts, interrupt)
        return context.k_induction(0, k)
    system = _system(module_or_system)
    base = bmc(
        system,
        prop,
        bound=k - 1,
        assume=assume,
        max_conflicts=max_conflicts,
        interrupt=interrupt,
        incremental=False,
    )
    if base.holds is not True:
        return CheckResult(
            holds=base.holds,
            bound=base.bound,
            method="k-induction(base)",
            counterexample=base.counterexample,
            conflicts=base.conflicts,
            frames=base.frames,
        )

    support = system.cone_of_influence([prop, *assume])
    unroller = Unroller(system, support=support)
    unroller.add_initial_frame(free=True)
    aig = unroller.aig
    constraints: list[int] = []
    for t in range(k):
        constraints.append(unroller.bit_in_frame(t, prop))
        constraints.extend(
            unroller.bit_in_frame(t, assumption) for assumption in assume
        )
        unroller.add_step()
    constraints.extend(
        unroller.bit_in_frame(k, assumption) for assumption in assume
    )
    bad = aig.neg(unroller.bit_in_frame(k, prop))
    result = _solve(
        aig,
        constraints + unroller.constraints + [bad],
        max_conflicts=max_conflicts,
        interrupt=interrupt,
    )
    conflicts = base.conflicts + result.conflicts
    frames = max(base.frames, len(unroller.frames))
    if result.satisfiable is False:
        return CheckResult(
            holds=True, bound=k, method="k-induction",
            conflicts=conflicts, frames=frames,
        )
    return CheckResult(
        holds=None, bound=k, method="k-induction(step)",
        conflicts=conflicts, frames=frames,
    )


def prove(
    module_or_system: Module | TransitionSystem,
    prop: E.Expr,
    max_k: int = 4,
    assume: Sequence[E.Expr] = (),
    max_conflicts: int | None = None,
    interrupt: Callable[[], bool] | None = None,
    incremental: bool = True,
) -> CheckResult:
    """Try k-induction with increasing k until the step check passes or
    ``max_k`` is exhausted.

    The incremental engine (default) shares one base and one step unrolling
    across all values of k — each iteration adds one frame and one solver
    call instead of redoing everything from scratch.
    """
    if incremental:
        context = _context(module_or_system, prop, assume, max_conflicts, interrupt)
        return context.prove(0, max_k)
    last = CheckResult(holds=None, bound=0, method="k-induction")
    for k in range(1, max_k + 1):
        last = k_induction(
            module_or_system,
            prop,
            k=k,
            assume=assume,
            max_conflicts=max_conflicts,
            interrupt=interrupt,
            incremental=False,
        )
        if last.holds is not None:
            return last
    return last
