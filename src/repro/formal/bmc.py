"""Bounded model checking and k-induction over HDL modules.

A :class:`TransitionSystem` is extracted from a :class:`repro.hdl.Module`:
registers and (expanded) memory words form the state, and each state
element's next-value is a single expression — ``mux(enable, next, hold)``
for registers, a write-port fold for memory words.

:func:`bmc` searches for a property violation within ``k`` steps from the
initial state; :func:`k_induction` proves a property invariant by the
standard base + inductive-step scheme.  Both bit-blast the unrolling to CNF
and use the CDCL solver from :mod:`repro.formal.sat`.

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
system is sliced to the property's cone of influence at state-variable
granularity (individual memory words for constant-address reads).  Pass
``incremental=False`` to run the one-shot engines instead: they are the
test oracle, and both must agree on every verdict (the differential suite
in ``tests/test_bmc_incremental.py`` holds them to it).

This engine is what discharges the hardware-level proof obligations the
transformation tool emits (the role PVS played for the paper's authors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..hdl import expr as E
from ..hdl.netlist import Module
from .aig import (
    Aig,
    BitBlaster,
    CnfEmitter,
    Vec,
    fresh_vec,
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
ENGINE_VERSION = 4


@dataclass(frozen=True)
class StateVar:
    """One element of the transition system's state vector."""

    name: str
    width: int
    init: int
    next: E.Expr


class TransitionSystem:
    """A flat synchronous transition system extracted from a module."""

    def __init__(
        self,
        state: list[StateVar],
        inputs: dict[str, int],
        mem_shapes: dict[str, tuple[int, int]],
    ) -> None:
        self.state = state
        self.inputs = inputs
        # memory name -> (addr_width, data_width); words appear in `state`
        # under the names "mem[idx]".
        self.mem_shapes = mem_shapes
        self.mem_word_names = {
            f"{mem}[{addr}]"
            for mem, (addr_width, _dw) in mem_shapes.items()
            for addr in range(1 << addr_width)
        }
        # Memories with no write ports (ROMs); their words stay constant
        # even when the initial frame is otherwise unconstrained.
        self.constant_mems: set[str] = set()
        self._by_name = {var.name: var for var in state}

    def var(self, name: str) -> StateVar:
        return self._by_name[name]

    def cone_of_influence(self, roots: list[E.Expr]) -> set[str]:
        """State-variable names transitively needed to evaluate ``roots``
        across any number of steps.

        The slice is at *variable* granularity: a memory read at a constant
        address only pulls in that word, so properties over individual
        memory locations do not drag the whole memory into every frame.  A
        symbolic (non-constant) read still needs the full memory.
        """
        needed: set[str] = set()
        full_mems: set[str] = set()
        frontier: list[E.Expr] = list(roots)
        while frontier:
            exprs = frontier
            frontier = []
            names: set[str] = set()
            for node in E.walk(exprs):
                if isinstance(node, E.RegRead):
                    names.add(node.name)
                elif isinstance(node, E.MemRead):
                    if isinstance(node.addr, E.Const):
                        names.add(f"{node.mem}[{node.addr.value}]")
                    elif node.mem not in full_mems:
                        full_mems.add(node.mem)
                        addr_width, _dw = self.mem_shapes[node.mem]
                        names.update(
                            f"{node.mem}[{a}]" for a in range(1 << addr_width)
                        )
            for name in names - needed:
                needed.add(name)
                frontier.append(self._by_name[name].next)
        return needed

    @classmethod
    def from_module(cls, module: Module) -> "TransitionSystem":
        module.validate()
        state: list[StateVar] = []
        constant_mems: set[str] = set()
        for name, reg in module.registers.items():
            hold = E.reg_read(name, reg.width)
            state.append(
                StateVar(
                    name=name,
                    width=reg.width,
                    init=reg.init,
                    next=E.mux(reg.enable, reg.next, hold),
                )
            )
        mem_shapes: dict[str, tuple[int, int]] = {}
        for name, memory in module.memories.items():
            mem_shapes[name] = (memory.addr_width, memory.data_width)
            if not memory.write_ports:
                # A ROM: constant in every reachable state, so it is kept
                # constant even in induction frames (sound and much cheaper).
                constant_mems.add(name)
            for addr in range(memory.size):
                hold: E.Expr = E.mem_read(
                    name, E.const(memory.addr_width, addr), memory.data_width
                )
                value = hold
                for port in memory.write_ports:
                    selected = E.band(
                        port.enable, E.eq(port.addr, E.const(memory.addr_width, addr))
                    )
                    value = E.mux(selected, port.data, value)
                state.append(
                    StateVar(
                        name=f"{name}[{addr}]",
                        width=memory.data_width,
                        init=memory.init.get(addr, 0),
                        next=value,
                    )
                )
        system = cls(state, dict(module.inputs), mem_shapes)
        system.constant_mems = constant_mems
        return system


@dataclass
class Frame:
    """Literal vectors of one unrolled time frame.

    ``mems`` maps memory name -> {address: vector}; cone-of-influence
    slicing can leave it sparse (only the addressed words materialised).
    """

    regs: dict[str, Vec]
    mems: dict[str, dict[int, Vec]]
    inputs: dict[str, Vec]


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
    the listed state variables are materialised per frame (the set must be
    closed under next-state dependencies, as produced by
    :meth:`TransitionSystem.cone_of_influence`).
    """

    def __init__(
        self,
        system: TransitionSystem,
        aig: Aig | None = None,
        support: set[str] | None = None,
    ) -> None:
        self.system = system
        self.aig = aig if aig is not None else Aig()
        self.frames: list[Frame] = []
        self.vars = [
            var
            for var in system.state
            if support is None or var.name in support
        ]
        self._tracked = {var.name for var in self.vars}

    def _split_state(self, vecs: Mapping[str, Vec], input_vecs: dict[str, Vec]) -> Frame:
        regs: dict[str, Vec] = {}
        mems: dict[str, dict[int, Vec]] = {}
        for var in self.vars:
            if var.name in self.system.mem_word_names:
                mem, index = var.name[:-1].split("[")
                mems.setdefault(mem, {})[int(index)] = list(vecs[var.name])
            else:
                regs[var.name] = list(vecs[var.name])
        return Frame(regs=regs, mems=mems, inputs=input_vecs)

    def add_initial_frame(self, free: bool) -> Frame:
        """Frame 0: constants from reset values, or fresh variables.

        ROM contents stay constant even in free frames — they are constant
        in every reachable state, so this is a sound strengthening.
        """
        vecs: dict[str, Vec] = {}
        for var in self.vars:
            rom = (
                "[" in var.name
                and var.name.split("[")[0] in self.system.constant_mems
            )
            if free and not rom:
                vecs[var.name] = fresh_vec(self.aig, var.width)
            else:
                vecs[var.name] = [
                    1 if (var.init >> i) & 1 else 0 for i in range(var.width)
                ]
        frame = self._split_state(vecs, self._fresh_inputs())
        self.frames.append(frame)
        return frame

    def _fresh_inputs(self) -> dict[str, Vec]:
        return {
            name: fresh_vec(self.aig, width)
            for name, width in self.system.inputs.items()
        }

    def _blaster(self, frame: Frame) -> BitBlaster:
        return BitBlaster(
            self.aig, regs=frame.regs, inputs=frame.inputs, mem_words=frame.mems
        )

    def add_step(self) -> Frame:
        """Compute frame t+1 from the last frame."""
        current = self.frames[-1]
        blaster = self._blaster(current)
        vecs = {var.name: blaster.blast(var.next) for var in self.vars}
        frame = self._split_state(vecs, self._fresh_inputs())
        self.frames.append(frame)
        return frame

    def blast_in_frame(self, index: int, expression: E.Expr) -> Vec:
        """Evaluate an expression over the state/inputs of frame ``index``."""
        return self._blaster(self.frames[index]).blast(expression)

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
        — the ground truth every downstream node follows.
        """
        assignment = {lit >> 1: bool(model.get(lit >> 1, False)) for lit in self.aig._inputs}

        # one evaluation pass covers every literal of every frame
        wanted: list[int] = []
        index: dict[int, int] = {}

        def want(lit: int) -> None:
            if lit not in index:
                index[lit] = len(wanted)
                wanted.append(lit)

        for t in range(frames):
            frame = self.frames[t]
            for vec in frame.regs.values():
                for lit in vec:
                    want(lit)
            for words in frame.mems.values():
                for word in words.values():
                    for lit in word:
                        want(lit)
            for vec in frame.inputs.values():
                for lit in vec:
                    want(lit)
        values = self.aig.evaluate(assignment, wanted)

        def vec_of(vec: Vec) -> int:
            return sum(1 << i for i, lit in enumerate(vec) if values[index[lit]])

        cex = Counterexample(length=frames)
        for t in range(frames):
            frame = self.frames[t]
            state = {name: vec_of(vec) for name, vec in frame.regs.items()}
            for mem, words in frame.mems.items():
                for addr, word in sorted(words.items()):
                    state[f"{mem}[{addr}]"] = vec_of(word)
            ins = {name: vec_of(vec) for name, vec in frame.inputs.items()}
            cex.states.append(state)
            cex.inputs.append(ins)
        return cex


class IncrementalUnroller(Unroller):
    """An unrolling wired straight into one persistent SAT solver.

    Owns a :class:`repro.formal.sat.Solver` and a
    :class:`repro.formal.aig.CnfEmitter` for its whole lifetime: each new
    frame bit-blasts only its own transition logic, and only the AND nodes
    in the cone of an asserted/assumed literal are Tseitin-encoded — once.
    Learned clauses, variable activities and saved phases therefore carry
    over from bound ``k`` to bound ``k+1``.
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

    def ensure_frames(self, count: int) -> None:
        """Materialise frames 0..count-1 (no-op for already-built frames)."""
        if count > 0 and not self.frames:
            self.add_initial_frame(free=self.free_init)
        while len(self.frames) < count:
            self.add_step()

    def literal(self, index: int, expression: E.Expr) -> int:
        """Solver literal for a 1-bit expression in frame ``index``,
        encoding its cone into the solver on first use."""
        return self.emitter.encode(self.bit_in_frame(index, expression))

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
            aig, assumptions + [bad], max_conflicts=max_conflicts, interrupt=interrupt
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


def bmc_bdd(
    module_or_system: Module | TransitionSystem,
    prop: E.Expr,
    bound: int,
    assume: Sequence[E.Expr] = (),
    max_nodes: int = 200_000,
) -> CheckResult:
    """Bounded reachability from reset, decided by BDDs instead of SAT.

    The unrolling is identical to :func:`bmc` (cone-of-influence slice,
    concrete initial frame, ROMs constant), but each frame's bad-state
    condition is evaluated as a BDD over the free primary inputs rather
    than handed to the CDCL solver.  With a concrete reset frame the only
    BDD variables are the unrolled inputs, so the diagram stays small on
    exactly the obligations where a SAT engine can get stuck — an
    independent decision procedure to cross-check the SAT engines against.

    ``max_nodes`` caps the node table; exceeding it returns ``holds=None``
    with method ``bdd(node-limit)`` rather than thrashing.
    """
    from .bdd import Bdd

    system = _system(module_or_system)
    support = system.cone_of_influence([prop, *assume])
    unroller = Unroller(system, support=support)
    unroller.add_initial_frame(free=False)
    # Blast every frame's property/assumption bits first: blasting appends
    # AND gates, and the BDD sweep below walks the finished gate list once.
    frame_assumes: list[list[int]] = []
    prop_lits: list[int] = []
    for t in range(bound + 1):
        if t > 0:
            unroller.add_step()
        frame_assumes.append(
            [unroller.bit_in_frame(t, assumption) for assumption in assume]
        )
        prop_lits.append(unroller.bit_in_frame(t, prop))

    aig = unroller.aig
    bdd = Bdd()
    # One BDD variable per AIG input, in allocation order; remember which
    # AIG variable each BDD variable stands for so a model can be decoded.
    node_of: dict[int, int] = {0: bdd.false}
    bdd_var_to_aig: list[int] = []
    for lit in aig._inputs:
        node_of[lit >> 1] = bdd.new_var()
        bdd_var_to_aig.append(lit >> 1)

    def lit_node(lit: int) -> int:
        base = node_of[lit >> 1]
        return bdd.not_(base) if lit & 1 else base

    def limited(bound_reached: int) -> CheckResult:
        return CheckResult(
            holds=None,
            bound=bound_reached,
            method="bdd(node-limit)",
            frames=len(unroller.frames),
        )

    for var, a, b in aig.ands:
        node_of[var] = bdd.and_(lit_node(a), lit_node(b))
        if len(bdd._nodes) > max_nodes:
            return limited(bound)

    env = bdd.true  # assumptions over frames 0..t, grown per frame
    for t in range(bound + 1):
        for lit in frame_assumes[t]:
            env = bdd.and_(env, lit_node(lit))
        bad = bdd.and_(env, bdd.not_(lit_node(prop_lits[t])))
        if len(bdd._nodes) > max_nodes:
            return limited(t)
        if bad != bdd.false:
            assignment = bdd.satisfy_one(bad)
            model = {
                bdd_var_to_aig[var]: value
                for var, value in (assignment or {}).items()
            }
            return CheckResult(
                holds=False,
                bound=t,
                method="bdd",
                counterexample=unroller.decode(model, t + 1),
                frames=len(unroller.frames),
            )
    return CheckResult(
        holds=True, bound=bound, method="bdd", frames=len(unroller.frames)
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
        aig, constraints + [bad], max_conflicts=max_conflicts, interrupt=interrupt
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
