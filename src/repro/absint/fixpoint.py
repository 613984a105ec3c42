"""Fixpoint abstract interpretation of a sequential netlist.

Starting from the reset state (every register at its ``init`` value,
memories at their ``init`` contents), :func:`analyze` repeatedly pushes
the abstract register state through one cycle of the combinational
semantics and *accumulates* (joins) the result into the state, so the
final map over-approximates every reachable state:

``state'[r] ⊇ state[r] ∪ next_r(state)``

Writable memories are summarised by a single abstract word (the join of
the initial contents and everything ever written); ROMs — memories with
no write ports, which :class:`repro.formal.bmc.TransitionSystem` also
treats as constant — keep their exact contents and reads through a
sufficiently-narrow abstract address are refined by case-splitting on
the concrete addresses.

Widening (interval bounds jump to the extremes once they keep moving)
plus the finite known-bits lattice force termination; ``MAX_ITERATIONS``
is a pure backstop that blows still-changing entries to ⊤, which is
always sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..hdl import expr as E
from ..hdl.bitvec import mask
from ..hdl.netlist import Memory, Module
from .domain import AbsValue, abs_transfer

# The analysis knobs.  A fixpoint feeds the mined invariants the absint
# cache stores, so changing any of these means bumping ABSINT_VERSION.
WIDEN_AFTER = 3  # plain joins before interval widening sets in
MAX_ITERATIONS = 50  # backstop: still-moving entries go to top
ROM_CASE_LIMIT = 64  # most concrete addresses a ROM read case-splits over


def _concrete_values(value: AbsValue, limit: int) -> list[int] | None:
    """All concrete values in the concretisation, or ``None`` if there
    could be more than ``limit`` of them."""
    span = value.hi - value.lo + 1
    if span <= limit:
        return [
            x
            for x in range(value.lo, value.hi + 1)
            if (x & value.known) == value.value
        ]
    unknown = mask(value.width) & ~value.known
    nbits = bin(unknown).count("1")
    if nbits < 31 and (1 << nbits) <= limit:
        positions = [i for i in range(value.width) if (unknown >> i) & 1]
        out = []
        for combo in range(1 << nbits):
            x = value.value
            for j, pos in enumerate(positions):
                if (combo >> j) & 1:
                    x |= 1 << pos
            if value.lo <= x <= value.hi:
                out.append(x)
        return out
    return None


def _memory_summary(memory, include_unwritten: bool) -> AbsValue:
    """Join of a memory's initial contents (plus 0 for unspecified words)."""
    width = memory.data_width
    summary: AbsValue | None = None
    if include_unwritten and len(memory.init) < memory.size:
        summary = AbsValue.const(width, 0)
    for word in memory.init.values():
        value = AbsValue.const(width, word)
        summary = value if summary is None else summary.join(value)
        if summary.is_top():
            break
    return summary if summary is not None else AbsValue.const(width, 0)


def _environments(
    memories: dict[str, Memory],
    state: dict[str, AbsValue],
    mem_summary: dict[str, AbsValue],
    values: dict[E.Expr, AbsValue],
):
    """The register/memory environments of one abstract evaluation,
    closed over a (possibly still-moving) abstract state."""

    def reg_env(node: E.Expr) -> AbsValue:
        current = state.get(node.name)  # type: ignore[attr-defined]
        if current is None or current.width != node.width:
            return AbsValue.top(node.width)
        return current

    def mem_env(node: E.Expr) -> AbsValue:
        memory = memories.get(node.mem)  # type: ignore[attr-defined]
        if memory is None or memory.data_width != node.width:
            return AbsValue.top(node.width)
        summary = mem_summary[memory.name]
        if not memory.write_ports:
            # case-split a narrow abstract address over the concrete words
            addrs = _concrete_values(values[node.addr], ROM_CASE_LIMIT)
            if addrs is not None and addrs:
                out: AbsValue | None = None
                for a in addrs:
                    word = AbsValue.const(
                        memory.data_width, memory.init.get(a, 0)
                    )
                    out = word if out is None else out.join(word)
                    if out.is_top():
                        break
                return out if out is not None else summary
        return summary

    return reg_env, mem_env


@dataclass
class FixpointResult:
    """Stable abstract state of a module.

    ``registers`` maps register names to facts true in every reachable
    state; ``memories`` maps memory names to a single-word summary of
    all reachable contents; ``values`` maps each combinational node of
    the final (stable) evaluation to its abstract value.

    :meth:`eval` extends ``values`` on demand to expressions outside the
    module's roots, memoised on the interned nodes themselves — the
    cross-candidate CSE that lets invariant candidates reuse each
    other's transfer computations.
    """

    registers: dict[str, AbsValue]
    memories: dict[str, AbsValue]
    values: dict[E.Expr, AbsValue]
    iterations: int
    widened: bool
    _reg_env: Callable[[E.Expr], AbsValue] = field(repr=False)
    _mem_env: Callable[[E.Expr], AbsValue] = field(repr=False)

    def eval(self, expression: E.Expr) -> AbsValue:
        """Abstract value of an arbitrary expression in the stable state.

        Transfers are memoised in ``values`` keyed on interned nodes: any
        subterm hash-consed together with a previously evaluated
        expression — a root of the module, another candidate invariant —
        is a dictionary hit, and the walk stops there.
        """
        values = self.values
        for node in E.walk_new([expression], values):
            values[node] = abs_transfer(
                node,
                values.__getitem__,
                reg_env=self._reg_env,
                mem_env=self._mem_env,
            )
        return values[expression]


def analyze(module: Module) -> FixpointResult:
    """Run the fixpoint interpreter; see the module docstring."""
    state: dict[str, AbsValue] = {
        name: AbsValue.const(reg.width, reg.init)
        for name, reg in module.registers.items()
    }
    mem_summary: dict[str, AbsValue] = {
        name: _memory_summary(memory, include_unwritten=True)
        for name, memory in module.memories.items()
    }

    order = E.walk(module.roots())
    values: dict[E.Expr, AbsValue] = {}
    reg_env, mem_env = _environments(
        module.memories, state, mem_summary, values
    )

    def _evaluate() -> None:
        values.clear()
        for node in order:
            values[node] = abs_transfer(
                node,
                values.__getitem__,
                reg_env=reg_env,
                mem_env=mem_env,
            )

    iterations = 0
    widened = False
    while True:
        iterations += 1
        _evaluate()
        changed: set[str] = set()
        changed_mems: set[str] = set()
        for name, reg in module.registers.items():
            enable = values[reg.enable]
            if enable.hi == 0:
                continue  # enable provably 0: the register never moves
            old = state[name]
            nxt = values[reg.next]
            if iterations > WIDEN_AFTER:
                new = old.widen(old.join(nxt))
                if new != old:
                    widened = True
            else:
                new = old.join(nxt)
            if new != old:
                state[name] = new
                changed.add(name)
        for name, memory in module.memories.items():
            old = mem_summary[name]
            new = old
            for port in memory.write_ports:
                enable = values[port.enable]
                if enable.hi == 0:
                    continue
                new = new.join(values[port.data])
            if new != old:
                mem_summary[name] = new
                changed_mems.add(name)
        if not changed and not changed_mems:
            break
        if iterations >= MAX_ITERATIONS:
            # backstop: widen everything still moving straight to top
            for name in changed:
                state[name] = AbsValue.top(module.registers[name].width)
            for name in changed_mems:
                mem_summary[name] = AbsValue.top(
                    module.memories[name].data_width
                )
            widened = True

    return FixpointResult(
        registers=state,
        memories=mem_summary,
        values=values,
        iterations=iterations,
        widened=widened,
        _reg_env=reg_env,
        _mem_env=mem_env,
    )
