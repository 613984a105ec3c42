"""The cone-of-influence closure against a fixpoint oracle.

:meth:`TransitionSystem.cone_of_influence` closes the state elements'
dependency graph once per system (:class:`repro.formal.bmc.
DependencyClosure`).  ``reference_cone`` below is the definition it
replaced: re-walk what a step of the frontier reads (a register's next
function, a memory's write ports) until no new element appears.  Both
must name the same registers and memories for every root set the engine
asks about, on the shipped cores and on hand-built corner cases
(self-loops, register cycles, memories read symbolically inside a cycle,
constant-address reads, ROMs, memories with two write ports).
"""

from __future__ import annotations

import random

import pytest

from repro.absint import inject_invariants, mine_invariants
from repro.core import transform
from repro.faults.catalog import CORES
from repro.formal.bmc import DependencyClosure, TransitionSystem
from repro.hdl import expr as E
from repro.hdl.netlist import Module
from repro.proofs import generate_obligations, resolve_properties


def reference_cone(system: TransitionSystem, roots: list[E.Expr]) -> set[str]:
    """The frontier fixpoint: every register and memory ``roots`` reach
    through any number of steps."""
    needed: set[str] = set()
    frontier = list(roots)
    while frontier:
        exprs = frontier
        frontier = []
        names: set[str] = set()
        for node in E.walk(exprs):
            if isinstance(node, E.RegRead):
                names.add(node.name)
            elif isinstance(node, E.MemRead):
                names.add(node.mem)
        for name in names - needed:
            needed.add(name)
            frontier.extend(system.roots_of([name]))
    return needed


def _core_root_sets(core: str) -> tuple[TransitionSystem, list[list[E.Expr]]]:
    """Every root set the engine asks a core's system about: each state
    variable's next, each invariant obligation's prop plus assume before
    and after invariant injection, and each proven mined invariant."""
    pipelined = transform(CORES[core].build_machine())
    obligations = generate_obligations(pipelined)
    resolve_properties(pipelined, obligations)
    system = TransitionSystem.from_module(pipelined.module)
    mining = mine_invariants(pipelined, system=system)
    assert mining.proven, core
    invariants = obligations.invariants()
    injected = [
        o for o in inject_invariants(list(obligations), mining.proven, system)
        if o.prop is not None
    ]
    assert any(len(o.assume) for o in injected)
    root_sets = [[var.next] for var in system.state]
    root_sets += [mem.roots() for mem in system.mems.values() if mem.ports]
    root_sets += [[o.prop, *o.assume] for o in invariants]
    root_sets += [[o.prop, *o.assume] for o in injected]
    root_sets += [[inv.prop] for inv in mining.proven]
    rng = random.Random(0)
    pool = [roots[0] for roots in root_sets]
    root_sets += [rng.sample(pool, 3) for _ in range(20)]
    return system, root_sets


def _assert_oracle(system: TransitionSystem, root_sets) -> None:
    for roots in root_sets:
        assert system.cone_of_influence(roots) == reference_cone(system, roots)


@pytest.mark.parametrize(
    "core",
    ["toy", "dlx-small", pytest.param("dlx-spec", marks=pytest.mark.slow)],
)
def test_closure_matches_fixpoint_on_core(core):
    system, root_sets = _core_root_sets(core)
    _assert_oracle(system, root_sets)


# -- hand-built corner cases ---------------------------------------------------


def _self_loop() -> Module:
    m = Module("self_loop")
    r = m.add_register("r", 4)
    m.drive_register("r", E.add(r, E.const(4, 1)))
    m.add_register("other", 4, next=E.const(4, 3))
    return m


def _two_register_cycle() -> Module:
    m = Module("cycle")
    a = m.add_register("a", 4)
    b = m.add_register("b", 4)
    m.drive_register("a", E.bxor(b, E.const(4, 1)))
    m.drive_register("b", a)
    m.add_register("c", 4, next=E.add(a, E.const(4, 2)))
    return m


def _symbolic_read_in_cycle() -> Module:
    m = Module("mem_cycle")
    m.add_memory("M", 2, 4)
    ptr = m.add_register("ptr", 2)
    acc = m.add_register("acc", 4)
    word = m.read_memory("M", ptr)
    m.drive_register("ptr", E.bits(word, 0, 1))
    m.drive_register("acc", E.add(acc, word))
    m.memories["M"].add_write_port(E.const(1, 1), ptr, acc)
    m.add_register("idle", 4, next=E.const(4, 0))
    return m


def _constant_word_read() -> Module:
    m = Module("word_read")
    m.add_memory("M", 2, 4)
    inp = m.add_input("in", 4)
    m.memories["M"].add_write_port(E.const(1, 1), E.const(2, 1), inp)
    m.add_register("w1", 4, next=m.read_memory("M", E.const(2, 1)))
    m.add_register("w3", 4, next=m.read_memory("M", E.const(2, 3)))
    return m


def _rom() -> Module:
    m = Module("rom")
    m.add_memory("ROM", 2, 4, init={0: 1, 1: 2, 2: 3, 3: 4})
    pc = m.add_register("pc", 2)
    m.drive_register("pc", E.add(pc, E.const(2, 1)))
    m.add_register("ir", 4, next=m.read_memory("ROM", pc))
    m.add_register("first", 4, next=m.read_memory("ROM", E.const(2, 0)))
    return m


def _two_write_ports() -> Module:
    m = Module("two_ports")
    m.add_memory("M", 2, 4)
    a = m.add_register("a", 2)
    b = m.add_register("b", 4)
    c = m.add_register("c", 2)
    m.drive_register("a", E.add(a, E.const(2, 1)))
    m.drive_register("c", E.bits(b, 0, 1))
    m.memories["M"].add_write_port(E.const(1, 1), a, b)
    m.memories["M"].add_write_port(E.bit(b, 3), c, E.const(4, 7))
    m.add_register("out", 4, next=m.read_memory("M", E.const(2, 2)))
    return m


HAND_BUILT = {
    "self-loop": _self_loop,
    "two-register-cycle": _two_register_cycle,
    "symbolic-read-in-cycle": _symbolic_read_in_cycle,
    "constant-word-read": _constant_word_read,
    "rom": _rom,
    "two-write-ports": _two_write_ports,
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_closure_matches_fixpoint_on_hand_built(name):
    system = TransitionSystem.from_module(HAND_BUILT[name]())
    leaves = [var.next for var in system.state]
    leaves += [root for mem in system.mems.values() for root in mem.roots()]
    root_sets = [[leaf] for leaf in leaves]
    root_sets += [[E.reg_read(var.name, var.width)] for var in system.state]
    root_sets += [leaves[i : i + 2] for i in range(len(leaves) - 1)]
    root_sets.append([])
    _assert_oracle(system, root_sets)


def test_hand_built_cones_read_as_designed():
    system = TransitionSystem.from_module(_two_register_cycle())
    assert system.cone_of_influence([E.reg_read("c", 4)]) == {"a", "b", "c"}
    system = TransitionSystem.from_module(_constant_word_read())
    # a constant-address read pulls in the whole memory, one element, and
    # through it the write port's logic (here only the input)
    assert system.cone_of_influence([E.reg_read("w1", 4)]) == {"w1", "M"}
    system = TransitionSystem.from_module(_symbolic_read_in_cycle())
    assert system.cone_of_influence([E.reg_read("ptr", 2)]) == {"ptr", "acc", "M"}
    system = TransitionSystem.from_module(_two_write_ports())
    # both ports' logic: a, b (first port) and c (second port's address)
    assert system.cone_of_influence([E.reg_read("out", 4)]) == (
        {"out", "M", "a", "b", "c"}
    )


def test_closure_is_built_once_per_system(monkeypatch, toy_pipelined):
    built = []
    original = DependencyClosure.__init__

    def counting(self, system):
        built.append(system)
        original(self, system)

    monkeypatch.setattr(DependencyClosure, "__init__", counting)
    obligations = generate_obligations(toy_pipelined)
    resolve_properties(toy_pipelined, obligations)
    system = TransitionSystem.from_module(toy_pipelined.module)
    for var in system.state:
        system.cone_of_influence([var.next])
    for obligation in obligations.invariants():
        system.cone_of_influence([obligation.prop, *obligation.assume])
    assert built == [system]
    other = TransitionSystem.from_module(toy_pipelined.module)
    other.cone_of_influence([system.state[0].next])
    assert built == [system, other]
