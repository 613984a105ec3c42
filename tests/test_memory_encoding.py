"""The array encoding of memories against the word encoding and simulation.

The unroller (:mod:`repro.formal.bmc`) never expands a memory into words:
a read in frame ``t`` lowers to a priority chain over the memory's writes
in earlier frames, ending in a base read of the frame-0 contents, and a
free frame ties its base reads together by address.  The incremental and
one-shot engines share that lowering, so their agreement in
``tests/test_bmc_incremental.py`` does not check it.  This suite does, on
seeded random machines with one written memory (2 to 64 words, one or
two write ports, nonzero reset words, reads at constant, register and
input addresses):

* ``bmc``, ``k_induction`` and ``prove``, on both engines, give the same
  ``holds`` and ``bound`` as on :func:`word_encoding` of the machine, in
  which every word is a register and every read a mux over the words;
* on tiny machines, ``bmc`` agrees with simulating every input sequence;
* every ``bmc`` counterexample replays on :class:`repro.hdl.sim.Simulator`
  from reset, registers and decoded memory words included.

The word encoding exists here only, as the oracle.  A small seed range
runs in tier 1 and a wide one under ``-m slow``.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.formal.bmc import CheckResult, bmc, k_induction, prove
from repro.hdl import expr as E
from repro.hdl.netlist import Module
from repro.hdl.sim import Simulator, evaluate
from repro.hdl.subst import substitute

TIER1_SEEDS = range(20)
SLOW_SEEDS = range(20, 320)
BOUND = 4


def _fit(expression: E.Expr, width: int) -> E.Expr:
    """``expression`` truncated or zero-extended to ``width`` bits."""
    if expression.width > width:
        return E.bits(expression, 0, width - 1)
    if expression.width < width:
        return E.zext(expression, width)
    return expression


def _random_expr(
    rng: random.Random, leaves: list[E.Expr], width: int, depth: int
) -> E.Expr:
    """A random expression of exactly ``width`` bits over ``leaves``."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return E.const(width, rng.randrange(1 << width))
        return _fit(rng.choice(leaves), width)
    a = _random_expr(rng, leaves, width, depth - 1)
    b = _random_expr(rng, leaves, width, depth - 1)
    op = rng.randrange(6)
    if op == 0:
        return E.add(a, b)
    if op == 1:
        return E.bxor(a, b)
    if op == 2:
        return E.sub(a, b)
    if op == 3:
        sel = _fit(_random_expr(rng, leaves, 2, depth - 1), 1)
        return E.mux(sel, a, b)
    if op == 4:
        return E.bnot(a)
    return E.zext(E.ult(a, b), width)


def _machine(seed: int, tiny: bool = False) -> tuple[Module, E.Expr]:
    """A small machine with one written memory ``M`` plus a 1-bit
    property over its state (never over inputs, which are free in the
    last frame and would make any property falsifiable)."""
    rng = random.Random(seed)
    module = Module(f"mem{seed}")
    addr_width = rng.randint(1, 2) if tiny else rng.randint(1, 6)
    width = rng.choice([2, 3]) if tiny else rng.choice([2, 3, 4])
    size = 1 << addr_width
    inp = module.add_input("in", 1 if tiny else rng.randint(1, 3))
    init = {
        addr: rng.randrange(1, 1 << width)
        for addr in rng.sample(range(size), rng.randint(1, min(size, 4)))
    }
    module.add_memory("M", addr_width, width, init=init)
    regs = [
        module.add_register(f"r{i}", width, init=rng.randrange(1 << width))
        for i in range(rng.randint(1, 2 if tiny else 3))
    ]
    ptr = module.add_register("ptr", addr_width, init=rng.randrange(size))
    addresses = {
        "const": E.const(addr_width, rng.randrange(size)),
        "register": ptr,
        "input": _fit(inp, addr_width),
    }
    reads = {kind: module.read_memory("M", addr) for kind, addr in addresses.items()}
    leaves = [inp, *regs, ptr, *reads.values()]
    for _ in range(rng.randint(1, 2)):
        enable = rng.choice(
            [E.const(1, 1), E.bit(rng.choice(regs), 0), E.bit(inp, 0)]
        )
        addr = rng.choice([*addresses.values(), _fit(rng.choice(regs), addr_width)])
        module.memories["M"].add_write_port(
            enable, addr, _random_expr(rng, leaves, width, 1)
        )
    for i in range(len(regs)):
        module.drive_register(f"r{i}", _random_expr(rng, leaves, width, 2))
    module.drive_register(
        "ptr", _fit(_random_expr(rng, leaves, width, 1), addr_width)
    )
    state = [*regs, ptr, reads["const"], reads["register"]]
    if rng.random() < 0.5:
        prop = E.ne(_random_expr(rng, state, width, 2), E.const(width, 0))
    else:
        prop = _fit(_random_expr(rng, state, 2, 2), 1)
    return module, prop


def word_encoding(module: Module, prop: E.Expr) -> tuple[Module, E.Expr]:
    """``module`` and ``prop`` with every memory expanded into one
    register per word.

    Word ``k`` of ``M`` becomes register ``M.k``, whose next value folds
    the write ports in order (a later port wins a collision), and a read
    becomes a mux over the words.  This is the encoding the unroller used
    before memories became arrays."""
    words = Module(f"{module.name}.words")
    for name, width in module.inputs.items():
        words.add_input(name, width)

    def reader(mem: str):
        memory = module.memories[mem]

        def read(addr: E.Expr) -> E.Expr:
            value = E.reg_read(f"{mem}.0", memory.data_width)
            for k in range(1, memory.size):
                hit = E.eq(addr, E.const(memory.addr_width, k))
                value = E.mux(hit, E.reg_read(f"{mem}.{k}", memory.data_width), value)
            return value

        return read

    mem_map = {mem: reader(mem) for mem in module.memories}
    memo: dict = {}

    def rewrite(expression: E.Expr) -> E.Expr:
        return substitute(expression, mem_map=mem_map, memo=memo)

    for name, reg in module.registers.items():
        words.add_register(
            name, reg.width, init=reg.init,
            next=rewrite(reg.next), enable=rewrite(reg.enable),
        )
    for mem, memory in module.memories.items():
        for k in range(memory.size):
            value = E.reg_read(f"{mem}.{k}", memory.data_width)
            for port in memory.write_ports:
                hit = E.band(
                    rewrite(port.enable),
                    E.eq(rewrite(port.addr), E.const(memory.addr_width, k)),
                )
                value = E.mux(hit, rewrite(port.data), value)
            words.add_register(
                f"{mem}.{k}", memory.data_width,
                init=memory.init.get(k, 0), next=value,
            )
    return words, rewrite(prop)


def _agree(array: CheckResult, words: CheckResult, context: str) -> None:
    assert (array.holds, array.bound) == (words.holds, words.bound), context


def _replay(module: Module, prop: E.Expr, result: CheckResult) -> None:
    """Run the counterexample's inputs on the simulator from reset: every
    decoded register and memory word matches, and the last frame
    violates ``prop``."""
    cex = result.counterexample
    assert cex is not None and cex.length == result.bound + 1
    sim = Simulator(module)
    for t in range(cex.length):
        for name, value in cex.states[t].items():
            if name.startswith("M["):
                assert sim.mem("M", int(name[2:-1])) == value, (t, name)
            else:
                assert sim.reg(name) == value, (t, name)
        if t < cex.length - 1:
            sim.step(cex.inputs[t])
    assert evaluate([prop], sim.state, cex.inputs[-1]) == [0]


def _first_violation(module: Module, prop: E.Expr, bound: int) -> int | None:
    """The earliest frame ``<= bound`` in which some input sequence from
    reset violates ``prop``, by simulating every sequence."""
    (name, width), = module.inputs.items()
    first: int | None = None
    for sequence in itertools.product(range(1 << width), repeat=bound):
        sim = Simulator(module)
        for t in range(bound + 1):
            if first is not None and t >= first:
                break
            if evaluate([prop], sim.state) == [0]:
                first = t
                break
            if t < bound:
                sim.step({name: sequence[t]})
    return first


def _check_machine(module: Module, prop: E.Expr) -> int:
    """Hold both engines to the word encoding; returns the number of
    counterexamples replayed."""
    oracle, oracle_prop = word_encoding(module, prop)
    replayed = 0
    expected = bmc(oracle, oracle_prop, bound=BOUND)
    for incremental in (True, False):
        engine = f"incremental={incremental}"
        result = bmc(module, prop, bound=BOUND, incremental=incremental)
        _agree(result, expected, f"bmc {engine}")
        if result.holds is False:
            _replay(module, prop, result)
            replayed += 1
        for k in (1, 2):
            _agree(
                k_induction(module, prop, k=k, incremental=incremental),
                k_induction(oracle, oracle_prop, k=k),
                f"k_induction k={k} {engine}",
            )
        _agree(
            prove(module, prop, max_k=3, incremental=incremental),
            prove(oracle, oracle_prop, max_k=3),
            f"prove {engine}",
        )
    return replayed


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_array_encoding_matches_word_encoding(seed):
    _check_machine(*_machine(seed))


def _check_tiny(seed: int) -> int:
    """:func:`_check_machine` plus exhaustive simulation on a tiny
    machine; returns the number of counterexamples replayed."""
    module, prop = _machine(seed, tiny=True)
    replayed = _check_machine(module, prop)
    first = _first_violation(module, prop, BOUND)
    result = bmc(module, prop, bound=BOUND)
    if first is None:
        assert result.holds is True, seed
    else:
        assert (result.holds, result.bound) == (False, first), seed
    return replayed


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_tiny_bmc_matches_exhaustive_simulation(seed):
    _check_tiny(seed)


@pytest.mark.slow
def test_wide_seed_range():
    replayed = 0
    for seed in SLOW_SEEDS:
        replayed += _check_machine(*_machine(seed)) + _check_tiny(seed)
    assert replayed > 0


# -- the lowering itself -------------------------------------------------------


def _memory_module(init: dict[int, int], ports: int = 1) -> Module:
    """A 1,024-word memory read at a register address."""
    module = Module("big")
    module.add_memory("M", 10, 8, init=init)
    ptr = module.add_register("ptr", 10)
    module.drive_register("ptr", module.add_input("addr", 10))
    for _ in range(ports):
        module.memories["M"].add_write_port(
            E.const(1, 1), ptr, module.add_input("data", 8)
        )
    module.add_register("out", 8, next=module.read_memory("M", ptr))
    return module


def _unroller(module: Module, free: bool):
    from repro.formal.bmc import TransitionSystem, Unroller

    unroller = Unroller(TransitionSystem.from_module(module))
    unroller.add_initial_frame(free=free)
    return unroller


def test_known_zero_contents_read_as_constant():
    """A reset frame reads a zero-filled memory as constant 0: no mux per
    word, and no AND gate at all."""
    unroller = _unroller(_memory_module({}), free=False)
    data = unroller.blast_in_frame(0, E.mem_read("M", E.reg_read("ptr", 10), 8))
    assert data == [0] * 8
    assert unroller.aig.ands == []


def test_known_rom_folds_where_words_agree():
    """A ROM whose words all agree reads as that constant in a free frame
    too; one differing word costs a mux on the address bits only."""
    nops = {a: 0x5A for a in range(1024)}
    module = _memory_module(nops, ports=0)
    unroller = _unroller(module, free=True)
    read = E.mem_read("M", E.reg_read("ptr", 10), 8)
    assert unroller.blast_in_frame(0, read) == [0, 1, 0, 1, 1, 0, 1, 0]
    assert unroller.aig.ands == []
    unroller = _unroller(_memory_module({**nops, 7: 0x5B}, ports=0), free=True)
    unroller.blast_in_frame(0, read)
    assert 0 < len(unroller.aig.ands) < 40


def test_free_base_reads_are_tied_by_address():
    """In a free frame each distinct address vector gets one fresh base
    read, tied to the others; equal address vectors share it, and
    distinct constant addresses need no tie."""
    unroller = _unroller(_memory_module({}), free=True)
    ptr = E.reg_read("ptr", 10)
    first = unroller.blast_in_frame(0, E.mem_read("M", ptr, 8))
    assert unroller.blast_in_frame(0, E.mem_read("M", ptr, 8)) is first
    assert unroller.constraints == []
    unroller.blast_in_frame(0, E.mem_read("M", E.const(10, 3), 8))
    assert len(unroller.constraints) == 1
    unroller.blast_in_frame(0, E.mem_read("M", E.const(10, 4), 8))
    assert len(unroller.constraints) == 2  # tied to ptr's read only
