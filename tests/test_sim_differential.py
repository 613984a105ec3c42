"""Differential testing: interpreter vs compiled simulator on random netlists.

A seeded generator builds random modules — random-width inputs, registers,
a memory with write traffic, and a pool of randomly composed expressions —
then both :class:`repro.hdl.sim.Simulator` and
:class:`repro.hdl.compile.CompiledSimulator` are driven through the same
stimulus, asserting identical probe values *and* identical register/memory
state after every cycle.  Any divergence pinpoints the first bad cycle and
the generating seed, so failures replay deterministically.

A small seed set runs in the default suite; the broad sweep is marked
``slow`` (CI runs it in its own job, ``pytest -m slow``).  Edge cases the
generator is unlikely to reach get hand-built modules: nets of 64 and 70
bits (the generator stays at or below 32), and two write ports colliding
on one address.
"""

from __future__ import annotations

import random

import pytest

from repro.hdl import expr as E
from repro.hdl.compile import CompiledSimulator
from repro.hdl.netlist import Module
from repro.hdl.sim import SimulationError, Simulator

_WIDTHS = [1, 3, 4, 8, 16]

# Found by sweeping the generator for maximal tricky-op coverage: this
# module combines variable-amount MUL/ASHR/SHL, signed compares,
# REDXOR/REDAND folds, memory reads and a data-dependent write enable —
# exactly the mix that would look "flaky" under a moving seed.  Pinned
# so the case never rotates out of the suite.
PINNED_SEED = 462


def _fit(value: E.Expr, width: int) -> E.Expr:
    """Coerce an expression to a width (truncate or zero-extend)."""
    if value.width == width:
        return value
    if value.width > width:
        return E.bits(value, 0, width - 1)
    return E.zext(value, width)


def random_module(seed: int, n_ops: int = 40) -> Module:
    """A random module exercising every node type the simulators support."""
    rng = random.Random(seed)
    module = Module(f"fuzz{seed}")
    pool: list[E.Expr] = [E.const(8, rng.randrange(256))]
    for index in range(rng.randint(2, 4)):
        pool.append(module.add_input(f"in{index}", rng.choice(_WIDTHS)))
    registers: list[tuple[str, int]] = []
    for index in range(rng.randint(2, 4)):
        width = rng.choice(_WIDTHS)
        name = f"r{index}"
        pool.append(module.add_register(name, width, init=rng.randrange(1 << width)))
        registers.append((name, width))
    memory = module.add_memory(
        "m", 3, 8, init={addr: rng.randrange(256) for addr in range(3)}
    )

    unary = [E.bnot, E.neg, E.redor, E.redand, E.redxor]
    binary = [
        E.band, E.bor, E.bxor, E.add, E.sub, E.mul,
        E.eq, E.ne, E.ult, E.ule, E.slt, E.sle,
        E.shl, E.lshr, E.ashr,
    ]
    for _ in range(n_ops):
        kind = rng.randrange(7)
        a = rng.choice(pool)
        if kind == 0:
            node = rng.choice(unary)(a)
        elif kind == 1:
            node = rng.choice(binary)(a, _fit(rng.choice(pool), a.width))
        elif kind == 2:
            node = E.mux(
                _fit(rng.choice(pool), 1), a, _fit(rng.choice(pool), a.width)
            )
        elif kind == 3 and a.width > 1:
            low = rng.randrange(a.width)
            node = E.bits(a, low, rng.randrange(low, a.width))
        elif kind == 4:
            node = E.concat(a, _fit(rng.choice(pool), rng.choice(_WIDTHS)))
        elif kind == 5:
            node = E.mem_read("m", _fit(a, 3), 8)
        else:
            node = E.sext(a, a.width + rng.randrange(4))
        if node.width <= 32:
            pool.append(node)

    for index, value in enumerate(rng.sample(pool, min(8, len(pool)))):
        module.add_probe(f"p{index}", value)
    for name, width in registers:
        module.drive_register(
            name,
            _fit(rng.choice(pool), width),
            enable=_fit(rng.choice(pool), 1),
        )
    memory.add_write_port(
        _fit(rng.choice(pool), 1), _fit(rng.choice(pool), 3), _fit(rng.choice(pool), 8)
    )
    module.validate()
    return module


def assert_same_run(module: Module, stimuli, context: str) -> None:
    """Step the interpreter and the compiled simulator through the same
    stimuli: probes and register/memory state must match every cycle."""
    interpreted = Simulator(module)
    compiled = CompiledSimulator(module)
    for cycle, stimulus in enumerate(stimuli):
        probes_i = interpreted.step(stimulus)
        probes_c = compiled.step(stimulus)
        where = f"{context} cycle={cycle}"
        assert probes_i == probes_c, where
        assert interpreted.state.registers == compiled.state.registers, where
        assert interpreted.state.memories == compiled.state.memories, where


def run_differential(seed: int, cycles: int = 50) -> None:
    module = random_module(seed)
    rng = random.Random(seed ^ 0x5EED)
    stimuli = (
        {name: rng.randrange(1 << width) for name, width in module.inputs.items()}
        for _ in range(cycles)
    )
    assert_same_run(module, stimuli, f"seed={seed}")


@pytest.mark.parametrize("seed", range(8))
def test_differential_small(seed, fuzz_seed_base):
    run_differential(seed + fuzz_seed_base)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 80))
def test_differential_sweep(seed, fuzz_seed_base):
    run_differential(seed + fuzz_seed_base, cycles=100)


def test_pinned_random_module():
    """Deterministic replay of the trickiest generated module (see
    PINNED_SEED) — deliberately *not* offset by the fuzz seed base."""
    run_differential(PINNED_SEED, cycles=60)


def _wide_module(width: int) -> Module:
    module = Module(f"wide{width}")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    amount = module.add_input("amount", 8)
    module.add_probe("add", E.add(a, b))
    module.add_probe("sub", E.sub(a, b))
    module.add_probe("mul", E.mul(a, b))
    module.add_probe("neg", E.neg(a))
    module.add_probe("slt", E.slt(a, b))
    module.add_probe("sle", E.sle(a, b))
    module.add_probe("ult", E.ult(a, b))
    module.add_probe("shl", E.shl(a, amount))
    module.add_probe("lshr", E.lshr(a, amount))
    module.add_probe("ashr", E.ashr(a, amount))
    module.add_probe("redxor", E.redxor(a))
    module.add_probe("redand", E.redand(a))
    acc = module.add_register("acc", width, init=0)
    module.drive_register("acc", E.add(acc, a), enable=E.const(1, 1))
    module.validate()
    return module


@pytest.mark.parametrize("width", [64, 70])
def test_wide_arithmetic(width, fuzz_seed_base):
    """Nets of a machine word and wider: all-ones + 1 style operands
    maximise carry and borrow chains, signed compares see both signs,
    and shift amounts run past the width."""
    module = _wide_module(width)
    full = (1 << width) - 1
    specials = [0, 1, full, full - 1, 1 << (width - 1), (1 << (width - 1)) - 1]
    rng = random.Random(2024 + fuzz_seed_base)

    def operand() -> int:
        return rng.choice(specials) if rng.random() < 0.5 else rng.getrandbits(width)

    stimuli = (
        {"a": operand(), "b": operand(), "amount": rng.randrange(256)}
        for _ in range(80)
    )
    assert_same_run(module, stimuli, f"width={width}")


def test_two_write_port_collision():
    """Two write ports hitting the same address in one cycle: the later
    port wins, and a disabled port leaves the word alone."""
    module = Module("wconf")
    we0 = module.add_input("we0", 1)
    we1 = module.add_input("we1", 1)
    addr0 = module.add_input("addr0", 3)
    addr1 = module.add_input("addr1", 3)
    data0 = module.add_input("data0", 8)
    data1 = module.add_input("data1", 8)
    memory = module.add_memory("m", 3, 8, init={0: 17})
    memory.add_write_port(we0, addr0, data0)
    memory.add_write_port(we1, addr1, data1)
    module.add_probe("read0", E.mem_read("m", addr0, 8))
    module.validate()

    rng = random.Random(99)
    stimuli = (
        {
            "we0": rng.randrange(2),
            "we1": rng.randrange(2),
            # the two ports' addresses collide often
            "addr0": rng.choice([0, 1, 1, 2]),
            "addr1": rng.choice([0, 1, 1, 2]),
            "data0": rng.randrange(256),
            "data1": rng.randrange(256),
        }
        for _ in range(40)
    )
    assert_same_run(module, stimuli, "two write ports")


def _unread_input_module() -> Module:
    """A counter with a declared 2-bit input that no expression reads."""
    module = Module("unread")
    module.add_input("x", 2)
    count = module.add_register("r", 4)
    module.drive_register("r", E.add(count, E.const(4, 1)))
    module.add_probe("r", count)
    return module


@pytest.mark.parametrize(
    "make", [Simulator, CompiledSimulator], ids=["interpreter", "compiled"]
)
def test_unread_input_out_of_range_rejected(make):
    """Both simulators check each declared input before stepping, read
    or not, so they accept exactly the same stimuli."""
    sim = make(_unread_input_module())
    with pytest.raises(SimulationError, match="value 7 does not fit in 2 bits"):
        sim.step({"x": 7})
    assert sim.cycle == 0
    sim.step({"x": 3})
    assert sim.cycle == 1
