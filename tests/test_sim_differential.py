"""Differential testing: interpreter vs compiled simulator on random netlists.

A seeded generator builds random modules — random-width inputs, registers,
a memory with write traffic, and a pool of randomly composed expressions —
then both :class:`repro.hdl.sim.Simulator` and
:class:`repro.hdl.compile.CompiledSimulator` are driven through the same
stimulus, asserting identical probe values *and* identical register/memory
state after every cycle.  Any divergence pinpoints the first bad cycle and
the generating seed, so failures replay deterministically.

A small seed set runs in the default suite; the broad sweep is marked
``slow`` (CI runs it in its own job, ``pytest -m slow``).
"""

from __future__ import annotations

import random

import pytest

from repro.hdl import expr as E
from repro.hdl.batchsim import BatchSimulator
from repro.hdl.compile import CompiledSimulator
from repro.hdl.netlist import Module
from repro.hdl.sim import SimulationError, Simulator

_WIDTHS = [1, 3, 4, 8, 16]


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


def run_differential(seed: int, cycles: int = 50) -> None:
    module = random_module(seed)
    rng = random.Random(seed ^ 0x5EED)
    interpreted = Simulator(module)
    compiled = CompiledSimulator(module)
    for cycle in range(cycles):
        stimulus = {
            name: rng.randrange(1 << width)
            for name, width in module.inputs.items()
        }
        probes_i = interpreted.step(stimulus)
        probes_c = compiled.step(stimulus)
        context = f"seed={seed} cycle={cycle}"
        assert probes_i == probes_c, context
        assert interpreted.state.registers == compiled.state.registers, context
        assert interpreted.state.memories == compiled.state.memories, context


@pytest.mark.parametrize("seed", range(8))
def test_differential_small(seed, fuzz_seed_base):
    run_differential(seed + fuzz_seed_base)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 80))
def test_differential_sweep(seed, fuzz_seed_base):
    run_differential(seed + fuzz_seed_base, cycles=100)


def _unread_input_module() -> Module:
    """A counter with a declared 2-bit input that no expression reads."""
    module = Module("unread")
    module.add_input("x", 2)
    count = module.add_register("r", 4)
    module.drive_register("r", E.add(count, E.const(4, 1)))
    module.add_probe("r", count)
    return module


@pytest.mark.parametrize(
    "make",
    [Simulator, CompiledSimulator, lambda module: BatchSimulator(module, lanes=1)],
    ids=["interpreter", "compiled", "batch-1"],
)
def test_unread_input_out_of_range_rejected(make):
    """Every simulator checks each declared input before stepping, read
    or not, so they accept exactly the same stimuli."""
    sim = make(_unread_input_module())
    with pytest.raises(SimulationError, match="value 7 does not fit in 2 bits"):
        sim.step({"x": 7})
    assert sim.cycle == 0
    sim.step({"x": 3})
    assert sim.cycle == 1
