"""Differential tests: incremental vs. from-scratch formal engines.

The incremental engine (a one-member
:class:`repro.formal.shared.SharedContext`: one solver + one AIG per
query, frames and learned clauses shared across bounds — see
:mod:`repro.formal.bmc`) and the from-scratch engine (fresh unrolling and
solver per bound, the test oracle) are two implementations of the same
decision procedure.  On every input they must agree on the verdict, and
when the verdict is a counterexample, on its length (the first violating
frame is a semantic property of the system, not an engine choice).

Coverage: randomized small machines (registers, a memory with constant and
symbolic reads, free inputs), the toy pipeline's generated obligations, and
— slow-marked — every invariant obligation of the small DLX.  The
obligation suites also hold :func:`repro.proofs.discharge_invariant` to the
oracle's status and method.
"""

from __future__ import annotations

import random

import pytest

from repro.formal.bmc import TransitionSystem, bmc, k_induction, prove
from repro.formal.shared import SharedContext, SharedMember
from repro.hdl import expr as E
from repro.hdl.netlist import Module


def _random_expr(rng: random.Random, leaves: list[E.Expr], width: int, depth: int) -> E.Expr:
    """A random expression of exactly ``width`` bits over ``leaves``."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return E.const(width, rng.randrange(1 << width))
        leaf = rng.choice(leaves)
        if leaf.width == width:
            return leaf
        if leaf.width > width:
            return E.bits(leaf, 0, width - 1)
        return E.zext(leaf, width)

    op = rng.randrange(6)
    if op == 0:
        return E.bnot(_random_expr(rng, leaves, width, depth - 1))
    if op == 1:
        return E.add(
            _random_expr(rng, leaves, width, depth - 1),
            _random_expr(rng, leaves, width, depth - 1),
        )
    if op == 2:
        return E.bxor(
            _random_expr(rng, leaves, width, depth - 1),
            _random_expr(rng, leaves, width, depth - 1),
        )
    if op == 3:
        return E.mux(
            _random_expr(rng, leaves, 1, depth - 1),
            _random_expr(rng, leaves, width, depth - 1),
            _random_expr(rng, leaves, width, depth - 1),
        )
    if op == 4:
        return E.band(
            _random_expr(rng, leaves, width, depth - 1),
            _random_expr(rng, leaves, width, depth - 1),
        )
    return E.zext(
        E.eq(
            _random_expr(rng, leaves, 4, depth - 1),
            _random_expr(rng, leaves, 4, depth - 1),
        ),
        width,
    )


def _random_machine(seed: int) -> tuple[Module, E.Expr]:
    """A small random synchronous machine plus a random 1-bit property.

    The property is sometimes a real invariant, sometimes violated after a
    few steps — both outcomes are interesting differentially.
    """
    rng = random.Random(seed)
    module = Module(f"rand{seed}")
    width = rng.choice([3, 4])
    n_regs = rng.randint(2, 4)
    inp = module.add_input("in0", width)
    regs = [
        module.add_register(f"r{i}", width, init=rng.randrange(1 << width))
        for i in range(n_regs)
    ]
    leaves = [inp, *regs]
    if rng.random() < 0.5:
        module.add_memory("m", addr_width=2, data_width=width)
        # one write port plus a constant-address and a symbolic read, so the
        # word-granular cone slicing sees both shapes
        module.memories["m"].add_write_port(
            enable=E.bit(regs[0], 0),
            addr=E.bits(regs[1], 0, 1),
            data=regs[0],
        )
        leaves.append(module.read_memory("m", E.const(2, rng.randrange(4))))
        leaves.append(module.read_memory("m", E.bits(inp, 0, 1)))
    for i in range(n_regs):
        module.drive_register(f"r{i}", _random_expr(rng, leaves, width, 2))
    # property over the state only (inputs at the last frame are free, which
    # makes input-dependent "properties" trivially falsifiable noise)
    state_leaves = [leaf for leaf in leaves if not isinstance(leaf, E.Input)]
    kind = rng.random()
    if kind < 0.4:
        prop = E.ne(_random_expr(rng, state_leaves, width, 2), E.const(width, 0))
    elif kind < 0.7:
        prop = E.ule(E.bits(regs[0], 0, 1), E.const(2, 2))
    else:
        prop = E.bit(_random_expr(rng, state_leaves, width, 2), 0)
    return module, prop


def _assert_agree(a, b, context: str) -> None:
    assert a.holds is b.holds, f"{context}: {a.holds} vs {b.holds}"
    if a.holds is False:
        assert a.counterexample is not None and b.counterexample is not None
        assert a.counterexample.length == b.counterexample.length, context
        assert a.bound == b.bound, context


class TestRandomMachines:
    @pytest.mark.parametrize("seed", range(20))
    def test_bmc_agrees(self, seed):
        module, prop = _random_machine(seed)
        system = TransitionSystem.from_module(module)
        scratch = bmc(system, prop, bound=5, incremental=False)
        incremental = bmc(system, prop, bound=5, incremental=True)
        _assert_agree(scratch, incremental, f"bmc seed={seed}")

    @pytest.mark.parametrize("seed", range(20))
    def test_k_induction_agrees(self, seed):
        module, prop = _random_machine(seed)
        system = TransitionSystem.from_module(module)
        for k in (1, 2, 3):
            scratch = k_induction(system, prop, k=k, incremental=False)
            incremental = k_induction(system, prop, k=k, incremental=True)
            _assert_agree(scratch, incremental, f"k_induction seed={seed} k={k}")

    @pytest.mark.parametrize("seed", range(20))
    def test_prove_agrees(self, seed):
        module, prop = _random_machine(seed)
        system = TransitionSystem.from_module(module)
        scratch = prove(system, prop, max_k=3, incremental=False)
        incremental = prove(system, prop, max_k=3, incremental=True)
        _assert_agree(scratch, incremental, f"prove seed={seed}")

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_one_checker_extends_across_bounds(self, seed):
        """Growing one incremental checker bound by bound matches fresh
        from-scratch runs at every bound."""
        module, prop = _random_machine(seed)
        system = TransitionSystem.from_module(module)
        checker = SharedContext(system, [SharedMember(prop)])
        for bound in range(6):
            grown = checker.bmc_to(0, bound)
            fresh = bmc(system, prop, bound=bound, incremental=False)
            _assert_agree(fresh, grown, f"extend seed={seed} bound={bound}")
            if grown.holds is False:
                break


class TestToyPipeline:
    def test_all_toy_obligations_agree(self, toy_pipelined, one_shot_verdict):
        from repro.proofs import (
            discharge_invariant,
            generate_obligations,
            resolve_properties,
        )

        obligations = generate_obligations(toy_pipelined)
        resolve_properties(toy_pipelined, obligations)
        system = TransitionSystem.from_module(toy_pipelined.module)
        for obligation in obligations.invariants():
            assume = list(obligation.assume)
            scratch = prove(
                system, obligation.prop, max_k=2, assume=assume, incremental=False
            )
            incremental = prove(
                system, obligation.prop, max_k=2, assume=assume, incremental=True
            )
            _assert_agree(scratch, incremental, obligation.oid)
            record = discharge_invariant(system, obligation)
            assert (record.status.value, record.method) == one_shot_verdict(
                system, obligation
            ), obligation.oid


@pytest.mark.slow
def test_all_dlx_obligations_agree(one_shot_verdict):
    """Every invariant obligation of the small DLX gets the same status
    and method from the discharge escalation as from the one-shot
    oracle."""
    from repro.core import transform
    from repro.dlx import DlxConfig, build_dlx_machine
    from repro.dlx.programs import fibonacci
    from repro.proofs import (
        discharge_invariant,
        generate_obligations,
        resolve_properties,
    )

    workload = fibonacci(5)
    machine = build_dlx_machine(
        workload.program,
        data=workload.data,
        config=DlxConfig(imem_addr_width=6, dmem_addr_width=4),
    )
    pipelined = transform(machine)
    obligations = generate_obligations(pipelined)
    resolve_properties(pipelined, obligations)
    system = TransitionSystem.from_module(pipelined.module)
    for obligation in obligations.invariants():
        record = discharge_invariant(system, obligation)
        assert (record.status.value, record.method) == one_shot_verdict(
            system, obligation
        ), obligation.oid
