"""Tests for equivalence checking, BMC and k-induction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formal import (
    TransitionSystem,
    bmc,
    check_equivalence,
    exprs_equal_on,
    k_induction,
    prove,
)
from repro.hdl import expr as E
from repro.hdl.netlist import Module


class TestEquivalence:
    def test_add_shift_identity(self):
        x = E.input_port("x", 8)
        assert exprs_equal_on(E.add(x, x), E.shl(x, E.const(8, 1)))

    def test_demorgan(self):
        x = E.input_port("x", 8)
        y = E.input_port("y", 8)
        assert exprs_equal_on(
            E.bnot(E.band(x, y)), E.bor(E.bnot(x), E.bnot(y))
        )

    def test_mux_as_logic(self):
        s = E.input_port("s", 1)
        x = E.input_port("x", 4)
        y = E.input_port("y", 4)
        muxed = E.mux(s, x, y)
        as_logic = E.bor(
            E.band(E.replicate(s, 4), x), E.band(E.replicate(E.bnot(s), 4), y)
        )
        assert exprs_equal_on(muxed, as_logic)

    def test_inequivalence_with_witness(self):
        x = E.input_port("x", 8)
        result = check_equivalence(E.add(x, E.const(8, 1)), x)
        assert not result.equivalent
        witness = result.witness_inputs["x"]
        assert (witness + 1) & 0xFF != witness

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_equivalence(E.const(8, 0), E.const(4, 0))

    def test_operand_order_pairs(self):
        x = E.input_port("x", 6)
        y = E.input_port("y", 6)
        pairs = [
            (E.add(x, y), E.add(y, x), True),
            (E.sub(x, y), E.sub(y, x), False),
            (E.bxor(x, y), E.bxor(y, x), True),
        ]
        for a, b, expected in pairs:
            assert check_equivalence(a, b).equivalent is expected

    def test_memory_leaves(self):
        addr = E.input_port("addr", 2)
        a = E.mem_read("m", addr, 8)
        b = E.mem_read("m", addr, 8)
        assert exprs_equal_on(a, b)
        c = E.add(E.mem_read("m", addr, 8), E.const(8, 1))
        result = check_equivalence(a, c)
        assert not result.equivalent
        assert "m" in result.witness_mems

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=15))
    def test_constant_propagation(self, value):
        x = E.input_port("x", 4)
        assert exprs_equal_on(
            E.add(E.sub(x, E.const(4, value)), E.const(4, value)), x
        )


def counter_module(width=4, limit=None):
    module = Module("counter")
    count = module.add_register("c", width, init=0)
    nxt = E.add(count, E.const(width, 1))
    if limit is not None:
        nxt = E.mux(E.eq(count, E.const(width, limit)), E.const(width, 0), nxt)
    module.drive_register("c", nxt)
    module.add_probe("c", count)
    return module


class TestBmc:
    def test_violation_found_at_exact_depth(self):
        module = counter_module()
        prop = E.ult(E.reg_read("c", 4), E.const(4, 3))
        result = bmc(module, prop, bound=10)
        assert result.holds is False
        assert result.bound == 3
        assert result.counterexample.states[-1]["c"] == 3

    def test_holds_within_bound(self):
        module = counter_module()
        prop = E.ult(E.reg_read("c", 4), E.const(4, 9))
        assert bmc(module, prop, bound=8).holds is True

    def test_input_driven_violation(self):
        module = Module("m")
        x = module.add_input("x", 4)
        reg = module.add_register("r", 4, init=0)
        module.drive_register("r", x)
        prop = E.ne(E.reg_read("r", 4), E.const(4, 7))
        result = bmc(module, prop, bound=3)
        assert result.holds is False
        # the input that caused it must be 7 in the frame before
        assert result.counterexample.inputs[-2]["x"] == 7

    def test_assumptions_constrain_inputs(self):
        module = Module("m")
        x = module.add_input("x", 4)
        reg = module.add_register("r", 4, init=0)
        module.drive_register("r", x)
        prop = E.ne(E.reg_read("r", 4), E.const(4, 7))
        assume = [E.ult(x, E.const(4, 7))]
        assert bmc(module, prop, bound=4, assume=assume).holds is True

    def test_memory_state_tracked(self):
        module = Module("m")
        memory = module.add_memory("mem", 1, 4)
        count = module.add_register("c", 4, init=0)
        module.drive_register("c", E.add(count, E.const(4, 1)))
        memory.add_write_port(E.const(1, 1), E.const(1, 0), count)
        prop = E.ult(
            E.mem_read("mem", E.const(1, 0), 4), E.const(4, 2)
        )
        result = bmc(module, prop, bound=8)
        assert result.holds is False
        assert result.bound == 3  # mem[0] == 2 visible one cycle after c == 2


class TestInduction:
    def test_wrapping_counter_invariant(self):
        module = counter_module(width=4, limit=5)
        prop = E.ule(E.reg_read("c", 4), E.const(4, 5))
        result = k_induction(module, prop, k=1)
        assert result.holds is True

    def test_non_inductive_returns_unknown(self):
        # c <= 8 holds from reset (c wraps at 5) but is not 1-inductive:
        # a free state with c == 8 steps to 9.
        module = counter_module(width=4, limit=5)
        prop = E.ule(E.reg_read("c", 4), E.const(4, 8))
        result = k_induction(module, prop, k=1)
        assert result.holds is None

    def test_base_failure_is_concrete(self):
        module = counter_module(width=4)
        prop = E.ult(E.reg_read("c", 4), E.const(4, 2))
        result = k_induction(module, prop, k=4)
        assert result.holds is False
        assert result.counterexample is not None

    def test_prove_escalates_k(self):
        # c != 7 with wrap at 5 is not 1-inductive (a free state 6 steps to
        # 7) but becomes 2-inductive (no property-satisfying predecessor
        # reaches 6); prove() must escalate k to find that.
        module = counter_module(width=4, limit=5)
        prop = E.ne(E.reg_read("c", 4), E.const(4, 7))
        assert k_induction(module, prop, k=1).holds is None
        result = prove(module, prop, max_k=3)
        assert result.holds is True
        assert result.bound == 2

    def test_prove_succeeds_for_invariant(self):
        module = counter_module(width=4, limit=5)
        prop = E.ule(E.reg_read("c", 4), E.const(4, 5))
        assert prove(module, prop, max_k=2).holds is True

    def test_rom_contents_stay_constant_in_induction(self):
        """ROM words are constants even in the free induction frame."""
        module = Module("m")
        memory = module.add_memory("rom", 1, 4, init={0: 3, 1: 3})
        count = module.add_register("c", 1, init=0)
        module.drive_register("c", E.bnot(count))
        value = E.mem_read("rom", E.reg_read("c", 1), 4)
        prop = E.eq(value, E.const(4, 3))
        # without the ROM-constant rule this is not inductive (free words)
        assert k_induction(module, prop, k=1).holds is True


class TestConeOfInfluence:
    def test_unrelated_state_excluded(self):
        module = Module("m")
        a = module.add_register("a", 4, init=0)
        b = module.add_register("b", 64, init=0)
        module.drive_register("a", E.add(a, E.const(4, 1)))
        module.drive_register("b", E.add(b, E.const(64, 1)))
        system = TransitionSystem.from_module(module)
        support = system.cone_of_influence([E.ult(a, E.const(4, 15))])
        assert "a" in support
        assert "b" not in support

    def test_transitive_closure(self):
        module = Module("m")
        a = module.add_register("a", 4, init=0)
        b = module.add_register("b", 4, init=0)
        module.drive_register("a", b)
        module.drive_register("b", E.add(b, E.const(4, 1)))
        system = TransitionSystem.from_module(module)
        support = system.cone_of_influence([E.redor(a)])
        assert support == {"a", "b"}

    def test_memory_pulls_all_words(self):
        module = Module("m")
        module.add_memory("mem", 2, 4)
        addr = module.add_register("p", 2, init=0)
        module.drive_register("p", E.add(addr, E.const(2, 1)))
        system = TransitionSystem.from_module(module)
        support = system.cone_of_influence(
            [E.redor(E.mem_read("mem", addr, 4))]
        )
        # the memory is one element of the cone, standing for all its words
        assert support == {"mem", "p"}
