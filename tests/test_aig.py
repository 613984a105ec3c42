"""Tests for the AIG, the bit-blaster and the Tseitin CNF encoding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formal.aig import FALSE, TRUE, Aig, BitBlaster, BlastError, fresh_vec, to_cnf, vec_value
from repro.formal.sat import Solver
from repro.hdl import expr as E
from repro.hdl.bitvec import bv
from repro.hdl.netlist import ModuleState
from repro.hdl.sim import evaluate

words8 = st.integers(min_value=0, max_value=255)


class TestAigFolding:
    def test_constants(self):
        aig = Aig()
        x = aig.new_input()
        assert aig.and_(x, FALSE) == FALSE
        assert aig.and_(x, TRUE) == x
        assert aig.and_(x, x) == x
        assert aig.and_(x, aig.neg(x)) == FALSE

    def test_structural_hashing(self):
        aig = Aig()
        x = aig.new_input()
        y = aig.new_input()
        assert aig.and_(x, y) == aig.and_(y, x)
        before = len(aig.ands)
        aig.and_(x, y)
        assert len(aig.ands) == before

    def test_xor_truth_table(self):
        aig = Aig()
        x = aig.new_input()
        y = aig.new_input()
        z = aig.xor_(x, y)
        for a in (False, True):
            for b in (False, True):
                got = aig.evaluate({x >> 1: a, y >> 1: b}, [z])[0]
                assert got == (a ^ b)

    def test_mux_folding(self):
        aig = Aig()
        x = aig.new_input()
        y = aig.new_input()
        assert aig.mux_(TRUE, x, y) == x
        assert aig.mux_(FALSE, x, y) == y
        assert aig.mux_(x, y, y) == y


def blast_and_eval(expression, env_values):
    """Blast with fresh vars for leaves, then evaluate under env_values."""
    aig = Aig()
    regs = {}
    inputs = {}
    assignment = {}
    for node in E.walk([expression]):
        if isinstance(node, E.RegRead) and node.name not in regs:
            vec = fresh_vec(aig, node.width)
            regs[node.name] = vec
            value = env_values[node.name]
            for i, lit in enumerate(vec):
                assignment[lit >> 1] = bool((value >> i) & 1)
        elif isinstance(node, E.Input) and node.name not in inputs:
            vec = fresh_vec(aig, node.width)
            inputs[node.name] = vec
            value = env_values[node.name]
            for i, lit in enumerate(vec):
                assignment[lit >> 1] = bool((value >> i) & 1)
    blaster = BitBlaster(aig, regs=regs, inputs=inputs)
    vec = blaster.blast(expression)
    bits = aig.evaluate(assignment, vec)
    return sum(1 << i for i, bit in enumerate(bits) if bit)


def sim_eval(expression, env_values):
    regs = {}
    inputs = {}
    for node in E.walk([expression]):
        if isinstance(node, E.RegRead):
            regs[node.name] = bv(node.width, env_values[node.name])
        elif isinstance(node, E.Input):
            inputs[node.name] = env_values[node.name]
    return evaluate([expression], ModuleState(regs, {}), inputs)[0]


class TestBlasterAgainstSimulator:
    """For every operator, the AIG semantics must equal the simulator's."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda x, y: E.band(x, y),
            lambda x, y: E.bor(x, y),
            lambda x, y: E.bxor(x, y),
            lambda x, y: E.add(x, y),
            lambda x, y: E.sub(x, y),
            lambda x, y: E.eq(x, y),
            lambda x, y: E.ne(x, y),
            lambda x, y: E.ult(x, y),
            lambda x, y: E.ule(x, y),
            lambda x, y: E.slt(x, y),
            lambda x, y: E.sle(x, y),
            lambda x, y: E.shl(x, y),
            lambda x, y: E.lshr(x, y),
            lambda x, y: E.ashr(x, y),
            lambda x, y: E.bnot(x),
            lambda x, y: E.neg(x),
            lambda x, y: E.redor(x),
            lambda x, y: E.redand(x),
            lambda x, y: E.redxor(x),
            lambda x, y: E.mux(E.bit(y, 0), x, y),
            lambda x, y: E.concat(E.bits(x, 0, 3), E.bits(y, 4, 7)),
            lambda x, y: E.sext(E.bits(x, 0, 3), 8),
        ],
    )
    def test_operator(self, make):
        x = E.reg_read("x", 8)
        y = E.reg_read("y", 8)
        expression = make(x, y)
        rng = random.Random(42)
        for _ in range(25):
            env = {"x": rng.randrange(256), "y": rng.randrange(256)}
            assert blast_and_eval(expression, env) == sim_eval(expression, env), env

    @settings(max_examples=40, deadline=None)
    @given(words8, words8, words8)
    def test_compound_expression(self, a, b, c):
        x = E.reg_read("x", 8)
        y = E.reg_read("y", 8)
        z = E.reg_read("z", 8)
        expression = E.mux(
            E.ult(x, y),
            E.add(E.band(x, z), E.shl(y, E.bits(z, 0, 2))),
            E.sub(E.bxor(x, y), z),
        )
        env = {"x": a, "y": b, "z": c}
        assert blast_and_eval(expression, env) == sim_eval(expression, env)

    def test_shift_amount_wider_than_needed(self):
        x = E.reg_read("x", 8)
        amount = E.reg_read("amt", 8)
        expression = E.lshr(x, amount)
        for amt in (0, 1, 7, 8, 9, 255):
            env = {"x": 0xA5, "amt": amt}
            assert blast_and_eval(expression, env) == sim_eval(expression, env)


class TestMemoryBlasting:
    def test_mem_read_mux_tree(self):
        aig = Aig()
        words = [fresh_vec(aig, 8) for _ in range(4)]
        addr_expr = E.reg_read("addr", 2)
        regs = {"addr": fresh_vec(aig, 2)}
        blaster = BitBlaster(aig, regs=regs, mem_words={"m": words})
        vec = blaster.blast(E.mem_read("m", addr_expr, 8))
        assignment = {}
        contents = [0x11, 0x22, 0x33, 0x44]
        for wi, word in enumerate(words):
            for i, lit in enumerate(word):
                assignment[lit >> 1] = bool((contents[wi] >> i) & 1)
        for code in range(4):
            for i, lit in enumerate(regs["addr"]):
                assignment[lit >> 1] = bool((code >> i) & 1)
            bits = aig.evaluate(assignment, vec)
            assert sum(1 << i for i, b in enumerate(bits) if b) == contents[code]

    def test_unbound_leaves_raise(self):
        blaster = BitBlaster(Aig())
        with pytest.raises(BlastError):
            blaster.blast(E.reg_read("ghost", 4))
        with pytest.raises(BlastError):
            blaster.blast(E.input_port("ghost", 4))
        with pytest.raises(BlastError):
            blaster.blast(E.mem_read("ghost", E.const(2, 0), 4))


class TestCnf:
    def test_cnf_equisatisfiable(self):
        """SAT solutions of the Tseitin encoding match direct evaluation."""
        aig = Aig()
        x = aig.new_input()
        y = aig.new_input()
        z = aig.and_(aig.xor_(x, y), aig.or_(x, y))  # == xor actually
        clauses, (root,) = to_cnf(aig, [z])
        solver = Solver()
        solver.add_clauses(clauses)
        solver.add_clause([root])
        result = solver.solve()
        assert result.satisfiable
        got = aig.evaluate(
            {x >> 1: result.value(x >> 1), y >> 1: result.value(y >> 1)}, [z]
        )[0]
        assert got is True

    def test_cnf_unsat_for_contradiction(self):
        aig = Aig()
        x = aig.new_input()
        contradiction = aig.and_(x, aig.neg(x))
        assert contradiction == FALSE  # folded; nothing to encode
        clauses, (root,) = to_cnf(aig, [contradiction])
        solver = Solver()
        solver.add_clauses(clauses)
        solver.add_clause([root])
        assert solver.solve().satisfiable is False

    def test_vec_value_decodes_constants(self):
        aig = Aig()
        vec = [TRUE, FALSE, TRUE]  # 0b101
        assert vec_value(vec, {}, aig) == 0b101


class TestFrameBlasterMemo:
    """An unroller keeps one blaster per frame, so its memo outlives the
    expressions it blasted; a node freed since must never hand its memo
    entry to a new node."""

    @staticmethod
    def _unroller():
        from repro.formal.bmc import TransitionSystem, Unroller
        from repro.hdl.netlist import Module

        module = Module("memo")
        r = module.add_register("r", 8)
        module.drive_register("r", E.add(r, module.add_input("step", 8)))
        unroller = Unroller(TransitionSystem.from_module(module))
        unroller.add_initial_frame(free=True)
        unroller.add_step()
        return unroller

    def test_recycled_ids_never_return_stale_vectors(self):
        import gc

        unroller = self._unroller()
        r = E.reg_read("r", 8)
        with E.scoped_intern():
            scratch = E.add(r, E.const(8, 0x5A))
            unroller.blast_in_frame(1, scratch)
            stale_id = id(scratch)
        del scratch
        gc.collect()
        # churn same-type nodes until one lands on the freed id (an
        # id-keyed memo that dropped its key would serve it the old vector)
        fresh = None
        for value in range(1, 256):
            fresh = E.sub(r, E.const(8, value))
            if id(fresh) == stale_id:
                break
        frame = unroller.frames[1]
        reference = BitBlaster(unroller.aig, regs=frame.regs, inputs=frame.inputs)
        assert unroller.blast_in_frame(1, fresh) == reference.blast(fresh)

    def test_frame_reuses_one_blaster(self):
        unroller = self._unroller()
        r = E.reg_read("r", 8)
        first = unroller.blast_in_frame(1, E.add(r, E.const(8, 1)))
        ands = len(unroller.aig.ands)
        assert unroller.blast_in_frame(1, E.add(r, E.const(8, 1))) is first
        assert len(unroller.aig.ands) == ands
