"""And-Inverter Graphs and bit-blasting of the HDL expression IR.

The AIG uses the AIGER literal convention: a literal is ``2*var + sign``;
variable 0 is the constant, so literal 0 is FALSE and literal 1 is TRUE.
AND nodes are structurally hashed and constant-folded at construction.

:class:`BitBlaster` lowers :mod:`repro.hdl.expr` DAGs to vectors of AIG
literals (LSB first): ripple-carry adders, borrow-chain comparators, barrel
shifters and mux trees for memory reads.  :func:`to_cnf` produces a one-shot
Tseitin encoding for the CDCL solver; :class:`CnfEmitter` is its incremental
counterpart, feeding new nodes of a growing AIG into one persistent solver
so unrollings can extend a query instead of restarting it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..hdl import expr as E

if TYPE_CHECKING:  # pragma: no cover
    from .sat import Solver

FALSE = 0
TRUE = 1


class Aig:
    """A mutable And-Inverter Graph with structural hashing."""

    def __init__(self) -> None:
        self._num_vars = 0
        # ands[i] = (lhs_var, rhs0_lit, rhs1_lit); lhs_var allocated in order
        self.ands: list[tuple[int, int, int]] = []
        self._hash: dict[tuple[int, int], int] = {}
        self._inputs: list[int] = []

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def new_input(self) -> int:
        """Allocate a free variable; returns its positive literal."""
        self._num_vars += 1
        lit = 2 * self._num_vars
        self._inputs.append(lit)
        return lit

    @staticmethod
    def neg(a: int) -> int:
        return a ^ 1

    def and_(self, a: int, b: int) -> int:
        """AND of two literals, with folding and structural hashing."""
        if a == FALSE or b == FALSE or a == self.neg(b):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._hash.get(key)
        if cached is not None:
            return cached
        self._num_vars += 1
        var = self._num_vars
        self.ands.append((var, a, b))
        lit = 2 * var
        self._hash[key] = lit
        return lit

    def or_(self, a: int, b: int) -> int:
        return self.neg(self.and_(self.neg(a), self.neg(b)))

    def xor_(self, a: int, b: int) -> int:
        return self.neg(
            self.and_(
                self.neg(self.and_(a, self.neg(b))),
                self.neg(self.and_(self.neg(a), b)),
            )
        )

    def xnor_(self, a: int, b: int) -> int:
        return self.neg(self.xor_(a, b))

    def mux_(self, sel: int, then: int, els: int) -> int:
        if sel == TRUE:
            return then
        if sel == FALSE:
            return els
        if then == els:
            return then
        return self.or_(self.and_(sel, then), self.and_(self.neg(sel), els))

    def implies_(self, a: int, b: int) -> int:
        return self.or_(self.neg(a), b)

    def and_many(self, lits: Sequence[int]) -> int:
        result = TRUE
        for lit in lits:
            result = self.and_(result, lit)
        return result

    def or_many(self, lits: Sequence[int]) -> int:
        result = FALSE
        for lit in lits:
            result = self.or_(result, lit)
        return result

    # -- evaluation (for counterexample replay and tests) ---------------------

    def evaluate(self, assignment: Mapping[int, bool], lits: Sequence[int]) -> list[bool]:
        """Evaluate literals under an assignment of input variables."""
        values: dict[int, bool] = {0: False}
        for lit in self._inputs:
            values[lit >> 1] = bool(assignment.get(lit >> 1, False))
        for var, a, b in self.ands:
            va = values[a >> 1] ^ bool(a & 1)
            vb = values[b >> 1] ^ bool(b & 1)
            values[var] = va and vb
        return [values[lit >> 1] ^ bool(lit & 1) for lit in lits]


def to_cnf(aig: Aig, roots: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """Tseitin-encode the cones of ``roots``.

    Returns ``(clauses, root_lits)`` where DIMACS variable ``v`` corresponds
    to AIG variable ``v`` (variable 0 — the constant — is encoded by a fresh
    always-true variable appended at the end).

    Only AND nodes in the cones of the roots are encoded.
    """
    needed: set[int] = set()
    stack = [lit >> 1 for lit in roots]
    and_of_var = {var: (a, b) for var, a, b in aig.ands}
    while stack:
        var = stack.pop()
        if var in needed or var == 0:
            continue
        needed.add(var)
        node = and_of_var.get(var)
        if node is not None:
            stack.append(node[0] >> 1)
            stack.append(node[1] >> 1)

    true_var = aig.num_vars + 1

    def dimacs(lit: int) -> int:
        var = lit >> 1
        if var == 0:
            # AIG literal 0 is FALSE, literal 1 is TRUE; true_var is
            # constrained true, so the polarity flips relative to regular
            # variables.
            return true_var if lit & 1 else -true_var
        return -var if lit & 1 else var

    clauses: list[list[int]] = [[true_var]]
    for var, a, b in aig.ands:
        if var not in needed:
            continue
        v = dimacs(2 * var)
        da = dimacs(a)
        db = dimacs(b)
        clauses.append([-v, da])
        clauses.append([-v, db])
        clauses.append([v, -da, -db])
    return clauses, [dimacs(lit) for lit in roots]


class CnfEmitter:
    """Incremental Tseitin encoding of a growing :class:`Aig` into one solver.

    DIMACS variable ``v+1`` stands for AIG variable ``v``; DIMACS variable 1
    is the constant (constrained true once at construction).  :meth:`encode`
    walks the cone of a literal and emits clauses only for AND nodes not yet
    encoded, so extending an unrolling by a frame costs exactly that frame's
    new logic.  The emitter assumes exclusive ownership of the solver's
    variable space.
    """

    def __init__(self, aig: Aig, solver: "Solver") -> None:
        self.aig = aig
        self.solver = solver
        self._and_of: dict[int, tuple[int, int]] = {}
        self._scanned = 0
        self._encoded: set[int] = set()
        solver.add_clause([1])  # DIMACS var 1 == AIG constant TRUE

    @staticmethod
    def to_dimacs(lit: int) -> int:
        """The solver literal for an AIG literal."""
        var = lit >> 1
        if var == 0:
            return 1 if lit & 1 else -1
        return -(var + 1) if lit & 1 else var + 1

    def encode(self, lit: int) -> int:
        """Ensure the cone of ``lit`` is in the solver; return its literal."""
        ands = self.aig.ands
        and_of = self._and_of
        while self._scanned < len(ands):
            var, a, b = ands[self._scanned]
            and_of[var] = (a, b)
            self._scanned += 1
        add = self.solver.add_clause
        encoded = self._encoded
        stack = [lit >> 1]
        while stack:
            var = stack.pop()
            if var == 0 or var in encoded:
                continue
            encoded.add(var)
            node = and_of.get(var)
            if node is None:
                continue  # a free input: no defining clauses
            a, b = node
            v = var + 1
            da = self.to_dimacs(a)
            db = self.to_dimacs(b)
            add([-v, da])
            add([-v, db])
            add([v, -da, -db])
            stack.append(a >> 1)
            stack.append(b >> 1)
        return self.to_dimacs(lit)

    def model_to_aig(self, model: Mapping[int, bool]) -> dict[int, bool]:
        """Translate a solver model back to AIG variable space."""
        return {var - 1: value for var, value in model.items() if var >= 2}


# ---------------------------------------------------------------------------
# Bit-blasting
# ---------------------------------------------------------------------------

Vec = list[int]  # literal vector, LSB first

# Lowers a read of the named memory at an address vector to the data
# vector (the unroller's array encoding supplies one per frame).
MemReader = Callable[[str, Vec], Vec]


class BlastError(ValueError):
    """Raised when an expression cannot be lowered (unbound leaf)."""


class BitBlaster:
    """Lowers expression DAGs to AIG literal vectors.

    The environment supplies vectors for ``RegRead`` and ``Input`` leaves.
    A ``MemRead`` lowers through ``read_mem`` when one is given (the
    unroller's write-chain encoding, :class:`repro.formal.bmc.Unroller`);
    otherwise ``mem_words`` gives each memory's words as a dense sequence
    (index = address; a shorter-than-memory list reads as zero beyond the
    end) and the read is a mux tree over them.

    The memo maps each blasted node (keyed by the node itself, so it keeps
    every key alive) to its vector and lives as long as the blaster:
    repeated :meth:`blast` calls lower only the nodes no earlier call
    reached.  Keying by ``id`` instead would let a node freed by
    :func:`repro.hdl.expr.scoped_intern` hand its id, and so its stale
    vector, to a new node.
    """

    def __init__(
        self,
        aig: Aig,
        regs: Mapping[str, Vec] | None = None,
        inputs: Mapping[str, Vec] | None = None,
        mem_words: Mapping[str, Sequence[Vec]] | None = None,
        read_mem: MemReader | None = None,
    ) -> None:
        self.aig = aig
        self.regs = dict(regs or {})
        self.inputs = dict(inputs or {})
        self.mem_words: dict[str, dict[int, Vec]] = {
            name: {a: list(w) for a, w in enumerate(words)}
            for name, words in (mem_words or {}).items()
        }
        self._read_mem = read_mem
        self._memo: dict[E.Expr, Vec] = {}

    def blast(self, root: E.Expr) -> Vec:
        memo = self._memo
        vec = memo.get(root)
        if vec is None:
            for node in E.walk_new([root], memo):
                memo[node] = self._blast_node(node)
            vec = memo[root]
        return vec

    # -- helpers ---------------------------------------------------------------

    def _adder(self, a: Vec, b: Vec, carry_in: int) -> tuple[Vec, int]:
        g = self.aig
        out: Vec = []
        carry = carry_in
        for x, y in zip(a, b):
            p = g.xor_(x, y)
            out.append(g.xor_(p, carry))
            carry = g.or_(g.and_(x, y), g.and_(p, carry))
        return out, carry

    def _ult(self, a: Vec, b: Vec) -> int:
        """a < b unsigned: borrow-out of a - b."""
        g = self.aig
        # a - b = a + ~b + 1; borrow = NOT carry-out
        _, carry = self._adder(a, [g.neg(x) for x in b], TRUE)
        return g.neg(carry)

    def _slt(self, a: Vec, b: Vec) -> int:
        g = self.aig
        sa, sb = a[-1], b[-1]
        unsigned_lt = self._ult(a, b)
        return g.mux_(g.xor_(sa, sb), sa, unsigned_lt)

    def _multiplier(self, a: Vec, b: Vec) -> Vec:
        """Shift-add array multiplier (low ``width`` bits of the product)."""
        g = self.aig
        width = len(a)
        acc = const_bits(0, width)
        for i, bit_lit in enumerate(b):
            if bit_lit == FALSE:
                continue
            partial = [FALSE] * i + [g.and_(bit_lit, x) for x in a[: width - i]]
            acc, _ = self._adder(acc, partial, FALSE)
        return acc

    def _shift(self, op: str, a: Vec, amount: Vec) -> Vec:
        g = self.aig
        width = len(a)
        fill = a[-1] if op == "ASHR" else FALSE
        result = list(a)
        used_bits = 0
        step = 1
        while step < width and used_bits < len(amount):
            sel = amount[used_bits]
            shifted: Vec = []
            for i in range(width):
                if op == "SHL":
                    src = result[i - step] if i - step >= 0 else FALSE
                else:  # LSHR / ASHR
                    src = result[i + step] if i + step < width else fill
                shifted.append(g.mux_(sel, src, result[i]))
            result = shifted
            used_bits += 1
            step <<= 1
        # any higher amount bit set -> full shift-out
        big = g.or_many(amount[used_bits:])
        return [g.mux_(big, fill, bitlit) for bitlit in result]

    def _mem_mux(self, mem: str, addr: Vec, width: int) -> Vec:
        words = self.mem_words.get(mem)
        if words is None:
            raise BlastError(f"unbound memory {mem!r}")
        return mux_tree(
            self.aig, [words.get(a, 0) for a in range(1 << len(addr))], addr, width
        )

    # -- node dispatch ----------------------------------------------------------

    def _blast_node(self, node: E.Expr) -> Vec:
        g = self.aig
        memo = self._memo
        if isinstance(node, E.Const):
            return const_bits(node.value, node.width)
        if isinstance(node, E.RegRead):
            vec = self.regs.get(node.name)
            if vec is None:
                raise BlastError(f"unbound register {node.name!r}")
            if len(vec) != node.width:
                raise BlastError(f"register {node.name!r}: vector width mismatch")
            return list(vec)
        if isinstance(node, E.Input):
            vec = self.inputs.get(node.name)
            if vec is None:
                raise BlastError(f"unbound input {node.name!r}")
            if len(vec) != node.width:
                raise BlastError(f"input {node.name!r}: vector width mismatch")
            return list(vec)
        if isinstance(node, E.MemRead):
            if self._read_mem is not None:
                return self._read_mem(node.mem, memo[node.addr])
            return self._mem_mux(node.mem, memo[node.addr], node.width)
        if isinstance(node, E.Unary):
            a = memo[node.a]
            if node.op == "NOT":
                return [g.neg(x) for x in a]
            if node.op == "NEG":
                out, _ = self._adder(
                    [g.neg(x) for x in a], const_bits(0, len(a)), TRUE
                )
                return out
            if node.op == "REDOR":
                return [g.or_many(a)]
            if node.op == "REDAND":
                return [g.and_many(a)]
            if node.op == "REDXOR":
                acc = FALSE
                for x in a:
                    acc = g.xor_(acc, x)
                return [acc]
            raise AssertionError(node.op)
        if isinstance(node, E.Binary):
            a = memo[node.a]
            b = memo[node.b]
            op = node.op
            if op == "AND":
                return [g.and_(x, y) for x, y in zip(a, b)]
            if op == "OR":
                return [g.or_(x, y) for x, y in zip(a, b)]
            if op == "XOR":
                return [g.xor_(x, y) for x, y in zip(a, b)]
            if op == "ADD":
                out, _ = self._adder(a, b, FALSE)
                return out
            if op == "SUB":
                out, _ = self._adder(a, [g.neg(y) for y in b], TRUE)
                return out
            if op == "MUL":
                return self._multiplier(a, b)
            if op == "EQ":
                return [g.and_many([g.xnor_(x, y) for x, y in zip(a, b)])]
            if op == "NE":
                return [g.neg(g.and_many([g.xnor_(x, y) for x, y in zip(a, b)]))]
            if op == "ULT":
                return [self._ult(a, b)]
            if op == "ULE":
                return [g.neg(self._ult(b, a))]
            if op == "SLT":
                return [self._slt(a, b)]
            if op == "SLE":
                return [g.neg(self._slt(b, a))]
            if op in ("SHL", "LSHR", "ASHR"):
                return self._shift(op, a, b)
            raise AssertionError(op)
        if isinstance(node, E.Mux):
            sel = memo[node.sel][0]
            then = memo[node.then]
            els = memo[node.els]
            return [g.mux_(sel, t, e) for t, e in zip(then, els)]
        if isinstance(node, E.Concat):
            out: Vec = []
            for part in reversed(node.parts):
                out.extend(memo[part])
            return out
        if isinstance(node, E.Slice):
            return memo[node.a][node.low : node.high + 1]
        raise AssertionError(type(node).__name__)


def mux_tree(aig: Aig, words: Sequence[Vec | int], addr: Vec, width: int) -> Vec:
    """The ``width``-bit word ``addr`` selects from ``words`` (index =
    address).

    Each level of the tree pairs neighbouring words on one address bit,
    least significant first.  A word may be an ``int`` constant: a pair of
    equal constants folds to one without touching the AIG, so a tree over
    mostly equal constants (a NOP-filled ROM) does work only where
    neighbours differ.  A constant address selects its word directly.
    """
    if all(lit in (FALSE, TRUE) for lit in addr):
        index = sum(1 << i for i, lit in enumerate(addr) if lit == TRUE)
        return list(const_bits(words[index], width))
    level = list(words)
    for bit in addr:
        level = [
            lo
            if lo == hi
            else [
                aig.mux_(bit, h, l)
                for l, h in zip(const_bits(lo, width), const_bits(hi, width))
            ]
            for lo, hi in zip(level[0::2], level[1::2])
        ]
    return list(const_bits(level[0], width))


def const_bits(word: Vec | int, width: int) -> Vec:
    """``word`` as a literal vector: an ``int`` becomes its ``width``-bit
    constant, a vector passes through."""
    if isinstance(word, int):
        return [TRUE if (word >> i) & 1 else FALSE for i in range(width)]
    return word


def fresh_vec(aig: Aig, width: int) -> Vec:
    """Allocate ``width`` fresh input variables as a literal vector."""
    return [aig.new_input() for _ in range(width)]


def vec_value(vec: Vec, model: Mapping[int, bool], aig: Aig) -> int:
    """Decode a literal vector to an integer under a SAT model.

    ``model`` maps DIMACS variables (== AIG variables) to booleans.
    """
    value = 0
    for i, lit in enumerate(vec):
        var = lit >> 1
        bit = False if var == 0 else bool(model.get(var, False))
        if bit ^ bool(lit & 1):
            value |= 1 << i
    return value
