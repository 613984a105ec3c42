"""Combinational expression IR.

Expressions are immutable, hash-consed DAG nodes.  Hash-consing (interning)
guarantees that structurally identical sub-expressions are the *same* Python
object, which makes:

* equality and hashing O(1) (identity based),
* memoized evaluation/substitution linear in DAG size,
* structural statistics (gate counts) meaningful.

Expressions reference state elements symbolically (:class:`RegRead`,
:class:`MemRead`, :class:`Input`); a :class:`repro.hdl.netlist.Module` binds
those names to registers, memories and ports.

All constructors validate widths eagerly; width bugs surface at netlist
construction time, not at cycle 10⁶ of a simulation.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Container, Iterable

from .bitvec import BitVector, from_signed, mask, to_signed

# ---------------------------------------------------------------------------
# Node classes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for all expression nodes.

    Instances are interned: never construct node classes directly, use the
    constructor functions (:func:`const`, :func:`band`, ...) instead.

    ``digest`` caches the node's content digest
    (:func:`repro.proofs.fingerprint.node_digest`); it is ``None`` until
    first asked for, then fixed for the node's lifetime.
    """

    __slots__ = ("width", "digest")

    width: int
    digest: bytes | None

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(w={self.width})"


class Const(Expr):
    """A literal ``width``-bit constant."""

    __slots__ = ("value",)

    def __repr__(self) -> str:
        return f"Const({self.width}, 0x{self.value:x})"


class Input(Expr):
    """An external input port, referenced by name."""

    __slots__ = ("name",)

    def __repr__(self) -> str:
        return f"Input({self.name!r}, w={self.width})"


class RegRead(Expr):
    """The current-cycle value of register ``name``."""

    __slots__ = ("name",)

    def __repr__(self) -> str:
        return f"RegRead({self.name!r}, w={self.width})"


class MemRead(Expr):
    """Asynchronous read of memory ``mem`` at address ``addr``."""

    __slots__ = ("mem", "addr")

    def children(self) -> tuple[Expr, ...]:
        return (self.addr,)

    def __repr__(self) -> str:
        return f"MemRead({self.mem!r}, w={self.width})"


class Unary(Expr):
    """Unary operator: NOT, NEG, REDOR, REDAND, REDXOR."""

    __slots__ = ("op", "a")

    def children(self) -> tuple[Expr, ...]:
        return (self.a,)

    def __repr__(self) -> str:
        return f"Unary({self.op}, w={self.width})"


class Binary(Expr):
    """Binary operator; see :data:`BINARY_OPS` for the opcode set."""

    __slots__ = ("op", "a", "b")

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)

    def __repr__(self) -> str:
        return f"Binary({self.op}, w={self.width})"


class Mux(Expr):
    """2-way multiplexer: ``then`` when ``sel`` is 1, else ``els``."""

    __slots__ = ("sel", "then", "els")

    def children(self) -> tuple[Expr, ...]:
        return (self.sel, self.then, self.els)


class Concat(Expr):
    """Concatenation; ``parts[0]`` occupies the most-significant bits."""

    __slots__ = ("parts",)

    def children(self) -> tuple[Expr, ...]:
        return self.parts


class Slice(Expr):
    """Bit slice ``a[high:low]`` inclusive, 0 = LSB."""

    __slots__ = ("a", "low", "high")

    def children(self) -> tuple[Expr, ...]:
        return (self.a,)

    def __repr__(self) -> str:
        return f"Slice([{self.high}:{self.low}], w={self.width})"


UNARY_OPS = frozenset({"NOT", "NEG", "REDOR", "REDAND", "REDXOR"})
BINARY_OPS = frozenset(
    {
        "AND",
        "OR",
        "XOR",
        "ADD",
        "SUB",
        "EQ",
        "NE",
        "ULT",
        "ULE",
        "SLT",
        "SLE",
        "SHL",
        "LSHR",
        "ASHR",
        "MUL",
    }
)
_COMPARISONS = frozenset({"EQ", "NE", "ULT", "ULE", "SLT", "SLE"})
_SHIFTS = frozenset({"SHL", "LSHR", "ASHR"})

# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------

_INTERN: dict[tuple, Expr] = {}


def intern_table_size() -> int:
    """Number of live interned expression nodes (for diagnostics)."""
    return len(_INTERN)


def clear_intern_table() -> None:
    """Drop all interned nodes.

    Only safe when no expressions from before the call will ever be compared
    against expressions created after it (e.g. between independent tests).
    """
    _INTERN.clear()


@contextmanager
def scoped_intern():
    """Bound the intern table's growth to a scope.

    Nodes interned inside the ``with`` block are dropped from the table on
    exit (entries are insertion-ordered, so the scope's additions are
    exactly the table's suffix); nodes that existed before the scope are
    untouched and stay valid.  This is what keeps repeated group
    discharges from growing the table without bound: each group's
    scratch expressions live only as long as the group.

    The safety contract is the scoped version of
    :func:`clear_intern_table`'s: an expression *created inside* the scope
    must not be compared (by identity) against an expression created
    after the scope exits.  Returning plain data (verdicts, strings,
    integers) out of the scope is always fine.
    """
    mark = len(_INTERN)
    try:
        yield
    finally:
        excess = len(_INTERN) - mark
        if excess > 0:
            for key in list(itertools.islice(reversed(_INTERN), excess)):
                del _INTERN[key]


def _make(cls: type, key: tuple, init: Callable[[Expr], None], width: int) -> Expr:
    node = _INTERN.get(key)
    if node is None:
        node = object.__new__(cls)
        node.width = width
        node.digest = None
        init(node)
        _INTERN[key] = node
    return node


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def const(width: int, value: int) -> Expr:
    """Create a constant expression (value truncated to ``width`` bits)."""
    if width <= 0:
        raise ValueError(f"const width must be positive, got {width}")
    value &= mask(width)
    key = ("const", width, value)

    def init(n: Const) -> None:
        n.value = value

    return _make(Const, key, init, width)


def const_bv(value: BitVector) -> Expr:
    """Create a constant expression from a :class:`BitVector`."""
    return const(value.width, value.value)


def input_port(name: str, width: int) -> Expr:
    if width <= 0:
        raise ValueError(f"input width must be positive, got {width}")
    key = ("input", name, width)

    def init(n: Input) -> None:
        n.name = name

    return _make(Input, key, init, width)


def reg_read(name: str, width: int) -> Expr:
    if width <= 0:
        raise ValueError(f"register width must be positive, got {width}")
    key = ("reg", name, width)

    def init(n: RegRead) -> None:
        n.name = name

    return _make(RegRead, key, init, width)


def mem_read(mem: str, addr: Expr, width: int) -> Expr:
    if width <= 0:
        raise ValueError(f"memory data width must be positive, got {width}")
    key = ("memread", mem, id(addr), width)

    def init(n: MemRead) -> None:
        n.mem = mem
        n.addr = addr

    return _make(MemRead, key, init, width)


def _unary(op: str, a: Expr, width: int) -> Expr:
    key = ("un", op, id(a))

    def init(n: Unary) -> None:
        n.op = op
        n.a = a

    return _make(Unary, key, init, width)


def _binary(op: str, a: Expr, b: Expr, width: int) -> Expr:
    key = ("bin", op, id(a), id(b))

    def init(n: Binary) -> None:
        n.op = op
        n.a = a
        n.b = b

    return _make(Binary, key, init, width)


def bnot(a: Expr) -> Expr:
    """Bitwise NOT."""
    if isinstance(a, Const):
        return const(a.width, ~a.value)
    if isinstance(a, Unary) and a.op == "NOT":
        return a.a
    return _unary("NOT", a, a.width)


def neg(a: Expr) -> Expr:
    """Two's-complement negation."""
    if isinstance(a, Const):
        return const(a.width, -a.value)
    return _unary("NEG", a, a.width)


def redor(a: Expr) -> Expr:
    """OR-reduction to a single bit (is the value non-zero?)."""
    if isinstance(a, Const):
        return const(1, 1 if a.value else 0)
    if a.width == 1:
        return a
    return _unary("REDOR", a, 1)


def redand(a: Expr) -> Expr:
    """AND-reduction to a single bit (are all bits set?)."""
    if isinstance(a, Const):
        return const(1, 1 if a.value == mask(a.width) else 0)
    if a.width == 1:
        return a
    return _unary("REDAND", a, 1)


def redxor(a: Expr) -> Expr:
    """XOR-reduction to a single bit (parity)."""
    if isinstance(a, Const):
        return const(1, bin(a.value).count("1") & 1)
    if a.width == 1:
        return a
    return _unary("REDXOR", a, 1)


def _check_same_width(op: str, a: Expr, b: Expr) -> None:
    if a.width != b.width:
        raise ValueError(f"{op}: width mismatch {a.width} vs {b.width}")


def band(a: Expr, b: Expr) -> Expr:
    """Bitwise AND."""
    _check_same_width("AND", a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.width, a.value & b.value)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Const):
            if x.value == 0:
                return const(a.width, 0)
            if x.value == mask(a.width):
                return y
    if a is b:
        return a
    return _binary("AND", a, b, a.width)


def bor(a: Expr, b: Expr) -> Expr:
    """Bitwise OR."""
    _check_same_width("OR", a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.width, a.value | b.value)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Const):
            if x.value == 0:
                return y
            if x.value == mask(a.width):
                return const(a.width, mask(a.width))
    if a is b:
        return a
    return _binary("OR", a, b, a.width)


def bxor(a: Expr, b: Expr) -> Expr:
    """Bitwise XOR."""
    _check_same_width("XOR", a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.width, a.value ^ b.value)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Const) and x.value == 0:
            return y
    if a is b:
        return const(a.width, 0)
    return _binary("XOR", a, b, a.width)


def add(a: Expr, b: Expr) -> Expr:
    """Addition modulo ``2**width``."""
    _check_same_width("ADD", a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.width, a.value + b.value)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Const) and x.value == 0:
            return y
    return _binary("ADD", a, b, a.width)


def mul(a: Expr, b: Expr) -> Expr:
    """Multiplication modulo ``2**width`` (the low word of the product)."""
    _check_same_width("MUL", a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.width, a.value * b.value)
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Const):
            if x.value == 0:
                return const(a.width, 0)
            if x.value == 1:
                return y
    return _binary("MUL", a, b, a.width)


def sub(a: Expr, b: Expr) -> Expr:
    """Subtraction modulo ``2**width``."""
    _check_same_width("SUB", a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(a.width, a.value - b.value)
    if isinstance(b, Const) and b.value == 0:
        return a
    return _binary("SUB", a, b, a.width)


def _compare(op: str, a: Expr, b: Expr, fold: Callable[[int, int, int], int]) -> Expr:
    _check_same_width(op, a, b)
    if isinstance(a, Const) and isinstance(b, Const):
        return const(1, fold(a.value, b.value, a.width))
    return _binary(op, a, b, 1)


def eq(a: Expr, b: Expr) -> Expr:
    """Equality comparison (1-bit result)."""
    if a is b:
        return const(1, 1)
    return _compare("EQ", a, b, lambda x, y, w: int(x == y))


def ne(a: Expr, b: Expr) -> Expr:
    """Inequality comparison (1-bit result)."""
    if a is b:
        return const(1, 0)
    return _compare("NE", a, b, lambda x, y, w: int(x != y))


def ult(a: Expr, b: Expr) -> Expr:
    """Unsigned less-than (1-bit result)."""
    return _compare("ULT", a, b, lambda x, y, w: int(x < y))


def ule(a: Expr, b: Expr) -> Expr:
    """Unsigned less-or-equal (1-bit result)."""
    return _compare("ULE", a, b, lambda x, y, w: int(x <= y))


def slt(a: Expr, b: Expr) -> Expr:
    """Signed less-than (1-bit result)."""
    return _compare(
        "SLT", a, b, lambda x, y, w: int(to_signed(x, w) < to_signed(y, w))
    )


def sle(a: Expr, b: Expr) -> Expr:
    """Signed less-or-equal (1-bit result)."""
    return _compare(
        "SLE", a, b, lambda x, y, w: int(to_signed(x, w) <= to_signed(y, w))
    )


def _shift(op: str, a: Expr, amount: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(amount, Const):
        amt = min(amount.value, a.width)
        if op == "SHL":
            return const(a.width, a.value << amt)
        if op == "LSHR":
            return const(a.width, a.value >> amt)
        return const(a.width, from_signed(to_signed(a.value, a.width) >> amt, a.width))
    if isinstance(amount, Const) and amount.value == 0:
        return a
    return _binary(op, a, amount, a.width)


def shl(a: Expr, amount: Expr) -> Expr:
    """Logical shift left; shift amounts >= width yield 0."""
    return _shift("SHL", a, amount)


def lshr(a: Expr, amount: Expr) -> Expr:
    """Logical shift right; shift amounts >= width yield 0."""
    return _shift("LSHR", a, amount)


def ashr(a: Expr, amount: Expr) -> Expr:
    """Arithmetic shift right; shift amounts >= width replicate the sign."""
    return _shift("ASHR", a, amount)


def mux(sel: Expr, then: Expr, els: Expr) -> Expr:
    """2-way multiplexer; ``sel`` must be 1 bit wide."""
    if sel.width != 1:
        raise ValueError(f"mux select must be 1 bit, got {sel.width}")
    _check_same_width("MUX", then, els)
    if isinstance(sel, Const):
        return then if sel.value else els
    if then is els:
        return then
    if then.width == 1 and isinstance(then, Const) and isinstance(els, Const):
        # mux(s, 1, 0) == s ; mux(s, 0, 1) == ~s
        if then.value == 1 and els.value == 0:
            return sel
        if then.value == 0 and els.value == 1:
            return bnot(sel)
    key = ("mux", id(sel), id(then), id(els))

    def init(n: Mux) -> None:
        n.sel = sel
        n.then = then
        n.els = els

    return _make(Mux, key, init, then.width)


def concat(*parts: Expr) -> Expr:
    """Concatenate expressions, first argument in the most-significant bits."""
    if not parts:
        raise ValueError("concat needs at least one part")
    flat: list[Expr] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    if all(isinstance(p, Const) for p in flat):
        value = 0
        width = 0
        for p in flat:
            value = (value << p.width) | p.value  # type: ignore[attr-defined]
            width += p.width
        return const(width, value)
    width = sum(p.width for p in flat)
    key = ("concat",) + tuple(id(p) for p in flat)

    def init(n: Concat) -> None:
        n.parts = tuple(flat)

    return _make(Concat, key, init, width)


def bits(a: Expr, low: int, high: int) -> Expr:
    """Slice bits ``[high:low]`` inclusive (0 = LSB)."""
    if not 0 <= low <= high < a.width:
        raise ValueError(f"slice [{high}:{low}] out of range for width {a.width}")
    if low == 0 and high == a.width - 1:
        return a
    if isinstance(a, Const):
        return const(high - low + 1, (a.value >> low) & mask(high - low + 1))
    if isinstance(a, Slice):
        return bits(a.a, a.low + low, a.low + high)
    key = ("slice", id(a), low, high)

    def init(n: Slice) -> None:
        n.a = a
        n.low = low
        n.high = high

    return _make(Slice, key, init, high - low + 1)


def bit(a: Expr, index: int) -> Expr:
    """Select a single bit (0 = LSB)."""
    return bits(a, index, index)


def zext(a: Expr, width: int) -> Expr:
    """Zero-extend to ``width`` bits."""
    if width < a.width:
        raise ValueError(f"cannot zero-extend width {a.width} to {width}")
    if width == a.width:
        return a
    return concat(const(width - a.width, 0), a)


def sext(a: Expr, width: int) -> Expr:
    """Sign-extend to ``width`` bits."""
    if width < a.width:
        raise ValueError(f"cannot sign-extend width {a.width} to {width}")
    if width == a.width:
        return a
    if isinstance(a, Const):
        return const(width, from_signed(to_signed(a.value, a.width), width))
    sign = bit(a, a.width - 1)
    ext = replicate(sign, width - a.width)
    return concat(ext, a)


def replicate(a: Expr, count: int) -> Expr:
    """Concatenate ``count`` copies of ``a``."""
    if count <= 0:
        raise ValueError(f"replicate count must be positive, got {count}")
    return concat(*([a] * count))


def all_of(terms: Iterable[Expr]) -> Expr:
    """AND of a sequence of 1-bit expressions (vacuously 1 if empty)."""
    result = const(1, 1)
    for t in terms:
        result = band(result, t)
    return result


def any_of(terms: Iterable[Expr]) -> Expr:
    """OR of a sequence of 1-bit expressions (vacuously 0 if empty)."""
    result = const(1, 0)
    for t in terms:
        result = bor(result, t)
    return result


def implies(a: Expr, b: Expr) -> Expr:
    """Logical implication ``a -> b`` over 1-bit expressions."""
    return bor(bnot(a), b)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


_NOTHING: frozenset[Expr] = frozenset()


def walk(roots: Iterable[Expr]) -> list[Expr]:
    """Return all nodes reachable from ``roots`` in a post-order (children
    before parents), each exactly once."""
    return walk_new(roots, _NOTHING)


def walk_new(roots: Iterable[Expr], memo: Container[Expr]) -> list[Expr]:
    """The post-order of :func:`walk`, minus every node ``memo`` holds.

    The walk does not descend below a node in ``memo``: a caller that
    memoizes a value per node (keyed by the node itself) already holds
    the values of that node's whole cone, so evaluating the returned
    nodes in order extends the memo to every root at the cost of the
    nodes it lacked.  ``memo`` is only read.
    """
    seen: set[Expr] = set()
    order: list[Expr] = []
    stack: list[tuple[Expr, bool]] = [(r, False) for r in roots if r not in memo]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for child in node.children():
            if child not in seen and child not in memo:
                stack.append((child, False))
    return order


def reg_reads(roots: Iterable[Expr]) -> set[str]:
    """Names of all registers read anywhere under ``roots``."""
    return {n.name for n in walk(roots) if isinstance(n, RegRead)}


def mem_reads(roots: Iterable[Expr]) -> set[str]:
    """Names of all memories read anywhere under ``roots``."""
    return {n.mem for n in walk(roots) if isinstance(n, MemRead)}


def input_reads(roots: Iterable[Expr]) -> set[str]:
    """Names of all input ports read anywhere under ``roots``."""
    return {n.name for n in walk(roots) if isinstance(n, Input)}
