"""Width-parametricity (slice-dependence) type inference.

The datapath width ``W`` of a prepared machine is a family parameter: the
toy core exists at word 8, 16, 32, ..., the DLX at 32, 48, 64, ....  The
HADES small-model observation (see PAPERS.md) is that most obligations do
not *depend* on ``W``: the control cone is literally the same circuit at
every width, and the datapath cone merely replicates one bit-slice.  This
module assigns every net a **parametricity type** witnessing (a sound
approximation of) that independence:

``CONST``
    The net is a literal whose value is identical in every family member.
``UNIFORM``
    The net's value is identical in every family member — control signals
    decoded from the fixed-width instruction encoding, hazard compares on
    5-bit register indices, full/valid bits.
``SLICEWISE``
    The net is *truncation-stable*: for any two widths ``w <= w'`` the
    low ``w`` bits of the wider instance equal the narrower instance
    (datapath values flowing through ``+``/``-``/bitwise logic — carries
    propagate upward only, so the common low slice agrees).
``ENTANGLED``
    Width-coupled: no cross-width relation is claimed (comparisons and
    right-shifts of scaled data, signed interpretation of scaled values,
    address arithmetic folded into control).

Types are inferred **differentially** over a *pair* of instances built at
two distinct widths.  The pairing is a top-down bisimulation from matched
roots: each reachable *pair* of nodes — not each node — is a unit of the
analysis, because hash-consing merges the two DAGs differently per width
(at word 32 the DLX's ``imm16_zext`` padding constant coincides with the
LHI concat's fixed 16-bit zero; at word 48 they are distinct nodes), so
one node of the narrow instance may legitimately pair with several nodes
of the wide one.  Pairing reads per-pair facts the single-instance view
cannot see — does this constant's width scale?  are these two constants
the same value?  Structural divergence between the instances
(width-dependent slice bounds, mismatched operators) raises
:class:`PairMismatch`, which callers treat as "not certifiable": the
analysis fails safe.

State elements are those of a transition system
(:class:`repro.formal.bmc.TransitionSystem`): every register, with its
enable folded into its next function as the select of a hold mux, and
every memory, typed once as a whole (every word of a memory shares one
type).  They are typed by a Kleene fixpoint: every element starts at the
type of its (width-independent) reset contents and is joined with the
type of what a step stores in it until stable — a register's next
function; for a memory, each write port's data, or ``ENTANGLED`` when a
port's enable or address is not uniform, since the port then writes
different words in different family members.  This is the forward
may-analysis over the four-point lattice, monotone and therefore
terminating.  A fixpoint over a whole paired system types
every cone of it: a cone is closed under dependency, so
:meth:`ConeTyping.restrict` reads any cone's types off the one typing.

Individual nets can be *declassified* to ``UNIFORM`` — used by
:mod:`repro.analysis.family` for speculation mispredict bits, the
sanctioned one-bit squash channel whose value the scheduling argument
quantifies over (mirroring the taint rung's speculative-control
declassification); every declassification is audited empirically by
:func:`repro.analysis.family.crosscheck_family`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Sequence

from ..hdl import expr as E


class ParamType(IntEnum):
    """The four-point parametricity lattice (join = max)."""

    CONST = 0
    UNIFORM = 1
    SLICEWISE = 2
    ENTANGLED = 3

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.name.lower()


def join(*types: ParamType) -> ParamType:
    return ParamType(max(types)) if types else ParamType.CONST


class PairMismatch(Exception):
    """The two family instances diverge structurally — the DAGs cannot be
    paired from the given roots (mismatched operators, width-dependent
    slice bounds, different concat run shapes).  Certification fails
    safe."""


@dataclass(frozen=True)
class StateSpec:
    """One register under the fixpoint, paired across instances; its
    ``next`` function already folds in its enable."""

    name: str
    width0: int
    width1: int
    init0: int
    init1: int
    next0: E.Expr
    next1: E.Expr


@dataclass(frozen=True)
class MemSpec:
    """One memory under the fixpoint, paired across instances.

    ``rom`` memories have fixed contents; ``init_equal`` says the reset
    words are identical across the two instances.  ``ports0`` and
    ``ports1`` are the write ports' ``(enable, addr, data)`` triples,
    matched by position.
    """

    name: str
    width0: int
    width1: int
    rom: bool = False
    init_equal: bool = True
    ports0: tuple[tuple[E.Expr, E.Expr, E.Expr], ...] = ()
    ports1: tuple[tuple[E.Expr, E.Expr, E.Expr], ...] = ()


def _rle(parts: Sequence[E.Expr]) -> list[tuple[E.Expr, int]]:
    """Collapse adjacent identical (hash-consed) concat parts into runs —
    ``sext`` replicates one sign-bit node ``W - k`` times, so the run
    *count* scales with width while the run list stays stable."""
    runs: list[tuple[E.Expr, int]] = []
    for part in parts:
        if runs and runs[-1][0] is part:
            runs[-1] = (part, runs[-1][1] + 1)
        else:
            runs.append((part, 1))
    return runs


def _align_runs(
    n0: E.Concat, n1: E.Concat
) -> tuple[list[tuple[E.Expr, int]], list[tuple[E.Expr, int]]]:
    """Match the two concats' RLE runs, or raise :class:`PairMismatch`.

    A zero-extension is the identity at the family's narrowest width — at
    word 32 the DLX ``zext(x, W)`` has no padding part at all, at word 48
    it grows a zero-constant head run.  When the wide instance has exactly
    one extra *leading all-zero constant* run, that run is dropped before
    alignment: the wide concat equals the aligned remainder zero-extended,
    which preserves the integer value, so the transfer rule for the
    aligned runs applies unchanged.
    """
    runs0, runs1 = _rle(n0.parts), _rle(n1.parts)
    if len(runs1) == len(runs0) + 1:
        head, _count = runs1[0]
        if isinstance(head, E.Const) and head.value == 0:
            runs1 = runs1[1:]
    if len(runs0) != len(runs1):
        raise PairMismatch(
            f"concat run shapes differ ({len(runs0)} vs {len(runs1)})"
        )
    return runs0, runs1


def _child_pairs(n0: E.Expr, n1: E.Expr) -> list[tuple[E.Expr, E.Expr]]:
    """Matched children of a structurally compatible pair, or raise."""
    if type(n0) is not type(n1):
        raise PairMismatch(f"{type(n0).__name__} paired with {type(n1).__name__}")
    if isinstance(n0, E.Const):
        return []
    if isinstance(n0, (E.Input, E.RegRead)):
        if n0.name != n1.name:
            raise PairMismatch(f"leaf {n0.name} paired with {n1.name}")
        return []
    if isinstance(n0, E.MemRead):
        if n0.mem != n1.mem:
            raise PairMismatch(f"memory {n0.mem} paired with {n1.mem}")
        return [(n0.addr, n1.addr)]
    if isinstance(n0, E.Unary):
        if n0.op != n1.op:
            raise PairMismatch(f"unary {n0.op} paired with {n1.op}")
        return [(n0.a, n1.a)]
    if isinstance(n0, E.Binary):
        if n0.op != n1.op:
            raise PairMismatch(f"binary {n0.op} paired with {n1.op}")
        return [(n0.a, n1.a), (n0.b, n1.b)]
    if isinstance(n0, E.Mux):
        return [(n0.sel, n1.sel), (n0.then, n1.then), (n0.els, n1.els)]
    if isinstance(n0, E.Concat):
        runs0, runs1 = _align_runs(n0, n1)
        return [(p0, p1) for (p0, _), (p1, _) in zip(runs0, runs1)]
    if isinstance(n0, E.Slice):
        if n0.low != n1.low or n0.high != n1.high:
            # a width-dependent slice window selects *different* bits per
            # family member — no parametricity statement survives it
            raise PairMismatch(
                "slice bounds scale with width"
                f" ([{n0.low}:{n0.high}] vs [{n1.low}:{n1.high}])"
            )
        return [(n0.a, n1.a)]
    raise AssertionError(type(n0).__name__)  # pragma: no cover


def pair_nodes(
    roots0: Iterable[E.Expr], roots1: Iterable[E.Expr]
) -> tuple[list[tuple[E.Expr, E.Expr]], dict[tuple[int, int], int]]:
    """Pair the two DAGs by bisimulation from matched roots.

    Returns the reachable pairs in post-order (children before parents)
    plus the ``(id0, id1) -> position`` index.  One node may appear in
    several pairs — that is the point: hash-consing merges the instances
    differently per width, and only the *pair* has a well-defined
    parametricity type.  Raises :class:`PairMismatch` on any structural
    divergence.
    """
    roots0, roots1 = list(roots0), list(roots1)
    if len(roots0) != len(roots1):
        raise PairMismatch(
            f"root counts differ ({len(roots0)} vs {len(roots1)})"
        )
    order: list[tuple[E.Expr, E.Expr]] = []
    index: dict[tuple[int, int], int] = {}
    # iterative DFS; the boolean marks "children already pushed", giving
    # post-order without recursion (DLX cones are deep)
    stack: list[tuple[E.Expr, E.Expr, bool]] = [
        (r0, r1, False) for r0, r1 in reversed(list(zip(roots0, roots1)))
    ]
    expanding: set[tuple[int, int]] = set()
    while stack:
        n0, n1, expanded = stack.pop()
        key = (id(n0), id(n1))
        if key in index:
            continue
        if expanded:
            expanding.discard(key)
            index[key] = len(order)
            order.append((n0, n1))
            continue
        if key in expanding:  # already scheduled via another parent
            continue
        expanding.add(key)
        stack.append((n0, n1, True))
        for c0, c1 in reversed(_child_pairs(n0, n1)):
            if (id(c0), id(c1)) not in index:
                stack.append((c0, c1, False))
    return order, index


@dataclass
class ConeTyping:
    """The inferred types of one paired cone: one per node pair, in
    :func:`pair_nodes` order, plus ``env``, the stable type of every
    register and memory."""

    order: list[tuple[E.Expr, E.Expr]] = field(repr=False)
    index: dict[tuple[int, int], int] = field(repr=False)
    types: list[ParamType] = field(repr=False)
    env: dict[str, ParamType] = field(default_factory=dict)

    def of(self, node0: E.Expr, node1: E.Expr) -> ParamType:
        """Type of a pair inside the analyzed cone."""
        return self.types[self.index[(id(node0), id(node1))]]

    def restrict(
        self, roots0: Iterable[E.Expr], roots1: Iterable[E.Expr]
    ) -> "ConeTyping":
        """The typing of the sub-cone paired from the given roots, read
        off this one (every root pair must lie inside it)."""
        order, index = pair_nodes(roots0, roots1)
        types = [self.of(n0, n1) for n0, n1 in order]
        return ConeTyping(order, index, types, self.env)

    @property
    def entangled(self) -> int:
        return sum(1 for t in self.types if t is ParamType.ENTANGLED)

    def counts(self) -> dict[str, int]:
        result = {t.name.lower(): 0 for t in ParamType}
        for t in self.types:
            result[t.name.lower()] += 1
        return result


_REDUCTIONS = frozenset({"REDOR", "REDAND", "REDXOR"})
_ARITH = frozenset({"ADD", "SUB", "MUL"})
_BITWISE = frozenset({"AND", "OR", "XOR"})
_UNSIGNED_CMP = frozenset({"EQ", "NE", "ULT", "ULE"})
_SIGNED_CMP = frozenset({"SLT", "SLE"})


def infer_types(
    roots0: Iterable[E.Expr],
    roots1: Iterable[E.Expr],
    states: Sequence[StateSpec] = (),
    mems: Sequence[MemSpec] = (),
    declassify0: frozenset[int] | set[int] = frozenset(),
    declassify1: frozenset[int] | set[int] = frozenset(),
) -> ConeTyping:
    """Infer parametricity types over a paired cone.

    ``roots`` must include the next function of every register named by
    ``states`` and the write ports of every memory named by ``mems``
    (matched across instances), so the bisimulation reaches them.
    ``declassify*`` are ``id()`` sets of nets forced to ``UNIFORM`` (a
    pair is declassified only when *both* sides are listed, keeping the
    pairing honest).

    Raises :class:`PairMismatch` on structural divergence.
    """
    order, index = pair_nodes(roots0, roots1)
    state_by_name = {spec.name: spec for spec in states}
    mem_by_name = {spec.name: spec for spec in mems}

    def init_type(spec: StateSpec) -> ParamType:
        if spec.init0 == spec.init1:
            return ParamType.CONST
        if spec.init1 % (1 << spec.width0) == spec.init0:
            return ParamType.SLICEWISE
        return ParamType.ENTANGLED

    env: dict[str, ParamType] = {spec.name: init_type(spec) for spec in states}
    # a memory's type starts at that of its reset contents
    for spec in mems:
        env[spec.name] = (
            ParamType.CONST if spec.init_equal else ParamType.ENTANGLED
        )

    def free_leaf(n0: E.Expr, n1: E.Expr) -> ParamType:
        return (
            ParamType.SLICEWISE if n0.width != n1.width else ParamType.UNIFORM
        )

    def eval_all() -> list[ParamType]:
        result: list[ParamType] = []

        def t(c0: E.Expr, c1: E.Expr) -> ParamType:
            return result[index[(id(c0), id(c1))]]

        for n0, n1 in order:
            scaled = n0.width != n1.width
            computed: ParamType
            if isinstance(n0, E.Const):
                if n0.value == n1.value:
                    computed = ParamType.CONST
                elif n1.value % (1 << n0.width) == n0.value:
                    computed = ParamType.SLICEWISE  # e.g. a folded ~mask
                else:
                    computed = ParamType.ENTANGLED
            elif isinstance(n0, E.Input):
                computed = free_leaf(n0, n1)
            elif isinstance(n0, E.RegRead):
                computed = (
                    env[n0.name]
                    if n0.name in state_by_name
                    else free_leaf(n0, n1)
                )
            elif isinstance(n0, E.MemRead):
                t_addr = t(n0.addr, n1.addr)
                if t_addr > ParamType.UNIFORM:
                    computed = ParamType.ENTANGLED
                else:
                    spec = mem_by_name.get(n0.mem)
                    if spec is None:
                        base = free_leaf(n0, n1)
                    else:
                        base = env[n0.mem]
                        # fixed, equal contents read at a uniform address
                        # give the *same word* in every member
                        if (
                            spec.rom
                            and base is ParamType.CONST
                            and t_addr > ParamType.CONST
                        ):
                            base = ParamType.UNIFORM
                    computed = join(base, t_addr)
            elif isinstance(n0, E.Unary):
                ta = t(n0.a, n1.a)
                if n0.op in ("NOT", "NEG"):
                    if not scaled:
                        computed = ta
                    elif ta is ParamType.ENTANGLED:
                        computed = ParamType.ENTANGLED
                    else:
                        # complement flips the (width-dependent) high bits
                        computed = join(ta, ParamType.SLICEWISE)
                elif n0.op in _REDUCTIONS:
                    child_scaled = n0.a.width != n1.a.width
                    if not child_scaled:
                        computed = ta
                    elif n0.op == "REDAND":
                        # extra zero bits flip the conjunction
                        computed = ParamType.ENTANGLED
                    elif ta <= ParamType.UNIFORM:
                        computed = ta  # OR/XOR over extra zero bits
                    else:
                        computed = ParamType.ENTANGLED
                else:  # pragma: no cover - exhaustive over UNARY_OPS
                    computed = ParamType.ENTANGLED
            elif isinstance(n0, E.Binary):
                ta, tb = t(n0.a, n1.a), t(n0.b, n1.b)
                j = join(ta, tb)
                if n0.op in _BITWISE:
                    computed = j
                elif n0.op in _ARITH:
                    if j is ParamType.ENTANGLED:
                        computed = ParamType.ENTANGLED
                    elif scaled:
                        # carries may cross the narrow instance's MSB
                        computed = join(j, ParamType.SLICEWISE)
                    else:
                        computed = j
                elif n0.op == "SHL":
                    if tb > ParamType.UNIFORM or j is ParamType.ENTANGLED:
                        computed = ParamType.ENTANGLED
                    elif scaled:
                        computed = join(j, ParamType.SLICEWISE)
                    else:
                        computed = j
                elif n0.op in ("LSHR", "ASHR"):
                    a_scaled = n0.a.width != n1.a.width
                    if tb > ParamType.UNIFORM:
                        computed = ParamType.ENTANGLED
                    elif not a_scaled:
                        computed = j
                    elif n0.op == "LSHR" and ta <= ParamType.UNIFORM:
                        computed = j  # shifting down extra zero bits
                    else:
                        # upper (width-dependent) bits flow downward
                        computed = ParamType.ENTANGLED
                elif n0.op in _UNSIGNED_CMP:
                    computed = (
                        j if j <= ParamType.UNIFORM else ParamType.ENTANGLED
                    )
                elif n0.op in _SIGNED_CMP:
                    operands_scaled = (
                        n0.a.width != n1.a.width or n0.b.width != n1.b.width
                    )
                    if j <= ParamType.UNIFORM and not operands_scaled:
                        computed = j
                    else:
                        # the sign bit moves with the width
                        computed = ParamType.ENTANGLED
                else:  # pragma: no cover - exhaustive over BINARY_OPS
                    computed = ParamType.ENTANGLED
            elif isinstance(n0, E.Mux):
                if t(n0.sel, n1.sel) <= ParamType.UNIFORM:
                    computed = join(t(n0.then, n1.then), t(n0.els, n1.els))
                else:
                    computed = ParamType.ENTANGLED
            elif isinstance(n0, E.Concat):
                # a dropped all-zero head run (zext degenerate at the
                # narrow width) preserves the integer value, so the rule
                # over the *aligned* runs applies unchanged
                runs0, runs1 = _align_runs(n0, n1)
                j = join(*(t(p0, p1) for (p0, _), (p1, _) in zip(runs0, runs1)))
                body_stable = all(
                    c0 == c1 and p0.width == p1.width
                    for (p0, c0), (p1, c1) in zip(runs0[1:], runs1[1:])
                )
                head0, head_count0 = runs0[0]
                head1, head_count1 = runs1[0]
                head_scaled = (
                    head_count0 != head_count1 or head0.width != head1.width
                )
                if not body_stable or j is ParamType.ENTANGLED:
                    computed = ParamType.ENTANGLED
                elif not head_scaled:
                    computed = j
                elif (
                    isinstance(head0, E.Const)
                    and head0.value == 0
                    and isinstance(head1, E.Const)
                    and head1.value == 0
                ):
                    computed = j  # zero-extension preserves the value
                else:
                    # sign replication and friends: per-position stable
                    computed = join(j, ParamType.SLICEWISE)
            elif isinstance(n0, E.Slice):
                ta = t(n0.a, n1.a)
                if ta <= ParamType.UNIFORM:
                    computed = ta
                elif ta is ParamType.SLICEWISE:
                    # a fixed window below the narrowest width of a
                    # truncation-stable value is the same in every member
                    computed = ParamType.UNIFORM
                else:
                    computed = ParamType.ENTANGLED
            else:  # pragma: no cover - exhaustive over the IR
                raise AssertionError(type(n0).__name__)

            if computed > ParamType.UNIFORM:
                if id(n0) in declassify0 and id(n1) in declassify1:
                    computed = ParamType.UNIFORM
            result.append(computed)
        return result

    def stored(types: list[ParamType], spec: MemSpec) -> ParamType:
        """The type of what one step stores in a memory: each port's
        data, unless a port's enable or address differs by width."""
        new = env[spec.name]
        for (en0, addr0, data0), (en1, addr1, data1) in zip(
            spec.ports0, spec.ports1
        ):
            select = join(
                types[index[(id(en0), id(en1))]],
                types[index[(id(addr0), id(addr1))]],
            )
            if select > ParamType.UNIFORM:
                return ParamType.ENTANGLED
            new = join(new, types[index[(id(data0), id(data1))]])
        return new

    types: list[ParamType] = []
    iterations = 0
    limit = 3 * (len(states) + len(mems)) + 2
    while True:
        iterations += 1
        if iterations > limit:  # pragma: no cover - monotone, bounded
            raise AssertionError("parametricity fixpoint failed to converge")
        types = eval_all()
        updates = [
            (spec.name, types[index[(id(spec.next0), id(spec.next1))]])
            for spec in states
        ]
        updates += [(spec.name, stored(types, spec)) for spec in mems]
        changed = False
        for name, t_step in updates:
            new = join(env[name], t_step)
            if new != env[name]:
                env[name] = new
                changed = True
        if not changed:
            break

    return ConeTyping(order=order, index=index, types=types, env=env)
