"""Stable content fingerprints for proof obligations.

The discharge cache (:mod:`repro.jobs`) must recognise an obligation it has
already proved — across process boundaries and across runs — without trusting
the obligation *id* (ids are stable names, but the hardware behind them
changes whenever the machine or the transformation does).  A fingerprint is a
SHA-256 over everything the verdict depends on:

* the expression DAG(s) of the obligation (property + assumptions, or the
  two sides of an equivalence),
* the slice of the transition system in the property's cone of influence
  (each register's name, width, reset value and next-state function; each
  memory's name, shape, reset words and write ports),
* the engine parameters (induction depth, BMC bound, conflict budget, ...),
* the decision-procedure versions (``SOLVER_VERSION``/``ENGINE_VERSION``),
  so a solver or engine change — bug fixes included — invalidates every
  cached verdict instead of leaving stale "proved" results live.

Two obligations with equal fingerprints are guaranteed to produce the same
verdict, so a cached result may be reused; anything outside the cone —
renamed probes, unrelated datapath edits — leaves the fingerprint unchanged,
which is what makes warm-cache runs useful during development.

Expressions are hash-consed (identity-shared DAGs) and hashed as a Merkle
DAG: a node's digest (:func:`node_digest`) is the SHA-256 of its operator,
width and leaf data (constant value, port, register or memory name, slice
bounds) followed by its children's digests.  The digest is stored on the
node, so every node is hashed once per process however many obligations
share it; a fingerprint then hashes the version line, the digests of its
roots, one row per support element (a register's ``(name, width, init,
next-digest)``, a memory's shape, reset words, ROM flag and port digests)
and the parameters.  Every preimage is built from the node's
content alone — never from ``hash()``, ``id()`` or anything that varies
with ``PYTHONHASHSEED`` — so equal content gives equal fingerprints in
every process.

The line serializations (:func:`invariant_lines`, :func:`trace_lines`,
:func:`module_lines`) spell the same content out node by node, for the
width-family analysis (:mod:`repro.analysis.family`), which diffs them
across instances.  The analysis certifies invariant and trace obligations
only, so equivalences have a fingerprint and no line form.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..formal.bmc import ENGINE_VERSION
from ..formal.sat import SOLVER_VERSION
from ..hdl import expr as E
from ..hdl.netlist import Module

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (bmc imports hdl)
    from ..formal.bmc import TransitionSystem

# Every fingerprint starts with the decision-procedure versions: a solver or
# engine change (bug fixes included) must invalidate every cached verdict,
# or a stale "proved" could outlive the code that proved it.
_VERSION_LINE = f"versions:solver={SOLVER_VERSION},engine={ENGINE_VERSION}"


def _serialize_nodes(roots: Iterable[E.Expr]) -> tuple[list[str], dict[int, int]]:
    """Canonical lines for every node under ``roots`` plus the id->index map."""
    order = E.walk(roots)
    index = {id(node): i for i, node in enumerate(order)}
    lines: list[str] = []
    for node in order:
        if isinstance(node, E.Const):
            lines.append(f"C{node.width}:{node.value}")
        elif isinstance(node, E.Input):
            lines.append(f"I{node.width}:{node.name}")
        elif isinstance(node, E.RegRead):
            lines.append(f"R{node.width}:{node.name}")
        elif isinstance(node, E.MemRead):
            lines.append(f"M{node.width}:{node.mem}@{index[id(node.addr)]}")
        elif isinstance(node, E.Unary):
            lines.append(f"U:{node.op}({index[id(node.a)]})")
        elif isinstance(node, E.Binary):
            lines.append(f"B:{node.op}({index[id(node.a)]},{index[id(node.b)]})")
        elif isinstance(node, E.Mux):
            lines.append(
                f"X({index[id(node.sel)]},{index[id(node.then)]},{index[id(node.els)]})"
            )
        elif isinstance(node, E.Concat):
            parts = ",".join(str(index[id(p)]) for p in node.parts)
            lines.append(f"K({parts})")
        elif isinstance(node, E.Slice):
            lines.append(f"S({index[id(node.a)]},{node.low},{node.high})")
        else:  # pragma: no cover - exhaustive over the IR
            raise AssertionError(type(node).__name__)
    return lines, index


def _tagged(tag: str) -> Callable[[E.Expr], bytes]:
    return lambda node: f"{tag}{node.width}:{node.name}".encode()


# the digest preimage of each node type: a type tag, the width and the
# leaf data, then the children's digests (32 bytes each, so the tag
# fixes where the text ends); ``node_digest`` appends the children
_PREIMAGE: dict[type, Callable[[E.Expr], bytes]] = {
    E.Const: lambda node: f"C{node.width}:{node.value}".encode(),
    E.Input: _tagged("I"),
    E.RegRead: _tagged("R"),
    E.MemRead: lambda node: f"M{node.width}:{node.mem}@".encode(),
    E.Unary: lambda node: f"U{node.width}:{node.op}".encode(),
    E.Binary: lambda node: f"B{node.width}:{node.op}".encode(),
    E.Mux: lambda node: f"X{node.width}".encode(),
    E.Concat: lambda node: f"K{node.width}:{len(node.parts)}".encode(),
    E.Slice: lambda node: f"S{node.low},{node.high}".encode(),
}


class _Digested:
    """The nodes that already carry a digest, as a walk's memo."""

    __slots__ = ()

    def __contains__(self, node: E.Expr) -> bool:
        return node.digest is not None


_DIGESTED = _Digested()


def node_digest(node: E.Expr) -> bytes:
    """The node's Merkle digest (32 bytes), computed once per node."""
    digest = node.digest
    if digest is None:
        sha256 = hashlib.sha256
        for sub in E.walk_new([node], _DIGESTED):
            preimage = _PREIMAGE[type(sub)](sub)
            for child in sub.children():
                preimage += child.digest  # type: ignore[operator]
            sub.digest = sha256(preimage).digest()
        digest = node.digest
    return digest  # type: ignore[return-value]


def _hex(node: E.Expr) -> str:
    return node_digest(node).hex()


def _digest(parts: Iterable[str]) -> str:
    text = "\n".join([_VERSION_LINE, *parts, ""])
    return hashlib.sha256(text.encode()).hexdigest()


def _params_lines(params: Mapping[str, object] | None) -> list[str]:
    if not params:
        return []
    return [f"param:{key}={params[key]!r}" for key in sorted(params)]


def fingerprint_exprs(
    roots: Iterable[E.Expr], params: Mapping[str, object] | None = None
) -> str:
    """Fingerprint a set of expressions (plus optional engine parameters)."""
    lines = ["roots:" + ",".join(_hex(r) for r in roots)]
    lines.extend(_params_lines(params))
    return _digest(lines)


def _support_lines(
    system: "TransitionSystem", support: Iterable[str], ref: Callable[[E.Expr], str]
) -> list[str]:
    """One row per support element, naming its expressions by ``ref``: a
    register's ``(name, width, init, next)``, or a memory's name, shape,
    nonzero reset words, whether its contents are known in every frame
    (``rom``) and its write ports' ``enable,addr,data`` triples."""
    lines: list[str] = []
    for name in support:
        mem = system.mems.get(name)
        if mem is None:
            var = system.var(name)
            lines.append(f"state:{name}:{var.width}:{var.init}:{ref(var.next)}")
            continue
        init = ",".join(f"{a}={v}" for a, v in mem.init.items())
        kind = "rom" if name in system.constant_mems else "ram"
        ports = ";".join(
            f"{ref(port.enable)},{ref(port.addr)},{ref(port.data)}"
            for port in mem.ports
        )
        lines.append(
            f"array:{name}:{mem.addr_width}:{mem.data_width}:{init}:{kind}:{ports}"
        )
    return lines


def invariant_lines(
    system: "TransitionSystem",
    prop: E.Expr,
    assume: Iterable[E.Expr] = (),
    params: Mapping[str, object] | None = None,
) -> list[str]:
    """The content :func:`fingerprint_invariant` digests, spelled out
    node by node.

    Public because the width-parametricity analysis
    (:mod:`repro.analysis.family`) diffs these lines across two family
    instances to erase a width-generic template; the fingerprint and the
    template must agree on what "the obligation" is, so both cover the
    same property, assumptions, support rows and parameters.
    """
    assume = list(assume)
    support = sorted(system.cone_of_influence([prop, *assume]))
    lines, index = _serialize_nodes([prop, *assume, *system.roots_of(support)])
    lines.append("prop:" + str(index[id(prop)]))
    lines.append("assume:" + ",".join(str(index[id(a)]) for a in assume))
    lines.extend(_support_lines(system, support, lambda node: str(index[id(node)])))
    lines.extend(_params_lines(params))
    return lines


def fingerprint_invariant(
    system: "TransitionSystem",
    prop: E.Expr,
    assume: Iterable[E.Expr] = (),
    params: Mapping[str, object] | None = None,
) -> str:
    """Fingerprint an invariant obligation: property + assumptions + the
    cone-of-influence slice of the transition system + engine parameters.

    Hashes the content :func:`invariant_lines` spells out, with node
    digests in place of the node lines."""
    assume = list(assume)
    support = sorted(system.cone_of_influence([prop, *assume]))
    lines = [f"prop:{_hex(prop)}", "assume:" + ",".join(_hex(a) for a in assume)]
    lines.extend(_support_lines(system, support, _hex))
    lines.extend(_params_lines(params))
    return _digest(lines)


def fingerprint_equivalence(
    a: E.Expr, b: E.Expr, params: Mapping[str, object] | None = None
) -> str:
    """Fingerprint an equivalence obligation over two combinational DAGs."""
    lines = [f"equiv:{_hex(a)},{_hex(b)}"]
    lines.extend(_params_lines(params))
    return _digest(lines)


def trace_lines(
    module: Module, checker: str, params: Mapping[str, object] | None = None
) -> list[str]:
    """The *flat* serialization of a trace obligation: checker name, the
    full module lines and the run parameters.  Unlike
    :func:`fingerprint_trace` (which nests the module digest) the module
    lines appear verbatim, so the family analysis can lockstep-diff two
    instances line by line."""
    lines = [f"trace:{checker}"]
    lines.extend(module_lines(module))
    lines.extend(_params_lines(params))
    return lines


def fingerprint_trace(
    module: Module, checker: str, params: Mapping[str, object] | None = None
) -> str:
    """Fingerprint a trace obligation: the whole simulated module plus the
    checker name and run parameters.  The stimulus is not hashed: trace
    obligations always run on the default one (every input held at 0)."""
    lines = [f"trace:{checker}", f"module:{fingerprint_module(module)}"]
    lines.extend(_params_lines(params))
    return _digest(lines)


def _element_lines(module: Module, ref: Callable[[E.Expr], str]) -> list[str]:
    """One line per module element, naming its expressions by ``ref``."""
    lines = [f"module:{module.name}"]
    for name in sorted(module.inputs):
        lines.append(f"input:{name}:{module.inputs[name]}")
    for name in sorted(module.registers):
        reg = module.registers[name]
        lines.append(
            f"reg:{name}:{reg.width}:{reg.init}:{ref(reg.next)}:{ref(reg.enable)}"
        )
    for name in sorted(module.memories):
        memory = module.memories[name]
        init = ",".join(f"{a}={v}" for a, v in sorted(memory.init.items()))
        lines.append(f"mem:{name}:{memory.addr_width}:{memory.data_width}:{init}")
        for port in memory.write_ports:
            lines.append(
                f"port:{name}:{ref(port.enable)}:{ref(port.addr)}:{ref(port.data)}"
            )
    for name in sorted(module.probes):
        lines.append(f"probe:{name}:{ref(module.probes[name])}")
    return lines


def module_lines(module: Module) -> list[str]:
    """The canonical serialization of a module, node by node."""
    lines, index = _serialize_nodes(module.roots())
    return lines + _element_lines(module, lambda node: str(index[id(node)]))


def fingerprint_module(module: Module) -> str:
    """Fingerprint a whole module (used for trace obligations, whose verdict
    depends on the entire simulated netlist, not a property cone): the
    content of :func:`module_lines`, with node digests in place of the
    node lines."""
    return _digest(_element_lines(module, _hex))
