"""Structural lint passes over a :class:`repro.hdl.netlist.Module`.

The pass family (run in registration order by :func:`..registry.lint_module`):

1. **validation** — every violation collected by :meth:`Module.check`
   (undefined names, width mismatches, undriven registers) as a
   diagnostic instead of a first-fail exception;
2. **combinational cycles** — Tarjan SCC over the expression/probe
   graph.  Hash-consed construction cannot create cycles, but hand-built
   or pass-mutated nodes can, and every downstream analysis (simulation,
   bit-blasting, constant propagation) assumes a DAG;
3. **dataflow** — ternary (0/1/X) constant propagation: never-enabled
   and frozen registers, probes that compute constants through logic the
   constructors could not fold, unreachable mux arms, dead memory write
   ports, and write ports whose enables are not provably exclusive;
4. **width smells** — slices that silently discard the high bits of
   arithmetic, slices of concatenations;
5. **budgets** — per-cone delay and whole-module cost against the
   :class:`..diagnostics.LintConfig` budgets, reusing
   :mod:`repro.hdl.analyze`'s unit-gate model.
"""

from __future__ import annotations

from ..absint.domain import UNKNOWN, Ternary, ternary_transfer
from ..hdl import expr as E
from ..hdl.analyze import node_cost, node_delay
from ..hdl.bitvec import mask
from ..hdl.netlist import Module
from .diagnostics import Severity
from .registry import ModuleContext, module_pass, register_rule

# ---------------------------------------------------------------------------
# Rule declarations
# ---------------------------------------------------------------------------

register_rule(
    "undefined-register",
    "read of an undeclared register",
    Severity.ERROR,
    description="an expression reads a register name the module never"
    " declared; simulation and bit-blasting have no value to supply",
)
register_rule(
    "undefined-memory",
    "read of an undeclared memory",
    Severity.ERROR,
    description="an expression reads a memory name the module never"
    " declared; no words exist to select from",
)
register_rule(
    "undefined-input",
    "read of an undeclared input",
    Severity.ERROR,
    description="an expression reads an input port the module never"
    " declared; the environment has nothing to drive",
)
register_rule(
    "width-mismatch",
    "read width disagrees with declaration",
    Severity.ERROR,
    description="a register/memory/input read asks for a different bit"
    " width than the declaration provides; downstream logic would be"
    " silently truncated or padded",
)
register_rule(
    "undriven-register",
    "register next value never driven after declaration",
    Severity.WARNING,
    description="the register still has its declaration-time default"
    " next value; either the drive was forgotten or the register is"
    " dead state",
)
register_rule(
    "comb-cycle",
    "combinational cycle in the expression graph",
    Severity.ERROR,
    description="an expression is reachable from itself without passing"
    " through a register; the netlist has no well-defined value",
)
register_rule(
    "never-enabled-register",
    "register enable is constant 0",
    Severity.WARNING,
    description="dataflow analysis proves the clock enable never fires;"
    " the register is frozen at its initial value and its update logic"
    " is dead",
)
register_rule(
    "constant-net",
    "net computes a constant through non-constant logic",
    Severity.WARNING,
    description="ternary constant propagation reduces this net to one"
    " value even though the constructors could not fold it; the logic"
    " computing it is redundant",
)
register_rule(
    "unreachable-mux-arm",
    "mux select is constant under dataflow analysis",
    Severity.WARNING,
    description="one arm of the mux can never be selected; the dead arm"
    " hides either redundant hardware or a wiring mistake",
)
register_rule(
    "dead-write-port",
    "memory write enable is constant 0",
    Severity.WARNING,
    description="the port can never commit a write; the memory content"
    " is effectively read-only through this port",
)
register_rule(
    "memory-write-overlap",
    "write-port enables not provably exclusive",
    Severity.WARNING,
    description="write ports are applied in list order; overlapping"
    " enables make the priority encoding load-bearing",
)
register_rule(
    "narrowed-arithmetic",
    "slice discards the high bits of an arithmetic result",
    Severity.INFO,
    description="an add/sub/mul result is sliced below its natural"
    " width; overflow bits are silently dropped, which is worth a"
    " deliberate look",
)
register_rule(
    "slice-of-concat",
    "slice re-splits a concatenation",
    Severity.INFO,
    description="a slice reaches into a concatenation it could reference"
    " directly; usually a sign of width bookkeeping done twice",
)
register_rule(
    "delay-budget",
    "combinational cone exceeds the delay budget",
    Severity.WARNING,
    description="the unit-gate critical path of this cone exceeds the"
    " configured max_delay budget",
)
register_rule(
    "cost-budget",
    "module exceeds the gate-cost budget",
    Severity.WARNING,
    description="the unit-gate cost of the whole module exceeds the"
    " configured max_cost budget",
)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def named_roots(module: Module) -> list[tuple[str, E.Expr]]:
    """Expression roots paired with the element path that owns them."""
    roots: list[tuple[str, E.Expr]] = []
    for name, reg in module.registers.items():
        roots.append((f"register:{name}", reg.next))
        roots.append((f"register:{name}", reg.enable))
    for name, memory in module.memories.items():
        for port in memory.write_ports:
            roots.append((f"memory:{name}", port.enable))
            roots.append((f"memory:{name}", port.addr))
            roots.append((f"memory:{name}", port.data))
    for name, value in module.probes.items():
        roots.append((f"probe:{name}", value))
    return roots


def _owner_map(roots: list[tuple[str, E.Expr]]) -> dict[E.Expr, str]:
    """First-seen owner path for every reachable node (for attribution).

    A node that already has an owner got it with its whole cone, so each
    root's walk stops there."""
    owner: dict[E.Expr, str] = {}
    for path, root in roots:
        for node in E.walk_new([root], owner):
            owner[node] = path
    return owner


# ---------------------------------------------------------------------------
# Pass 1: netlist validation issues as diagnostics
# ---------------------------------------------------------------------------


@module_pass
def pass_validation(ctx: ModuleContext) -> None:
    for issue in ctx.module.check():
        ctx.emit(issue.code, issue.path, issue.message)


# ---------------------------------------------------------------------------
# Pass 2: combinational cycle detection (Tarjan SCC)
# ---------------------------------------------------------------------------


def find_cycles(roots: list[E.Expr]) -> list[list[E.Expr]]:
    """Strongly connected components of size > 1 (or with a self-loop)
    in the expression graph, via iterative Tarjan."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[E.Expr] = []
    sccs: list[list[E.Expr]] = []
    counter = 0

    for root in roots:
        if id(root) in index:
            continue
        # work items: (node, child iterator position)
        work: list[tuple[E.Expr, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[id(node)] = lowlink[id(node)] = counter
                counter += 1
                stack.append(node)
                on_stack.add(id(node))
            children = node.children()
            recurred = False
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if id(child) not in index:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    recurred = True
                    break
                if id(child) in on_stack:
                    lowlink[id(node)] = min(
                        lowlink[id(node)], index[id(child)]
                    )
            if recurred:
                continue
            work.pop()
            if lowlink[id(node)] == index[id(node)]:
                component: list[E.Expr] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(id(member))
                    component.append(member)
                    if member is node:
                        break
                if len(component) > 1 or any(
                    child is node for child in node.children()
                ):
                    sccs.append(component)
            if work:
                parent, _ = work[-1]
                lowlink[id(parent)] = min(
                    lowlink[id(parent)], lowlink[id(node)]
                )
    return sccs


@module_pass
def pass_cycles(ctx: ModuleContext) -> None:
    roots = named_roots(ctx.module)
    owner = _owner_map(roots)
    cycles = find_cycles([root for _path, root in roots])
    ctx.acyclic = not cycles
    for component in cycles:
        path = owner.get(component[0], "module:" + ctx.module.name)
        ctx.emit(
            "comb-cycle",
            path,
            f"combinational cycle through {len(component)} node(s):"
            f" {', '.join(repr(n) for n in component[:4])}"
            + (" ..." if len(component) > 4 else ""),
            nodes=len(component),
        )


# ---------------------------------------------------------------------------
# Pass 3: ternary (0/1/X) constant propagation
# ---------------------------------------------------------------------------

# The per-operator known-bits rules live in repro.absint.domain (shared
# with the fixpoint abstract interpreter); this pass supplies the one-shot
# DAG walk and the frozen-register leaf facts.


def _frozen_registers(module: Module) -> dict[str, int]:
    """Registers provably stuck at their initial value: enable constant 0,
    or next-value literally the register's own read."""
    frozen: dict[str, int] = {}
    for name, reg in module.registers.items():
        if isinstance(reg.enable, E.Const) and reg.enable.value == 0:
            frozen[name] = reg.init
        elif isinstance(reg.next, E.RegRead) and reg.next.name == name:
            frozen[name] = reg.init
    return frozen


def ternary_eval(
    roots: list[E.Expr], frozen: dict[str, int] | None = None
) -> dict[int, Ternary]:
    """Per-node ternary constant propagation over a DAG.

    Returns ``id(node) -> (known mask, value)``.  ``frozen`` optionally
    seeds register reads with known-constant contents.
    """
    frozen = frozen or {}

    def reg_bits(node: E.Expr) -> Ternary:
        assert isinstance(node, E.RegRead)
        if node.name in frozen:
            full = mask(node.width)
            return (full, frozen[node.name] & full)
        return UNKNOWN

    values: dict[int, Ternary] = {}
    for node in E.walk(roots):
        values[id(node)] = ternary_transfer(
            node, lambda n: values[id(n)], reg_bits=reg_bits
        )
    return values


@module_pass
def pass_dataflow(ctx: ModuleContext) -> None:
    if not getattr(ctx, "acyclic", True):
        return  # constant propagation assumes a DAG
    module = ctx.module
    roots = named_roots(module)
    owner = _owner_map(roots)
    frozen = _frozen_registers(module)
    ternary = ternary_eval([root for _path, root in roots], frozen)

    # never-enabled / frozen registers ------------------------------------
    for name, reg in module.registers.items():
        path = f"register:{name}"
        k_en, v_en = ternary.get(id(reg.enable), UNKNOWN)
        if k_en & 1 and not (v_en & 1):
            ctx.emit(
                "never-enabled-register",
                path,
                f"register {name!r} has a constant-0 enable; it can never"
                " leave its initial value"
                f" {reg.init:#x}",
            )
            continue
        if isinstance(reg.next, E.RegRead) and reg.next.name == name:
            continue  # a hold register; undriven-register covers the smell
        k_next, v_next = ternary.get(id(reg.next), UNKNOWN)
        if (
            k_next == mask(reg.width)
            and not isinstance(reg.next, E.Const)
            and v_next == reg.init
        ):
            ctx.emit(
                "constant-net",
                path,
                f"register {name!r} always reloads its initial value"
                f" {reg.init:#x}; the driving logic is dead",
                value=v_next,
            )

    # constant probes ------------------------------------------------------
    for name, value in module.probes.items():
        known, v = ternary.get(id(value), UNKNOWN)
        if known == mask(value.width) and not isinstance(value, E.Const):
            ctx.emit(
                "constant-net",
                f"probe:{name}",
                f"probe {name!r} computes the constant {v:#x} through"
                " logic the constructors could not fold",
                value=v,
            )

    # unreachable mux arms -------------------------------------------------
    for node in E.walk([root for _path, root in roots]):
        if isinstance(node, E.Mux):
            k_sel, v_sel = ternary.get(id(node.sel), UNKNOWN)
            if k_sel & 1:
                arm = "else" if v_sel & 1 else "then"
                ctx.emit(
                    "unreachable-mux-arm",
                    owner.get(node, f"module:{module.name}"),
                    f"mux select is constant {v_sel & 1} under dataflow"
                    f" analysis; the {arm!r} arm is unreachable",
                    select=v_sel & 1,
                )

    # memory write ports ---------------------------------------------------
    for name, memory in module.memories.items():
        path = f"memory:{name}"
        live_ports = []
        for position, port in enumerate(memory.write_ports):
            k_en, v_en = ternary.get(id(port.enable), UNKNOWN)
            if k_en & 1 and not (v_en & 1):
                ctx.emit(
                    "dead-write-port",
                    path,
                    f"write port {position} of memory {name!r} has a"
                    " constant-0 enable and can never write",
                    port=position,
                )
            else:
                live_ports.append((position, port))
        for i in range(len(live_ports)):
            for j in range(i + 1, len(live_ports)):
                pos_a, port_a = live_ports[i]
                pos_b, port_b = live_ports[j]
                if _provably_exclusive(port_a, port_b, ternary):
                    continue
                ctx.emit(
                    "memory-write-overlap",
                    path,
                    f"write ports {pos_a} and {pos_b} of memory {name!r}"
                    " may fire on the same address in the same cycle;"
                    " the later port silently wins",
                    ports=(pos_a, pos_b),
                )


def _and_factors(expression: E.Expr) -> list[E.Expr]:
    """Flatten nested AND into its conjuncts."""
    if isinstance(expression, E.Binary) and expression.op == "AND":
        return _and_factors(expression.a) + _and_factors(expression.b)
    return [expression]


def _provably_exclusive(port_a, port_b, ternary: dict[int, Ternary]) -> bool:
    """Can these two write ports never write the same word together?"""
    # distinct constant addresses never collide
    ka, va = ternary.get(id(port_a.addr), UNKNOWN)
    kb, vb = ternary.get(id(port_b.addr), UNKNOWN)
    width = port_a.addr.width
    if ka == mask(width) and kb == mask(width) and va != vb:
        return True
    # complementary AND-factors in the enables (e vs NOT e)
    factors_a = _and_factors(port_a.enable)
    factors_b = _and_factors(port_b.enable)
    ids_a = {id(f) for f in factors_a}
    ids_b = {id(f) for f in factors_b}
    for factor in factors_a:
        if isinstance(factor, E.Unary) and factor.op == "NOT":
            if id(factor.a) in ids_b:
                return True
    for factor in factors_b:
        if isinstance(factor, E.Unary) and factor.op == "NOT":
            if id(factor.a) in ids_a:
                return True
    return False


# ---------------------------------------------------------------------------
# Pass 4: width-narrowing smells
# ---------------------------------------------------------------------------

_NARROWING_OPS = frozenset({"ADD", "SUB", "MUL"})


@module_pass
def pass_width_smells(ctx: ModuleContext) -> None:
    roots = named_roots(ctx.module)
    owner = _owner_map(roots)
    for node in E.walk([root for _path, root in roots]):
        if not isinstance(node, E.Slice):
            continue
        child = node.a
        path = owner.get(node, f"module:{ctx.module.name}")
        narrows = (
            isinstance(child, E.Binary) and child.op in _NARROWING_OPS
        ) or (isinstance(child, E.Unary) and child.op == "NEG")
        if narrows and node.high < child.width - 1:
            op = child.op  # type: ignore[union-attr]
            ctx.emit(
                "narrowed-arithmetic",
                path,
                f"slice [{node.high}:{node.low}] discards the top"
                f" {child.width - 1 - node.high} bit(s) of a {op} result;"
                " overflow is silently truncated",
                op=op,
            )
        elif isinstance(child, E.Concat):
            ctx.emit(
                "slice-of-concat",
                path,
                f"slice [{node.high}:{node.low}] re-splits a concatenation;"
                " select the parts directly instead",
            )


# ---------------------------------------------------------------------------
# Pass 5: cost / delay budgets (reusing hdl.analyze's unit-gate model)
# ---------------------------------------------------------------------------


@module_pass
def pass_budgets(ctx: ModuleContext) -> None:
    config = ctx.config
    if config.max_delay is None and config.max_cost is None:
        return
    if not getattr(ctx, "acyclic", True):
        return  # arrival times are undefined on a cyclic graph
    roots = named_roots(ctx.module)
    order = E.walk([root for _path, root in roots])
    arrival: dict[int, float] = {}
    total_cost = 0.0
    for node in order:
        children_delay = max(
            (arrival[id(child)] for child in node.children()), default=0.0
        )
        arrival[id(node)] = children_delay + node_delay(node)
        total_cost += node_cost(node)
    if config.max_delay is not None:
        for path, root in roots:
            delay = arrival.get(id(root), 0.0)
            if delay > config.max_delay:
                ctx.emit(
                    "delay-budget",
                    path,
                    f"combinational cone reaches {delay:.0f} gate delays"
                    f" (> budget {config.max_delay:g})",
                    delay=delay,
                )
    if config.max_cost is not None and total_cost > config.max_cost:
        ctx.emit(
            "cost-budget",
            f"module:{ctx.module.name}",
            f"module costs {total_cost:.0f} gate equivalents"
            f" (> budget {config.max_cost:g})",
            cost=total_cost,
        )
