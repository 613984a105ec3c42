"""Semantic lint: rules over the abstract-interpretation fixpoint.

Where :mod:`.structural`'s dataflow pass is a *one-shot* ternary
propagation (registers unknown unless structurally frozen), these rules
consume the sequential fixpoint of :func:`repro.absint.analyze`, which
knows what register values are actually *reachable* from reset.  That
strictly stronger information funds rules the structural pass cannot
express:

* ``absint-frozen-register`` — a register provably never leaves its
  initial value even though its enable can fire and its next-value logic
  is not a constant (e.g. the next value degenerates to the register's
  own content: the update logic is reachably dead);
* ``absint-dead-logic`` — a driving expression computes a constant over
  every reachable state, but not under one-shot propagation;
* ``absint-redundant-mux`` — a mux whose select is constant over every
  reachable state (a provably-redundant forwarding or bypass mux);
* ``absint-unreachable-values`` — a register whose reachable values are
  a strict subset of its type (documentation-grade INFO).

The fixpoint costs more than a single walk, so this family is *not* part
of the default :func:`..registry.lint_module` pass list; call
:func:`lint_semantic` explicitly (the fault-injection campaign's absint
rung does).
"""

from __future__ import annotations

from ..absint.domain import AbsValue
from ..absint.fixpoint import analyze
from ..hdl import expr as E
from ..hdl.bitvec import mask
from ..hdl.netlist import Module
from .diagnostics import LintConfig, LintResult, Severity
from .registry import ModuleContext, register_rule
from .structural import (
    UNKNOWN,
    _frozen_registers,
    _owner_map,
    named_roots,
    ternary_eval,
)

register_rule(
    "absint-frozen-register",
    "register provably never leaves its initial value",
    Severity.ERROR,
    description="the abstract fixpoint proves every reachable value of"
    " this register equals its reset value although update logic exists;"
    " the driving logic is reachably dead (e.g. the register reloads"
    " itself)",
)
register_rule(
    "absint-dead-logic",
    "net is constant over every reachable state",
    Severity.WARNING,
    description="the sequential fixpoint proves this non-constant"
    " expression always evaluates to one value from reset; one-shot"
    " constant propagation cannot see this",
)
register_rule(
    "absint-redundant-mux",
    "mux select is constant over every reachable state",
    Severity.WARNING,
    description="the sequential fixpoint proves the select never varies"
    " from reset; the mux (often a forwarding bypass) is provably"
    " redundant hardware",
)
register_rule(
    "absint-unreachable-values",
    "register values are a strict subset of the type",
    Severity.INFO,
    description="documentation-grade: the fixpoint's known-bits/interval"
    " facts bound the register strictly below its declared type",
)


def _describe(value: AbsValue) -> str:
    parts = []
    if value.known:
        parts.append(f"bits &{value.known:#x} == {value.value:#x}")
    if (value.lo, value.hi) != (0, mask(value.width)):
        parts.append(f"range [{value.lo:#x}, {value.hi:#x}]")
    return "; ".join(parts) or "top"


def lint_semantic(
    module: Module, config: LintConfig | None = None
) -> LintResult:
    """Run the fixpoint-based rules over one netlist; the fixpoint is
    computed here."""
    config = config or LintConfig()
    result = LintResult()
    context = ModuleContext(
        config=config,
        result=result,
        module_name=module.name,
        ignores=getattr(module, "lint_ignores", {}),
        module=module,
    )
    fixpoint = analyze(module)

    roots = named_roots(module)
    owner = _owner_map(roots)
    # what the one-shot pass already knows; only report beyond it
    oneshot = ternary_eval(
        [root for _path, root in roots], _frozen_registers(module)
    )

    def already_constant(node: E.Expr) -> bool:
        known, _value = oneshot.get(id(node), UNKNOWN)
        return known == mask(node.width)

    # frozen registers --------------------------------------------------
    for name, reg in module.registers.items():
        value = fixpoint.registers.get(name)
        if value is None or not value.is_const():
            continue
        if value.value != (reg.init & mask(reg.width)):
            continue  # constant but init-unreachable: left to dead-logic
        if isinstance(reg.next, E.Const):
            continue  # a declared constant, not dead update logic
        if isinstance(reg.enable, E.Const) and reg.enable.value == 0:
            continue  # structural never-enabled-register already fires
        context.emit(
            "absint-frozen-register",
            f"register:{name}",
            f"register {name!r} provably holds {value.value:#x} (its reset"
            " value) in every reachable state; its update logic can never"
            " change it",
            value=value.value,
        )

    # reachably-dead logic ----------------------------------------------
    for path, root in roots:
        if isinstance(root, E.Const) or already_constant(root):
            continue
        value = fixpoint.values.get(root)
        if value is None or not value.is_const():
            continue
        context.emit(
            "absint-dead-logic",
            path,
            f"expression always evaluates to {value.value:#x} over every"
            " reachable state; the logic computing it is dead",
            value=value.value,
        )

    # redundant muxes ----------------------------------------------------
    for node in E.walk([root for _path, root in roots]):
        if not isinstance(node, E.Mux):
            continue
        if already_constant(node.sel):
            continue  # structural unreachable-mux-arm already fires
        value = fixpoint.values.get(node.sel)
        if value is None or not value.is_const():
            continue
        arm = "else" if value.value & 1 else "then"
        context.emit(
            "absint-redundant-mux",
            owner.get(node, f"module:{module.name}"),
            f"mux select is constant {value.value & 1} over every reachable"
            f" state; the {arm!r} arm is dead and the mux is redundant",
            select=value.value & 1,
        )

    # unreachable values (documentation-grade) ---------------------------
    for name, reg in module.registers.items():
        value = fixpoint.registers.get(name)
        if value is None or value.is_top() or value.is_const():
            continue
        context.emit(
            "absint-unreachable-values",
            f"register:{name}",
            f"register {name!r} only reaches {_describe(value)};"
            " the remaining values of its type are unreachable",
            known=value.known,
            lo=value.lo,
            hi=value.hi,
        )
    return result
