"""Combinational equivalence checking.

Builds a miter over two expressions whose ``RegRead``/``Input``/``MemRead``
leaves are treated as shared free variables, and decides it with the CDCL
SAT solver.  Used to check, e.g., that the log-depth forwarding tree is
equivalent to the priority mux chain, and that the paper's precomputed
signals equal their recomputed counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hdl import expr as E
from .aig import Aig, BitBlaster, Vec, fresh_vec, to_cnf, vec_value
from .sat import Solver


@dataclass
class EquivResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    # On inequivalence: a distinguishing assignment for every free leaf.
    witness_regs: dict[str, int] | None = None
    witness_inputs: dict[str, int] | None = None
    witness_mems: dict[str, list[int]] | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def _shared_blaster(a: E.Expr, b: E.Expr) -> tuple[Aig, BitBlaster]:
    """Allocate one fresh variable vector per distinct leaf of both DAGs."""
    aig = Aig()
    regs: dict[str, Vec] = {}
    inputs: dict[str, Vec] = {}
    mem_words: dict[str, list[Vec]] = {}
    for node in E.walk([a, b]):
        if isinstance(node, E.RegRead) and node.name not in regs:
            regs[node.name] = fresh_vec(aig, node.width)
        elif isinstance(node, E.Input) and node.name not in inputs:
            inputs[node.name] = fresh_vec(aig, node.width)
        elif isinstance(node, E.MemRead) and node.mem not in mem_words:
            mem_words[node.mem] = [
                fresh_vec(aig, node.width) for _ in range(1 << node.addr.width)
            ]
    return aig, BitBlaster(aig, regs=regs, inputs=inputs, mem_words=mem_words)


def check_equivalence(a: E.Expr, b: E.Expr) -> EquivResult:
    """Decide whether ``a`` and ``b`` compute the same function.

    Leaves are matched by name: the same register/input/memory name in
    both expressions denotes the same free value.
    """
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    aig, blaster = _shared_blaster(a, b)
    va = blaster.blast(a)
    vb = blaster.blast(b)
    diff = aig.or_many([aig.xor_(x, y) for x, y in zip(va, vb)])
    if diff == 0:
        return EquivResult(equivalent=True)
    if diff == 1:
        # structurally constant-different; build an arbitrary witness
        return _witness(aig, blaster, {})
    clauses, (root,) = to_cnf(aig, [diff])
    solver = Solver()
    solver.add_clauses(clauses)
    solver.add_clause([root])
    result = solver.solve()
    if result.satisfiable is False:
        return EquivResult(equivalent=True)
    if result.satisfiable is None:  # pragma: no cover - budget exhaustion
        raise RuntimeError("SAT solver exhausted its budget")
    return _witness(aig, blaster, result.model)


def _witness(aig: Aig, blaster: BitBlaster, model: dict[int, bool]) -> EquivResult:
    return EquivResult(
        equivalent=False,
        witness_regs={
            name: vec_value(vec, model, aig) for name, vec in blaster.regs.items()
        },
        witness_inputs={
            name: vec_value(vec, model, aig) for name, vec in blaster.inputs.items()
        },
        witness_mems={
            name: [vec_value(word, model, aig) for _, word in sorted(words.items())]
            for name, words in blaster.mem_words.items()
        },
    )


def exprs_equal_on(a: E.Expr, b: E.Expr) -> bool:
    """Shorthand: are the two expressions functionally identical?"""
    return check_equivalence(a, b).equivalent
