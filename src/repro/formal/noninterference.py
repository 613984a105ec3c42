"""SAT non-interference queries: two-copy self-composition of one net.

Ground truth for the static taint pass (:mod:`repro.lint.taint`).  A
clean policy verdict claims a sink net is *combinationally independent*
of a set of source registers in every state, except through declared
declassifier nets.  The matching SAT query builds the sink's
cone twice over one AIG:

* copy A binds every register/input leaf to fresh variables (shared
  memories read through mux trees over per-word vectors);
* copy B shares every leaf with copy A **except** the source registers,
  which get fresh distinct variables, and is pre-seeded so that each
  declassifier net reuses copy A's vector — the two copies agree on the
  declassified digest but may disagree arbitrarily on the raw sources;
* the query asks for an assignment where the two sink vectors differ.

UNSAT means non-interference holds: no pair of states differing only in
the sources (and agreeing on the declassifiers) changes the sink — the
static ``clean`` verdict is validated.  SAT is a real dependence and may
only occur when the static pass reported taint (taint over-approximates;
the reverse would be a soundness bug).  Like the static pass, the query
reads the netlist alone: every register of the cone is free, so it
quantifies over all states, not just the reachable ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..hdl import expr as E
from .aig import Aig, BitBlaster, Vec, fresh_vec, to_cnf
from .sat import Solver

if TYPE_CHECKING:  # pragma: no cover
    from ..hdl.netlist import Module


@dataclass(frozen=True)
class NIVerdict:
    """Outcome of one two-copy query.

    ``independent`` is True (UNSAT — non-interference proved), False
    (SAT — a concrete dependence exists) or None (conflict budget ran
    out).  ``vacuous`` marks queries with no free source register in the
    sink's cone: independence holds trivially.
    """

    independent: bool | None
    vacuous: bool
    conflicts: int
    seconds: float


def check_noninterference(
    module: "Module",
    sink: E.Expr,
    sources: tuple[str, ...] | list[str],
    declassifiers: tuple[E.Expr, ...] = (),
    max_conflicts: int | None = 200_000,
) -> NIVerdict:
    """Is ``sink`` independent of the ``sources`` registers, modulo the
    ``declassifiers`` being tied equal across the two copies?"""
    start = time.perf_counter()
    roots = [sink, *declassifiers]
    cone = E.walk(roots)

    aig = Aig()

    def const_vec(width: int, value: int) -> Vec:
        return [1 if (value >> i) & 1 else 0 for i in range(width)]

    # shared leaf environment: every register and input free
    regs_a = {
        node.name: fresh_vec(aig, node.width)
        for node in cone
        if isinstance(node, E.RegRead)
    }
    inputs = {
        node.name: fresh_vec(aig, node.width)
        for node in cone
        if isinstance(node, E.Input)
    }
    mem_words: dict[str, list[Vec]] = {}
    for node in cone:
        if isinstance(node, E.MemRead) and node.mem not in mem_words:
            memory = module.memories[node.mem]
            size = 1 << memory.addr_width
            if memory.write_ports:
                # writable memory: shared symbolic content
                mem_words[node.mem] = [
                    fresh_vec(aig, memory.data_width) for _ in range(size)
                ]
            else:
                mem_words[node.mem] = [
                    const_vec(memory.data_width, memory.init.get(a, 0))
                    for a in range(size)
                ]

    blaster_a = BitBlaster(aig, regs=regs_a, inputs=inputs, mem_words=mem_words)
    vec_a = blaster_a.blast(sink)
    cut_vecs = [blaster_a.blast(cut) for cut in declassifiers]

    regs_b = dict(regs_a)
    freed = []
    for name in sources:
        vec = regs_a.get(name)
        if vec is None:
            continue  # not in the cone: nothing to free
        regs_b[name] = fresh_vec(aig, len(vec))
        freed.append(name)
    blaster_b = BitBlaster(aig, regs=regs_b, inputs=inputs, mem_words=mem_words)
    for cut, vec in zip(declassifiers, cut_vecs):
        blaster_b._memo[cut] = vec
    vec_b = blaster_b.blast(sink)

    diff = aig.or_many([aig.xor_(x, y) for x, y in zip(vec_a, vec_b)])
    if not freed or diff == 0:  # AIG FALSE: structurally identical copies
        return NIVerdict(
            independent=True,
            vacuous=not freed,
            conflicts=0,
            seconds=time.perf_counter() - start,
        )

    clauses, (root,) = to_cnf(aig, [diff])
    solver = Solver()
    solver.add_clauses(clauses)
    solver.add_clause([root])
    result = solver.solve(max_conflicts=max_conflicts)
    independent = (
        None if result.satisfiable is None else not result.satisfiable
    )
    return NIVerdict(
        independent=independent,
        vacuous=False,
        conflicts=result.conflicts,
        seconds=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class CrossCheckEntry:
    """One policy verdict paired with its SAT ground truth."""

    rule: str
    path: str
    static_clean: bool
    verdict: NIVerdict

    @property
    def contradicted(self) -> bool:
        """A static *clean* claim the solver refuted — a taint soundness
        bug (the reverse, static taint the solver cannot realise, is
        ordinary over-approximation and fine)."""
        return self.static_clean and self.verdict.independent is False


def crosscheck_policies(
    pipelined,
    max_conflicts: int | None = 200_000,
) -> list[CrossCheckEntry]:
    """Cross-check every absence-of-flow policy verdict of a pipelined
    machine against its two-copy SAT query."""
    from ..lint.taint import taint_verdicts

    entries: list[CrossCheckEntry] = []
    for verdict in taint_verdicts(pipelined):
        ni = check_noninterference(
            pipelined.module,
            verdict.sink,
            verdict.sources,
            declassifiers=verdict.declassifiers,
            max_conflicts=max_conflicts,
        )
        entries.append(
            CrossCheckEntry(
                rule=verdict.rule,
                path=verdict.path,
                static_clean=verdict.clean,
                verdict=ni,
            )
        )
    return entries
