"""Mechanical discharge of generated proof obligations.

Invariant obligations go to the SAT-based engines (k-induction first, then
bounded model checking as a fallback); trace obligations run the named
dynamic checker against the sequential reference.  Every outcome is
recorded with the method that produced it, so a report distinguishes
*proved* (inductive) from *bounded* (no violation within k steps) from
*tested* (holds on the exercised runs) — the same epistemic levels the
paper's PVS proofs vs. simulations occupy.

The work is exposed as pure functions (:func:`discharge_invariant_group`,
:func:`discharge_equivalence`, :func:`discharge_trace`): they depend only
on their arguments, so the orchestrator in :mod:`repro.jobs` can run them
in worker processes.  Every invariant is decided by one engine, the
shared incremental checker of :mod:`repro.formal.shared`, whether it
shares the unrolling with siblings or not.  The one front door that
discharges a whole obligation set is :func:`repro.jobs.discharge_jobs`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from ..core.consistency import (
    PipelinedTrace,
    SpecStateCache,
    check_data_consistency,
    check_liveness,
    compare_commit_streams,
    run_pipelined,
)
from ..core.scheduling import check_lemma1
from ..formal.equiv import check_equivalence
from ..core.transform import PipelinedMachine
from ..formal.bmc import TransitionSystem
from ..hdl.sim import Trace
from .instrument import instrument_scheduling
from .obligations import Obligation, ObligationKind, ObligationSet


class Status(Enum):
    PROVED = "proved"  # k-inductive on the netlist
    BOUNDED = "bounded"  # no violation within the BMC bound
    TRACE_OK = "trace-ok"  # dynamic checker passed
    FAILED = "failed"  # concrete counterexample / checker violation
    UNKNOWN = "unknown"  # engines exhausted without a verdict


@dataclass
class DischargeRecord:
    """Outcome of discharging one obligation.

    ``conflicts`` and ``frames`` profile the formal engines (total solver
    conflicts, peak unrolled frame count); both stay 0 for trace and
    equivalence obligations.
    """

    oid: str
    title: str
    status: Status
    method: str
    detail: str = ""
    seconds: float = 0.0
    conflicts: int = 0
    frames: int = 0

    @property
    def ok(self) -> bool:
        return self.status in (Status.PROVED, Status.BOUNDED, Status.TRACE_OK)


def resolve_properties(
    pipelined: PipelinedMachine, obligations: ObligationSet
) -> None:
    """Materialise obligations whose property needs the machine at hand.

    The instrumented Lemma 1 property must exist before the transition
    system is extracted, so the scheduling counters are part of it.
    """
    for obligation in obligations.invariants():
        if obligation.oid == "lemma1.full_iff_diff" and obligation.prop is None:
            obligation.prop = instrument_scheduling(pipelined)


def build_trace(pipelined: PipelinedMachine, trace_cycles: int) -> PipelinedTrace:
    """The one pipelined run all trace obligations of a machine read
    (:func:`repro.core.run_pipelined`): its trace, and for a machine
    without speculation the visible-state snapshots data consistency
    checks."""
    return run_pipelined(pipelined.machine, pipelined.module, trace_cycles)


def discharge_invariant_group(
    system: TransitionSystem,
    obligations: Sequence[Obligation],
    max_k: int = 2,
    bmc_bound: int = 8,
    max_conflicts: int | None = None,
    member_timeout: float | None = None,
) -> Iterator[tuple[int, DischargeRecord]]:
    """Discharge a family of invariant obligations over **one** shared
    unrolling (:class:`repro.formal.shared.SharedContext`), yielding
    ``(index, record)`` pairs in obligation order.

    Each member walks the same escalation — k-induction at k =
    1..``max_k``, then BMC to ``bmc_bound`` — through the shared context;
    only the symbolic build and the solver's learned state are shared.
    Streaming the records (rather than returning a list) lets a worker
    ship each verdict over its pipe the moment it lands, so a member that
    times out or a worker that dies mid-group never costs its
    already-finished siblings.  A member whose engine raises degrades to
    ``unknown`` with method ``group-error`` and the exception as its
    detail; its siblings carry on.

    ``member_timeout`` is the per-obligation wall-clock budget *inside*
    the group, enforced cooperatively through the solver's interrupt
    callback; a member that exhausts it yields the same ``timeout(..s)``
    shape the worker pool's hard deadline produces.
    """
    from ..formal.shared import SharedContext, SharedMember

    for obligation in obligations:
        assert (
            obligation.kind is ObligationKind.INVARIANT
            and obligation.prop is not None
        )
    context = SharedContext(
        system,
        [
            SharedMember(obligation.prop, tuple(obligation.assume))
            for obligation in obligations
        ],
        max_conflicts=max_conflicts,
    )
    for index, obligation in enumerate(obligations):
        start = time.perf_counter()
        deadline = (
            start + member_timeout if member_timeout is not None else None
        )
        context.interrupt = (
            (lambda d=deadline: time.perf_counter() >= d)
            if deadline is not None
            else None
        )

        def record_of(status: Status, method: str, detail: str = "") -> DischargeRecord:
            return DischargeRecord(
                oid=obligation.oid,
                title=obligation.title,
                status=status,
                method=method,
                detail=detail,
                seconds=time.perf_counter() - start,
                conflicts=context.conflicts[index],
                frames=context.frames,
            )

        try:
            record = None
            for k in range(1, max_k + 1):
                result = context.k_induction(index, k)
                if result.holds is True:
                    record = record_of(Status.PROVED, f"{k}-induction")
                    break
                if result.holds is False:
                    record = record_of(
                        Status.FAILED, result.method, str(result.counterexample)
                    )
                    break
            if record is None:
                result = context.bmc_to(index, bmc_bound)
                if result.holds is True:
                    record = record_of(Status.BOUNDED, f"bmc({bmc_bound})")
                elif result.holds is False:
                    record = record_of(
                        Status.FAILED,
                        f"bmc({result.bound})",
                        str(result.counterexample),
                    )
                else:
                    record = record_of(Status.UNKNOWN, "exhausted")
        except Exception as exc:  # one sick member must not kill the group
            record = record_of(Status.UNKNOWN, "group-error", repr(exc))

        timed_out = deadline is not None and time.perf_counter() >= deadline
        if timed_out:
            # Strict wall budget, matching the worker pool's hard deadline:
            # past it, even a verdict the solver reached late is discarded.
            record = DischargeRecord(
                oid=obligation.oid,
                title=obligation.title,
                status=Status.UNKNOWN,
                method=f"timeout({member_timeout:g}s)",
                detail="solver interrupted at the per-obligation"
                " deadline inside a shared group",
                seconds=time.perf_counter() - start,
                conflicts=context.conflicts[index],
                frames=context.frames,
            )
        yield index, record


def discharge_equivalence(obligation: Obligation) -> DischargeRecord:
    """Discharge one combinational-equivalence obligation with the SAT miter."""
    assert obligation.kind is ObligationKind.EQUIVALENCE
    assert obligation.equiv is not None
    start = time.perf_counter()
    result = check_equivalence(*obligation.equiv)
    return DischargeRecord(
        oid=obligation.oid,
        title=obligation.title,
        status=Status.PROVED if result.equivalent else Status.FAILED,
        method="sat-equivalence",
        detail=""
        if result.equivalent
        else f"witness: regs={result.witness_regs}",
        seconds=time.perf_counter() - start,
    )


def discharge_trace(
    pipelined: PipelinedMachine,
    obligation: Obligation,
    trace: Trace | None = None,
    trace_cycles: int = 200,
    liveness_bound: int | None = None,
    spec_cache: SpecStateCache | None = None,
    seq_side: tuple[dict[str, list[tuple]], int] | None = None,
) -> DischargeRecord:
    """Discharge one trace obligation by running its dynamic checker.

    ``trace`` lets callers share one pipelined run across the trace
    obligations of a machine; it is rebuilt on demand when omitted.  A
    :func:`build_trace` result carries the consistency checker's
    per-cycle snapshots with it, so every checker reads that one run and
    only the sequential reference is simulated here.

    ``spec_cache`` (a :class:`repro.core.SpecStateCache`) and
    ``seq_side`` (a :func:`repro.core.seq_commit_side` result) hand in
    that sequential reference instead: the fault campaign simulates it
    once per core and shares it among the mutants built on the core's
    machine.
    """
    assert obligation.kind is ObligationKind.TRACE
    start = time.perf_counter()
    n = pipelined.n_stages
    bound = liveness_bound if liveness_bound is not None else 8 * n
    if trace is None:
        trace = build_trace(pipelined, trace_cycles)
    if obligation.checker == "lemma1":
        result = check_lemma1(trace, n)
        ok, detail = result.ok, "; ".join(result.violations[:3])
    elif obligation.checker == "consistency":
        consistency = check_data_consistency(
            pipelined.machine,
            pipelined.module,
            cycles=trace_cycles,
            trace=trace,
            spec_cache=spec_cache,
        )
        ok, detail = consistency.ok, "; ".join(consistency.violations[:3])
    elif obligation.checker == "commit_streams":
        streams = compare_commit_streams(
            pipelined.machine,
            pipelined.module,
            cycles=trace_cycles,
            pipe_trace=trace,
            seq_side=seq_side,
        )
        ok, detail = streams.ok, "; ".join(streams.violations[:3])
    elif obligation.checker == "liveness":
        liveness = check_liveness(trace, n, bound=bound)
        ok = liveness.ok
        detail = (
            f"worst latency {liveness.worst_latency} of bound {bound}"
            f" over {liveness.instructions_checked} instructions"
        )
    else:
        raise ValueError(f"unknown trace checker {obligation.checker!r}")
    return DischargeRecord(
        oid=obligation.oid,
        title=obligation.title,
        status=Status.TRACE_OK if ok else Status.FAILED,
        method=f"trace({trace_cycles} cycles)",
        detail=detail,
        seconds=time.perf_counter() - start,
    )
