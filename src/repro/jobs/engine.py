"""Parallel, cached discharge orchestrator.

:func:`discharge_jobs` drives a machine's proof-obligation set through

1. **fingerprinting** — each obligation is content-hashed over its property,
   the cone-of-influence slice of the transition system and the engine
   parameters (:mod:`repro.proofs.fingerprint`);
2. **cache lookup** — obligations whose fingerprint has a stored verdict in
   the on-disk cache (:mod:`repro.jobs.cache`) are skipped outright;
3. **discharge** — cache misses become *tasks*, the one scheduling unit:
   an invariant group (:func:`_partition_groups`, possibly of a single
   member) that one shared unrolling and solver decides
   (:mod:`repro.formal.shared`, via
   :func:`repro.proofs.discharge.discharge_invariant_group`), or one
   equivalence obligation.  Tasks run in forked worker processes, or
   in-process when one worker and no timeout are asked for; either way
   each task streams ``(index, record)`` per member through
   :func:`_solver_record` and settles by one rule: streamed records
   stand, the member on the bench when the task stopped early is retried
   or quarantined, and the members after it rejoin the queue as one task.
   A per-obligation wall-clock timeout is enforced cooperatively through
   the solver's interrupt callback, with a parent-side backstop that kills
   a worker showing no sign of life, and degrades the obligation to
   ``Status.UNKNOWN``; one hard instance never hangs or aborts the run.
   Workers run under optional rlimit memory/CPU caps.  A worker that dies
   abnormally (signal, OOM kill, ``os._exit``) has its bench member
   retried with jittered exponential backoff and finally quarantined as a
   structured ``crashed`` outcome;
4. **reporting** — per-obligation timing and provenance (cache / worker /
   group / inline / timeout), cache hit rate, per-worker busy time and
   aggregate status counts, as human-readable text and as a JSON
   document.  Outcomes are ordered by obligation id — not completion
   order — so reports and ``--profile`` tables diff cleanly across runs.

Trace obligations run inline in the orchestrator, every checker reading
one pipelined simulation of the machine.  Everything SAT-shaped
(invariants, equivalences) is parallel-safe and timeout-guarded.

Worker processes use the ``fork`` start method, so the transition system
and expression DAGs are inherited copy-on-write — nothing is pickled on the
way in; only the small result records cross the pipe on the way out.
Where ``fork`` is unavailable the engine falls back to in-process
sequential discharge (timeouts then stay cooperative).
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from ..analysis.family import FamilyContext

from ..core.transform import PipelinedMachine
from ..formal.bmc import TransitionSystem
from ..hdl import expr as E
from ..proofs.discharge import (
    DischargeRecord,
    Status,
    build_trace,
    discharge_equivalence,
    discharge_invariant_group,
    discharge_trace,
    resolve_properties,
)
from ..proofs.obligations import Obligation, ObligationKind, ObligationSet
from .cache import ResultCache


@dataclass(frozen=True)
class EngineParams:
    """Engine knobs.

    Everything that can change a *verdict* is part of every obligation's
    fingerprint (see :meth:`invariant_params`).  The robustness knobs —
    ``max_retries`` and the worker resource limits — only affect whether a
    verdict is reached at all, so they stay out of the fingerprint and a
    rerun with different limits still hits the cache.  Invariant mining
    (:mod:`repro.absint`) is not a knob: it runs whenever an obligation
    is headed to a solver, and the assumptions it injects are hashed
    with the obligation.  Neither is width-family proof reuse: passing a
    :class:`repro.analysis.family.FamilyContext` to :func:`discharge_jobs`
    turns it on.
    """

    max_k: int = 2
    bmc_bound: int = 8
    trace_cycles: int = 200
    liveness_bound: int | None = None
    max_conflicts: int | None = None
    # crash quarantine: how often a crashed (signalled / vanished) worker
    # is retried, with exponential backoff, before the obligation is
    # recorded as ``crashed``.  Timeouts are never retried (deterministic).
    max_retries: int = 1
    # rlimits applied inside each worker; None = unlimited
    mem_limit_mb: int | None = None
    cpu_limit_s: int | None = None

    def __post_init__(self) -> None:
        # a trace of no cycles or a negative bound checks nothing, and the
        # verdict it gave would be cached as if it had
        for name, floor in (
            ("trace_cycles", 1),
            ("max_k", 0),
            ("bmc_bound", 0),
            ("liveness_bound", 0),
            ("max_conflicts", 0),
        ):
            value = getattr(self, name)
            if value is None and name in ("liveness_bound", "max_conflicts"):
                continue
            if not isinstance(value, int) or value < floor:
                raise ValueError(f"{name} must be an integer >= {floor}, not {value!r}")

    def invariant_params(self) -> dict[str, object]:
        return {
            "max_k": self.max_k,
            "bmc_bound": self.bmc_bound,
            "max_conflicts": self.max_conflicts,
        }

    def trace_params(self, checker: str, n_stages: int) -> dict[str, object]:
        params: dict[str, object] = {"trace_cycles": self.trace_cycles}
        if checker == "liveness":
            bound = (
                self.liveness_bound
                if self.liveness_bound is not None
                else 8 * n_stages
            )
            params["bound"] = bound
        return params


@dataclass
class JobOutcome:
    """One obligation's discharge record plus its provenance."""

    record: DischargeRecord
    fingerprint: str | None
    # "cache" | "family" | "group" | "worker" | "inline" | "timeout" |
    # "crashed" | "lint" | "taint" — "group" marks an invariant verdict of
    # a shared-unrolling group (repro.formal.shared); "worker" / "inline"
    # an equivalence verdict from a forked worker / the orchestrator
    source: str
    worker: int = -1
    attempts: int = 1  # worker launches this obligation consumed

    def to_dict(self) -> dict[str, object]:
        return {
            "oid": self.record.oid,
            "title": self.record.title,
            "status": self.record.status.value,
            "method": self.record.method,
            "detail": self.record.detail,
            "seconds": round(self.record.seconds, 6),
            "conflicts": self.record.conflicts,
            "frames": self.record.frames,
            "source": self.source,
            "worker": self.worker,
            "attempts": self.attempts,
            "fingerprint": self.fingerprint,
        }


@dataclass
class JobReport:
    """Structured outcome of one orchestrated discharge run."""

    machine_name: str
    jobs: int
    timeout: float | None
    outcomes: list[JobOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    crashes: int = 0  # abnormal worker terminations observed (pre-retry)
    retries: int = 0  # crashed launches that were retried
    worker_seconds: dict[int, float] = field(default_factory=dict)
    # formatted ERROR-level lint findings when the lint gate tripped and
    # the run failed fast without invoking any solver
    lint_errors: list[str] = field(default_factory=list)
    # formatted ERROR-level non-interference findings when the taint gate
    # tripped (speculative state reaching architectural sinks unguarded)
    taint_errors: list[str] = field(default_factory=list)
    # invariant-mining summary when repro.absint ran (candidate/proven
    # counts, proven invariant names, mining seconds, cache provenance)
    absint: dict | None = None
    # family-proof summary when a FamilyContext was active (certified /
    # served / seeded counters, see repro.analysis.family)
    family: dict | None = None

    @property
    def records(self) -> list[DischargeRecord]:
        return [outcome.record for outcome in self.outcomes]

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    @property
    def failed(self) -> list[DischargeRecord]:
        return [r for r in self.records if r.status is Status.FAILED]

    @property
    def unknown(self) -> list[DischargeRecord]:
        return [r for r in self.records if r.status is Status.UNKNOWN]

    def counts(self) -> dict[str, int]:
        result: dict[str, int] = {}
        for record in self.records:
            result[record.status.value] = result.get(record.status.value, 0) + 1
        return result

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def utilisation(self) -> float:
        """Busy worker-seconds over available worker-seconds."""
        if not self.wall_seconds or not self.jobs:
            return 0.0
        busy = sum(self.worker_seconds.values())
        return min(1.0, busy / (self.jobs * self.wall_seconds))

    def to_dict(self) -> dict[str, object]:
        return {
            "machine": self.machine_name,
            "ok": self.ok,
            "jobs": self.jobs,
            "timeout": self.timeout,
            "wall_seconds": round(self.wall_seconds, 6),
            "counts": self.counts(),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.hit_rate, 4),
            },
            "lint_errors": list(self.lint_errors),
            "taint_errors": list(self.taint_errors),
            "absint": self.absint,
            "family": self.family,
            "workers": {
                "count": self.jobs,
                "crashes": self.crashes,
                "retries": self.retries,
                "busy_seconds": {
                    str(slot): round(seconds, 6)
                    for slot, seconds in sorted(self.worker_seconds.items())
                },
                "utilisation": round(self.utilisation, 4),
            },
            "obligations": [outcome.to_dict() for outcome in self.outcomes],
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_text(self) -> str:
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(self.counts().items()))
        lines = [
            f"{self.machine_name}: {len(self.outcomes)} obligations"
            f" ({counts}) in {self.wall_seconds:.2f}s wall",
            f"  cache: {self.cache_hits} hits / {self.cache_misses} misses"
            f" ({self.hit_rate:.0%} hit rate)",
            f"  workers: {self.jobs} x"
            f" {self.utilisation:.0%} utilised"
            + (f", timeout {self.timeout:g}s/obligation" if self.timeout else "")
            + (
                f", {self.crashes} crash(es) / {self.retries} retried"
                if self.crashes
                else ""
            ),
        ]
        if self.absint is not None:
            provenance = " (cached)" if self.absint.get("from_cache") else ""
            lines.append(
                f"  absint: {self.absint.get('proven', 0)}/"
                f"{self.absint.get('candidates', 0)} invariants proven"
                f" in {self.absint.get('seconds', 0.0):.2f}s{provenance}"
            )
        if self.family is not None:
            lines.append(
                f"  family: {self.family.get('certified', 0)} certified,"
                f" {self.family.get('served', 0)} served,"
                f" {self.family.get('seeded', 0)} seeded"
            )
        for finding in self.lint_errors:
            lines.append(f"  LINT    {finding[:110]}")
        for finding in self.taint_errors:
            lines.append(f"  TAINT   {finding[:110]}")
        for record in self.failed:
            lines.append(f"  FAILED  {record.oid}: {record.detail[:100]}")
        for record in self.unknown:
            lines.append(f"  UNKNOWN {record.oid} ({record.method})")
        # a served verdict carries the seconds of the solve that stored it
        slowest = sorted(
            (o for o in self.outcomes if o.source not in ("cache", "family")),
            key=lambda o: (-round(o.record.seconds, 3), o.record.oid),
        )[:3]
        for outcome in slowest:
            record = outcome.record
            lines.append(
                f"  slowest: {record.oid} {record.seconds:.2f}s"
                f" ({record.method}, {outcome.source})"
            )
        return "\n".join(lines)

    def format_profile(self) -> str:
        """Per-obligation profile table: wall-clock, solver conflicts and
        peak unrolled frame count, hottest first (``repro discharge
        --profile``).  Ties (and near-ties, within a millisecond) break
        on obligation id so the table is stable run over run."""
        ordered = sorted(
            self.outcomes,
            key=lambda o: (-round(o.record.seconds, 3), o.record.oid),
        )
        oid_width = max([len(o.record.oid) for o in ordered] + [len("obligation")])
        header = (
            f"  {'obligation':<{oid_width}} {'seconds':>9} {'conflicts':>9}"
            f" {'frames':>6}  method (source)"
        )
        lines = [header, "  " + "-" * (len(header) - 2)]
        for outcome in ordered:
            record = outcome.record
            lines.append(
                f"  {record.oid:<{oid_width}} {record.seconds:>9.3f}"
                f" {record.conflicts:>9} {record.frames:>6}"
                f"  {record.method} ({outcome.source})"
            )
        return "\n".join(lines)


@dataclass
class _Task:
    """The one scheduling unit: an invariant group from
    :func:`_partition_groups` (possibly of a single member) or one
    equivalence obligation.  ``members`` are ``(position, obligation,
    fingerprint)`` triples in the order the task's stream reports them."""

    members: list[tuple[int, Obligation, str | None]]
    attempts: int = 0  # launches consumed so far
    not_before: float = 0.0  # perf_counter backoff gate after a crash

    @property
    def obligations(self) -> list[Obligation]:
        return [obligation for _, obligation, _ in self.members]


@dataclass
class _Running:
    task: _Task
    process: multiprocessing.process.BaseProcess
    connection: multiprocessing.connection.Connection
    started: float
    slot: int
    # member records streamed so far, and when the last one (or the
    # launch) happened — the parent's backstop deadline is per *member*,
    # measured from the last sign of life
    done: dict[int, DischargeRecord] = field(default_factory=dict)
    last_activity: float = 0.0
    error: str | None = None  # the stream raised: repr of the exception


def default_jobs() -> int:
    """Worker count: the CPUs this process may actually run on."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _solver_record(
    system: TransitionSystem,
    obligations: list[Obligation],
    params: EngineParams,
    member_timeout: float | None,
):
    """Stream ``(index, record)`` for one task's obligations.

    The one solver seam of the engine: worker processes and the inline
    path discharge every task through it.  It is module-level so the
    robustness tests and the chaos harness can wrap it — forked children
    inherit a monkeypatched binding from the parent process."""
    if obligations[0].kind is ObligationKind.INVARIANT:
        yield from discharge_invariant_group(
            system,
            obligations,
            max_k=params.max_k,
            bmc_bound=params.bmc_bound,
            max_conflicts=params.max_conflicts,
            member_timeout=member_timeout,
        )
        return
    record = discharge_equivalence(obligations[0])
    if member_timeout is not None and record.seconds >= member_timeout:
        # the same strict budget a group member gets: a late verdict is
        # discarded
        record = _timeout_record(obligations[0], member_timeout, record.seconds)
    yield 0, record


def _worker_init(params: EngineParams) -> None:
    """Per-worker process setup: resource caps and signal hygiene.

    The parent may have installed drain handlers for SIGTERM (see
    :func:`_install_drain_handlers`); a forked worker inherits them, but
    for a worker SIGTERM means *die now* (the parent kills overrunning
    workers with it), so it is reset to the default disposition."""
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    _apply_rlimits(params.mem_limit_mb, params.cpu_limit_s)


def _apply_rlimits(mem_limit_mb: int | None, cpu_limit_s: int | None) -> None:
    """Cap a worker's address space / CPU time via ``resource`` rlimits.

    An overrun surfaces as ``MemoryError`` (caught: ``group-error`` or
    ``worker-error``) or ``SIGXCPU`` (kills the worker: quarantined as
    ``crashed``) — either way one greedy obligation cannot take the host
    or the run down.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    if mem_limit_mb is not None:
        limit = mem_limit_mb << 20
        try:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ValueError, OSError):  # pragma: no cover - privileged caps
            pass
    if cpu_limit_s is not None:
        try:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_limit_s, cpu_limit_s + 1))
        except (ValueError, OSError):  # pragma: no cover - privileged caps
            pass


def _worker_main(
    system: TransitionSystem,
    obligations: list[Obligation],
    params: EngineParams,
    member_timeout: float | None,
    connection: multiprocessing.connection.Connection,
) -> None:
    """Child-process entry: ship each record of one task the moment it
    lands, so the parent keeps finished verdicts when a later member
    kills the worker.  The intern table is scoped to the task, which
    keeps the copy-on-write pages clean."""
    _worker_init(params)
    try:
        with E.scoped_intern():
            for index, record in _solver_record(
                system, obligations, params, member_timeout
            ):
                connection.send((index, record))
    except Exception as exc:
        # the stream itself failed (the shared build, say): tell the
        # parent, which degrades the member on the bench to worker-error
        try:
            connection.send((None, repr(exc)))
        except Exception:  # the pipe is gone: the parent sees a crash
            pass
    finally:
        connection.close()


def _timeout_record(
    obligation: Obligation, timeout: float, elapsed: float
) -> DischargeRecord:
    return DischargeRecord(
        oid=obligation.oid,
        title=obligation.title,
        status=Status.UNKNOWN,
        method=f"timeout({timeout:g}s)",
        detail="worker terminated at the per-obligation deadline",
        seconds=elapsed,
    )


def _crash_record(
    obligation: Obligation, attempts: int, exitcode: int | None, elapsed: float
) -> DischargeRecord:
    """The structured outcome of a worker that died without a verdict."""
    if exitcode is not None and exitcode < 0:
        signum = -exitcode
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        method = f"crashed(signal {signum})"
        detail = f"worker killed by {name} after {attempts} attempt(s)"
    else:
        method = "crashed(no-result)"
        detail = (
            f"worker exited with status {exitcode} without a verdict"
            f" after {attempts} attempt(s)"
        )
    return DischargeRecord(
        oid=obligation.oid,
        title=obligation.title,
        status=Status.UNKNOWN,
        method=method,
        detail=detail,
        seconds=elapsed,
    )


# first-retry backoff cap after a worker crash; the cap doubles per
# attempt and the actual delay is drawn uniformly from [0, cap] ("full
# jitter"): when several workers die at once — one bad machine image, an
# OOM sweep — their relaunches must not retry in lockstep and stampede
# the host again
_RETRY_BACKOFF = 0.25


def _retry_delay(attempts: int) -> float:
    """Full-jitter exponential backoff for crashed-worker relaunches.

    ``attempts`` counts launches already consumed; the delay before
    launch ``attempts + 1`` is uniform over ``[0, _RETRY_BACKOFF *
    2**(attempts-1)]``.  The upper bound is exactly the old deterministic
    schedule, so the worst case is unchanged."""
    cap = _RETRY_BACKOFF * 2 ** max(0, attempts - 1)
    return random.uniform(0.0, cap)


def _install_drain_handlers() -> Callable[[], None]:
    """Route SIGTERM into ``KeyboardInterrupt`` while the pool runs.

    Without this a SIGTERM kills the orchestrator outright, orphaning
    the forked workers and any half-written temp files; with it the
    signal unwinds through :func:`_run_tasks`'s ``finally`` block, which
    terminates and reaps every in-flight worker first.  SIGINT already
    raises ``KeyboardInterrupt`` natively.  Only the main thread may
    install handlers; elsewhere (the service discharges from executor
    threads and drains at the asyncio layer) this is a no-op.  Returns a
    restore callable."""
    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    def _raise(signum: int, frame: object) -> None:
        raise KeyboardInterrupt(f"drain on signal {signum}")

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        return lambda: None

    def restore() -> None:
        try:
            signal.signal(signal.SIGTERM, previous)
        except (ValueError, OSError):  # pragma: no cover
            pass

    return restore

# The per-obligation timeout is enforced cooperatively inside a task (the
# solver's interrupt callback); the parent only kills a worker that shows
# *no sign of life* for a full member budget plus this grace — slack for
# the shared symbolic build and for interrupt-poll granularity.
_GROUP_GRACE = 5.0

# smallest batch worth one shared build of its own
_MIN_GROUP = 4


def _partition_groups(
    members: list[tuple[int, Obligation, str | None]], jobs: int
) -> list[_Task]:
    """Split the invariant cache misses into contiguous, balanced groups.

    Group count is ``min(jobs, len // _MIN_GROUP)`` (at least one): enough
    groups to keep the pool busy, each big enough that the shared
    unrolling amortises.  Contiguity keeps obligation families (the
    ``stall.*`` battery, the lemma pieces) in one solver, where their
    learned clauses help each other most.
    """
    if not members:
        return []
    n_groups = min(jobs, max(1, len(members) // _MIN_GROUP))
    base, extra = divmod(len(members), n_groups)
    groups: list[_Task] = []
    start = 0
    for g in range(n_groups):
        size = base + (1 if g < extra else 0)
        groups.append(_Task(members=members[start : start + size]))
        start += size
    return groups


def _run_tasks(
    tasks: list[_Task],
    system: TransitionSystem,
    params: EngineParams,
    jobs: int,
    timeout: float | None,
    pool: bool,
    report: JobReport,
    settle: Callable[[int, JobOutcome], None],
) -> None:
    """Discharge every task — in forked workers when ``pool``, else in
    process — and ``settle`` each member's outcome exactly once.

    Both paths stream ``(index, record)`` per member and conclude a task
    by one rule.  Streamed records stand.  If the task stopped before its
    last member, the member on the bench — the first without a record —
    is decided by how it stopped: the stream raised (``worker-error``),
    the parent's backstop killed a silent worker (``timeout``), or the
    worker died (relaunched alone after a jittered backoff while it has
    retries left, then quarantined as ``crashed``; its attempt count
    includes the launch it died in).  The members after it rejoin the
    queue as one fresh task, so a poisoned obligation never costs its
    healthy siblings twice.  Timeouts are never retried: the budget is
    deterministic, a relaunch would just burn it again.

    Inside a task the per-member timeout is enforced cooperatively by the
    stream itself; the pool keeps only a generous backstop (``timeout +
    _GROUP_GRACE`` since the last streamed record) for a worker that
    stops responding entirely.  Per-slot busy seconds and crash / retry
    counts go into ``report``.
    """
    pending = list(reversed(tasks))

    def conclude(
        task: _Task,
        done: dict[int, DischargeRecord],
        slot: int,
        elapsed: float,
        error: str | None = None,
        killed: bool = False,
        exitcode: int | None = None,
    ) -> None:
        report.worker_seconds[slot] = report.worker_seconds.get(slot, 0.0) + elapsed
        if task.members[0][1].kind is ObligationKind.INVARIANT:
            kind = "group"
        else:
            kind = "worker" if pool else "inline"

        def outcome(member, record: DischargeRecord, source: str) -> None:
            position, _obligation, fingerprint = member
            settle(
                position,
                JobOutcome(
                    record=record,
                    fingerprint=fingerprint,
                    source=source,
                    worker=slot if pool else -1,
                    attempts=task.attempts,
                ),
            )

        missing = []
        for index, member in enumerate(task.members):
            record = done.get(index)
            if record is None:
                missing.append(member)
            else:
                timed_out = record.method.startswith("timeout(")
                outcome(member, record, "timeout" if timed_out else kind)
        if not missing:
            return
        bench, rest = missing[0], missing[1:]
        _, obligation, _ = bench
        if error is not None:
            outcome(
                bench,
                DischargeRecord(
                    oid=obligation.oid,
                    title=obligation.title,
                    status=Status.UNKNOWN,
                    method="worker-error",
                    detail=error,
                ),
                kind,
            )
        elif killed:
            outcome(bench, _timeout_record(obligation, timeout, elapsed), "timeout")
        else:
            report.crashes += 1
            if task.attempts > params.max_retries:
                record = _crash_record(obligation, task.attempts, exitcode, elapsed)
                outcome(bench, record, "crashed")
            else:
                report.retries += 1
                pending.append(
                    _Task(
                        [bench],
                        attempts=task.attempts,
                        not_before=time.perf_counter() + _retry_delay(task.attempts),
                    )
                )
        if rest:
            pending.append(_Task(rest))

    if not pool:
        while pending:
            task = pending.pop()
            task.attempts += 1
            done: dict[int, DischargeRecord] = {}
            error = None
            start = time.perf_counter()
            try:
                # the orchestrator's own intern table: scope it so
                # repeated task discharges cannot grow it without bound
                with E.scoped_intern():
                    for index, record in _solver_record(
                        system, task.obligations, params, timeout
                    ):
                        done[index] = record
            except Exception as exc:
                error = repr(exc)
            conclude(task, done, 0, time.perf_counter() - start, error=error)
        return

    ctx = multiprocessing.get_context("fork")
    in_flight: list[_Running] = []
    free_slots = list(reversed(range(jobs)))

    def reap(running: _Running, killed: bool = False) -> None:
        running.connection.close()
        running.process.join()
        free_slots.append(running.slot)
        conclude(
            running.task,
            running.done,
            running.slot,
            time.perf_counter() - running.started,
            error=running.error,
            killed=killed,
            exitcode=running.process.exitcode,
        )

    def _pool_loop() -> None:
        nonlocal in_flight
        while pending or in_flight:
            now = time.perf_counter()
            while pending and free_slots:
                index = next(
                    (
                        i
                        for i in range(len(pending) - 1, -1, -1)
                        if pending[i].not_before <= now
                    ),
                    None,
                )
                if index is None:  # every runnable task is backing off
                    break
                task = pending.pop(index)
                task.attempts += 1
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main,
                    args=(system, task.obligations, params, timeout, child_conn),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                started = time.perf_counter()
                in_flight.append(
                    _Running(
                        task=task,
                        process=process,
                        connection=parent_conn,
                        started=started,
                        slot=free_slots.pop(),
                        last_activity=started,
                    )
                )

            now = time.perf_counter()
            wakeups: list[float] = []
            if timeout is not None:
                wakeups.extend(
                    running.last_activity + timeout + _GROUP_GRACE
                    for running in in_flight
                )
            if free_slots and pending:  # a backoff expiry could start work
                wakeups.extend(task.not_before for task in pending)
            wait_for = max(0.0, min(wakeups) - now) if wakeups else None
            if in_flight:
                ready = multiprocessing.connection.wait(
                    [running.connection for running in in_flight], timeout=wait_for
                )
            else:  # only backing-off tasks remain: sleep out the earliest gate
                time.sleep(wait_for or 0.0)
                ready = []

            still_running: list[_Running] = []
            for running in in_flight:
                if running.connection in ready:
                    try:
                        # drain every queued message; at pipe EOF poll()
                        # reports readable and recv raises
                        while running.connection.poll():
                            index, record = running.connection.recv()
                            if index is None:
                                running.error = record
                            else:
                                running.done[index] = record
                            running.last_activity = time.perf_counter()
                    except (EOFError, OSError):
                        reap(running)
                        continue
                elif (
                    timeout is not None
                    and time.perf_counter() - running.last_activity
                    >= timeout + _GROUP_GRACE
                ):
                    running.process.terminate()
                    running.process.join(1.0)
                    if running.process.is_alive():  # pragma: no cover
                        running.process.kill()
                    reap(running, killed=True)
                    continue
                still_running.append(running)
            in_flight = still_running

    restore_signals = _install_drain_handlers()
    try:
        _pool_loop()
    finally:
        restore_signals()
        # Drain path: on any unwind (SIGTERM/SIGINT routed here by the
        # drain handlers, or an orchestrator bug) no forked worker may
        # outlive the pool and no pipe may leak.
        for running in in_flight:
            try:
                running.process.terminate()
                running.process.join(1.0)
                if running.process.is_alive():  # pragma: no cover - stuck
                    running.process.kill()
                    running.process.join(1.0)
            except OSError:  # pragma: no cover - already reaped
                pass
            try:
                running.connection.close()
            except OSError:  # pragma: no cover
                pass


def discharge_jobs(
    pipelined: PipelinedMachine,
    obligations: ObligationSet,
    params: EngineParams | None = None,
    jobs: int | None = None,
    timeout: float | None = None,
    cache: ResultCache | None = None,
    lint_gate: bool = True,
    taint_gate: bool = True,
    on_outcome: Callable[[JobOutcome], None] | None = None,
    family: "FamilyContext | None" = None,
) -> JobReport:
    """Discharge an obligation set with caching and a worker pool.

    ``jobs=None`` uses every available CPU; ``timeout`` is the wall-clock
    budget of a single obligation (``None`` = unbounded); ``cache=None``
    disables the on-disk cache.

    The invariant cache misses are batched into groups that each
    discharge over one shared unrolling and solver
    (:mod:`repro.formal.shared`); each equivalence miss is a task of its
    own.  The pool distributes tasks, with per-obligation timeouts
    enforced inside a task through the solver's interrupt callback (see
    :func:`_run_tasks` for the settle rule after a crash or kill).

    With ``lint_gate=True`` (the default) the machine is first run through
    :func:`repro.lint.lint_pipeline`; ERROR-level findings fail every
    obligation fast with method ``"lint-gate"`` — a structurally broken
    netlist would only waste solver time producing vacuous or confusing
    counterexamples.  ``taint_gate=True`` (also the default) then runs the
    speculation-aware non-interference policies
    (:func:`repro.lint.lint_taint`) the same way with method
    ``"taint-gate"``: a design whose speculative state escapes its commit
    guards is wrong regardless of what the per-obligation solvers say.

    ``family`` is an optional :class:`repro.analysis.family.FamilyContext`;
    passing one is what turns width-family proof reuse on.  Before
    anything is fingerprinted or mined, each *raw* obligation whose family
    certificate covers this width is served from the family cache under
    its width-erased fingerprint — one stored verdict covers every width
    of the family — and after the solve, freshly proved certified
    obligations seed that cache.  Serves re-validate the instantiated
    template against the obligation's actual serialization, so a
    certificate can never alias a different obligation.

    ``on_outcome`` is an optional observer invoked with each
    :class:`JobOutcome` the moment it is final (cache hit, solver
    verdict, timeout, crash quarantine, gate failure) — the streaming
    seam the discharge service (:mod:`repro.service`) uses to fan
    verdicts out to clients while the run is still in flight.  It is
    called from the orchestrating thread, exactly once per obligation,
    and exceptions it raises are swallowed.
    """
    from .. import lint

    params = params or EngineParams()
    jobs = max(1, jobs if jobs is not None else default_jobs())
    started = time.perf_counter()

    def emit(outcome: JobOutcome) -> JobOutcome:
        if on_outcome is not None:
            try:  # a broken observer must never take the run down
                on_outcome(outcome)
            except Exception:
                pass
        return outcome

    gates = (
        (lint_gate, lint.lint_pipeline, "lint", "static lint"),
        (taint_gate, lint.lint_taint, "taint", "non-interference policy"),
    )
    for enabled, check, name, checker in gates:
        findings = check(pipelined).errors if enabled else []
        if not findings:
            continue
        report = JobReport(
            machine_name=obligations.machine_name,
            jobs=jobs,
            timeout=timeout,
            **{f"{name}_errors": [finding.format() for finding in findings]},
        )
        detail = "; ".join(
            f"{finding.rule} @ {finding.path}" for finding in findings[:5]
        )
        for obligation in obligations:
            report.outcomes.append(
                emit(
                    JobOutcome(
                        record=DischargeRecord(
                            oid=obligation.oid,
                            title=obligation.title,
                            status=Status.FAILED,
                            method=f"{name}-gate",
                            detail=f"{checker} found {len(findings)}"
                            f" error-level finding(s): {detail}",
                        ),
                        fingerprint=None,
                        source=name,
                    )
                )
            )
        report.wall_seconds = time.perf_counter() - started
        return report

    resolve_properties(pipelined, obligations)
    system = TransitionSystem.from_module(pipelined.module)
    n = pipelined.n_stages

    report = JobReport(
        machine_name=obligations.machine_name, jobs=jobs, timeout=timeout
    )
    ordered: list[Obligation] = list(obligations)
    outcome_by_position: dict[int, JobOutcome] = {}

    # -- family serve (repro.analysis.family) ----------------------------------
    # Before mining or fingerprinting: obligations whose width-erased
    # template has a cached family verdict are settled outright.  This
    # must see the *raw* obligations — absint injection changes the
    # assume sets, and the certificates were erased from the raw cones.
    raw: list[Obligation] = list(ordered)
    if family is not None:
        for position, obligation in enumerate(ordered):
            served = family.lookup(obligation, pipelined, system, params)
            if served is not None:
                record, family_fp = served
                outcome_by_position[position] = emit(
                    JobOutcome(
                        record=record, fingerprint=family_fp, source="family"
                    )
                )

    # -- invariant mining (repro.absint) ---------------------------------------
    # Mine and SAT-prove reachability invariants, then strengthen each
    # induction obligation with the proven facts inside its cone.  Mining
    # results are themselves cached (keyed by the module fingerprint), and
    # the injected assumptions flow into the obligation fingerprints, so
    # cached verdicts stay sound.  Mining only exists to strengthen
    # obligations headed to the solver: when the family serve pass settled
    # every one, there is nothing to inject into and the fixpoint plus its
    # SAT verification would be the dominant cost of a fully-served run.
    if len(outcome_by_position) < len(ordered):
        from ..absint import InvariantCache, inject_invariants, mine_invariants

        invariant_cache = (
            InvariantCache(cache.root) if cache is not None else None
        )
        mining = mine_invariants(
            pipelined, system=system, cache=invariant_cache
        )
        if mining.proven:
            ordered = inject_invariants(ordered, mining.proven, system)
        report.absint = {
            "candidates": mining.candidates,
            "proven": len(mining.proven),
            "invariants": [inv.name for inv in mining.proven],
            "seconds": round(mining.seconds, 4),
            "from_cache": mining.from_cache,
        }
    invariant_misses: list[tuple[int, Obligation, str | None]] = []
    equivalence_misses: list[tuple[int, Obligation, str | None]] = []
    inline_trace: list[tuple[int, Obligation, str | None]] = []

    for position, obligation in enumerate(ordered):
        if position in outcome_by_position:
            continue  # already served from the family cache
        if cache is None:
            # fingerprints exist to key the cache: without one there is
            # nothing to look up or persist, and hashing every
            # obligation's cone is a measurable slice of a cold run
            fingerprint = None
        elif obligation.kind is ObligationKind.TRACE:
            fingerprint = obligation.fingerprint(
                module=pipelined.module,
                params=params.trace_params(obligation.checker or "", n),
            )
        else:
            fingerprint = obligation.fingerprint(
                system=system,
                params=params.invariant_params()
                if obligation.kind is ObligationKind.INVARIANT
                else None,
            )

        if cache is not None:
            cached = cache.get(fingerprint)
            if cached is not None:
                report.cache_hits += 1
                # content-identical obligations share a fingerprint; the
                # verdict transfers but the identity must be this one's
                # (``get`` decodes a fresh record, so it is ours to edit)
                cached.oid = obligation.oid
                cached.title = obligation.title
                outcome_by_position[position] = emit(
                    JobOutcome(record=cached, fingerprint=fingerprint, source="cache")
                )
                continue
            report.cache_misses += 1

        member = (position, obligation, fingerprint)
        if obligation.kind is ObligationKind.TRACE:
            inline_trace.append(member)
        elif obligation.kind is ObligationKind.INVARIANT:
            invariant_misses.append(member)
        else:
            equivalence_misses.append(member)

    # -- solver obligations: tasks, in the worker pool or inline ---------------
    # groups first: they are the long poles, so they get slots early
    tasks = [
        *_partition_groups(invariant_misses, jobs),
        *(_Task([member]) for member in equivalence_misses),
    ]

    def settle(position: int, outcome: JobOutcome) -> None:
        outcome_by_position[position] = emit(outcome)

    pool = (
        "fork" in multiprocessing.get_all_start_methods()
        and (jobs > 1 or timeout is not None)
    )
    _run_tasks(tasks, system, params, jobs, timeout, pool, report, settle)

    # -- trace obligations: inline, every checker reading one pipelined run ----
    shared_trace = (
        build_trace(pipelined, params.trace_cycles) if inline_trace else None
    )
    for position, obligation, fingerprint in inline_trace:
        record = discharge_trace(
            pipelined,
            obligation,
            trace=shared_trace,
            trace_cycles=params.trace_cycles,
            liveness_bound=params.liveness_bound,
        )
        outcome_by_position[position] = emit(
            JobOutcome(
                record=record, fingerprint=fingerprint, source="inline"
            )
        )

    # -- persist fresh verdicts -------------------------------------------------
    if cache is not None:
        for outcome in outcome_by_position.values():
            if (
                outcome.source in ("worker", "group", "inline")
                and outcome.fingerprint
            ):
                cache.put(
                    outcome.fingerprint, outcome.record, params=asdict(params)
                )

    # -- seed the family cache with certified fresh verdicts -------------------
    # Content-cache hits seed too: a content-warm run teaches the family
    # store without touching a solver.  Seeding validates against the raw
    # obligation (the certificates' view); put_family rejects
    # non-cacheable statuses itself.
    if family is not None:
        for position, outcome in outcome_by_position.items():
            if outcome.source not in ("worker", "group", "inline", "cache"):
                continue
            family.seed(raw[position], pipelined, system, params, outcome.record)
        report.family = family.counters()

    # obligation-id order, not completion order: report diffs and
    # --profile tables stay stable across scheduling modes and runs
    report.outcomes = sorted(
        (outcome_by_position[i] for i in range(len(ordered))),
        key=lambda outcome: outcome.record.oid,
    )
    report.wall_seconds = time.perf_counter() - started
    return report
