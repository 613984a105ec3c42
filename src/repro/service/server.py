"""`repro.service` — a crash-tolerant multi-tenant discharge server.

The jobs engine (:mod:`repro.jobs`) turned proof discharge into a build
system; this module turns the build system into shared infrastructure: a
long-running asyncio HTTP server that accepts machine specs, schedules
their obligation sets onto the forked worker pool, streams per-obligation
verdicts as NDJSON while the solve is still in flight, and serves warm
results from the content-fingerprinted cache.  Stdlib only.

Robustness is the architecture, not a bolt-on:

* **in-flight dedup** — requests whose job key (a content fingerprint
  over machine spec + verdict-relevant engine params,
  :func:`repro.service.protocol.job_key`) matches an in-flight solve
  coalesce onto that computation; every waiter gets the full verdict
  stream, one solver pays for it.  Completed jobs stay in a bounded
  result window and replay the same way.
* **admission control and backpressure** — a bounded service queue and
  per-tenant in-flight quotas; past either bound the request is shed
  *immediately* with 429 + ``Retry-After`` (estimated from the observed
  solve rate) instead of letting latency collapse for everyone.  Worker
  rlimit caps (:class:`repro.jobs.EngineParams`) bound what any one
  tenant's obligation can take from the host.
* **write-ahead job journal** — every acceptance, verdict and completion
  is journalled (append-only, each line sealed by the record codec the
  caches use; :mod:`repro.service.journal`) before it is acknowledged
  downstream.  A
  SIGKILLed server re-enqueues accepted-but-undischarged jobs on
  restart; verdicts already journalled are never journalled twice, so
  recovery delivers each accepted job's result at most once with zero
  lost or duplicated verdicts.
* **circuit breaker + drain** — a tenant whose payloads repeatedly crash
  group workers is quarantined (503 with ``Retry-After``) for a
  cooldown, protecting the shared pool; SIGTERM stops admission, drains
  every in-flight solve, compacts the journal and only then exits.

The chaos harness (:mod:`repro.service.chaos`) drives all of this under
live fault injection; ``benchmarks/bench_service.py`` gates the latency
and dedup claims in ``BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import collections
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..jobs.cache import FamilyCache, ResultCache
from ..jobs.engine import EngineParams, JobReport, discharge_jobs
from ..proofs import generate_obligations
from . import protocol
from .journal import DEFAULT_JOURNAL, Journal

DEFAULT_ROOT = ".repro-service"
DEFAULT_PORT = 8745


class ServiceReject(Exception):
    """A request the service refuses to run; maps onto an HTTP status."""

    def __init__(self, status: int, reason: str, retry_after: float | None = None):
        super().__init__(reason)
        self.status = status
        self.reason = reason
        self.retry_after = retry_after


@dataclass
class ServiceConfig:
    """Service knobs (see ``repro serve --help`` for the CLI surface)."""

    root: str | Path = DEFAULT_ROOT
    # engine: worker processes per solve and concurrent solves
    engine_jobs: int | None = None
    solve_slots: int = 2
    obligation_timeout: float | None = None
    params: EngineParams = field(
        # retries default higher than the CLI: a service absorbs transient
        # worker deaths (OOM sweeps, chaos) rather than surfacing them
        default_factory=lambda: EngineParams(max_retries=2)
    )
    # admission control
    max_queue: int = 32
    tenant_active: int = 4
    # circuit breaker
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    # result window: completed jobs replayable without recompute
    result_window: int = 256
    use_cache: bool = True
    fsync_journal: bool = False
    recover: bool = True
    #: benchmark baseline only: False gives every request its own solve
    #: (keys are uniquified so identical requests no longer coalesce)
    dedup: bool = True


@dataclass
class ServiceStats:
    accepted: int = 0
    completed: int = 0
    failed: int = 0  # jobs whose report was not ok (or errored)
    solves: int = 0  # actual discharge runs (dedup'd requests share one)
    deduped: int = 0  # requests coalesced onto an in-flight solve
    replayed: int = 0  # requests served from the result window
    shed: int = 0  # 429s (queue full / tenant quota)
    quarantined: int = 0  # 503s from the circuit breaker
    recovered: int = 0  # jobs re-enqueued from the journal at startup
    disconnects: int = 0  # clients that vanished mid-stream
    errors: int = 0  # engine-level exceptions
    journal_skipped_lines: int = 0  # corrupt journal lines ignored on scan


@dataclass
class _Tenant:
    active: int = 0
    crash_streak: int = 0
    quarantined_until: float = 0.0


class Job:
    """One coalesced discharge computation and its event history."""

    __slots__ = (
        "key",
        "tenant",
        "machine_spec",
        "params",
        "family",
        "state",
        "events",
        "subscribers",
        "done_event",
        "recovered_oids",
        "published_oids",
        "report",
        "error",
        "accepted_at",
        "finished_at",
    )

    def __init__(
        self,
        key: str,
        tenant: str,
        machine_spec: dict,
        params: EngineParams,
        family: bool = True,
    ) -> None:
        self.key = key
        self.tenant = tenant
        self.machine_spec = machine_spec
        self.params = params
        # the request's ``family`` param: False discharges without a
        # FamilyContext.  Not in the job key (verdict-preserving).
        self.family = family
        self.state = "queued"
        self.events: list[dict] = []
        self.subscribers: list[asyncio.Queue] = []
        self.done_event = asyncio.Event()
        self.recovered_oids: set[str] = set()
        self.published_oids: set[str] = set()
        self.report: JobReport | None = None
        self.error: str | None = None
        self.accepted_at = time.time()
        self.finished_at: float | None = None


class DischargeService:
    """The in-process service core; the HTTP layer is a thin shell."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.root = Path(self.config.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cache = (
            ResultCache(self.root / "cache") if self.config.use_cache else None
        )
        self._family_store: FamilyCache | None = None
        self.journal = Journal(
            self.root / DEFAULT_JOURNAL, fsync=self.config.fsync_journal
        )
        self.stats = ServiceStats()
        self.inflight: dict[str, Job] = {}
        self.results: collections.OrderedDict[str, Job] = collections.OrderedDict()
        self.tenants: dict[str, _Tenant] = {}
        self.draining = False
        self._queue: asyncio.Queue[Job | None] = asyncio.Queue()
        self._workers: list[asyncio.Task] = []
        self._solve_seconds = 2.0  # EMA of recent solve wall-clock
        self.started_at = time.time()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Recover journalled jobs, then start the solve workers."""
        if self.config.recover:
            self._recover()
        for _ in range(max(1, self.config.solve_slots)):
            self._workers.append(asyncio.create_task(self._worker()))

    def _recover(self) -> None:
        state = self.journal.scan()
        self.stats.journal_skipped_lines = state.skipped
        for entry in state.incomplete():
            try:
                machine_spec = protocol.canonical_machine_spec(
                    entry.payload.get("machine")
                )
                params, clean = protocol.resolve_params(
                    self.config.params, entry.payload.get("params")
                )
            except protocol.BadRequest:
                # journalled under an older schema: nothing to re-run
                continue
            job = Job(
                entry.key,
                entry.tenant,
                machine_spec,
                params,
                family=clean.get("family", True),
            )
            job.recovered_oids = set(entry.verdicts)
            self.inflight[job.key] = job
            self._tenant(job.tenant).active += 1
            self.stats.recovered += 1
            self.stats.accepted += 1
            self._publish(
                job,
                {
                    "type": "accepted",
                    "job": job.key,
                    "machine": protocol.machine_label(machine_spec),
                    "tenant": job.tenant,
                    "recovered": True,
                    "deduped": False,
                },
            )
            self._queue.put_nowait(job)
        # drop completed and skipped jobs' records; keep what we just
        # re-enqueued
        self.journal.compact(keep=set(self.inflight))

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop admission, wait for in-flight jobs, compact, close.

        Returns True when everything finished inside ``timeout``."""
        self.draining = True
        active = [job.done_event.wait() for job in self.inflight.values()]
        clean = True
        if active:
            done, pending = await asyncio.wait(
                [asyncio.ensure_future(w) for w in active], timeout=timeout
            )
            clean = not pending
            for task in pending:
                task.cancel()
        for _ in self._workers:
            self._queue.put_nowait(None)
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        self.journal.compact()
        self.journal.close()
        return clean

    # -- admission -------------------------------------------------------------

    def _tenant(self, name: str) -> _Tenant:
        return self.tenants.setdefault(name, _Tenant())

    def _retry_after(self) -> float:
        queued = self._queue.qsize() + 1
        slots = max(1, self.config.solve_slots)
        return max(1.0, round(queued * self._solve_seconds / slots, 1))

    def submit(self, tenant: str, body: dict) -> tuple[Job, str]:
        """Admit (or coalesce, or replay) one request.

        Returns ``(job, disposition)`` where disposition is ``"new"``,
        ``"deduped"`` or ``"replayed"``; raises :class:`ServiceReject`
        (shed/quarantined/draining) or :class:`protocol.BadRequest`.
        Must run on the event loop thread."""
        machine_spec = protocol.canonical_machine_spec(body.get("machine"))
        params, clean = protocol.resolve_params(
            self.config.params, body.get("params")
        )
        key = protocol.job_key(machine_spec, params)
        now = time.time()
        state = self._tenant(tenant)
        if state.quarantined_until > now:
            self.stats.quarantined += 1
            raise ServiceReject(
                503,
                f"tenant {tenant!r} quarantined: repeated worker crashes"
                " on its payloads",
                retry_after=round(state.quarantined_until - now, 1),
            )
        if self.config.dedup:
            # dedup before queue-bound checks: a coalesced request
            # consumes no new capacity, so shedding it would be waste
            existing = self.inflight.get(key)
            if existing is not None:
                self.stats.deduped += 1
                return existing, "deduped"
            done = self.results.get(key)
            if done is not None:
                self.stats.replayed += 1
                return done, "replayed"
        else:
            key = f"{key}-{self.stats.accepted}"
        if self.draining:
            raise ServiceReject(503, "service is draining", retry_after=5.0)
        if self._queue.qsize() >= self.config.max_queue:
            self.stats.shed += 1
            raise ServiceReject(
                429, "service queue full", retry_after=self._retry_after()
            )
        if state.active >= self.config.tenant_active:
            self.stats.shed += 1
            raise ServiceReject(
                429,
                f"tenant {tenant!r} quota exhausted"
                f" ({self.config.tenant_active} jobs in flight)",
                retry_after=self._retry_after(),
            )
        job = Job(
            key, tenant, machine_spec, params, family=clean.get("family", True)
        )
        self.inflight[key] = job
        state.active += 1
        self.stats.accepted += 1
        # write-ahead: the journal record lands before the client sees
        # the first byte of acknowledgement
        self.journal.accepted(
            key,
            tenant,
            {"machine": machine_spec, "params": body.get("params") or {}},
        )
        self._publish(
            job,
            {
                "type": "accepted",
                "job": key,
                "machine": protocol.machine_label(machine_spec),
                "tenant": tenant,
                "recovered": False,
                "deduped": False,
            },
        )
        self._queue.put_nowait(job)
        return job, "new"

    # -- event fan-out ---------------------------------------------------------

    def subscribe(self, job: Job) -> asyncio.Queue:
        """A fresh event queue: full replay of the job's history, then
        live events; ``None`` terminates the stream."""
        queue: asyncio.Queue = asyncio.Queue()
        for event in job.events:
            queue.put_nowait(event)
        if job.state == "done":
            queue.put_nowait(None)
        else:
            job.subscribers.append(queue)
        return queue

    def unsubscribe(self, job: Job, queue: asyncio.Queue) -> None:
        try:
            job.subscribers.remove(queue)
        except ValueError:
            pass

    def _publish(self, job: Job, event: dict) -> None:
        job.events.append(event)
        for queue in job.subscribers:
            queue.put_nowait(event)

    def _publish_outcome(self, job: Job, outcome: dict) -> None:
        """Verdict path: journal first (unless recovery already did),
        then fan out — at-most-once journalling per (job, oid)."""
        oid = outcome.get("oid")
        if oid in job.published_oids:
            return
        job.published_oids.add(oid)
        if oid not in job.recovered_oids:
            self.journal.verdict(job.key, outcome)
        self._publish(job, protocol.outcome_event(job.key, outcome))

    # -- execution -------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                return
            await self._execute(job)

    def _family_context(self, job: Job):
        """Width-family serve/seed context for catalog-core requests.

        The per-core analysis is memoised process-wide (pure in core and
        params), so only the first request of a family pays for it; the
        family verdict store shares the cache root."""
        if self.cache is None or not job.family:
            return None
        core = job.machine_spec.get("core")
        if core is None:
            return None
        from ..analysis.family import FAMILIES, family_context

        spec = FAMILIES.get(core)
        if spec is None:
            return None
        width = job.machine_spec.get("width", spec.base_width)
        if self._family_store is None:
            self._family_store = FamilyCache(self.root / "cache")
        return family_context(
            core, width=width, cache=self._family_store, params=job.params
        )

    def _run_discharge(self, job: Job, on_outcome) -> JobReport:
        pipelined = protocol.build_pipelined(job.machine_spec)
        obligations = generate_obligations(pipelined)
        return discharge_jobs(
            pipelined,
            obligations,
            params=job.params,
            jobs=self.config.engine_jobs,
            timeout=self.config.obligation_timeout,
            cache=self.cache,
            family=self._family_context(job),
            on_outcome=on_outcome,
        )

    async def _execute(self, job: Job) -> None:
        job.state = "running"
        self.stats.solves += 1
        loop = asyncio.get_running_loop()
        started = time.perf_counter()

        def on_outcome(outcome) -> None:
            # called from the executor thread; the loop serialises it
            # ahead of the run's completion callback (FIFO), so every
            # verdict is published before the done event below
            loop.call_soon_threadsafe(
                self._publish_outcome, job, protocol.outcome_to_wire(outcome)
            )

        crashy = False
        try:
            report = await asyncio.to_thread(self._run_discharge, job, on_outcome)
        except protocol.BadRequest as exc:
            job.error = str(exc)
            self.stats.errors += 1
            done = {
                "type": "done",
                "job": job.key,
                "ok": False,
                "error": f"bad request: {exc}",
                "counts": {},
            }
        except Exception as exc:
            job.error = repr(exc)
            self.stats.errors += 1
            crashy = True
            done = {
                "type": "done",
                "job": job.key,
                "ok": False,
                "error": f"engine error: {exc!r}",
                "counts": {},
            }
        else:
            job.report = report
            crashy = any(o.source == "crashed" for o in report.outcomes)
            done = {
                "type": "done",
                "job": job.key,
                "ok": report.ok,
                "counts": report.counts(),
                "wall_seconds": round(report.wall_seconds, 3),
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
                "crashes": report.crashes,
                "retries": report.retries,
            }
            elapsed = time.perf_counter() - started
            self._solve_seconds = 0.7 * self._solve_seconds + 0.3 * elapsed
        self._breaker(job.tenant, crashy)
        self.journal.done(job.key, bool(done.get("ok")), done.get("counts", {}))
        self._finish(job, done)

    def _breaker(self, tenant: str, crashy: bool) -> None:
        state = self._tenant(tenant)
        if not crashy:
            state.crash_streak = 0
            return
        state.crash_streak += 1
        if state.crash_streak >= self.config.breaker_threshold:
            state.quarantined_until = time.time() + self.config.breaker_cooldown
            state.crash_streak = 0

    def _finish(self, job: Job, done: dict) -> None:
        job.state = "done"
        job.finished_at = time.time()
        self.stats.completed += 1
        if not done.get("ok"):
            self.stats.failed += 1
        self._publish(job, done)
        for queue in job.subscribers:
            queue.put_nowait(None)
        job.subscribers.clear()
        self.inflight.pop(job.key, None)
        tenant = self._tenant(job.tenant)
        tenant.active = max(0, tenant.active - 1)
        self.results[job.key] = job
        while len(self.results) > self.config.result_window:
            self.results.popitem(last=False)
        job.done_event.set()

    # -- introspection ---------------------------------------------------------

    def stats_dict(self) -> dict:
        return {
            "uptime_seconds": round(time.time() - self.started_at, 1),
            "draining": self.draining,
            "queue_depth": self._queue.qsize(),
            "inflight": len(self.inflight),
            "result_window": len(self.results),
            "solve_seconds_ema": round(self._solve_seconds, 3),
            "tenants": {
                name: {
                    "active": t.active,
                    "crash_streak": t.crash_streak,
                    "quarantined_for": max(
                        0.0, round(t.quarantined_until - time.time(), 1)
                    ),
                }
                for name, t in sorted(self.tenants.items())
            },
            "cache": (
                self.cache.snapshot_stats() if self.cache is not None else None
            ),
            "journal_appended": self.journal.appended,
            **asdict(self.stats),
        }


# ---------------------------------------------------------------------------
# HTTP shell
# ---------------------------------------------------------------------------

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _json_response(
    status: int, payload: dict, retry_after: float | None = None
) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if retry_after is not None:
        headers.append(f"Retry-After: {max(1, int(round(retry_after)))}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + body


class HttpFront:
    """Minimal HTTP/1.1 front end over asyncio streams (stdlib only).

    Every response closes the connection: request framing stays trivial
    and a streamed NDJSON body is terminated by EOF, which doubles as
    the client's completion signal."""

    def __init__(self, service: DischargeService) -> None:
        self.service = service
        self.server: asyncio.AbstractServer | None = None

    async def start(self, host: str, port: int) -> tuple[str, int]:
        self.server = await asyncio.start_server(self._handle, host, port)
        sock = self.server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_inner(reader, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            self.service.stats.disconnects += 1
        except Exception as exc:  # pragma: no cover - handler bug surface
            try:
                writer.write(_json_response(500, {"error": repr(exc)}))
            except Exception:
                pass
        finally:
            # forked solver workers inherit this socket, so closing our
            # copy ends the response only once they exit; shutting the
            # write side down ends it now
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except OSError:
                pass  # the peer is gone already
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_inner(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), 10.0)
        except asyncio.TimeoutError:
            writer.write(_json_response(408, {"error": "request timeout"}))
            return
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            writer.write(_json_response(400, {"error": "malformed request line"}))
            return
        method, target = parts[0], parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), 10.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(int(length)), 30.0
                )
            except (asyncio.TimeoutError, ValueError):
                writer.write(_json_response(400, {"error": "bad request body"}))
                return

        if method == "GET" and target == "/healthz":
            service = self.service
            writer.write(
                _json_response(
                    200,
                    {
                        "ok": True,
                        "draining": service.draining,
                        "inflight": len(service.inflight),
                        "queue_depth": service._queue.qsize(),
                    },
                )
            )
            return
        if method == "GET" and target == "/v1/stats":
            writer.write(_json_response(200, self.service.stats_dict()))
            return
        if method == "GET" and target.startswith("/v1/jobs/"):
            await self._get_job(target.rsplit("/", 1)[1], writer)
            return
        if method == "POST" and target == "/v1/discharge":
            await self._discharge(headers, body, writer)
            return
        writer.write(
            _json_response(
                405 if target in ("/healthz", "/v1/stats", "/v1/discharge") else 404,
                {"error": f"no route for {method} {target}"},
            )
        )

    async def _get_job(self, key: str, writer: asyncio.StreamWriter) -> None:
        service = self.service
        job = service.results.get(key) or service.inflight.get(key)
        if job is None:
            writer.write(
                _json_response(
                    404,
                    {
                        "error": f"job {key!r} not known",
                        "hint": "resubmit the request; identical work is"
                        " served warm from the verdict cache",
                    },
                )
            )
            return
        payload = {
            "job": job.key,
            "state": job.state,
            "tenant": job.tenant,
            "machine": protocol.machine_label(job.machine_spec),
            "events": job.events,
        }
        writer.write(_json_response(200 if job.state == "done" else 202, payload))

    async def _discharge(
        self, headers: dict, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        service = self.service
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            writer.write(_json_response(400, {"error": f"bad JSON: {exc}"}))
            return
        tenant = headers.get("x-tenant") or payload.get("tenant") or "anon"
        if not isinstance(tenant, str) or len(tenant) > 64:
            writer.write(_json_response(400, {"error": "bad tenant name"}))
            return
        try:
            job, disposition = service.submit(tenant, payload)
        except protocol.BadRequest as exc:
            writer.write(_json_response(400, {"error": str(exc)}))
            return
        except ServiceReject as exc:
            writer.write(
                _json_response(
                    exc.status,
                    {"error": exc.reason, "retry_after": exc.retry_after},
                    retry_after=exc.retry_after,
                )
            )
            return

        if payload.get("wait") is False:
            writer.write(
                _json_response(
                    202,
                    {"job": job.key, "disposition": disposition, "state": job.state},
                )
            )
            return

        queue = service.subscribe(job)
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n"
                f"X-Job: {job.key}\r\n"
                f"X-Disposition: {disposition}\r\n"
                "\r\n"
            ).encode()
        )
        try:
            await writer.drain()
            while True:
                event = await queue.get()
                if event is None:
                    break
                writer.write(protocol.encode_event(event))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # the client vanished mid-stream: the solve continues for the
            # journal, the cache and any other subscribers
            service.stats.disconnects += 1
        finally:
            service.unsubscribe(job, queue)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


async def serve(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
) -> tuple[DischargeService, HttpFront, tuple[str, int]]:
    """Start a service and its HTTP front; returns both plus the bound
    address (useful with ``port=0``)."""
    service = DischargeService(config)
    await service.start()
    front = HttpFront(service)
    address = await front.start(host, port)
    return service, front, address


async def serve_forever(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    ready: "threading.Event | None" = None,
) -> None:
    """Run until SIGTERM/SIGINT, then drain gracefully."""
    import signal as _signal

    service, front, address = await serve(config, host, port)
    print(
        f"repro.service listening on http://{address[0]}:{address[1]}"
        f" (root {service.root}, {service.config.solve_slots} solve slots)"
    )
    if ready is not None:
        ready.set()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (_signal.SIGTERM, _signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await stop.wait()
    print("drain: admission stopped, waiting for in-flight jobs ...")
    await front.stop()
    clean = await service.drain(timeout=120.0)
    print("drain complete" if clean else "drain timed out with jobs in flight")


class ServerThread:
    """A live server on a background thread — the harness tests, the
    chaos monkey and the benchmark all drive a real socket."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.config = config
        self.host = host
        self.port = port
        self.loop: asyncio.AbstractEventLoop | None = None
        self.service: DischargeService | None = None
        self.front: HttpFront | None = None
        self.address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._killed = False

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(30.0):  # pragma: no cover - startup hang
            raise RuntimeError("service thread failed to start")
        if self._failure is not None:
            raise RuntimeError("service thread failed") from self._failure
        return self

    def _main(self) -> None:
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        try:
            self.service, self.front, self.address = self.loop.run_until_complete(
                serve(self.config, self.host, self.port)
            )
        except BaseException as exc:  # pragma: no cover - startup failure
            self._failure = exc
            self._ready.set()
            return
        self._ready.set()
        self.loop.run_forever()
        if not self._killed:
            self.loop.close()
        # a killed loop stays un-closed: its pending tasks keep their
        # references, matching a real SIGKILL (no destructor noise)

    def run(self, coro, timeout: float = 60.0):
        """Run a coroutine on the service loop from the calling thread."""
        assert self.loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def call(self, fn, *args, timeout: float = 60.0):
        """Run a plain callable on the loop thread (state is loop-owned)."""

        async def _invoke():
            return fn(*args)

        return self.run(_invoke(), timeout=timeout)

    def drain(self, timeout: float = 120.0) -> bool:
        async def _drain():
            await self.front.stop()
            return await self.service.drain(timeout=timeout - 5.0)

        return self.run(_drain(), timeout=timeout)

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if self.service is not None and not self.service.draining:
                self.drain()
        finally:
            if self.loop is not None:
                self.loop.call_soon_threadsafe(self.loop.stop)
            if self._thread is not None:
                self._thread.join(10.0)

    def kill(self) -> None:
        """Simulate a crash: stop the loop *without* draining — in-flight
        jobs stay journalled as accepted-but-undischarged, exactly what a
        SIGKILL leaves behind."""
        self._killed = True
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self.loop.stop)
        if self._thread is not None:
            self._thread.join(10.0)
        if self.loop is not None:
            # the kill abandons pending tasks on purpose.  Close their
            # coroutines now, while the loop object is still open: at GC
            # the loop's __del__ closes the loop first, and a coroutine
            # finalized after that raises "Event loop is closed" from
            # its queue-wait cleanup.  No service code runs here — the
            # workers are suspended on queue.get().
            for task in asyncio.all_tasks(self.loop):
                task._log_destroy_pending = False
                try:
                    task.get_coro().close()
                except Exception:
                    pass
        if self.service is not None:
            self.service.draining = True  # mark so __exit__ skips drain
