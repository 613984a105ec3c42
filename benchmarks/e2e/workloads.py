"""The four workloads, run in a fresh interpreter each by ``run.py``.

A *round* is the unit a workload repeats and times:

``cold``
    build → ``transform`` → ``generate_obligations`` → ``discharge_jobs``
    for the full suites of ``toy``, ``dlx-small`` and ``dlx-spec``, each
    against a fresh empty verdict cache, no family context.
``warm``
    the same three suites against one cache an untimed priming round
    filled; every outcome must come from the cache.
``sweep``
    ``analyze_family`` on the ``dlx-small`` family, then the full suite
    at widths 32, 48 and 64 against a fresh family store (no verdict
    cache); widths 48 and 64 must be served every certified obligation.
``service``
    a fresh ``repro serve`` process and a closed loop of two client
    threads sending a fixed, seed-ordered mix of distinct and repeated
    requests.

Every verdict is checked against ``expected.json`` (:mod:`known`).  An
*operation* is one obligation verdict (batch workloads) or one request
(service); an operation fails when it does not end in the pinned status.
A *latency* sample is the time until one verdict is known: from its
suite's machine build to the verdict (batch), or from sending one
request to its ``done`` event (service).

Every time is paced (:mod:`pace`) by the probes of the process that
runs the program: this one for the set-up and the batch workloads'
rounds, the server for the service's spawn and rounds.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import known
import spans
import stats
from pace import Sampler, Timeline

WORKLOADS = ("cold", "warm", "sweep", "service")
CORE_ORDER = ("toy", "dlx-small", "dlx-spec")
SWEEP_FAMILY = "dlx-small"
# engine workers per discharge, batch and service: the inline path, so
# that the program runs only in the process whose probes pace it; worker
# processes would run beside the probes and slow them (:mod:`pace`)
JOBS = 1
CLIENTS = 2  # service load generator: threads, one connection each

# (unit, better) of every end-to-end metric, in print order
E2E = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "latency_p50_s": ("s", "lower"),
    "latency_p95_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
}

# the latency metrics and their nearest-rank percentile
PERCENTILES = {"latency_p50_s": 0.50, "latency_p95_s": 0.95}

# span names whose self seconds per traced round are reported as
# ``<name>_s``; a layer a workload bypasses reads 0.  Only these count
# towards ``trace.coverage``: time in no span, or in a span not listed
# here (``absint.mine``, which wraps the mining passes for their counts),
# is ``trace.unattributed_s``.
TIMED_LAYERS = (
    "machine.build",
    "core.transform",
    "proofs.obligations",
    "proofs.fingerprint",
    "proofs.trace",
    "lint.gate",
    "lint.taint",
    "absint.fixpoint",
    "absint.candidates",
    "absint.verify",
    "absint.inject",
    "formal.system",
    "formal.solve",
    "analysis.analyze",
    "analysis.lookup",
    "analysis.seed",
    "jobs.cache_get",
    "jobs.cache_put",
)
SOURCES = ("cache", "group", "worker", "inline", "family")
RUNGS = ("incremental", "scratch", "bdd", "exhausted")

LAYER = {
    **{f"{name}_s": "s" for name in TIMED_LAYERS},
    "proofs.obligations": "count",
    "proofs.fingerprints": "count",
    "absint.candidates": "count",
    "absint.proven": "count",
    "absint.proven_ratio": "fraction",
    "absint.cache_hits": "count",
    "formal.conflicts": "count",
    "formal.frames": "count",
    "formal.groups": "count",
    **{f"formal.rung.{rung}": "count" for rung in RUNGS},
    "analysis.certified": "count",
    "analysis.served": "count",
    "analysis.served_ratio": "fraction",
    "jobs.cache_hits": "count",
    "jobs.cache_misses": "count",
    "jobs.cache_bytes": "bytes",
    "jobs.utilisation": "fraction",
    "jobs.worker_busy_s": "s",
    "jobs.crashes": "count",
    "jobs.retries": "count",
    **{f"jobs.source.{source}": "count" for source in SOURCES},
    **{f"suite.{core}_s": "s" for core in CORE_ORDER},
    "service.accept_s": "s",
    "service.first_verdict_s": "s",
    "service.stream_s": "s",
    "service.solves": "count",
    "service.deduped": "count",
    "service.replayed": "count",
    "service.shed": "count",
    "service.coalesce_ratio": "fraction",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead": "fraction",
}


class WorkloadError(RuntimeError):
    """The workload did not run as specified (not a wrong verdict)."""


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Tally:
    """Operations attempted and failed, plus the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def suite(self, label: str, expected: dict[str, str], verdicts: dict[str, str]):
        """One suite: each pinned obligation is an operation; a missing,
        extra or differently decided oid fails one."""
        wrong = known.mismatches(expected, verdicts)
        self.attempted += len(expected)
        self.failed += len(wrong)
        self.problems += [f"{label}: {problem}" for problem in wrong[:3]]

    def request(self, label: str, expected, verdicts, done: dict | None):
        """One service request: it fails on a refusal, a missing or
        not-ok ``done`` event, or any verdict off the table."""
        wrong = known.mismatches(expected, verdicts)
        if not (done and done.get("ok")):
            wrong.insert(0, "no ok done event")
        self.attempted += 1
        if wrong:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(wrong[:3])}")


@dataclass
class Round:
    """One round's paced seconds; ``raw`` is its raw wall time, which
    the run's time budget counts and ``compare.py`` checks gains
    against."""

    wall: float
    cpu: float
    ops: int
    latencies: list[float]
    raw: float


@dataclass
class Marks:
    """Raw ``perf_counter`` readings of one round, paced once the run's
    probes are in."""

    start: float
    end: float
    cpu: float  # raw CPU seconds of the processes doing the round's work
    ops: int
    latencies: list[tuple[float, float]]  # (from, to) of each sample

    def paced(self, timeline: Timeline) -> Round:
        """The round at the reference pace.  The probes ran in one of the
        processes whose CPU is counted, so their time leaves the CPU too;
        what remains is rescaled like the wall time."""
        wall = timeline.paced(self.start, self.end)
        program = timeline.raw(self.start, self.end)
        probing = self.end - self.start - program
        return Round(
            wall,
            (self.cpu - probing) * wall / program,
            self.ops,
            [timeline.paced(start, end) for start, end in self.latencies],
            self.end - self.start,
        )


# ---------------------------------------------------------------------------
# batch workloads: cold, warm, sweep
# ---------------------------------------------------------------------------


class Batch:
    """State shared by the rounds of one batch workload."""

    def __init__(self, name: str, work: Path, table) -> None:
        from repro.analysis.family import FAMILIES
        from repro.faults.catalog import CORES

        self.name = name
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.table = table
        self.cores = CORES
        self.family = FAMILIES[SWEEP_FAMILY]
        self.tally = Tally()
        self.tracer: spans.Tracer | None = None
        self.reports: list = []  # (core, JobReport) of the last round
        self.contexts: list = []  # FamilyContexts of the last sweep round
        self.warm_cache: Path | None = None

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work))

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def suite(self, core, width, build, params, jobs, cache=None, family=None):
        """One suite from machine build to the last verdict; returns the
        report and each verdict's (build, verdict) ``perf_counter`` times."""
        from repro.core import transform
        from repro.jobs import engine
        from repro.proofs import generate_obligations

        latencies: list[tuple[float, float]] = []
        started = time.perf_counter()
        with self.span("machine.build"):
            machine = build()
        pipelined = transform(machine)
        obligations = generate_obligations(pipelined)
        report = engine.discharge_jobs(
            pipelined,
            obligations,
            params=params,
            jobs=jobs,
            cache=cache,
            family=family,
            on_outcome=lambda _: latencies.append((started, time.perf_counter())),
        )
        if len(latencies) != len(report.outcomes):
            raise WorkloadError(
                f"{core}@{width}: {len(latencies)} streamed verdicts"
                f" for {len(report.outcomes)} outcomes"
            )
        self.reports.append((core, report))
        verdicts = {o.record.oid: o.record.status.value for o in report.outcomes}
        key = known.machine_key(core, width)
        self.tally.suite(key, self.table[key], verdicts)
        return report, latencies

    def core_suite(self, core: str, jobs: int, cache) -> tuple:
        from repro.jobs import EngineParams

        spec = self.cores[core]
        params = EngineParams(trace_cycles=spec.trace_cycles)
        width = _default_width(core)
        return self.suite(
            core, width, spec.build_machine, params, jobs, cache=cache
        )

    def round(self, jobs: int) -> Marks:
        """One round of this workload (clean-up is not timed)."""
        from repro.hdl import expr as E

        self.reports = []
        self.contexts = []
        E.clear_intern_table()
        gc.collect()
        cpu0 = time.process_time()
        start = time.perf_counter()
        latencies, ops, scratch = self._run(jobs)
        end = time.perf_counter()
        cpu = time.process_time() - cpu0
        stores = scratch + ([self.warm_cache] if self.warm_cache else [])
        self.cache_bytes = sum(dir_bytes(path) for path in stores)
        for path in scratch:
            shutil.rmtree(path, ignore_errors=True)
        self._check_shape()
        return Marks(start, end, cpu, ops, latencies)

    def _run(self, jobs: int):
        from repro.jobs import ResultCache

        latencies: list[tuple[float, float]] = []
        scratch: list[Path] = []
        ops = 0
        if self.name == "sweep":
            from repro.analysis.family import FamilyContext, analyze_family
            from repro.jobs import EngineParams
            from repro.jobs.cache import FamilyCache

            spec = self.family
            params = EngineParams(trace_cycles=spec.trace_cycles)
            analysis = analyze_family(spec, params)
            store_dir = self.fresh_dir()
            scratch.append(store_dir)
            store = FamilyCache(store_dir)
            # ascending: the base width seeds the store the others read
            for width in spec.widths:
                context = FamilyContext(analysis, width, store)
                self.contexts.append(context)
                report, suite_latencies = self.suite(
                    spec.name,
                    width,
                    lambda w=width: spec.build(w),
                    params,
                    jobs,
                    family=context,
                )
                latencies += suite_latencies
                ops += len(report.outcomes)
            return latencies, ops, scratch
        for core in CORE_ORDER:
            if self.name == "warm":
                cache = ResultCache(self.warm_cache)
            else:
                path = self.fresh_dir()
                scratch.append(path)
                cache = ResultCache(path)
            report, suite_latencies = self.core_suite(core, jobs, cache)
            latencies += suite_latencies
            ops += len(report.outcomes)
        return latencies, ops, scratch

    def _check_shape(self) -> None:
        """Abort when the workload did not exercise what it claims."""
        if self.name == "warm":
            for core, report in self.reports:
                sources = {o.source for o in report.outcomes}
                if sources != {"cache"} or not (report.absint or {}).get(
                    "from_cache"
                ):
                    raise WorkloadError(
                        f"warm {core}: outcomes from {sources},"
                        f" absint {report.absint}: the cache was not hit"
                    )
        if self.name == "sweep":
            for context in self.contexts:
                counters = context.counters()
                if context.width != self.family.base_width and (
                    counters["served"] != counters["certified"]
                ):
                    raise WorkloadError(
                        f"sweep width {context.width}: served"
                        f" {counters['served']} of {counters['certified']}"
                        " certified obligations"
                    )

    def warm_up(self) -> None:
        """Untimed: import what the rounds import lazily and fault in the
        machines, on the cheap toy core."""
        from repro.analysis.family import FAMILIES, FamilyContext, analyze_family
        from repro.jobs import EngineParams, ResultCache
        from repro.jobs.cache import FamilyCache

        path = self.fresh_dir()
        toy = FAMILIES["toy"]
        params = EngineParams(trace_cycles=toy.trace_cycles)
        if self.name == "sweep":
            analysis = analyze_family(toy, params)
            context = FamilyContext(analysis, toy.base_width, FamilyCache(path))
            self.suite("toy", toy.base_width, lambda: toy.build(toy.base_width),
                       params, JOBS, family=context)
        else:
            self.core_suite("toy", JOBS, ResultCache(path))
        self.tally = Tally()
        shutil.rmtree(path, ignore_errors=True)

    def prime(self) -> tuple[float, float]:
        """Fill the warm workload's cache with one cold pass (untimed
        round, reported as part of set-up); returns its interval."""
        from repro.hdl import expr as E
        from repro.jobs import ResultCache

        self.warm_cache = self.fresh_dir()
        E.clear_intern_table()
        t0 = time.perf_counter()
        for core in CORE_ORDER:
            self.core_suite(core, JOBS, ResultCache(self.warm_cache))
        self.tally = Tally()
        return t0, time.perf_counter()


def _default_width(core: str) -> int:
    from repro.analysis.family import FAMILIES

    return FAMILIES[core].base_width


# ---------------------------------------------------------------------------
# service workload
# ---------------------------------------------------------------------------

# A request is (core, width, trace_cycles).  The 40 distinct jobs of a
# round are the solving jobs below plus toy jobs the seed draws from the
# served pool; the other 160 requests are Zipf-distributed repeats of
# them.  A solving job (a family's base width, first at its trace length)
# solves its suite and seeds the family store; dlx-small at 48 and 64 is
# served its 21 certified obligations and solves the other 30; every toy
# job in the served pool is served from the store.  Each job thus costs
# the same whatever the seed, so the server's work does not depend on it.
# dlx-small runs at its catalog trace length only: each further trace
# length adds about 2.5 s of solving to a round, which already fills
# most of a run.
SOLVING = (
    ("dlx-small", 32, 150),
    ("toy", 8, 40),
    ("toy", 8, 60),
    ("toy", 8, 80),
)
SERVED_DLX = (("dlx-small", 48, 150), ("dlx-small", 64, 150))
SERVED_TOY = tuple(
    ("toy", width, cycles) for cycles in (40, 60, 80) for width in range(9, 57)
)
DISTINCT = 40
REQUESTS = 200  # per round
ZIPF_S = 1.0


def request_mix(seed: int) -> list[tuple[str, int, int]]:
    """One round's requests, from the seed: the 40 distinct jobs (the
    solving ones, the served dlx-small widths, and toy jobs drawn from
    ``SERVED_TOY``), then Zipf repeats whose popularity ranks the seed
    assigns.  The solving jobs go first, longest first, so that every
    other request of its family reaches the one solve slot after them;
    the served jobs follow in seed order.  The repeats are sent once
    every distinct job has ended (:func:`drive`), so each finds its
    verdicts in the replay window or the verdict cache and none runs
    beside a solve.  A repeat beside a solve waits for the server's
    solver thread to yield the interpreter lock, so its latency depends
    on how the two happen to interleave: with the repeats mixed in, the
    median request moved by 30% from run to run.  Sent merely after the
    last distinct request, the first repeats of one client still ran
    beside the other client's last solve."""
    rng = random.Random(seed)
    served = [*SERVED_DLX]
    served += rng.sample(SERVED_TOY, DISTINCT - len(SOLVING) - len(served))
    rng.shuffle(served)
    ranked = [*SOLVING, *served]
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    repeats = rng.choices(ranked, weights, k=REQUESTS - DISTINCT)
    return [*SOLVING, *served, *repeats]


@dataclass
class Request:
    """``perf_counter`` times of one request (0: never happened)."""

    sent: float = 0.0
    accepted: float = 0.0  # response headers read: admission done
    first_verdict: float = 0.0
    done: float = 0.0  # the stream ended


def drive(host: str, port: int, mix, table, tally: Tally) -> tuple[float, float, list[Request]]:
    """Closed loop: ``CLIENTS`` threads, each sending its next request
    only when the previous stream ended, first over the ``DISTINCT``
    jobs, then, once they have all ended, over the repeats.  Returns the
    times of the first send and the last stream's end, and the
    requests."""
    from repro.service.client import DischargeResult, ServiceClient

    done: list[Request] = []
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client(pending: list) -> None:
        session = ServiceClient(host, port, timeout=120.0)
        while True:
            with lock:
                if not pending:
                    return
                job = pending.pop()
            core, width, cycles = job
            request = Request(sent=time.perf_counter())
            verdicts: dict[str, str] = {}
            finished = None
            try:
                stream = session.stream(
                    {"core": core, "width": width},
                    params={"trace_cycles": cycles},
                )
                request.accepted = time.perf_counter()
                if not isinstance(stream, DischargeResult):
                    with stream:
                        for event in stream:
                            kind = event.get("type")
                            if kind == "verdict":
                                if not verdicts:
                                    request.first_verdict = time.perf_counter()
                                verdicts[event["oid"]] = event["status"]
                            elif kind == "done":
                                finished = event
            except OSError as exc:
                with lock:
                    errors.append(exc)
            request.done = time.perf_counter()
            key = known.machine_key(core, width)
            with lock:
                tally.request(f"{key}/{cycles}", table[key], verdicts, finished)
                done.append(request)

    start = time.perf_counter()
    for phase in (mix[:DISTINCT], mix[DISTINCT:]):
        pending = list(reversed(phase))
        threads = [
            threading.Thread(target=client, args=(pending,)) for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(150.0)
            if thread.is_alive():
                raise WorkloadError("a service client thread did not finish")
    end = time.perf_counter()
    if errors:
        tally.problems.append(f"transport errors: {errors[:3]}")
    return start, end, done


class ServerProcess:
    """``repro serve`` in its own process with a fresh state root, under
    the host-pace sampler of ``serve.py``, which writes its probes to
    ``samples`` once the server has drained."""

    def __init__(self, root: Path, src: Path, samples: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), *filter(None, [env.get("PYTHONPATH")])]
        )
        self.samples = samples
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", str(Path(__file__).with_name("serve.py")),
                str(samples), "--port", "0", "--slots", "1", "-j", str(JOBS),
                "--root", str(root),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise WorkloadError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        from repro.service.client import ServiceClient

        client = ServiceClient(self.host, self.port, timeout=10.0)
        while client.healthz().get("status") != 200:  # pragma: no cover
            time.sleep(0.01)
        self.spawned = (started, time.perf_counter())  # until /healthz answers
        self.ticks0 = self._ticks()

    def _ticks(self) -> int:
        """utime+stime+cutime+cstime of the server, in clock ticks."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return sum(int(value) for value in fields[11:15])

    def hwm_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0  # pragma: no cover - non-Linux

    def cpu_s(self) -> float:
        return (self._ticks() - self.ticks0) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def timeline(self) -> Timeline:
        """The server's probes; only once it has stopped."""
        try:
            samples = json.loads(self.samples.read_text())
        except (OSError, ValueError) as exc:
            raise WorkloadError(f"no host-pace samples from the server: {exc}")
        self.samples.unlink()
        return Timeline(samples)


class Service:
    def __init__(self, seed: int, work: Path, table, src: Path) -> None:
        self.mix = request_mix(seed)
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.table = table
        self.src = src
        self.tally = Tally()
        self.spawns: list[float] = []  # paced seconds, spawn until /healthz
        self.hwm = 0.0

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="service-", dir=self.work))

    def round(self) -> Round:
        """Fresh server and root, the whole request mix, server stopped;
        paced by the server's probes.  CPU is this process's plus the
        server's."""
        root = self.fresh_dir()
        server = ServerProcess(root, self.src, root.with_suffix(".samples"))
        try:
            cpu0 = time.process_time()
            start, end, done = drive(server.host, server.port, self.mix,
                                     self.table, self.tally)
            cpu = time.process_time() - cpu0 + server.cpu_s()
            self.hwm = max(self.hwm, server.hwm_mib())
        finally:
            server.stop()
            shutil.rmtree(root, ignore_errors=True)
        timeline = server.timeline()
        self.spawns.append(timeline.paced(*server.spawned))
        latencies = [(request.sent, request.done) for request in done]
        return Marks(start, end, cpu, len(done), latencies).paced(timeline)

    def in_process_round(self, tracer: spans.Tracer | None):
        """The mix against a server thread in this process at ``jobs=1``,
        so every engine layer runs where the wrappers can see it; not
        paced, because probes would sit inside the spans.  Returns the raw
        wall time and what the per-layer metrics read."""
        from repro.analysis import family
        from repro.hdl import expr as E
        from repro.service.client import ServiceClient
        from repro.service.server import ServerThread, ServiceConfig

        # start from what a fresh server process holds: no memoised
        # family analyses, no interned expressions
        family._ANALYSES.clear()
        E.clear_intern_table()
        gc.collect()
        root = self.fresh_dir()
        uninstall = spans.install(tracer) if tracer is not None else None
        try:
            config = ServiceConfig(root=root, engine_jobs=1, solve_slots=1)
            with ServerThread(config) as server:
                start, end, done = drive(*server.address, self.mix,
                                         self.table, self.tally)
                wall = end - start
                stats_payload = ServiceClient(*server.address).stats()
                reports = [
                    (job.machine_spec.get("core"), job.report)
                    for job in server.service.results.values()
                    if job.report is not None
                ]
            cache_bytes = dir_bytes(root)
        finally:
            if uninstall is not None:
                uninstall()
            shutil.rmtree(root, ignore_errors=True)
        return wall, done, stats_payload, reports, cache_bytes


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(
    tracers: list[spans.Tracer],
    traced_walls: list[float],
    untraced_walls: list[float],
    reports: list,
    cache_bytes: int,
) -> dict[str, float]:
    """Per-layer values from the traced rounds (self seconds per round,
    wrapper counts of the last round) and from ``reports`` (``(core,
    JobReport)`` pairs of a round at the timed settings)."""
    totals = layer_seconds(tracers)
    values = {f"{name}_s": totals.get(name, 0.0) / len(tracers) for name in TIMED_LAYERS}
    attributed = sum(totals.get(name, 0.0) for name in TIMED_LAYERS)
    counts = tracers[-1].counts
    for name in (
        "proofs.fingerprints",
        "absint.candidates",
        "absint.proven",
        "absint.cache_hits",
        "formal.groups",
        "analysis.certified",
        "analysis.served",
        "jobs.cache_hits",
        "jobs.cache_misses",
    ):
        values[name] = counts.get(name, 0)
    values["absint.proven_ratio"] = _ratio(
        counts.get("absint.proven", 0), counts.get("absint.candidates", 0)
    )
    values["analysis.served_ratio"] = _ratio(
        counts.get("analysis.served", 0), counts.get("analysis.lookups", 0)
    )
    values["jobs.cache_bytes"] = cache_bytes
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["trace.unattributed_s"] = (sum(traced_walls) - attributed) / len(tracers)
    values["trace.coverage"] = attributed / sum(traced_walls)
    values["trace.overhead"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )

    values["proofs.obligations"] = sum(len(report.outcomes) for _, report in reports)
    conflicts = frames = 0
    rungs = dict.fromkeys(RUNGS, 0)
    sources = dict.fromkeys(SOURCES, 0)
    for core, report in reports:
        values[f"suite.{core}_s"] = values.get(f"suite.{core}_s", 0.0) + report.wall_seconds
        for outcome in report.outcomes:
            sources[outcome.source] = sources.get(outcome.source, 0) + 1
            if outcome.source in ("cache", "family", "lint", "taint"):
                continue
            record = outcome.record
            conflicts += record.conflicts
            frames += record.frames
            if record.method.startswith(("trace(", "sat-")):
                continue  # trace checks and equivalences have no ladder
            rungs[_rung(record)] += 1
    values["formal.conflicts"] = conflicts
    values["formal.frames"] = frames
    values.update({f"formal.rung.{rung}": n for rung, n in rungs.items()})
    values.update({f"jobs.source.{source}": sources[source] for source in SOURCES})
    busy = sum(sum(r.worker_seconds.values()) for _, r in reports)
    available = sum(r.jobs * r.wall_seconds for _, r in reports)
    values["jobs.worker_busy_s"] = busy
    values["jobs.utilisation"] = _ratio(busy, available)
    values["jobs.crashes"] = sum(r.crashes for _, r in reports)
    values["jobs.retries"] = sum(r.retries for _, r in reports)
    for name in LAYER:
        values.setdefault(name, 0)
    return values


def _rung(record) -> str:
    """Which rung of the degradation ladder decided an invariant."""
    if record.status.value == "unknown":
        return "exhausted"
    if "[scratch]" in record.method:
        return "scratch"
    if record.method.startswith("bdd("):
        return "bdd"
    return "incremental"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


def _keep_going(started: float, expected: float, seconds: float) -> bool:
    """Whether to start another step of ``expected`` seconds: yes while it
    would end closer to the measuring budget than stopping now does, so a
    run measures ``seconds`` give or take half a step."""
    return time.perf_counter() - started + expected / 2 < seconds


def e2e_values(result: dict) -> tuple[dict, dict]:
    """End-to-end values and their samples from a run's measurements.

    Every time is paced.  ``wall_s``, ``cpu_s`` and the latency
    percentiles are medians over rounds of each round's own value, so one
    slow round moves none of them.  A round's percentile is taken over
    its own latencies: a batch round yields the same verdicts in the same
    order every time, so pooling rounds would make a percentile whose
    rank falls on the last copy of a verdict the slowest round's value.
    ``setup_s`` is each set-up interpreter's time to ready plus the median
    preparation step (the warm cache's priming pass, the service's server
    spawns).
    """
    rounds = [Round(**r) for r in result["rounds"]]
    walls = [r.wall for r in rounds]
    prep = statistics.median(result["prep"] or [0.0])
    samples = {
        "setup_s": [setup + prep for setup in result["setups"]],
        "wall_s": walls,
        "cpu_s": [r.cpu for r in rounds],
        "peak_rss_mb": [result["peak_mib"]],
        **{
            name: [stats.percentile(r.latencies, p) for r in rounds]
            for name, p in PERCENTILES.items()
        },
        "ops_per_s": [r.ops / wall for r, wall in zip(rounds, walls)],
    }
    values = {name: statistics.median(values) for name, values in samples.items()}
    values["ops_per_s"] = sum(r.ops for r in rounds) / sum(walls)
    return values, samples


def run_batch(name, seconds, trace, work, table, ready, chrome, sampler) -> dict:
    """One batch workload; untraced, its rounds are paced by ``sampler``,
    which has run since the interpreter started and is stopped here."""
    batch = Batch(name, work, table)
    batch.warm_up()
    ready()
    if not trace:
        prep = [batch.prime()] if name == "warm" else []
        started = time.perf_counter()
        marks = [batch.round(JOBS)]
        while _keep_going(
            started, statistics.median(m.end - m.start for m in marks), seconds
        ):
            marks.append(batch.round(JOBS))
        sampler.stop()
        timeline = sampler.timeline()
        rounds = [m.paced(timeline) for m in marks]
        return _result(batch.tally, rounds=[asdict(r) for r in rounds],
                       prep=[timeline.paced(*p) for p in prep],
                       peak_mib=peak_rss_mib())

    # traced run: one round for the JobReport figures, then (untraced,
    # traced) pairs; jobs=1 is the inline path, where every layer call
    # happens in this process
    if name == "warm":
        batch.prime()
    started = time.perf_counter()
    batch.round(JOBS)
    reports = batch.reports

    def wall() -> float:
        marks = batch.round(JOBS)
        return marks.end - marks.start

    def traced_round(tracer: spans.Tracer) -> tuple[float, None]:
        batch.tracer = tracer
        uninstall = spans.install(tracer)
        try:
            return wall(), None
        finally:
            uninstall()
            batch.tracer = None

    untraced, traced, tracers, _ = traced_pairs(
        started, seconds, wall, traced_round, name, chrome
    )
    values = layer_metrics(tracers, traced, untraced, reports, batch.cache_bytes)
    return _result(batch.tally, values=values, traced_rounds=len(traced))


def traced_pairs(started, seconds, untraced_round, traced_round, label, chrome):
    """(untraced, traced) round pairs while the measuring time lasts.

    ``untraced_round()`` returns a wall time; ``traced_round(tracer)``
    returns a wall time and the round's result.  Returns the untraced
    and traced walls, the tracers and the last traced round's result;
    with ``chrome`` set, writes every traced round as trace events.
    """
    untraced: list[float] = []
    traced: list[float] = []
    tracers: list[spans.Tracer] = []
    last = None
    origin = time.perf_counter()
    while not traced or _keep_going(started, untraced[-1] + traced[-1], seconds):
        untraced.append(untraced_round())
        tracer = spans.Tracer()
        wall, last = traced_round(tracer)
        traced.append(wall)
        tracers.append(tracer)
    if chrome:
        events = []
        for tracer in tracers:
            events += spans.chrome_events(tracer.spans, origin, label)
        spans.write_chrome(chrome, events)
    return untraced, traced, tracers, last


def run_service(seed, seconds, trace, work, table, src, ready, chrome) -> dict:
    service = Service(seed, work, table, src)
    ready()
    started = time.perf_counter()
    if not trace:
        rounds = [service.round()]
        spawn = max(service.spawns)
        while _keep_going(
            started, statistics.median(r.raw for r in rounds) + spawn, seconds
        ):
            rounds.append(service.round())
        return _result(service.tally, rounds=[asdict(r) for r in rounds],
                       prep=service.spawns, peak_mib=service.hwm)

    def traced_round(tracer: spans.Tracer):
        wall, *rest = service.in_process_round(tracer)
        return wall, rest

    untraced, traced, tracers, last = traced_pairs(
        started, seconds, lambda: service.in_process_round(None)[0],
        traced_round, "service", chrome,
    )
    done, payload, reports, cache_bytes = last
    values = layer_metrics(tracers, traced, untraced, reports, cache_bytes)
    # medians per request of the three legs of its latency
    streamed = [r for r in done if r.first_verdict]
    values["service.accept_s"] = statistics.median(r.accepted - r.sent for r in done)
    values["service.first_verdict_s"] = statistics.median(
        r.first_verdict - r.accepted for r in streamed
    )
    values["service.stream_s"] = statistics.median(
        r.done - r.first_verdict for r in streamed
    )
    for key in ("solves", "deduped", "replayed", "shed"):
        values[f"service.{key}"] = payload.get(key, 0)
    requests = payload.get("accepted", 0) + payload.get("deduped", 0) + payload.get(
        "replayed", 0
    )
    values["service.coalesce_ratio"] = _ratio(
        payload.get("deduped", 0) + payload.get("replayed", 0), requests
    )
    return _result(service.tally, values=values, traced_rounds=len(traced))


def layer_seconds(tracers: list[spans.Tracer]) -> dict[str, float]:
    """Self seconds per layer, summed over the traced rounds."""
    totals: dict[str, float] = {}
    for tracer in tracers:
        for name, seconds in spans.self_times(tracer.spans).items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


def _result(tally: Tally, **fields) -> dict:
    """What the child reports: its verdict tally plus, untraced, the paced
    ``rounds``, ``prep`` seconds and ``peak_mib`` that
    :func:`e2e_values` summarises, or, traced, the per-layer ``values``."""
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        **fields,
    }


def main(argv: list[str]) -> int:
    """Child entry: ``workloads.py NAME SEED SECONDS TRACE WORKDIR
    --spawned T [--setup-only] [--chrome FILE]``, where T is the parent's
    ``perf_counter`` when it started this interpreter (the clock is the
    system's monotonic one, shared by every process).  Prints
    ``E2E-READY <paced set-up seconds>`` when set up and ``E2E-RESULT
    <json>`` at the end."""
    name, seed, seconds, trace, work = argv[:5]
    seed, seconds, trace, work = int(seed), float(seconds), trace == "1", Path(work)
    spawned = float(argv[argv.index("--spawned") + 1])
    setup_only = "--setup-only" in argv
    chrome = argv[argv.index("--chrome") + 1] if "--chrome" in argv else None
    src = Path(__file__).resolve().parents[2] / "src"
    table = known.load()

    # a terminated run still stops its server and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with Sampler() as sampler:

        def ready() -> None:
            setup = sampler.timeline().paced(spawned, time.perf_counter())
            if trace or name == "service":
                # traced rounds must not hold probes, and the service's
                # rounds are paced by the server's own sampler
                sampler.stop()
            print(f"E2E-READY {setup!r}", flush=True)
            if setup_only:
                raise SystemExit(0)

        try:
            if name == "service":
                # what the in-process server of a traced run imports lazily
                import repro.absint  # noqa: F401
                import repro.analysis.family  # noqa: F401
                import repro.lint  # noqa: F401
                import repro.service  # noqa: F401

                result = run_service(seed, seconds, trace, work, table, src, ready, chrome)
            else:
                result = run_batch(
                    name, seconds, trace, work, table, ready, chrome, sampler
                )
        except WorkloadError as exc:
            print(f"workload {name}: {exc}", file=sys.stderr)
            return 3
    print("E2E-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
