"""Chaos-injection harness for the discharge service.

The integrity claims of :mod:`repro.service.server` — exactly one
terminal event per accepted request, exactly one verdict per obligation,
verdicts identical to a clean ``repro discharge`` run — are only worth
stating if they hold *under fire*.  This harness drives a live server
over a real socket with concurrent multi-tenant clients while an
injector thread applies fault operators:

* ``worker_kill`` — SIGKILL a random forked solver worker mid-proof
  (the engine's crash-retry path absorbs it; total kills are capped at
  the service's retry depth so no group can ever exhaust its budget —
  the campaign verifies delivery integrity, not retry-lottery luck);
* ``cache_corrupt`` — scribble bytes into a random record of the store,
  whichever namespace holds it (discharge verdict, family verdict or
  mined invariants): the checksum gauntlet evicts and recomputes it;
* ``journal_truncate`` — chop the tail off the write-ahead journal, the
  torn-line shape a power cut leaves (``scan`` skips, never misreads);
* ``solver_stall`` — wrap the solver so obligations randomly sleep
  (below their timeout), stretching the window every other fault races;
* ``client_disconnect`` — some clients hang up mid-stream (the solve
  must finish for the journal and every other subscriber anyway).

An optional **restart phase** then SIGKILL-simulates the server itself
(loop stopped dead, no drain) with accepted-but-undischarged jobs in the
journal, restarts on the same root, and requires the recovered jobs to
finish with the same clean-run verdicts.

The report is machine-checkable: ``violations == []`` is the contract.
``repro serve --chaos`` and the CI `service` job both emit it as JSON.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..jobs.engine import EngineParams, discharge_jobs
from ..proofs import generate_obligations
from . import protocol
from .client import DischargeResult, ServiceClient
from .server import ServerThread, ServiceConfig

OPERATORS = (
    "worker_kill",
    "cache_corrupt",
    "journal_truncate",
    "solver_stall",
    "client_disconnect",
)

#: stall seam: forked workers inherit this module global (fork happens
#: after ``install_stall`` patched the solver), so the injector can slow
#: obligations down without touching engine code
_STALL_SECONDS = 0.0
_STALL_LOCK = threading.Lock()


def _stalling_solver_record(original):
    def wrapper(system, obligations, params, member_timeout):
        for index, record in original(system, obligations, params, member_timeout):
            seconds = _STALL_SECONDS
            # deterministic per-obligation coin flip: half the verdicts
            # stall before they are delivered, the stall stays far below
            # any timeout
            if seconds > 0.0 and zlib.crc32(record.oid.encode()) % 2 == 0:
                time.sleep(seconds)
            yield index, record

    return wrapper


def install_stall():
    """Wrap the engine's per-task verdict stream with the stall seam —
    every pooled and inline SAT verdict passes through it; returns a
    restore callable.  Idempotent for the duration of one harness run."""
    from ..jobs import engine as engine_mod

    original = engine_mod._solver_record
    engine_mod._solver_record = _stalling_solver_record(original)

    def restore():
        engine_mod._solver_record = original

    return restore


def set_stall(seconds: float) -> None:
    global _STALL_SECONDS
    with _STALL_LOCK:
        _STALL_SECONDS = seconds


@dataclass
class ChaosConfig:
    root: str | Path = ".repro-service-chaos"
    seed: int = 7
    requests: int = 12
    disconnect_every: int = 4  # every Nth request hangs up mid-stream
    tenants: tuple[str, ...] = ("chaos-a", "chaos-b", "chaos-c")
    machine: dict = field(default_factory=lambda: {"core": "toy"})
    #: distinct verdict-relevant param sets → distinct jobs, so dedup
    #: does not collapse the whole campaign onto one solve
    param_variants: tuple = (
        {"trace_cycles": 40},
        {"trace_cycles": 44},
        {"trace_cycles": 48},
    )
    operators: tuple[str, ...] = OPERATORS
    injections: int = 16
    inject_interval: float = 0.08
    stall_s: float = 0.04
    solve_slots: int = 2
    engine_jobs: int = 2
    #: retry depth of the service under test — and the campaign's worker
    #: kill budget.  A solve group only fails after ``max_retries + 1``
    #: crashes, so capping total kills at ``max_retries`` makes every
    #: injected fault absorbable *by construction*: the integrity check
    #: then measures delivery, not retry-lottery luck
    max_retries: int = 8
    budget_s: float = 240.0  # no request may outlive this
    restart_phase: bool = True
    restart_stall_s: float = 0.25  # slows the solve so the kill wins the race


@dataclass
class ChaosReport:
    config: dict
    baseline: dict  # variant index -> {oid: status}
    requests: list[dict] = field(default_factory=list)
    injected: dict = field(default_factory=dict)  # operator -> count
    recovered_jobs: int = 0
    violations: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "wall_seconds": round(self.wall_seconds, 3),
            "requests": self.requests,
            "injected": self.injected,
            "recovered_jobs": self.recovered_jobs,
            "violations": self.violations,
            "baseline_obligations": {
                str(k): len(v) for k, v in self.baseline.items()
            },
            "server_stats": self.stats,
            "config": self.config,
        }


def clean_baseline(config: ChaosConfig) -> dict[int, dict[str, str]]:
    """Ground truth: each param variant discharged directly (no server,
    no cache) — byte-for-byte what ``repro discharge`` would report."""
    defaults = EngineParams(max_retries=2)
    baseline: dict[int, dict[str, str]] = {}
    for index, overrides in enumerate(config.param_variants):
        params, _ = protocol.resolve_params(defaults, overrides)
        spec = protocol.canonical_machine_spec(config.machine)
        pipelined = protocol.build_pipelined(spec)
        obligations = generate_obligations(pipelined)
        report = discharge_jobs(
            pipelined,
            obligations,
            params=params,
            jobs=config.engine_jobs,
            cache=None,
        )
        baseline[index] = {
            o.record.oid: o.record.status.value for o in report.outcomes
        }
    return baseline


# -- fault operators ---------------------------------------------------------


def _op_worker_kill(rng: random.Random, root: Path) -> bool:
    import multiprocessing

    children = multiprocessing.active_children()
    if not children:
        return False
    victim = rng.choice(children)
    pid = victim.pid
    if pid is None:
        return False
    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _op_cache_corrupt(rng: random.Random, root: Path) -> bool:
    # any namespace of the store: discharge, family and absint records
    records = sorted((root / "cache").glob("*/*/*.json"))
    if not records:
        return False
    victim = rng.choice(records)
    try:
        data = bytearray(victim.read_bytes())
        if len(data) < 8:
            return False
        at = rng.randrange(len(data) - 4)
        data[at : at + 4] = b"\x00garbage"[:4]
        victim.write_bytes(bytes(data))
    except OSError:
        return False
    return True


def _op_journal_truncate(rng: random.Random, root: Path) -> bool:
    path = root / "journal.ndjson"
    try:
        size = path.stat().st_size
        if size < 32:
            return False
        with open(path, "rb+") as handle:
            handle.truncate(size - rng.randint(1, 24))
    except OSError:
        return False
    return True


def _op_solver_stall(rng: random.Random, root: Path, stall_s: float) -> bool:
    set_stall(stall_s)
    return True


# -- the campaign ------------------------------------------------------------


def _check_result(
    label: str,
    events: list[dict],
    expected: dict[str, str],
    violations: list[str],
) -> None:
    """The integrity contract for one completed request stream."""
    dones = [e for e in events if e.get("type") == "done"]
    verdicts = [e for e in events if e.get("type") == "verdict"]
    if len(dones) != 1:
        violations.append(f"{label}: {len(dones)} terminal events (want 1)")
        return
    if not dones[0].get("ok"):
        violations.append(f"{label}: job reported not-ok: {dones[0]}")
    seen: dict[str, str] = {}
    for verdict in verdicts:
        oid = verdict.get("oid")
        if oid in seen:
            violations.append(f"{label}: duplicate verdict for {oid}")
        seen[oid] = verdict.get("status")
    if set(seen) != set(expected):
        missing = sorted(set(expected) - set(seen))
        extra = sorted(set(seen) - set(expected))
        violations.append(
            f"{label}: obligation set mismatch (missing {missing}, extra {extra})"
        )
        return
    for oid, status in expected.items():
        if seen[oid] != status:
            violations.append(
                f"{label}: verdict drift on {oid}: {seen[oid]!r} != clean"
                f" {status!r}"
            )


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    config = config or ChaosConfig()
    root = Path(config.root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(config.seed)
    started = time.perf_counter()

    baseline = clean_baseline(config)
    report = ChaosReport(
        config={
            "seed": config.seed,
            "requests": config.requests,
            "operators": list(config.operators),
            "machine": config.machine,
            "restart_phase": config.restart_phase,
        },
        baseline=baseline,
    )
    violations = report.violations

    restore_stall = install_stall()
    set_stall(0.0)
    service_config = ServiceConfig(
        root=root,
        solve_slots=config.solve_slots,
        engine_jobs=config.engine_jobs,
        params=EngineParams(max_retries=config.max_retries),
        max_queue=max(64, config.requests * 2),
        tenant_active=max(8, config.requests),
        breaker_threshold=10**6,  # chaos kills workers on purpose;
        # the breaker has its own dedicated test
    )
    injected = {op: 0 for op in config.operators}
    stop_injector = threading.Event()

    try:
        with ServerThread(service_config) as server:
            host, port = server.address

            def injector() -> None:
                ops = [
                    op
                    for op in config.operators
                    if op not in ("client_disconnect",)
                ]
                kills = 0
                for _ in range(config.injections):
                    if stop_injector.is_set() or not ops:
                        break
                    op = rng.choice(ops)
                    hit = False
                    if op == "worker_kill":
                        hit = _op_worker_kill(rng, root)
                        if hit:
                            kills += 1
                            if kills >= config.max_retries:
                                # kill budget spent: further kills could
                                # exhaust a group's retries and turn the
                                # integrity check into a coin flip
                                ops.remove("worker_kill")
                    elif op == "cache_corrupt":
                        hit = _op_cache_corrupt(rng, root)
                    elif op == "journal_truncate":
                        hit = _op_journal_truncate(rng, root)
                    elif op == "solver_stall":
                        hit = _op_solver_stall(rng, root, config.stall_s)
                    if hit:
                        injected[op] += 1
                    time.sleep(config.inject_interval)

            results: list[dict] = []
            results_lock = threading.Lock()

            def one_request(index: int) -> None:
                tenant = config.tenants[index % len(config.tenants)]
                variant = index % len(config.param_variants)
                params = dict(config.param_variants[variant])
                client = ServiceClient(
                    host, port, tenant=tenant, timeout=config.budget_s
                )
                disconnect = (
                    "client_disconnect" in config.operators
                    and config.disconnect_every > 0
                    and index % config.disconnect_every == config.disconnect_every - 1
                )
                entry: dict = {
                    "request": index,
                    "tenant": tenant,
                    "variant": variant,
                    "mode": "disconnect" if disconnect else "full",
                }
                try:
                    stream = client.stream(config.machine, params=params)
                    if isinstance(stream, DischargeResult):
                        entry["outcome"] = f"rejected:{stream.status}"
                    elif disconnect:
                        with stream:
                            events = []
                            for event in stream:
                                events.append(event)
                                if len(events) >= 2:
                                    break
                        entry["outcome"] = "disconnected"
                        entry["job"] = stream.job
                        entry["events_seen"] = len(events)
                    else:
                        with stream:
                            events = list(stream)
                        entry["outcome"] = "completed"
                        entry["job"] = stream.job
                        entry["disposition"] = stream.disposition
                        entry["events"] = len(events)
                        _check_result(
                            f"request {index} ({tenant}, variant {variant})",
                            events,
                            baseline[variant],
                            violations,
                        )
                except Exception as exc:
                    entry["outcome"] = f"error:{exc!r}"
                    violations.append(f"request {index}: client error {exc!r}")
                with results_lock:
                    results.append(entry)

            threads = [
                threading.Thread(target=one_request, args=(i,), daemon=True)
                for i in range(config.requests)
            ]
            injector_thread = threading.Thread(target=injector, daemon=True)
            injector_thread.start()
            for thread in threads:
                thread.start()
                time.sleep(rng.uniform(0.0, 0.05))
            deadline = time.monotonic() + config.budget_s
            for index, thread in enumerate(threads):
                thread.join(max(0.1, deadline - time.monotonic()))
                if thread.is_alive():
                    violations.append(
                        f"request {index} still hanging after"
                        f" {config.budget_s:.0f}s budget"
                    )
            stop_injector.set()
            injector_thread.join(5.0)
            set_stall(0.0)
            report.injected = injected
            report.requests = sorted(results, key=lambda e: e["request"])
            completed = [
                e for e in report.requests if e.get("outcome") == "completed"
            ]
            if not completed:
                violations.append("no request completed under chaos")
            report.stats = server.call(server.service.stats_dict)

        # ---- restart phase: SIGKILL the server, recover from journal ----
        if config.restart_phase:
            _restart_phase(config, baseline, report)
    finally:
        stop_injector.set()
        set_stall(0.0)
        restore_stall()

    report.wall_seconds = time.perf_counter() - started
    return report


def _restart_phase(
    config: ChaosConfig, baseline: dict, report: ChaosReport
) -> None:
    """Accept jobs, kill the server dead, restart, verify recovery."""
    root = Path(config.root)
    violations = report.violations
    service_config = ServiceConfig(
        root=root,
        solve_slots=config.solve_slots,
        engine_jobs=config.engine_jobs,
        params=EngineParams(max_retries=config.max_retries),
        use_cache=False,  # force the recovered solve to actually solve
        breaker_threshold=10**6,
    )
    set_stall(config.restart_stall_s)
    keys: list[str] = []
    server = ServerThread(service_config).__enter__()
    try:
        host, port = server.address
        client = ServiceClient(host, port, tenant="chaos-restart")
        for variant in range(min(2, len(config.param_variants))):
            status, payload = client.submit(
                config.machine, params=dict(config.param_variants[variant])
            )
            if status != 202:
                violations.append(
                    f"restart phase: submit returned {status}: {payload}"
                )
                return
            keys.append(payload["job"])
    finally:
        # no drain, no goodbye: the exact state a SIGKILL leaves behind
        server.kill()
    set_stall(0.0)

    with ServerThread(service_config) as server:
        host, port = server.address
        client = ServiceClient(host, port, tenant="chaos-restart")
        recovered = server.call(lambda: server.service.stats.recovered)
        report.recovered_jobs = recovered
        if recovered < 1:
            violations.append(
                "restart phase: no accepted job recovered from the journal"
            )
        deadline = time.monotonic() + config.budget_s
        for key in keys:
            while time.monotonic() < deadline:
                status, payload = client.job(key)
                if status == 200:
                    variant = keys.index(key)
                    _check_result(
                        f"recovered job {key}",
                        payload.get("events", []),
                        baseline[variant],
                        violations,
                    )
                    break
                if status == 404:
                    # the accepted record itself was lost — only
                    # acceptable if its journal line never hit disk,
                    # which the 202 ack rules out
                    violations.append(
                        f"restart phase: job {key} vanished after restart"
                    )
                    break
                time.sleep(0.2)
            else:
                violations.append(
                    f"restart phase: job {key} not done within budget"
                )


def write_report(report: ChaosReport, path: str | os.PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return path
