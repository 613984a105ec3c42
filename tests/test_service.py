"""The discharge service: protocol, journal, and the five robustness
pillars (in-flight dedup, admission control, write-ahead recovery,
circuit breaker + drain, disconnect tolerance) — each driven over a real
socket against a live :class:`repro.service.ServerThread`.

The full fault campaign (everything at once, under load, plus the
kill/recover phase) lives in ``tests/test_service_chaos.py``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import replace

import pytest

import repro.jobs.engine as engine_mod
from repro.jobs import EngineParams, discharge_jobs
from repro.proofs import generate_obligations
from repro.service import (
    BadRequest,
    Journal,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    job_key,
)
from repro.service import journal as journal_mod
from repro.service import protocol
from repro.service.journal import JOURNAL_VERSION
from repro.store import seal

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="service tests need forked workers"
)

TOY = {"core": "toy"}
PARAMS = {"trace_cycles": 60}


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        root=tmp_path / "svc",
        solve_slots=2,
        engine_jobs=2,
        params=EngineParams(max_retries=2),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture(scope="module")
def toy_baseline():
    """Clean-run ground truth: oid -> status straight from the engine."""
    defaults = EngineParams(max_retries=2)
    params, _ = protocol.resolve_params(defaults, PARAMS)
    spec = protocol.canonical_machine_spec(TOY)
    pipelined = protocol.build_pipelined(spec)
    report = discharge_jobs(
        pipelined, generate_obligations(pipelined), params=params, jobs=2
    )
    assert report.ok
    return {o.record.oid: o.record.status.value for o in report.outcomes}


def _verdict_map(events):
    return {
        e["oid"]: e["status"] for e in events if e.get("type") == "verdict"
    }


# ---------------------------------------------------------------------------
# protocol


def test_machine_spec_validation():
    assert protocol.canonical_machine_spec({"core": "toy"}) == {"core": "toy"}
    with pytest.raises(BadRequest):
        protocol.canonical_machine_spec({"core": "nope"})
    with pytest.raises(BadRequest):
        protocol.canonical_machine_spec("toy")
    with pytest.raises(BadRequest):
        protocol.canonical_machine_spec({})
    with pytest.raises(BadRequest):
        protocol.canonical_machine_spec({"program": ""})
    with pytest.raises(BadRequest):
        protocol.canonical_machine_spec({"program": "halt:", "dmem_bits": 40})
    with pytest.raises(BadRequest):
        protocol.canonical_machine_spec({"program": "halt:", "style": "x"})
    spec = protocol.canonical_machine_spec({"program": "halt:\n  nop"})
    assert spec == {"program": "halt:\n  nop", "dmem_bits": 6, "style": "chain"}


def test_param_resolution_rejects_unknown_and_mistyped():
    defaults = EngineParams()
    with pytest.raises(BadRequest):
        protocol.resolve_params(defaults, {"max_retries": 5})  # server-only
    with pytest.raises(BadRequest):
        protocol.resolve_params(defaults, {"max_k": "two"})
    with pytest.raises(BadRequest):
        protocol.resolve_params(defaults, {"family": 1})
    with pytest.raises(BadRequest):
        protocol.resolve_params(defaults, ["max_k"])
    # out of range: a bound or a trace that checks nothing is a 400, not
    # a vacuous "bounded"/"trace-ok" verdict cached under its own key
    with pytest.raises(BadRequest, match="bmc_bound"):
        protocol.resolve_params(defaults, {"max_k": 0, "bmc_bound": -1})
    with pytest.raises(BadRequest, match="trace_cycles"):
        protocol.resolve_params(defaults, {"trace_cycles": -3})
    # knobs the engine no longer has are unknown keys like any other
    for gone in ("lanes", "share", "incremental", "sweep_frames", "ladder"):
        with pytest.raises(BadRequest):
            protocol.resolve_params(defaults, {gone: 1})
    # the engine always mines; True is a value the old absint knob took
    with pytest.raises(BadRequest, match="unknown params: absint"):
        protocol.resolve_params(defaults, {"absint": True})
    params, clean = protocol.resolve_params(defaults, {"max_k": 3, "family": False})
    # family is a request param, not an engine parameter
    assert params == replace(defaults, max_k=3)
    assert clean == {"max_k": 3, "family": False}
    # server-side robustness knobs survive untouched
    assert params.max_retries == defaults.max_retries


def test_engine_params_reject_out_of_range_values():
    EngineParams(max_k=0, bmc_bound=0, trace_cycles=1, liveness_bound=0)
    for bad in (
        {"trace_cycles": 0},
        {"max_k": -1},
        {"bmc_bound": -1},
        {"liveness_bound": -1},
        {"max_conflicts": -1},
        {"max_k": None},
    ):
        with pytest.raises(ValueError):
            EngineParams(**bad)


def test_job_key_tracks_verdict_relevant_params_only():
    defaults = EngineParams()
    spec = protocol.canonical_machine_spec(TOY)
    base, _ = protocol.resolve_params(defaults, {})
    family_off, _ = protocol.resolve_params(defaults, {"family": False})
    deeper, _ = protocol.resolve_params(defaults, {"max_k": 5})
    assert job_key(spec, base) == job_key(spec, family_off)
    assert job_key(spec, base) != job_key(spec, deeper)
    other = protocol.canonical_machine_spec({"core": "dlx-small"})
    assert job_key(spec, base) != job_key(other, base)


# ---------------------------------------------------------------------------
# write-ahead journal


def test_journal_roundtrip_and_compaction(tmp_path):
    path = tmp_path / "j.ndjson"
    journal = Journal(path)
    journal.accepted("job-a", "t1", {"machine": TOY})
    journal.verdict("job-a", {"oid": "ob1", "status": "proved"})
    journal.accepted("job-b", "t2", {"machine": TOY})
    journal.done("job-a", True, {"proved": 1})
    state = journal.scan()
    assert state.lines == 4 and state.skipped == 0
    assert state.jobs["job-a"].done and state.jobs["job-a"].ok
    assert [j.key for j in state.incomplete()] == ["job-b"]
    # compaction drops the completed job, keeps the incomplete one intact
    dropped = journal.compact()
    assert dropped == 3
    state = journal.scan()
    assert set(state.jobs) == {"job-b"}
    journal.close()


def test_journal_skips_torn_and_corrupt_lines(tmp_path):
    path = tmp_path / "j.ndjson"
    journal = Journal(path)
    journal.accepted("job-a", "t", {"machine": TOY})
    journal.verdict("job-a", {"oid": "ob1", "status": "proved"})
    journal.close()
    intact = path.read_bytes()
    # a torn tail (crash mid-append), a scribbled line, a version skew
    skewed = seal({"type": "done", "job": "job-a"}, JOURNAL_VERSION + 1)
    path.write_bytes(
        intact
        + b'{"version": 2, "type": "done", "job": "job-a"'  # torn
        + b"\n\x00\xffgarbage\n"
        + json.dumps(skewed).encode()
        + b"\n"
    )
    state = journal_mod.scan(path)
    assert state.skipped == 3
    assert not state.jobs["job-a"].done  # the forged 'done' did not land
    assert state.jobs["job-a"].verdicts["ob1"]["status"] == "proved"


def test_journal_skips_version_1_lines(tmp_path):
    """A journal written before lines were sealed by ``repro.store``
    (``"v": 1`` plus a 16-hex ``"sum"``) is version skew: skipped, never
    recovered as a job."""
    body = {"v": 1, "t": 0.0, "type": "accepted", "job": "old", "tenant": "t"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["sum"] = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    path = tmp_path / "j.ndjson"
    path.write_text(json.dumps(body, sort_keys=True) + "\n")
    state = journal_mod.scan(path)
    assert state.lines == 1 and state.skipped == 1 and not state.jobs


def test_journal_checksum_rejects_bit_flip(tmp_path):
    path = tmp_path / "j.ndjson"
    journal = Journal(path)
    journal.accepted("job-a", "t", {"machine": TOY})
    journal.close()
    data = bytearray(path.read_bytes())
    at = data.index(b"job-a")
    data[at] = ord("x")  # flip one byte inside a sealed record
    path.write_bytes(bytes(data))
    state = journal_mod.scan(path)
    assert state.skipped == 1 and not state.jobs


def test_journal_missing_file_scans_empty(tmp_path):
    state = journal_mod.scan(tmp_path / "absent.ndjson")
    assert state.jobs == {} and state.lines == 0


# ---------------------------------------------------------------------------
# end-to-end over the socket


def test_discharge_stream_matches_clean_run(tmp_path, toy_baseline):
    with ServerThread(_config(tmp_path)) as server:
        client = ServiceClient(*server.address, tenant="t1")
        result = client.discharge(TOY, params=PARAMS)
        assert result.status == 200 and result.disposition == "new"
        assert result.ok
        assert _verdict_map(result.events) == toy_baseline
        # terminal event carries the summary
        done = result.done
        assert done["counts"] and done["job"] == result.job
        # the whole history is replayable via GET /v1/jobs/<key>
        status, payload = client.job(result.job)
        assert status == 200 and payload["state"] == "done"
        assert _verdict_map(payload["events"]) == toy_baseline
        # resubmission is served from the result window, same verdicts
        warm = client.discharge(TOY, params=PARAMS)
        assert warm.disposition == "replayed"
        assert _verdict_map(warm.events) == toy_baseline
        stats = client.stats()
        assert stats["solves"] == 1 and stats["replayed"] == 1


def test_fresh_server_stats_report_cache_counters(tmp_path):
    # an enabled but empty cache is still a cache: counters, not null
    with ServerThread(_config(tmp_path)) as server:
        stats = ServiceClient(*server.address).stats()
    assert stats["cache"] == {
        "hits": 0, "misses": 0, "stores": 0, "evictions": 0, "hit_rate": 0.0
    }


def test_http_surface(tmp_path):
    with ServerThread(_config(tmp_path)) as server:
        client = ServiceClient(*server.address)
        health = client.healthz()
        assert health["ok"] is True and health["status"] == 200
        status, payload = client.job("no-such-key")
        assert status == 404
        bad = client.discharge({"core": "nope"})
        assert bad.status == 400 and "unknown core" in bad.error["error"]
        mistyped = client.discharge(TOY, params={"max_k": "deep"})
        assert mistyped.status == 400
        # wait:false returns an acceptance immediately
        status, payload = client.submit(TOY, params=PARAMS)
        assert status == 202 and payload["disposition"] == "new"
        assert payload["job"] == job_key(
            protocol.canonical_machine_spec(TOY),
            protocol.resolve_params(EngineParams(max_retries=2), PARAMS)[0],
        )


def test_response_ends_while_forked_workers_hold_the_socket(tmp_path, monkeypatch):
    """A solve forks its workers while other connections are open, and
    each fork inherits their sockets: a response must end when the
    server is done with it, not when those workers exit."""
    from repro.service.server import DischargeService

    original = DischargeService.submit
    children: list[int] = []

    def submit_beside_a_fork(self, tenant, body):
        pid = os.fork()
        if pid == 0:  # a stand-in solver worker holding every open fd
            time.sleep(30)
            os._exit(0)
        children.append(pid)
        return original(self, tenant, body)

    monkeypatch.setattr(DischargeService, "submit", submit_beside_a_fork)
    try:
        with ServerThread(_config(tmp_path)) as server:
            started = time.monotonic()
            status, _ = ServiceClient(*server.address).submit(TOY, params=PARAMS)
            elapsed = time.monotonic() - started
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert status == 202
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# pillar 1: in-flight dedup


def test_ten_concurrent_identical_requests_one_solve(tmp_path, toy_baseline):
    from repro.service import chaos as chaos_mod

    restore = chaos_mod.install_stall()
    chaos_mod.set_stall(0.15)  # hold the solve open while clients pile in
    try:
        with ServerThread(_config(tmp_path)) as server:
            host, port = server.address
            results: list = [None] * 10
            barrier = threading.Barrier(10)

            def one(i):
                barrier.wait()
                client = ServiceClient(host, port, tenant="dedup")
                results[i] = client.discharge(TOY, params=PARAMS)

            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(10)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert all(t.is_alive() is False for t in threads)
            stats = server.call(server.service.stats_dict)
    finally:
        chaos_mod.set_stall(0.0)
        restore()
    # ten requests, ONE solve; every waiter got the full verdict stream
    assert stats["solves"] == 1
    assert stats["accepted"] == 1
    assert stats["deduped"] + stats["replayed"] == 9
    for result in results:
        assert result.status == 200 and result.ok
        assert _verdict_map(result.events) == toy_baseline


def test_stall_holds_inline_verdicts(toy_pipelined, monkeypatch):
    """The chaos stall wraps the per-task verdict stream, so it holds
    verdicts of an inline (one worker, no timeout) discharge too — the
    dedup, shedding, recovery and drain tests rely on it to keep a solve
    open."""
    import types

    from repro.service import chaos as chaos_mod

    stalls: list[float] = []
    monkeypatch.setattr(chaos_mod, "time", types.SimpleNamespace(sleep=stalls.append))
    restore = chaos_mod.install_stall()
    chaos_mod.set_stall(0.05)
    try:
        report = discharge_jobs(
            toy_pipelined,
            generate_obligations(toy_pipelined),
            params=EngineParams(trace_cycles=60),
            jobs=1,
        )
    finally:
        chaos_mod.set_stall(0.0)
        restore()
    assert report.ok
    assert stalls and set(stalls) == {0.05}
    assert len(stalls) < len(report.outcomes)  # the coin flip spares some


# ---------------------------------------------------------------------------
# pillar 2: admission control / backpressure


def test_tenant_quota_sheds_with_retry_after(tmp_path):
    from repro.service import chaos as chaos_mod

    restore = chaos_mod.install_stall()
    chaos_mod.set_stall(0.3)
    try:
        with ServerThread(
            _config(tmp_path, tenant_active=1, solve_slots=1)
        ) as server:
            client = ServiceClient(*server.address, tenant="greedy")
            status, payload = client.submit(TOY, params={"trace_cycles": 40})
            assert status == 202
            # same tenant, different job, quota of 1 exhausted -> 429
            shed = client.discharge(TOY, params={"trace_cycles": 44})
            assert shed.status == 429
            assert shed.retry_after is not None and shed.retry_after >= 1
            assert "quota" in shed.error["error"]
            # a different tenant is not punished by the greedy one
            other = ServiceClient(*server.address, tenant="patient")
            status, payload = other.submit(TOY, params={"trace_cycles": 48})
            assert status == 202
            stats = other.stats()
            assert stats["shed"] == 1
    finally:
        chaos_mod.set_stall(0.0)
        restore()


def test_full_queue_sheds_with_retry_after(tmp_path):
    from repro.service import chaos as chaos_mod

    restore = chaos_mod.install_stall()
    chaos_mod.set_stall(0.3)
    try:
        with ServerThread(
            _config(tmp_path, max_queue=1, solve_slots=1, tenant_active=10)
        ) as server:
            client = ServiceClient(*server.address, tenant="burst")
            accepted = 0
            shed = None
            # distinct jobs until the bounded queue pushes back
            for cycles in (40, 42, 44, 46, 48, 50):
                result = client.submit(TOY, params={"trace_cycles": cycles})
                if result[0] == 202:
                    accepted += 1
                else:
                    shed = result
                    break
            assert shed is not None, "bounded queue never shed"
            status, payload = shed
            assert status == 429
            assert payload["retry_after"] >= 1
    finally:
        chaos_mod.set_stall(0.0)
        restore()


# ---------------------------------------------------------------------------
# pillar 3: write-ahead journal recovery


def test_killed_server_recovers_jobs_with_at_most_once_verdicts(
    tmp_path, toy_baseline, monkeypatch
):
    from repro.service import chaos as chaos_mod

    config = _config(tmp_path, use_cache=False)
    restore = chaos_mod.install_stall()
    chaos_mod.set_stall(0.3)
    try:
        server = ServerThread(config).__enter__()
        try:
            client = ServiceClient(*server.address, tenant="doomed")
            status, payload = client.submit(TOY, params=PARAMS)
            assert status == 202
            key = payload["job"]
        finally:
            server.kill()  # no drain: accepted-but-undischarged on disk
    finally:
        chaos_mod.set_stall(0.0)
        restore()

    # sanity: the journal really holds an incomplete job
    state = journal_mod.scan(tmp_path / "svc" / "journal.ndjson")
    assert [j.key for j in state.incomplete()] == [key]

    with ServerThread(config) as server:
        client = ServiceClient(*server.address, tenant="doomed")
        assert server.call(lambda: server.service.stats.recovered) == 1
        deadline = time.time() + 120
        while time.time() < deadline:
            status, payload = client.job(key)
            if status == 200:
                break
            time.sleep(0.1)
        assert status == 200, "recovered job never finished"
        verdicts = _verdict_map(payload["events"])
        assert verdicts == toy_baseline
        # at-most-once: exactly one verdict event per obligation
        oids = [
            e["oid"] for e in payload["events"] if e.get("type") == "verdict"
        ]
        assert len(oids) == len(set(oids))
        # the journal agrees: job done, each obligation journalled once
        state = server.call(server.service.journal.scan)
        assert state.jobs[key].done and state.jobs[key].ok
        assert sorted(state.jobs[key].verdicts) == sorted(toy_baseline)


def test_recovery_survives_truncated_journal_tail(tmp_path):
    config = _config(tmp_path)
    with ServerThread(config) as server:
        client = ServiceClient(*server.address)
        result = client.discharge(TOY, params=PARAMS)
        assert result.ok
    # drain compacted the journal; now simulate a crash that tore it:
    # append a valid accepted record, then rip its tail mid-line
    journal = Journal(tmp_path / "svc" / "journal.ndjson")
    journal.accepted("intact-job", "t", {"machine": TOY, "params": PARAMS})
    journal.accepted(
        "torn-job", "t", {"machine": TOY, "params": {"trace_cycles": 44}}
    )
    journal.close()
    path = tmp_path / "svc" / "journal.ndjson"
    data = path.read_bytes()
    path.write_bytes(data[:-7])  # tear the last record mid-line
    with ServerThread(config) as server:
        stats = server.call(server.service.stats_dict)
        # the torn record is skipped, the intact one recovered
        assert stats["recovered"] == 1
        assert stats["journal_skipped_lines"] == 1


def test_recovery_drops_jobs_the_schema_no_longer_accepts(tmp_path):
    """A job journalled with a param the service has since removed is
    not re-run on recovery, and recovery compacts its records away."""
    journal = Journal(tmp_path / "svc" / "journal.ndjson")
    journal.accepted(
        "absint-job", "t", {"machine": TOY, "params": {**PARAMS, "absint": True}}
    )
    journal.close()
    with ServerThread(_config(tmp_path)) as server:
        assert server.call(server.service.stats_dict)["recovered"] == 0
        state = server.call(server.service.journal.scan)
        assert state.jobs == {} and state.lines == 0


# ---------------------------------------------------------------------------
# the family request param


def _family_reports(config, submissions):
    """Run ``(tenant, body)`` submissions one after another through an
    in-process service (after it recovers its journal); returns each
    job's ``(family, report)``, recovered jobs first."""
    from repro.service.server import DischargeService

    async def run():
        service = DischargeService(config)
        await service.start()
        try:
            jobs = list(service.inflight.values())
            for job in jobs:
                await job.done_event.wait()
            for tenant, body in submissions:
                job, _ = service.submit(tenant, body)
                await job.done_event.wait()
                jobs.append(job)
            return [(job.family, job.report) for job in jobs]
        finally:
            await service.drain()

    return asyncio.run(run())


def test_family_false_request_discharges_without_family(tmp_path):
    """The width-8 request seeds the family store; with ``family`` off
    the width-16 request, which family reuse would serve, is solved."""
    config = _config(tmp_path, solve_slots=1)
    ((_, seeding), (family, report)) = _family_reports(
        config,
        [
            ("t", {"machine": {"core": "toy", "width": 8}, "params": PARAMS}),
            (
                "t",
                {
                    "machine": {"core": "toy", "width": 16},
                    "params": {**PARAMS, "family": False},
                },
            ),
        ],
    )
    assert seeding.family is not None and seeding.family["seeded"] > 0
    assert family is False
    assert report.ok and report.family is None
    assert all(o.source != "family" for o in report.outcomes)


def test_recovered_job_keeps_its_family_param(tmp_path):
    journal = Journal(tmp_path / "svc" / "journal.ndjson")
    journal.accepted(
        "family-off-job",
        "t",
        {"machine": TOY, "params": {**PARAMS, "family": False}},
    )
    journal.close()
    ((family, report),) = _family_reports(_config(tmp_path, solve_slots=1), [])
    assert family is False
    assert report.ok and report.family is None


# ---------------------------------------------------------------------------
# pillar 4: circuit breaker + drain


def test_breaker_quarantines_crashy_tenant(tmp_path, monkeypatch):
    """A tenant whose payload SIGKILLs workers (even through retries)
    trips the breaker; other tenants keep service."""
    kill_flag = tmp_path / "kill-workers"
    kill_flag.touch()
    original = engine_mod._solver_record

    def sabotaged(system, obligations, params, member_timeout):
        if kill_flag.exists():
            os.kill(os.getpid(), signal.SIGKILL)
        return original(system, obligations, params, member_timeout)

    monkeypatch.setattr(engine_mod, "_solver_record", sabotaged)
    config = _config(
        tmp_path,
        params=EngineParams(max_retries=0),
        breaker_threshold=1,
        breaker_cooldown=60.0,
        use_cache=False,
    )
    with ServerThread(config) as server:
        client = ServiceClient(*server.address, tenant="cursed")
        result = client.discharge(TOY, params={"trace_cycles": 40})
        assert result.status == 200
        assert not result.ok  # crashed obligations -> job not ok
        crashed = [
            e for e in result.events if e.get("source") == "crashed"
        ]
        assert crashed, "sabotage should surface as crashed outcomes"
        # breaker tripped: next request from this tenant is quarantined
        rejected = client.discharge(TOY, params={"trace_cycles": 44})
        assert rejected.status == 503
        assert rejected.retry_after is not None
        assert "quarantined" in rejected.error["error"]
        # an innocent tenant with a clean payload is still served
        kill_flag.unlink()
        innocent = ServiceClient(*server.address, tenant="innocent")
        ok = innocent.discharge(TOY, params={"trace_cycles": 44})
        assert ok.status == 200 and ok.ok
        stats = innocent.stats()
        assert stats["quarantined"] == 1
        assert stats["tenants"]["cursed"]["quarantined_for"] > 0


def test_drain_finishes_inflight_then_refuses(tmp_path, toy_baseline):
    from repro.service import chaos as chaos_mod

    restore = chaos_mod.install_stall()
    chaos_mod.set_stall(0.15)
    try:
        server = ServerThread(_config(tmp_path)).__enter__()
        exited = False
        try:
            client = ServiceClient(*server.address, tenant="t")
            status, payload = client.submit(TOY, params=PARAMS)
            assert status == 202
            key = payload["job"]
            # drain: HTTP front stops, in-flight job completes
            assert server.drain() is True
            job = server.call(lambda: server.service.results.get(key))
            assert job is not None and job.state == "done"
            assert _verdict_map(job.events) == toy_baseline
            # post-drain, admission refuses with 503
            with pytest.raises(Exception):
                # the listener is closed; the connection itself fails
                client.submit(TOY, params={"trace_cycles": 44})
            # and the journal is compacted clean: nothing incomplete
            state = journal_mod.scan(tmp_path / "svc" / "journal.ndjson")
            assert state.incomplete() == []
            exited = True
        finally:
            server.__exit__(None, None, None)
            assert exited
    finally:
        chaos_mod.set_stall(0.0)
        restore()


# ---------------------------------------------------------------------------
# pillar 5: client disconnect mid-stream


def test_disconnect_mid_stream_does_not_lose_the_job(tmp_path, toy_baseline):
    from repro.service import chaos as chaos_mod

    restore = chaos_mod.install_stall()
    chaos_mod.set_stall(0.1)
    try:
        with ServerThread(_config(tmp_path)) as server:
            client = ServiceClient(*server.address, tenant="flaky")
            stream = client.stream(TOY, params=PARAMS)
            seen = 0
            for _event in stream:
                seen += 1
                if seen >= 2:
                    break
            stream.close()  # hang up mid-solve
            key = stream.job
            # the solve must complete anyway, with full integrity
            deadline = time.time() + 120
            while time.time() < deadline:
                status, payload = client.job(key)
                if status == 200:
                    break
                time.sleep(0.1)
            assert status == 200
            assert _verdict_map(payload["events"]) == toy_baseline
    finally:
        chaos_mod.set_stall(0.0)
        restore()
