"""Crash-safety of the discharge engine (repro.jobs robustness).

Covers the hardening added alongside the fault-injection campaign: the
self-healing result cache (checksummed entries, eviction of corrupt or
version-skewed records), the crash quarantine (a worker killed by a
signal yields a structured ``crashed`` outcome, never a hang or a raw
pool exception), retry with backoff, rlimit resource caps, per-member
``group-error`` degradation when the shared engine raises, and a
combined chaos run exercising all of it at once.

The sabotage pattern: workers are forked, so monkeypatching the engine's
per-task stream ``repro.jobs.engine._solver_record`` (or the shared
engine it drives) in the parent is inherited by every child.  Every
invariant miss runs in a group task, so these tests exercise the one
scheduler there is; ``tests/test_shared.py`` adds the mid-group timeout
and hung-worker backstop cases.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import time

import pytest

import repro.jobs.engine as engine_mod

from repro.absint import InvariantCache, MiningResult
from repro.formal.bmc import TransitionSystem, bmc, bmc_bdd
from repro.formal.shared import SharedContext
from repro.hdl import expr as E
from repro.jobs import CACHE_VERSION, EngineParams, ResultCache, discharge_jobs
from repro.jobs.cache import FamilyCache
from repro.proofs import (
    DischargeRecord,
    Status,
    generate_obligations,
    resolve_properties,
)
from repro.store import seal, unseal

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="worker-pool tests need fork"
)

PARAMS = EngineParams(trace_cycles=60)


@pytest.fixture()
def toy_obligations(toy_pipelined):
    return generate_obligations(toy_pipelined)


def _record_of(report, oid):
    return next(o for o in report.outcomes if o.record.oid == oid)


# ---------------------------------------------------------------------------
# self-healing store: every namespace (discharge, family, absint)

NAMESPACES = ("discharge", "family", "absint")
RECORD = DischargeRecord(
    oid="x", title="t", status=Status.PROVED, method="1-induction"
)


def _store(namespace: str, root):
    """A store of ``namespace`` plus ``put(key)``, which writes one valid
    record into it."""
    if namespace == "discharge":
        store = ResultCache(root)
        return store, lambda key: store.put(key, RECORD)
    if namespace == "family":
        store = FamilyCache(root)
        return store, lambda key: store.put_family(
            key, RECORD, base_width=8, width=8, core="toy"
        )
    store = InvariantCache(root)
    return store, lambda key: store.put(
        key, MiningResult(module_name="m", candidates=1, survivors=1, proven=[])
    )


def _one_entry(cache):
    paths = list(cache.directory.glob("*/*.json"))
    assert paths, "expected at least one cached record"
    return paths[0]


def test_cache_roundtrip_carries_checksum(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.put("ab" * 32, RECORD)
    payload = unseal(_one_entry(cache).read_text(), CACHE_VERSION)
    assert list(payload)[0] == "version" and list(payload)[-1] == "checksum"
    assert cache.get("ab" * 32).status is Status.PROVED
    assert cache.stats.hits == 1


@pytest.mark.parametrize("namespace", NAMESPACES)
def test_truncated_entry_evicted_and_recomputed(tmp_path, namespace):
    cache, put = _store(namespace, tmp_path)
    assert put("cd" * 32)
    path = _one_entry(cache)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    assert cache.load("cd" * 32) is None
    assert cache.stats.evictions == 1
    assert not path.exists(), "corrupt record must be deleted"
    # the slot is clean again: a re-store round-trips
    assert put("cd" * 32)
    assert cache.load("cd" * 32) is not None


@pytest.mark.parametrize("namespace", NAMESPACES)
def test_hand_edited_entry_fails_checksum(tmp_path, namespace):
    cache, put = _store(namespace, tmp_path)
    put("ef" * 32)
    path = _one_entry(cache)
    payload = json.loads(path.read_text())
    # forge what the record claims, keep valid JSON
    if "status" in payload:
        payload["status"] = "trace-ok"
    else:
        payload["result"]["candidates"] += 1
    path.write_text(json.dumps(payload))
    assert cache.load("ef" * 32) is None
    assert cache.stats.evictions == 1
    assert not path.exists()


@pytest.mark.parametrize("namespace", NAMESPACES)
def test_version_skewed_entry_evicted(tmp_path, namespace):
    cache, put = _store(namespace, tmp_path)
    put("0a" * 32)
    path = _one_entry(cache)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps(seal(payload, cache.version - 1)))
    assert cache.load("0a" * 32) is None
    assert cache.stats.evictions == 1


@pytest.mark.parametrize("namespace", NAMESPACES)
def test_interrupted_write_leaves_no_temp_file(tmp_path, namespace, monkeypatch):
    """A write killed mid-dump (Ctrl-C, a SIGTERM drain) unwinds without
    leaving a record or a temp file behind."""
    cache, put = _store(namespace, tmp_path)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "dump", interrupted)
    with pytest.raises(KeyboardInterrupt):
        put("ab" * 32)
    monkeypatch.undo()
    assert cache.entries() == [] and cache.tmp_files() == []
    assert list(cache.directory.rglob("*.tmp")) == []


def test_corrupted_entry_mid_campaign(tmp_path, toy_pipelined, toy_obligations):
    """Satellite regression: corrupt one entry between two runs; the second
    run must evict it, recompute the verdict and agree with the first."""
    cache = ResultCache(tmp_path)
    first = discharge_jobs(
        toy_pipelined, toy_obligations, params=PARAMS, jobs=2, cache=cache
    )
    assert first.ok
    victim = _one_entry(cache)
    victim.write_text("{ not json at all")
    cache2 = ResultCache(tmp_path)
    second = discharge_jobs(
        toy_pipelined, toy_obligations, params=PARAMS, jobs=2, cache=cache2
    )
    assert second.ok
    assert cache2.stats.evictions == 1
    assert second.cache_misses >= 1  # the evicted verdict was recomputed
    by_oid = {o.record.oid: o.record.status for o in first.outcomes}
    for outcome in second.outcomes:
        assert outcome.record.status is by_oid[outcome.record.oid]


# ---------------------------------------------------------------------------
# crash quarantine and retry


def _sabotage(monkeypatch, behaviour):
    """Wrap the per-task stream so ``behaviour(obligation)`` runs just
    before each member is solved; forked workers inherit the patched
    module."""
    original = engine_mod._solver_record

    def wrapped(system, obligations, params, member_timeout):
        stream = original(system, obligations, params, member_timeout)
        for obligation in obligations:
            behaviour(obligation)
            yield next(stream)

    monkeypatch.setattr(engine_mod, "_solver_record", wrapped)


def test_sigkilled_worker_becomes_structured_crash(
    monkeypatch, toy_pipelined, toy_obligations
):
    victim = toy_obligations.invariants()[0].oid

    def behaviour(obligation):
        if obligation.oid == victim:
            os.kill(os.getpid(), signal.SIGKILL)

    _sabotage(monkeypatch, behaviour)
    report = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=EngineParams(trace_cycles=60, max_retries=1),
        jobs=2,
    )
    outcome = _record_of(report, victim)
    assert outcome.source == "crashed"
    assert outcome.record.status is Status.UNKNOWN
    assert outcome.record.method == f"crashed(signal {signal.SIGKILL})"
    assert "SIGKILL" in outcome.record.detail
    assert outcome.attempts == 2  # initial launch + one retry
    assert report.crashes == 2 and report.retries == 1
    # the crash is quarantined: everything else still discharges
    others = [o for o in report.outcomes if o.record.oid != victim]
    assert all(o.record.ok for o in others)
    # and it is visible in the JSON document
    payload = json.loads(report.to_json())
    row = next(o for o in payload["obligations"] if o["oid"] == victim)
    assert row["source"] == "crashed" and row["attempts"] == 2
    assert payload["workers"]["crashes"] == 2


def test_os_exit_worker_is_also_quarantined(
    monkeypatch, toy_pipelined, toy_obligations
):
    victim = toy_obligations.invariants()[0].oid

    def behaviour(obligation):
        if obligation.oid == victim:
            os._exit(3)  # vanish without sending a record

    _sabotage(monkeypatch, behaviour)
    report = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=EngineParams(trace_cycles=60, max_retries=0),
        jobs=2,
    )
    outcome = _record_of(report, victim)
    assert outcome.source == "crashed"
    assert outcome.record.method == "crashed(no-result)"
    assert "status 3" in outcome.record.detail
    assert report.retries == 0


def test_transient_crash_recovers_on_retry(
    monkeypatch, tmp_path, toy_pipelined, toy_obligations
):
    victim = toy_obligations.invariants()[0].oid
    flag = tmp_path / "crashed-once"

    def behaviour(obligation):
        if obligation.oid == victim and not flag.exists():
            flag.touch()
            os.kill(os.getpid(), signal.SIGKILL)

    _sabotage(monkeypatch, behaviour)
    report = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=EngineParams(trace_cycles=60, max_retries=2),
        jobs=2,
    )
    assert report.ok
    outcome = _record_of(report, victim)
    assert outcome.source == "group"
    assert outcome.attempts == 2
    assert report.crashes == 1 and report.retries == 1
    # (the relaunch delay is full-jitter — anywhere in [0, backoff] —
    # so no wall-clock floor is asserted; bounds are pinned in
    # test_retry_delay_full_jitter_bounds)


def test_cpu_rlimit_kills_spinning_worker(
    monkeypatch, toy_pipelined, toy_obligations
):
    """A worker spinning past its CPU cap dies of SIGXCPU and is
    quarantined instead of stalling the run forever."""
    victim = toy_obligations.invariants()[0].oid

    def behaviour(obligation):
        if obligation.oid == victim:
            deadline = time.time() + 60
            while time.time() < deadline:  # burn CPU until the rlimit hits
                pass

    _sabotage(monkeypatch, behaviour)
    report = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=EngineParams(trace_cycles=60, max_retries=0, cpu_limit_s=1),
        jobs=2,
    )
    outcome = _record_of(report, victim)
    assert outcome.source == "crashed"
    assert outcome.record.method == f"crashed(signal {signal.SIGXCPU})"


# ---------------------------------------------------------------------------
# per-member degradation inside a group


def _toy_invariant(toy_pipelined, toy_obligations):
    resolve_properties(toy_pipelined, toy_obligations)
    system = TransitionSystem.from_module(toy_pipelined.module)
    return system, toy_obligations.invariants()[0]


def test_group_error_recorded_in_job_report(
    monkeypatch, toy_pipelined, toy_obligations
):
    """The shared engine raising on one member degrades that member alone
    to ``unknown`` / ``group-error`` with the exception as its detail —
    inline and in the worker pool alike — while its siblings keep their
    verdicts."""
    baseline = discharge_jobs(
        toy_pipelined, toy_obligations, params=PARAMS, jobs=1
    )
    expected = {
        o.record.oid: (o.record.status.value, o.record.method)
        for o in baseline.outcomes
    }
    invariants = toy_obligations.invariants()
    # a victim whose property no sibling shares (hash-consed identity)
    victim = next(
        o for o in invariants if sum(p.prop is o.prop for p in invariants) == 1
    )
    original = SharedContext.k_induction

    def sabotaged(self, index, k):
        if self.members[index].prop is victim.prop:
            raise RuntimeError("shared engine sabotaged")
        return original(self, index, k)

    monkeypatch.setattr(SharedContext, "k_induction", sabotaged)
    for jobs in (1, 2):
        report = discharge_jobs(
            toy_pipelined, toy_obligations, params=PARAMS, jobs=jobs
        )
        payload = json.loads(report.to_json())
        for row in payload["obligations"]:
            if row["oid"] == victim.oid:
                assert row["status"] == "unknown", (jobs, row)
                assert row["method"] == "group-error", (jobs, row)
                assert "RuntimeError" in row["detail"], (jobs, row)
                assert "shared engine sabotaged" in row["detail"], (jobs, row)
            else:
                assert (row["status"], row["method"]) == expected[row["oid"]], (
                    jobs,
                    row,
                )


def test_stream_failure_degrades_to_worker_error(
    monkeypatch, toy_pipelined, toy_obligations
):
    """A failure of a task's stream outside any one member — here the
    shared build itself — degrades the member on the bench to
    ``worker-error`` with the exception as its detail, never to a crash
    or a hang; the rest of the group is requeued and meets the same
    fate one member at a time."""

    def broken(self, system, members, **kwargs):
        raise RuntimeError("shared build sabotaged")

    monkeypatch.setattr(SharedContext, "__init__", broken)
    invariant_oids = {o.oid for o in toy_obligations.invariants()}
    for jobs in (1, 2):
        report = discharge_jobs(
            toy_pipelined, toy_obligations, params=PARAMS, jobs=jobs
        )
        assert report.crashes == 0
        for outcome in report.outcomes:
            record = outcome.record
            if record.oid in invariant_oids:
                assert record.status is Status.UNKNOWN, (jobs, record)
                assert record.method == "worker-error", (jobs, record)
                assert "shared build sabotaged" in record.detail, (jobs, record)
            else:
                assert record.ok, (jobs, record)


def test_timeout_wins_over_hung_engine(
    monkeypatch, toy_pipelined, toy_obligations
):
    """A per-obligation wall-clock timeout still wins over a shared engine
    that hangs without ever polling its interrupt — the worker is
    terminated, not waited on, and only the hung members time out."""
    invariants = toy_obligations.invariants()
    hung = {invariants[0].prop, invariants[-1].prop}
    original = SharedContext.k_induction

    def hang(self, index, k):
        if self.members[index].prop in hung:
            time.sleep(60)
        return original(self, index, k)

    monkeypatch.setattr(SharedContext, "k_induction", hang)
    monkeypatch.setattr(engine_mod, "_GROUP_GRACE", 0.5)
    report = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=PARAMS,
        jobs=2,
        timeout=1.0,
    )
    timed_out = {o.record.oid for o in report.outcomes if o.source == "timeout"}
    assert timed_out == {o.oid for o in invariants if o.prop in hung}
    for outcome in report.outcomes:
        if outcome.source != "timeout":
            assert outcome.record.ok, outcome.record
    assert report.wall_seconds < 45


# ---------------------------------------------------------------------------
# BDD engine cross-checks


def test_bmc_bdd_agrees_with_sat_bmc(toy_pipelined, toy_obligations):
    system, obligation = _toy_invariant(toy_pipelined, toy_obligations)
    sat = bmc(system, obligation.prop, bound=3, assume=list(obligation.assume))
    bdd = bmc_bdd(
        system, obligation.prop, bound=3, assume=list(obligation.assume)
    )
    assert sat.holds is True and bdd.holds is True
    assert bdd.method == "bdd"


def test_bmc_bdd_finds_counterexample(toy_pipelined, toy_obligations):
    system, obligation = _toy_invariant(toy_pipelined, toy_obligations)
    negated = E.bnot(obligation.prop)
    result = bmc_bdd(system, negated, bound=2)
    assert result.holds is False
    assert result.counterexample is not None
    assert result.counterexample.length >= 1
    # agree with the SAT engine on the verdict
    assert bmc(system, negated, bound=2).holds is False


def test_bmc_bdd_node_limit(toy_pipelined, toy_obligations):
    system, obligation = _toy_invariant(toy_pipelined, toy_obligations)
    result = bmc_bdd(system, obligation.prop, bound=3, max_nodes=0)
    assert result.holds is None
    assert result.method == "bdd(node-limit)"


# ---------------------------------------------------------------------------
# chaos


def test_chaos_run_completes_with_correct_verdicts(
    monkeypatch, tmp_path, toy_pipelined, toy_obligations
):
    """Acceptance: one run with a corrupted cache entry, a SIGKILLed
    worker and a forced solver hang completes with correct verdicts and
    structured crashed/timeout outcomes — no hang, no unhandled
    exception."""
    # seed the cache from a clean run
    cache = ResultCache(tmp_path)
    baseline = discharge_jobs(
        toy_pipelined, toy_obligations, params=PARAMS, jobs=2, cache=cache
    )
    assert baseline.ok
    fingerprints = {o.record.oid: o.fingerprint for o in baseline.outcomes}
    # content-identical obligations share fingerprints; the victims must
    # have pairwise-distinct cache entries for the sabotage to be targeted
    invariant_oids = [o.oid for o in toy_obligations.invariants()]
    victims: list[str] = []
    seen: set[str] = set()
    for oid in invariant_oids:
        if fingerprints[oid] not in seen:
            seen.add(fingerprints[oid])
            victims.append(oid)
        if len(victims) == 3:
            break
    crash_victim, hang_victim, corrupt_victim = victims
    # corrupt one entry in place; truncated JSON must be evicted on load
    corrupt_path = cache._path(fingerprints[corrupt_victim])
    corrupt_path.write_text('{"version": 99, "oops"')
    # drop the sabotaged obligations' entries so they reach the workers
    for oid in (crash_victim, hang_victim):
        cache._path(fingerprints[oid]).unlink()

    def behaviour(obligation):
        if obligation.oid == crash_victim:
            os.kill(os.getpid(), signal.SIGKILL)
        if obligation.oid == hang_victim:
            time.sleep(60)

    _sabotage(monkeypatch, behaviour)
    chaos_cache = ResultCache(tmp_path)
    report = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=EngineParams(trace_cycles=60, max_retries=1),
        jobs=2,
        timeout=2.0,
        cache=chaos_cache,
    )
    by_oid = {o.record.oid: o for o in report.outcomes}
    assert by_oid[crash_victim].source == "crashed"
    assert by_oid[crash_victim].record.method.startswith("crashed(signal")
    assert by_oid[hang_victim].source == "timeout"
    # the corrupt entry was evicted and its verdict recomputed correctly
    assert chaos_cache.stats.evictions == 1
    assert by_oid[corrupt_victim].record.status is Status.PROVED
    assert by_oid[corrupt_victim].source == "group"
    # every obligation not deliberately sabotaged has its correct verdict
    expected = {o.record.oid: o.record.status for o in baseline.outcomes}
    for oid, outcome in by_oid.items():
        if oid in (crash_victim, hang_victim):
            continue
        assert outcome.record.status is expected[oid], oid
    assert report.wall_seconds < 60


# ---------------------------------------------------------------------------
# full-jitter crash-retry backoff


def test_retry_delay_full_jitter_bounds():
    """The relaunch delay is uniform over [0, cap] with the cap doubling
    per consumed attempt — full jitter: correlated crash storms (shared
    bad input, OOM sweep) must not retry in lockstep."""
    rng_state = random.getstate()
    try:
        random.seed(20260808)
        for attempts in (1, 2, 3):
            cap = engine_mod._RETRY_BACKOFF * 2 ** (attempts - 1)
            draws = [engine_mod._retry_delay(attempts) for _ in range(400)]
            assert all(0.0 <= d <= cap for d in draws)
            # actually jittered across the range, not pinned to either end
            assert min(draws) < 0.25 * cap
            assert max(draws) > 0.75 * cap
        # attempts=0 degenerates to the base cap, never negative
        assert 0.0 <= engine_mod._retry_delay(0) <= engine_mod._RETRY_BACKOFF
    finally:
        random.setstate(rng_state)


# ---------------------------------------------------------------------------
# outcome streaming (the service's verdict feed)


def test_on_outcome_streams_each_outcome_exactly_once(
    toy_pipelined, toy_obligations
):
    streamed = []
    report = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=PARAMS,
        jobs=2,
        on_outcome=streamed.append,
    )
    assert report.ok
    assert len(streamed) == len(report.outcomes)
    assert sorted(o.record.oid for o in streamed) == sorted(
        o.record.oid for o in report.outcomes
    )
    # streamed objects are the report's outcomes, not copies
    assert {id(o) for o in streamed} == {id(o) for o in report.outcomes}


def test_on_outcome_observer_exceptions_are_swallowed(
    toy_pipelined, toy_obligations
):
    """A broken observer (a disconnected subscriber, say) must never
    poison the discharge run itself."""

    def broken_observer(outcome):
        raise RuntimeError("subscriber vanished")

    report = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=PARAMS,
        jobs=2,
        on_outcome=broken_observer,
    )
    assert report.ok


def test_on_outcome_covers_cache_hits_and_gate_failures(
    tmp_path, toy_pipelined, toy_obligations
):
    cache = ResultCache(tmp_path)
    discharge_jobs(
        toy_pipelined, toy_obligations, params=PARAMS, jobs=2, cache=cache
    )
    streamed = []
    warm = discharge_jobs(
        toy_pipelined,
        toy_obligations,
        params=PARAMS,
        jobs=2,
        cache=cache,
        on_outcome=streamed.append,
    )
    assert warm.cache_hits == len(warm.outcomes)
    assert len(streamed) == len(warm.outcomes)
    assert {o.source for o in streamed} == {"cache"}


# ---------------------------------------------------------------------------
# cache maintenance (``repro cache``)


def _seed_cache(tmp_path, n=3) -> ResultCache:
    cache = ResultCache(tmp_path)
    for index in range(n):
        fingerprint = f"{index:02x}" * 32
        assert cache.put(
            fingerprint,
            DischargeRecord(
                oid=f"ob{index}",
                title="t",
                status=Status.PROVED,
                method="1-induction",
            ),
        )
    return cache


def test_cache_disk_stats_counts_records_and_litter(tmp_path):
    cache = _seed_cache(tmp_path, 3)
    litter = cache.directory / "00" / ".deadbeef.tmp"
    litter.write_text("half-written")
    stats = cache.disk_stats()
    assert stats["records"] == 3
    assert stats["bytes"] > 0
    assert stats["tmp_files"] == 1
    assert stats["oldest_age_s"] >= stats["newest_age_s"] >= 0.0


def test_cache_verify_heals_corruption_offline(tmp_path):
    cache = _seed_cache(tmp_path, 3)
    victim = cache.entries()[1]
    victim.write_text('{"version": 99, "torn')
    result = ResultCache(tmp_path).verify()
    assert result == {"scanned": 3, "ok": 2, "evicted": 1}
    assert not victim.exists()
    # a second pass over the healed store is clean
    assert ResultCache(tmp_path).verify() == {
        "scanned": 2,
        "ok": 2,
        "evicted": 0,
    }


def test_cache_gc_by_age_and_size(tmp_path):
    cache = _seed_cache(tmp_path, 4)
    litter = cache.directory / "00" / ".cafecafe.tmp"
    litter.write_text("x")
    now = time.time()
    # dry run: reports, touches nothing
    preview = cache.gc(max_age_s=0.0, now=now + 100.0, dry_run=True)
    assert preview["removed"] == 4 and preview["dry_run"]
    assert len(cache.entries()) == 4 and litter.exists()
    # age pass: everything is "older" than 50s from a vantage 100s out
    result = cache.gc(max_age_s=50.0, now=now + 100.0)
    assert result["removed"] == 4 and result["kept"] == 0
    assert result["tmp_removed"] == 1
    assert cache.entries() == [] and not litter.exists()

    # size pass: keep only the newest records under the byte budget
    cache = _seed_cache(tmp_path, 4)
    sizes = [p.stat().st_size for p in cache.entries()]
    budget = sum(sizes) - 1  # force exactly the oldest record out
    result = cache.gc(max_bytes=budget)
    assert result["removed"] == 1
    assert result["kept"] == 3
    assert result["kept_bytes"] <= budget


@pytest.fixture(scope="module")
def toy_store(tmp_path_factory, toy_pipelined):
    """A store filled by one toy discharge (discharge and absint records)
    plus one family record."""
    root = tmp_path_factory.mktemp("toy-store")
    report = discharge_jobs(
        toy_pipelined,
        generate_obligations(toy_pipelined),
        params=PARAMS,
        jobs=1,
        cache=ResultCache(root),
    )
    assert report.ok
    assert FamilyCache(root).put_family("fa" * 32, RECORD, base_width=8, width=8)
    return root


@pytest.fixture()
def store_root(toy_store, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(toy_store, root)
    return root


def _cache_cli(capsys, action: str, root) -> dict:
    from repro.cli import main

    assert main(["cache", action, "--cache-dir", str(root), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_cache_cli_stats_lists_every_namespace(store_root, capsys):
    payload = _cache_cli(capsys, "stats", store_root)
    assert set(payload) == set(NAMESPACES)
    assert all(payload[namespace]["records"] >= 1 for namespace in NAMESPACES)
    assert payload["family"]["widths"] == {"8": 1}


@pytest.mark.parametrize("namespace", NAMESPACES)
def test_cache_cli_verify_evicts_corruption_in_any_namespace(
    store_root, capsys, namespace
):
    victim = _store(namespace, store_root)[0].entries()[0]
    victim.write_text('{"version": 99, "torn')
    payload = _cache_cli(capsys, "verify", store_root)
    assert payload[namespace]["evicted"] == 1
    assert sum(entry["evicted"] for entry in payload.values()) == 1
    assert not victim.exists()


@pytest.mark.parametrize("namespace", NAMESPACES)
def test_cache_cli_gc_prunes_litter_in_any_namespace(
    store_root, capsys, namespace
):
    litter = _store(namespace, store_root)[0].entries()[0].with_name(".dead.tmp")
    litter.write_text("half-written")
    payload = _cache_cli(capsys, "gc", store_root)
    assert payload[namespace]["tmp_removed"] == 1
    assert not litter.exists()


def test_cache_cli_clear_empties_every_namespace(store_root, capsys):
    payload = _cache_cli(capsys, "clear", store_root)
    assert all(payload[namespace]["removed"] >= 1 for namespace in NAMESPACES)
    stats = _cache_cli(capsys, "stats", store_root)
    assert all(stats[namespace]["records"] == 0 for namespace in NAMESPACES)
    assert not list(store_root.rglob("*.json"))


# ---------------------------------------------------------------------------
# engine shutdown: SIGTERM/SIGINT mid-pool drains without leaks

_DRAIN_SCRIPT = r"""
import multiprocessing, os, sys, time

import repro.jobs.engine as engine_mod
from repro.core import transform
from repro.faults.catalog import CORES
from repro.jobs import EngineParams, ResultCache, discharge_jobs
from repro.proofs import generate_obligations

marker = sys.argv[1]
cache_dir = sys.argv[2]


def stall(system, obligations, params, member_timeout):
    with open(marker, "a") as handle:  # tell the parent the pool is busy
        handle.write(obligations[0].oid + "\n")
    time.sleep(120)


engine_mod._solver_record = stall  # forked workers inherit the stall

pipelined = transform(CORES["toy"].build_machine())
obligations = generate_obligations(pipelined)
try:
    discharge_jobs(
        pipelined,
        obligations,
        params=EngineParams(trace_cycles=60, absint=False, max_retries=0),
        jobs=2,
        cache=ResultCache(cache_dir),
        lint_gate=False,
        taint_gate=False,
    )
    print("FINISHED-UNEXPECTEDLY", flush=True)
    sys.exit(1)
except KeyboardInterrupt:
    # the drain path must have terminated and reaped every worker
    # before the interrupt unwound out of discharge_jobs
    print(f"LEAKED {len(multiprocessing.active_children())}", flush=True)
    sys.exit(17)
"""


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_mid_pool_drains_workers_and_cache(tmp_path, signum):
    """SIGTERM/SIGINT while the pool is busy: the run unwinds as
    KeyboardInterrupt with every forked worker terminated and reaped and
    no half-written temp files left in the cache."""
    import subprocess
    import sys as _sys

    script = tmp_path / "drain_target.py"
    script.write_text(_DRAIN_SCRIPT)
    marker = tmp_path / "busy-marker"
    cache_dir = tmp_path / "cache"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [_sys.executable, str(script), str(marker), str(cache_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,  # isolate SIGINT from the test runner
    )
    try:
        deadline = time.time() + 60
        while not marker.exists():
            assert proc.poll() is None, proc.communicate()[0]
            assert time.time() < deadline, "pool never became busy"
            time.sleep(0.05)
        time.sleep(0.2)  # let both workers settle into their stalls
        os.kill(proc.pid, signum)
        output, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 17, output
    assert "LEAKED 0" in output, output
    # no orphaned atomic-write temp files anywhere in the cache tree
    litter = list(cache_dir.rglob("*.tmp")) if cache_dir.exists() else []
    assert litter == []
