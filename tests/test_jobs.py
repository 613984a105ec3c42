"""The discharge engine: fingerprints, the result cache, the worker pool.

Everything here runs on the toy machine (36 obligations, sub-second); the
DLX-scale timeout demonstration lives in ``benchmarks/bench_discharge_engine``
and a slow-marked test at the bottom.
"""

from __future__ import annotations

import json

import pytest

from repro.formal.bmc import TransitionSystem
from repro.hdl import expr as E
from repro.jobs import EngineParams, ResultCache, discharge_jobs
from repro.proofs import (
    DischargeRecord,
    Status,
    discharge,
    generate_obligations,
    resolve_properties,
)


@pytest.fixture()
def toy_obligations(toy_pipelined):
    return generate_obligations(toy_pipelined)


@pytest.fixture()
def toy_system(toy_pipelined, toy_obligations):
    resolve_properties(toy_pipelined, toy_obligations)
    return TransitionSystem.from_module(toy_pipelined.module)


class TestFingerprints:
    def test_stable_across_calls(self, toy_obligations, toy_system):
        for obligation in toy_obligations.invariants():
            first = obligation.fingerprint(system=toy_system)
            assert first == obligation.fingerprint(system=toy_system)
            assert len(first) == 64  # sha256 hex

    def test_id_not_hashed(self, toy_obligations, toy_system):
        obligation = toy_obligations.invariants()[0]
        fingerprint = obligation.fingerprint(system=toy_system)
        obligation.oid = "renamed.obligation"
        assert obligation.fingerprint(system=toy_system) == fingerprint

    def test_params_are_hashed(self, toy_obligations, toy_system):
        obligation = toy_obligations.invariants()[0]
        a = obligation.fingerprint(system=toy_system, params={"max_k": 2})
        b = obligation.fingerprint(system=toy_system, params={"max_k": 3})
        assert a != b

    def test_property_change_changes_fingerprint(self, toy_obligations, toy_system):
        obligation = toy_obligations.invariants()[0]
        before = obligation.fingerprint(system=toy_system)
        obligation.prop = E.bnot(obligation.prop)
        assert obligation.fingerprint(system=toy_system) != before

    def test_trace_fingerprint_uses_module(self, toy_pipelined, toy_obligations):
        obligation = toy_obligations.trace_checks()[0]
        a = obligation.fingerprint(module=toy_pipelined.module)
        b = obligation.fingerprint(
            module=toy_pipelined.module, params={"trace_cycles": 9}
        )
        assert a != b


class TestResultCache:
    RECORD = DischargeRecord(
        oid="x", title="t", status=Status.PROVED, method="1-induction", seconds=0.5
    )

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        assert cache.put("ab" * 32, self.RECORD)
        hit = cache.get("ab" * 32)
        assert hit is not None and hit.status is Status.PROVED
        assert hit.method == "1-induction"
        assert len(cache) == 1

    def test_non_verdicts_not_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        for status in (Status.FAILED, Status.UNKNOWN):
            record = DischargeRecord("x", "t", status, "m")
            assert not cache.put("cd" * 32, record)
        assert len(cache) == 0

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ef" * 32, self.RECORD)
        path = cache._path("ef" * 32)
        path.write_text("{not json")
        assert cache.get("ef" * 32) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("01" * 32, self.RECORD)
        path = cache._path("01" * 32)
        payload = json.loads(path.read_text())
        payload["version"] = -1
        path.write_text(json.dumps(payload))
        assert cache.get("01" * 32) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("23" * 32, self.RECORD)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestEngine:
    def test_cold_then_warm(self, toy_pipelined, toy_obligations, tmp_path):
        cache = ResultCache(tmp_path)
        cold = discharge_jobs(toy_pipelined, toy_obligations, cache=cache, jobs=2)
        assert cold.ok and cold.cache_hits == 0 and cold.cache_misses == len(
            toy_obligations
        )
        warm = discharge_jobs(toy_pipelined, toy_obligations, cache=cache, jobs=2)
        assert warm.ok and warm.hit_rate == 1.0
        assert [r.status for r in warm.records] == [
            r.status for r in cold.records
        ]
        # records come back in obligation-id order under either source
        assert [r.oid for r in warm.records] == sorted(
            o.oid for o in toy_obligations
        )

    def test_warm_run_never_counts_the_cache(
        self, toy_pipelined, toy_obligations, tmp_path, monkeypatch
    ):
        # the engine tests the cache by identity: a truth test would glob
        # every record once per lookup, and skip lookups on an empty cache
        walks = []
        counted = ResultCache.__len__

        def spy(self):
            walks.append(self)
            return counted(self)

        monkeypatch.setattr(ResultCache, "__len__", spy)
        cache = ResultCache(tmp_path)
        cold = discharge_jobs(toy_pipelined, toy_obligations, cache=cache, jobs=1)
        assert cache.stats.misses == cold.cache_misses > 0
        warm = discharge_jobs(toy_pipelined, toy_obligations, cache=cache, jobs=1)
        assert warm.hit_rate == 1.0
        assert walks == []

    def test_matches_sequential_driver(self, toy_pipelined, toy_obligations):
        sequential = discharge(toy_pipelined, toy_obligations, conjoin=False)
        parallel = discharge_jobs(toy_pipelined, toy_obligations, jobs=2)
        assert {(r.oid, r.status) for r in parallel.records} == {
            (r.oid, r.status) for r in sequential.records
        }

    def test_timeout_degrades_to_unknown(self, toy_pipelined, toy_obligations):
        report = discharge_jobs(
            toy_pipelined, toy_obligations, jobs=2, timeout=1e-4
        )
        timed_out = [o for o in report.outcomes if o.source == "timeout"]
        assert timed_out, "expected at least one obligation past a 0.1ms budget"
        assert all(o.record.status is Status.UNKNOWN for o in timed_out)
        assert all("timeout" in o.record.method for o in timed_out)
        # trace obligations run inline and still complete
        trace_records = [
            r for r in report.records if r.oid in
            {o.oid for o in toy_obligations.trace_checks()}
        ]
        assert all(r.status is Status.TRACE_OK for r in trace_records)

    def test_custom_stimulus_is_uncacheable(
        self, toy_pipelined, toy_obligations, tmp_path
    ):
        cache = ResultCache(tmp_path)
        report = discharge_jobs(
            toy_pipelined,
            toy_obligations,
            cache=cache,
            jobs=1,
            inputs=lambda cycle: {},
        )
        assert report.uncacheable == len(toy_obligations.trace_checks())
        # a second identical run must not claim trace hits it can't prove
        warm = discharge_jobs(
            toy_pipelined,
            toy_obligations,
            cache=cache,
            jobs=1,
            inputs=lambda cycle: {},
        )
        assert warm.uncacheable == report.uncacheable
        assert warm.cache_hits == len(toy_obligations) - report.uncacheable

    def test_equivalences_through_the_engine(self, toy_machine):
        """A tree-style toy carries two forwarding-style equivalence
        obligations: each is a task of its own, decided by the SAT miter
        identically in process and in the worker pool."""
        import os

        from repro.core import TransformOptions, transform

        pipelined = transform(
            toy_machine, TransformOptions(forwarding_style="tree")
        )
        equivalences = {
            o.oid for o in generate_obligations(pipelined).equivalences()
        }
        assert len(equivalences) == 2
        reports = {
            jobs: discharge_jobs(
                pipelined,
                generate_obligations(pipelined),
                params=EngineParams(trace_cycles=60),
                jobs=jobs,
            )
            for jobs in (1, 2)
        }
        verdicts = {
            jobs: [(r.oid, r.status, r.method, r.detail) for r in report.records]
            for jobs, report in reports.items()
        }
        assert verdicts[1] == verdicts[2]
        assert reports[1].ok
        pooled = "worker" if hasattr(os, "fork") else "inline"
        for jobs, source in ((1, "inline"), (2, pooled)):
            decided = [
                o for o in reports[jobs].outcomes if o.record.oid in equivalences
            ]
            assert len(decided) == 2
            for outcome in decided:
                assert outcome.record.status is Status.PROVED
                assert outcome.record.method == "sat-equivalence"
                assert outcome.source == source

    def test_report_json_shape(self, toy_pipelined, toy_obligations, tmp_path):
        report = discharge_jobs(
            toy_pipelined, toy_obligations, cache=ResultCache(tmp_path), jobs=2
        )
        payload = json.loads(report.to_json())
        assert payload["machine"] == toy_obligations.machine_name
        assert payload["ok"] is True
        assert payload["cache"]["misses"] == len(toy_obligations)
        assert len(payload["obligations"]) == len(toy_obligations)
        first = payload["obligations"][0]
        assert set(first) >= {
            "oid", "title", "status", "method", "seconds", "source", "fingerprint",
        }
        assert report.format_text()  # renders without raising


class TestCli:
    PROGRAM = """
        li   r1, 3
loop:   beqz r1, done
        nop
        subi r1, r1, 1
        j    loop
        nop
done:   sw   0(r0), r1
halt:   j    halt
        nop
"""

    @pytest.mark.slow
    def test_discharge_command_twice(self, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "p.s"
        program.write_text(self.PROGRAM)
        json_path = tmp_path / "report.json"
        argv = [
            "discharge", str(program),
            "--cache-dir", str(tmp_path / "cache"),
            "--dmem-bits", "4",
            "--json", str(json_path),
            "--timeout", "60",
        ]
        assert main(argv) == 0
        cold = json.loads(json_path.read_text())
        assert main(argv) == 0
        warm = json.loads(json_path.read_text())
        assert cold["cache"]["hit_rate"] == 0.0
        assert warm["cache"]["hit_rate"] >= 0.9
        assert warm["counts"] == cold["counts"]
        out = capsys.readouterr().out
        assert "hit rate" in out


def _small_dlx_pipelined():
    from repro.core import transform
    from repro.dlx import DlxConfig, build_dlx_machine
    from repro.dlx.programs import fibonacci

    workload = fibonacci(5)
    machine = build_dlx_machine(
        workload.program,
        data=workload.data,
        config=DlxConfig(imem_addr_width=6, dmem_addr_width=4),
    )
    return transform(machine)


@pytest.mark.slow
def test_dlx_mixed_timeout(tmp_path):
    """DLX-scale timeout machinery: a budget that cuts off the expensive
    lemma-1 induction leaves it unknown while all others complete.  The
    budget sits between lemma 1's cost and every other SAT obligation's
    (~1.3s against at most ~0.2s on a 2-vCPU x86-64 host): at their
    geometric mean, measured by an unbudgeted run on the host at hand."""
    pipelined = _small_dlx_pipelined()
    obligations = generate_obligations(pipelined)
    params = EngineParams(trace_cycles=100)
    clean = discharge_jobs(pipelined, obligations, params=params)
    solved = {
        o.record.oid: o.record.seconds
        for o in clean.outcomes
        if o.source == "group"
    }
    lemma1 = solved.pop("lemma1.full_iff_diff")
    report = discharge_jobs(
        pipelined,
        obligations,
        params=params,
        timeout=(lemma1 * max(solved.values())) ** 0.5,
        cache=ResultCache(tmp_path),
    )
    timed_out = [o.record.oid for o in report.outcomes if o.source == "timeout"]
    assert "lemma1.full_iff_diff" in timed_out
    others = [o.record for o in report.outcomes if o.source != "timeout"]
    assert all(record.ok for record in others)


@pytest.mark.slow
def test_dlx_incremental_beats_timeout(tmp_path):
    """The incremental engine fits the same budget that kills the scratch
    engine on lemma 1 — the headline speedup of the incremental rework."""
    pipelined = _small_dlx_pipelined()
    obligations = generate_obligations(pipelined)
    report = discharge_jobs(
        pipelined,
        obligations,
        params=EngineParams(trace_cycles=100),
        timeout=1.5,
        cache=ResultCache(tmp_path),
    )
    assert [o.record.oid for o in report.outcomes if o.source == "timeout"] == []
    assert report.ok
