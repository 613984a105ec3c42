"""E8 — the discharge engine (repro.jobs): caching, parallelism, timeouts.

Three measurements over the full obligation set of the small pipelined DLX:

1. **sequential baseline** — the classic per-obligation ``discharge()``
   driver (``conjoin=False``, the honest one-at-a-time cost);
2. **engine, cold cache** — ``discharge_jobs`` with an empty cache and the
   machine's CPU count, then **warm cache** — the same call again, which
   must hit the cache for (almost) every obligation;
3. **timeout degradation** — a per-obligation budget chosen to cut off
   the one expensive obligation (``lemma1.full_iff_diff``, several times
   slower than the rest): it must end ``unknown`` while every other
   obligation still completes.  The engine is then shown fitting the
   1.5s budget that used to kill lemma 1 (the first from-scratch engine
   timed it out) — nothing times out at all.

Everything is recorded to ``BENCH_discharge.json`` for the measurement
trajectory.  Note the parallel numbers are only meaningful relative to
the recorded ``cpu_count`` — on a single-CPU runner the pool cannot beat
the sequential baseline on wall-clock; the cache and timeout behaviour
are CPU-independent.
"""

import tempfile
import time

from _report import report_json
from repro.jobs import EngineParams, ResultCache, default_jobs, discharge_jobs
from repro.proofs import Status, discharge, generate_obligations

PARAMS = EngineParams(max_k=2, bmc_bound=8, trace_cycles=100)
# between lemma1's cost (~1s) and every other SAT obligation's (<= ~0.2s)
TIMEOUT = 0.5
# the PR 1 per-obligation budget lemma1 used to blow; the incremental
# engine must fit inside it
BUDGET = 1.5


def test_discharge_engine(benchmark, small_dlx):
    _workload, _machine, pipelined = small_dlx
    obligations = generate_obligations(pipelined)
    cpus = default_jobs()

    # 1 -- sequential baseline: one obligation at a time, no cache
    t0 = time.perf_counter()
    seq_report = discharge(
        pipelined,
        obligations,
        max_k=PARAMS.max_k,
        bmc_bound=PARAMS.bmc_bound,
        trace_cycles=PARAMS.trace_cycles,
        conjoin=False,
    )
    seq_seconds = time.perf_counter() - t0
    assert seq_report.ok, [r.oid for r in seq_report.records if not r.ok]

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)

        # 2 -- engine: cold cache, then warm cache (benchmarked)
        t0 = time.perf_counter()
        cold = discharge_jobs(
            pipelined, obligations, params=PARAMS, jobs=cpus, cache=cache
        )
        cold_seconds = time.perf_counter() - t0
        assert cold.ok and cold.cache_hits == 0

        warm = benchmark.pedantic(
            discharge_jobs,
            args=(pipelined, obligations),
            kwargs={"params": PARAMS, "jobs": cpus, "cache": cache},
            rounds=1,
            iterations=1,
        )
        warm_seconds = warm.wall_seconds
        assert warm.ok
        assert warm.hit_rate >= 0.9, warm.hit_rate
        # a cached verdict and a computed one must agree
        assert [r.status for r in warm.records] == [
            r.status for r in cold.records
        ]

        # 3 -- timeout degradation on a fresh cache
        cache.clear()
        timed = discharge_jobs(
            pipelined,
            obligations,
            params=PARAMS,
            jobs=cpus,
            timeout=TIMEOUT,
            cache=cache,
        )
        timed_out = [o for o in timed.outcomes if o.source == "timeout"]
        assert "lemma1.full_iff_diff" in [o.record.oid for o in timed_out]
        assert all(o.record.status is Status.UNKNOWN for o in timed_out)
        # every other obligation still completed with its normal verdict
        others = [o.record for o in timed.outcomes if o.source != "timeout"]
        assert all(record.ok for record in others)

        # 4 -- the engine fits the old lemma 1 budget: nothing times out
        cache.clear()
        budgeted = discharge_jobs(
            pipelined,
            obligations,
            params=PARAMS,
            jobs=cpus,
            timeout=BUDGET,
            cache=cache,
        )
    assert [o.record.oid for o in budgeted.outcomes if o.source == "timeout"] == []
    assert budgeted.ok

    report_json(
        "discharge",
        {
            "machine": obligations.machine_name,
            "obligations": len(obligations),
            "cpu_count": cpus,
            "sequential": {
                "seconds": round(seq_seconds, 3),
                "counts": seq_report.counts(),
            },
            "engine_cold": {
                "seconds": round(cold_seconds, 3),
                "counts": cold.counts(),
                "cache_hit_rate": round(cold.hit_rate, 4),
                "worker_utilisation": round(cold.utilisation, 4),
            },
            "engine_warm": {
                "seconds": round(warm_seconds, 3),
                "counts": warm.counts(),
                "cache_hit_rate": round(warm.hit_rate, 4),
                "speedup_vs_sequential": round(seq_seconds / warm_seconds, 1),
                "speedup_vs_cold": round(cold_seconds / warm_seconds, 1),
            },
            "timeout_demo": {
                "timeout_seconds": TIMEOUT,
                "engine": "incremental",
                "counts": timed.counts(),
                "timed_out": [o.record.oid for o in timed_out],
                "others_ok": all(record.ok for record in others),
            },
            "incremental_within_budget": {
                "timeout_seconds": BUDGET,
                "engine": "incremental",
                "counts": budgeted.counts(),
                "timed_out": [],
                "lemma1_seconds": round(
                    next(
                        r.seconds
                        for r in budgeted.records
                        if r.oid == "lemma1.full_iff_diff"
                    ),
                    3,
                ),
            },
        },
        title="E8: discharge engine (cache, parallelism, timeouts)",
    )
