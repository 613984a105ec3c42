"""E7 — the generated proofs (Section 6): every obligation discharges.

The tool emits, with the hardware, proof obligations mirroring the paper's
lemmas: Lemma 1 (scheduling function vs full bits, via on-netlist counter
instrumentation), the stall-engine and forwarding invariants, the data
consistency criterion (Section 6.2) and liveness (Section 6.3).  All are
discharged mechanically — by SAT k-induction for the invariants, by trace
checking against the sequential reference for the rest.
"""

from _report import report
from repro.jobs import EngineParams, discharge_jobs
from repro.perf import format_table
from repro.proofs import Status, generate_obligations


def test_proof_obligations(benchmark, small_dlx):
    _workload, _machine, pipelined = small_dlx
    obligations = generate_obligations(pipelined)

    report_obj = benchmark.pedantic(
        discharge_jobs,
        args=(pipelined, obligations),
        kwargs={
            "params": EngineParams(trace_cycles=100, max_k=1, bmc_bound=4),
            "jobs": 1,
            "cache": None,
        },
        rounds=1,
        iterations=1,
    )
    assert report_obj.ok, [r.oid for r in report_obj.failed]

    by_family: dict[str, dict] = {}
    for record in report_obj.records:
        family = record.oid.split(".")[0]
        entry = by_family.setdefault(
            family, {"family": family, "count": 0, "proved": 0, "trace-ok": 0, "seconds": 0.0}
        )
        entry["count"] += 1
        entry["seconds"] += record.seconds
        if record.status is Status.PROVED:
            entry["proved"] += 1
        elif record.status is Status.TRACE_OK:
            entry["trace-ok"] += 1
    rows = [
        {**entry, "seconds": round(entry["seconds"], 2)}
        for entry in by_family.values()
    ]
    rows.append(
        {
            "family": "TOTAL",
            "count": len(report_obj.records),
            "proved": sum(1 for r in report_obj.records if r.status is Status.PROVED),
            "trace-ok": sum(
                1 for r in report_obj.records if r.status is Status.TRACE_OK
            ),
            "seconds": round(sum(r.seconds for r in report_obj.records), 2),
        }
    )
    report("E7: proof obligations for the pipelined DLX", format_table(rows))

    lemma = next(r for r in report_obj.records if r.oid == "lemma1.full_iff_diff")
    assert lemma.status is Status.PROVED
