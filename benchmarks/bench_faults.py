"""E10 — fault-injection campaign (repro.faults): mutation coverage.

The verifier stack (lint, trace checkers, SAT discharge) is this
project's trusted computing base; the mutation campaign is its acceptance
test.  This bench records the coverage numbers and the cost of earning
them: every systematically injected pipeline defect (stuck nets, inverted
write enables, swapped mux arms, weakened stalls, early-valid forwarding,
dropped networks) must be killed by some detection stage, and the staged
ladder (lint -> trace -> formal) should kill most mutants cheaply.

Recorded to ``BENCH_faults.json``:

1. **mutation score** per core — killed/total, survivors (must be zero);
2. **kills by detector** — how much the cheap stages (lint, trace)
   absorb before any solver runs;
3. **wall-time** — full-campaign cost on the fast cores, and the mean
   time-to-kill per mutant.
"""

from _report import report_json
from repro.faults import run_campaign


def test_mutation_campaign(benchmark):
    report = benchmark.pedantic(
        lambda: run_campaign(cores=["toy"]), rounds=1, iterations=1
    )
    assert report.baseline_clean == {"toy": True}
    assert report.survivors == [], report.format_text()

    kill_times = [r.seconds for r in report.results if r.detected]
    payload = {
        "cores": report.cores,
        "mutants": len(report.results),
        "killed": report.killed,
        "survivors": len(report.survivors),
        "score": round(report.score, 4),
        "by_operator": {
            op: {"killed": k, "total": t}
            for op, (k, t) in sorted(report.by_operator().items())
        },
        "by_detector": dict(sorted(report.by_detector().items())),
        "wall_seconds": round(report.wall_seconds, 3),
        "mean_seconds_to_kill": round(
            sum(kill_times) / len(kill_times), 4
        )
        if kill_times
        else None,
    }
    report_json("faults", payload, title="E10: mutation coverage (toy core)")
