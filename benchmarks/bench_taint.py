"""E15 — static taint policies vs. the SAT non-interference query.

The speculation-aware taint pass (``repro.lint.taint``) and the two-copy
self-composition (``repro.formal.noninterference``) answer the same
question — can in-flight speculative state influence this sink? — at
very different price points.  The static pass walks the hash-consed DAG
once per policy suite and its cost is independent of memory sizing; the
SAT query blasts both copies of the machine including every memory word,
so its cost grows with the architectural state.  This bench sweeps the
speculative DLX's data-memory width and records both sides.

Recorded to ``BENCH_taint.json``: per-width static/SAT CPU seconds
(``time.process_time``, the minimum over ``TAINT_ROUNDS`` runs of the
static side and ``SAT_ROUNDS`` of the SAT side), policy counts,
non-vacuous query counts, and the headline speedup.  The static side
takes about a millisecond, so it is timed on the process clock and over
many rounds: a wall-clock minimum of three that small follows the load
of whatever else runs on the host more than it follows the analysis.

Asserted in the full configuration: every policy verdict is clean, no
clean verdict is contradicted by the solver, the cross-check is
non-vacuous at every width, and at the largest sizing the static pass is
at least ``MIN_SPEEDUP``x cheaper than its SAT cross-check.  The smoke
configuration (``REPRO_BENCH_SMOKE=1``) shrinks the machine until the
SAT side costs a few milliseconds; fixed per-suite overhead then
dominates the ratio, so smoke asserts only agreement, not the speedup.
"""

import os
import time

from _report import report_json
from repro.core import transform
from repro.dlx.programs import hazard_torture
from repro.dlx.speculative import DlxSpecConfig, build_dlx_spec_machine
from repro.formal.noninterference import crosscheck_policies
from repro.lint import taint_verdicts

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
IMEM_BITS = 6 if SMOKE else 10
DMEM_BITS = (4,) if SMOKE else (8, 10, 12)
TAINT_ROUNDS = 20
SAT_ROUNDS = 1 if SMOKE else 3
MIN_SPEEDUP = 100.0


def _min_cpu_seconds(rounds, run):
    """The smallest process time of ``rounds`` calls of ``run`` and the
    last call's result."""
    best = None
    for _round in range(rounds):
        t0 = time.process_time()
        result = run()
        elapsed = time.process_time() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_taint_vs_sat_crosscheck():
    workload = hazard_torture(delay_slots=False)
    rows = []
    for dmem_bits in DMEM_BITS:
        machine = build_dlx_spec_machine(
            workload.program,
            workload.data,
            DlxSpecConfig(
                imem_addr_width=IMEM_BITS, dmem_addr_width=dmem_bits
            ),
        )
        pipelined = transform(machine)

        taint_seconds, verdicts = _min_cpu_seconds(
            TAINT_ROUNDS, lambda: taint_verdicts(pipelined)
        )
        assert all(v.clean for v in verdicts), [
            (v.rule, v.path) for v in verdicts if not v.clean
        ]

        sat_seconds, entries = _min_cpu_seconds(
            SAT_ROUNDS, lambda: crosscheck_policies(pipelined)
        )
        contradicted = [e for e in entries if e.contradicted]
        assert not contradicted, [(e.rule, e.path) for e in contradicted]
        nonvacuous = sum(1 for e in entries if not e.verdict.vacuous)
        assert nonvacuous >= 1, "every SAT query vacuous — proves nothing"

        rows.append(
            {
                "dmem_addr_width": dmem_bits,
                "policies": len(verdicts),
                "clean": sum(1 for v in verdicts if v.clean),
                "nonvacuous_queries": nonvacuous,
                "contradicted": 0,
                "taint_seconds": round(taint_seconds, 6),
                "sat_seconds": round(sat_seconds, 6),
                "speedup": round(sat_seconds / taint_seconds, 1),
            }
        )

    headline = rows[-1]["speedup"]
    payload = {
        "core": "dlx-spec",
        "smoke": SMOKE,
        "clock": "process_time",
        "taint_rounds": TAINT_ROUNDS,
        "sat_rounds": SAT_ROUNDS,
        "min_speedup_required": None if SMOKE else MIN_SPEEDUP,
        "sweep": rows,
        "speedup_at_largest": headline,
    }
    report_json(
        "taint",
        payload,
        title="E15 static taint vs SAT non-interference (dlx-spec)",
    )
    if not SMOKE:
        assert headline >= MIN_SPEEDUP, (
            f"static taint only {headline}x cheaper than the NI query"
            f" (required {MIN_SPEEDUP}x)"
        )
