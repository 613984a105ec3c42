"""E13 — incremental vs. from-scratch BMC/k-induction engines.

Two measurements, recorded to ``BENCH_bmc_incremental.json``:

1. **prove escalation** — k-induction with growing k on a width-8 shift
   register whose property only becomes inductive at k = length.  The
   from-scratch engine rebuilds the unrolling and the solver for every k;
   the incremental engine adds one frame and one solver call per k, so the
   gap widens with depth.  This is the workload the CI bench-smoke gate
   runs (``REPRO_BENCH_SMOKE=1``, reduced length): the incremental engine
   must not be slower than from-scratch.

2. **DLX cold discharge** — the full obligation set of the small pipelined
   DLX through the discharge engine (``discharge_jobs``, one worker, no
   cache), and its speedup against the frozen first-release baseline
   (8.48s sequential, measured before the engines went incremental and
   the solver's decision heap landed).  The engine decides every
   invariant with the shared incremental checker; the from-scratch
   comparison lives in the prove escalation above.
"""

import os
import time

import pytest

from _report import report_json
from repro.formal.bmc import prove
from repro.hdl import expr as E
from repro.hdl.netlist import Module
from repro.jobs import EngineParams, discharge_jobs
from repro.proofs import generate_obligations

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SHIFT_LENGTH = 10 if SMOKE else 20
# the first release's sequential cold-cache discharge of the same
# obligation set (BENCH_discharge.json at commit b5f16d5); the acceptance
# target is >= 3x
BASELINE_SEQUENTIAL_SECONDS = 8.484

RESULTS: dict[str, object] = {"smoke": SMOKE}


def _shift_register(length: int, width: int = 8) -> tuple[Module, E.Expr]:
    """``s0 <- 0, s_i <- s_{i-1}``: "the last stage is 0" holds from reset
    but is only k-inductive at k = length."""
    module = Module(f"shift{length}")
    for i in range(length):
        module.add_register(f"s{i}", width, init=0)
    module.drive_register("s0", E.const(width, 0))
    for i in range(1, length):
        module.drive_register(f"s{i}", E.reg_read(f"s{i - 1}", width))
    prop = E.eq(E.reg_read(f"s{length - 1}", width), E.const(width, 0))
    return module, prop


def test_prove_escalation():
    module, prop = _shift_register(SHIFT_LENGTH)

    t0 = time.perf_counter()
    scratch = prove(module, prop, max_k=SHIFT_LENGTH, incremental=False)
    scratch_seconds = time.perf_counter() - t0
    assert scratch.holds is True and scratch.bound == SHIFT_LENGTH

    # timed by hand (best of 3) so the gate also works with the
    # pytest-benchmark plugin disabled
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        incremental = prove(module, prop, max_k=SHIFT_LENGTH, incremental=True)
        times.append(time.perf_counter() - t0)
    incremental_seconds = min(times)
    assert incremental.holds is True and incremental.bound == SHIFT_LENGTH

    # the CI smoke gate: incremental must not lose to from-scratch
    assert incremental_seconds <= scratch_seconds, (
        f"incremental {incremental_seconds:.3f}s slower than"
        f" from-scratch {scratch_seconds:.3f}s"
    )

    RESULTS["prove_escalation"] = {
        "shift_length": SHIFT_LENGTH,
        "max_k": SHIFT_LENGTH,
        "scratch_seconds": round(scratch_seconds, 4),
        "incremental_seconds": round(incremental_seconds, 4),
        "speedup": round(scratch_seconds / incremental_seconds, 2),
    }
    if SMOKE:
        _write_report()


@pytest.mark.skipif(SMOKE, reason="smoke config: escalation workload only")
def test_dlx_cold_discharge(small_dlx):
    _workload, _machine, pipelined = small_dlx

    obligations = generate_obligations(pipelined)
    t0 = time.perf_counter()
    report = discharge_jobs(
        pipelined,
        obligations,
        params=EngineParams(trace_cycles=100),
        jobs=1,
        cache=None,
    )
    seconds = time.perf_counter() - t0
    assert report.ok

    speedup_vs_baseline = BASELINE_SEQUENTIAL_SECONDS / seconds
    assert speedup_vs_baseline >= 3.0, (
        f"cold discharge {seconds:.2f}s is only"
        f" {speedup_vs_baseline:.1f}x the first-release baseline"
    )

    RESULTS["dlx_cold_discharge"] = {
        "obligations": len(report.records),
        "seconds": round(seconds, 3),
        "baseline_sequential_seconds": BASELINE_SEQUENTIAL_SECONDS,
        "speedup_vs_baseline": round(speedup_vs_baseline, 1),
        "counts": report.counts(),
    }
    _write_report()


def _write_report() -> None:
    report_json(
        "bmc_incremental",
        RESULTS,
        title="E13: incremental vs from-scratch BMC/k-induction",
    )
