"""E14 — invariant mining (repro.absint) strengthening k-induction.

The speculative DLX declares the ``ctl-imm-aligned`` invariant template
over the ``IR`` chain.  Only ``IR.1`` is individually inductive (the
fact comes straight out of the instruction ROM); ``IR.2``..``IR.4``
inherit it from the previous instance, so without help the engine falls
through k-induction to BMC and settles for ``bounded bmc(8)``.
With mining enabled, the absint fixpoint proposes the whole chain, the
Houdini loop proves it by *simultaneous* induction, and each per-instance
obligation closes by plain 1-induction under the injected assumptions.

Recorded to ``BENCH_absint.json``: mining time, invariants proven, and
the cold-discharge comparison with/without injection (wall-clock, status
counts, per-``tmpl.*`` methods).  The discharge runs use ``jobs=1`` —
the serial engine's wall-clock is stable, where pool scheduling noise on
a loaded runner swamps the few-percent effect being measured.

The full configuration asserts the headline claims: the ladder-only
obligations flip to ``proved``, and enabling mining does not regress
cold discharge wall-clock by more than 5% (here it is a net win: three
``bmc(8)`` runs cost more than mining plus three 1-inductions).  The
smoke configuration (``REPRO_BENCH_SMOKE=1``) shrinks the memories so
the whole comparison runs in seconds; its baseline is then so small that
fixed mining cost dominates, so the smoke run asserts only the status
transition, not the wall-clock ratio.
"""

import os
import time

from _report import report_json
from repro.core import transform
from repro.dlx.programs import hazard_torture
from repro.dlx.speculative import DlxSpecConfig, build_dlx_spec_machine
from repro.jobs import EngineParams, discharge_jobs
from repro.proofs import generate_obligations

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CONFIG = (
    DlxSpecConfig(imem_addr_width=6, dmem_addr_width=4)
    if SMOKE
    else DlxSpecConfig()
)
ROUNDS = 1 if SMOKE else 2  # interleaved; min-of-rounds is compared
MAX_RATIO = 1.05


def _tmpl_records(report) -> dict[str, dict[str, str]]:
    return {
        r.oid: {"status": r.status.value, "method": r.method}
        for r in report.records
        if r.oid.startswith("tmpl.")
    }


def test_absint_injection():
    workload = hazard_torture(delay_slots=False)
    machine = build_dlx_spec_machine(workload.program, workload.data, CONFIG)
    pipelined = transform(machine)
    obligations = generate_obligations(pipelined)

    walls: dict[bool, list[float]] = {False: [], True: []}
    reports: dict[bool, object] = {}
    for _round in range(ROUNDS):
        for absint in (False, True):
            t0 = time.perf_counter()
            report = discharge_jobs(
                pipelined,
                obligations,
                params=EngineParams(absint=absint),
                jobs=1,
                cache=None,
            )
            walls[absint].append(time.perf_counter() - t0)
            assert report.ok, [r.oid for r in report.records if not r.ok]
            reports[absint] = report

    without, with_mining = reports[False], reports[True]
    tmpl_without = _tmpl_records(without)
    tmpl_with = _tmpl_records(with_mining)

    # the chain instances need the ladder without mining ...
    ladder_only = [
        oid
        for oid, rec in tmpl_without.items()
        if rec["status"] == "bounded"
    ]
    assert ladder_only, tmpl_without
    # ... and are proved outright with the mined facts injected
    for oid in ladder_only:
        assert tmpl_with[oid]["status"] == "proved", (oid, tmpl_with[oid])
    assert with_mining.counts().get("unknown", 0) <= without.counts().get(
        "unknown", 0
    )

    mining = with_mining.absint
    assert mining is not None and mining["proven"] >= 1

    ratio = min(walls[True]) / min(walls[False])
    if not SMOKE:
        assert ratio <= MAX_RATIO, (
            f"mining regressed cold discharge by {(ratio - 1) * 100:.1f}%"
            f" (walls with={walls[True]}, without={walls[False]})"
        )

    report_json(
        "absint",
        {
            "machine": obligations.machine_name,
            "smoke": SMOKE,
            "config": {
                "imem_addr_width": CONFIG.imem_addr_width,
                "dmem_addr_width": CONFIG.dmem_addr_width,
            },
            "obligations": len(obligations),
            "jobs": 1,
            "rounds": ROUNDS,
            "mining": {
                "seconds": mining["seconds"],
                "candidates": mining["candidates"],
                "proven": mining["proven"],
                "invariants": mining["invariants"],
            },
            "without_mining": {
                "wall_seconds": [round(w, 3) for w in walls[False]],
                "counts": without.counts(),
                "templates": tmpl_without,
            },
            "with_mining": {
                "wall_seconds": [round(w, 3) for w in walls[True]],
                "counts": with_mining.counts(),
                "templates": tmpl_with,
            },
            "ladder_only_without": ladder_only,
            "wall_ratio_min": round(ratio, 4),
            "max_ratio": MAX_RATIO,
            "ratio_enforced": not SMOKE,
        },
        title="E14: absint invariant mining vs. plain discharge",
    )
