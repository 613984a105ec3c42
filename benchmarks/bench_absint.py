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
a cold comparison over the invariant obligations of one transition
system: the raw shared group against mining plus the group with the
proven invariants injected (wall-clock, status counts, per-``tmpl.*``
methods).  Mining time is charged to the "with" leg.  Both legs run in
process — the serial wall-clock is stable, where pool scheduling noise
on a loaded runner swamps the few-percent effect being measured.

The full configuration asserts the headline claims: the ladder-only
obligations flip to ``proved``, and mining does not regress the cold
wall-clock by more than 5%.  Since memories became arrays in the
unroller, the second claim fails: the three ``bmc(8)`` runs no longer
blast a 1,024-word data memory per frame, so the leg without mining
takes about 0.18 s, and mining plus three 1-inductions about 1.15-1.4x
that (it was a net win, 0.68-0.73x, while every frame expanded the
memory into words).  The smoke configuration
(``REPRO_BENCH_SMOKE=1``) shrinks the memories so the whole comparison
runs in seconds; its baseline is then so small that fixed mining cost
dominates, so the smoke run asserts only the status transition, not the
wall-clock ratio.
"""

import os
import time
from collections import Counter

from _report import report_json
from repro.absint import inject_invariants, mine_invariants
from repro.core import transform
from repro.dlx.programs import hazard_torture
from repro.dlx.speculative import DlxSpecConfig, build_dlx_spec_machine
from repro.formal.bmc import TransitionSystem
from repro.proofs import (
    discharge_invariant_group,
    generate_obligations,
    resolve_properties,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CONFIG = (
    DlxSpecConfig(imem_addr_width=6, dmem_addr_width=4)
    if SMOKE
    else DlxSpecConfig()
)
ROUNDS = 1 if SMOKE else 2  # interleaved; min-of-rounds is compared
MAX_RATIO = 1.05


def _counts(records) -> dict[str, int]:
    return dict(Counter(record.status.value for record in records))


def _tmpl_records(records) -> dict[str, dict[str, str]]:
    return {
        r.oid: {"status": r.status.value, "method": r.method}
        for r in records
        if r.oid.startswith("tmpl.")
    }


def test_absint_injection():
    workload = hazard_torture(delay_slots=False)
    machine = build_dlx_spec_machine(workload.program, workload.data, CONFIG)
    pipelined = transform(machine)
    obligations = generate_obligations(pipelined)
    resolve_properties(pipelined, obligations)
    system = TransitionSystem.from_module(pipelined.module)
    invariants = obligations.invariants()

    def solve(group):
        records = [record for _, record in discharge_invariant_group(system, group)]
        assert all(r.ok for r in records), [r.oid for r in records if not r.ok]
        return records

    walls: dict[bool, list[float]] = {False: [], True: []}
    for _round in range(ROUNDS):
        t0 = time.perf_counter()
        without = solve(invariants)
        walls[False].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        mining = mine_invariants(pipelined, system=system)
        with_mining = solve(
            inject_invariants(invariants, mining.proven, system)
        )
        walls[True].append(time.perf_counter() - t0)

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
    assert _counts(with_mining).get("unknown", 0) <= _counts(without).get(
        "unknown", 0
    )
    assert len(mining.proven) >= 1

    ratio = min(walls[True]) / min(walls[False])
    # recorded before the gate, so a failing run still leaves its figures
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
            "invariants": len(invariants),
            "rounds": ROUNDS,
            "mining": {
                "seconds": round(mining.seconds, 4),
                "candidates": mining.candidates,
                "proven": len(mining.proven),
                "invariants": [inv.name for inv in mining.proven],
            },
            "without_mining": {
                "wall_seconds": [round(w, 3) for w in walls[False]],
                "counts": _counts(without),
                "templates": tmpl_without,
            },
            "with_mining": {
                "wall_seconds": [round(w, 3) for w in walls[True]],
                "counts": _counts(with_mining),
                "templates": tmpl_with,
            },
            "ladder_only_without": ladder_only,
            "wall_ratio_min": round(ratio, 4),
            "max_ratio": MAX_RATIO,
            "ratio_enforced": not SMOKE,
        },
        title="E14: absint invariant mining vs. plain discharge",
    )
    if not SMOKE:
        assert ratio <= MAX_RATIO, (
            f"mining regressed cold discharge by {(ratio - 1) * 100:.1f}%"
            f" (walls with={walls[True]}, without={walls[False]})"
        )
