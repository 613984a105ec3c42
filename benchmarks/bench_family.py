"""E16 — width-family proof reuse (repro.analysis.family): the sweep.

A width family (``FAMILIES``) is one core built at every legal datapath
word.  Without family certificates the 3-width sweep discharges the full
obligation suite three times; with them, every certified obligation is
proved once at the cutoff width and the two upper widths are *served*
from the family cache after template revalidation — no solver call.

This bench runs the sweep both ways and records two comparisons:

1. **certified group** (the gated metric) — only the certified
   obligations (the DLX stall-engine/forwarding invariant group) are
   discharged at each width.  Family-off pays the solver at all three
   widths; family-on pays it once and serves the rest, so the sweep must
   come in at least ``MIN_SPEEDUP``x cheaper.  The differential analysis
   itself is timed and reported (``analysis_seconds``) but excluded from
   the gate: it runs once per core — memoized across the sweep, the
   service, and the lint pass — and its cost amortizes over the *full*
   suite it certifies, not the group subset this microbench isolates.
   ``speedup_incl_analysis`` reports the un-amortized worst case.

2. **full suite** (informational) — the complete obligation set swept at
   all three widths.  The uncertified remainder (entangled lemmas,
   traces) re-solves at every width either way and dominates DLX
   wall-clock, so this ratio is modest by construction; it is asserted
   only not to *regress* (family-on <= 1.25x family-off).
   ``ratio_incl_analysis`` counts the analysis against family-on: above
   1.0, a one-shot sweep pays for the analysis.

Recorded to ``BENCH_family.json`` per family: per-width walls for both
arms and both scopes, served/seeded counters, certified counts, and the
headline group speedups.  The smoke configuration (``REPRO_BENCH_SMOKE=1``)
covers the toy family only (every obligation certifies, the sweep is
seconds) and relaxes the gate to 1.3x.
"""

import os
import tempfile
import time

from _report import report_json
from repro.analysis.family import FAMILIES, FamilyContext, analyze_family
from repro.jobs import EngineParams, discharge_jobs
from repro.jobs.cache import FamilyCache
from repro.proofs import generate_obligations
from repro.proofs.obligations import ObligationSet

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
FAMILY_NAMES = ("toy",) if SMOKE else ("toy", "dlx-small")
MIN_SPEEDUP = 1.3 if SMOKE else 2.0
MAX_FULL_RATIO = 1.25  # family-on full suite must not regress past this


def _subset(full: ObligationSet, oids: set[str]) -> ObligationSet:
    keep = [o for o in full.obligations if o.oid in oids]
    return ObligationSet(machine_name=full.machine_name, obligations=keep)


def _sweep(spec, params, analysis, certified_oids, family_cache):
    """One family's four sweeps: {group, full} x {off, on}.

    Machines, obligation sets, and systems are built outside the timed
    region; only the ``discharge_jobs`` calls are measured.
    """
    instances = []
    for width in spec.widths:
        pipelined = spec.instance(width)
        full = generate_obligations(pipelined)
        instances.append((width, pipelined, full, _subset(full, certified_oids)))

    out: dict[str, dict] = {"group": {}, "full": {}}
    for scope in ("group", "full"):
        walls_off = {}
        for width, pipelined, full, group_set in instances:
            obligations = group_set if scope == "group" else full
            start = time.perf_counter()
            report = discharge_jobs(
                pipelined, obligations, params=params, cache=None
            )
            walls_off[width] = time.perf_counter() - start
            assert not report.failed, f"{spec.name}@{width} {scope} off failed"
        walls_on = {}
        counters = {}
        with tempfile.TemporaryDirectory() as root:
            cache = family_cache(root)
            for width, pipelined, full, group_set in instances:
                obligations = group_set if scope == "group" else full
                context = FamilyContext(analysis, width, cache)
                start = time.perf_counter()
                report = discharge_jobs(
                    pipelined,
                    obligations,
                    params=params,
                    cache=None,
                    family=context,
                )
                walls_on[width] = time.perf_counter() - start
                counters[width] = context.counters()
                assert not report.failed, (
                    f"{spec.name}@{width} {scope} on failed"
                )
        out[scope] = {
            "off": walls_off,
            "on": walls_on,
            "counters": counters,
        }
    return out


def test_family_sweep():
    payload: dict[str, dict] = {}
    failures: list[str] = []
    for name in FAMILY_NAMES:
        spec = FAMILIES[name]
        params = EngineParams(trace_cycles=spec.trace_cycles)
        start = time.perf_counter()
        analysis = analyze_family(spec, params)
        analysis_seconds = time.perf_counter() - start
        certified = {c.oid for c in analysis.certified()}
        assert certified, f"{name}: nothing certified — nothing to sweep"

        sweeps = _sweep(spec, params, analysis, certified, FamilyCache)
        group = sweeps["group"]
        full = sweeps["full"]
        base = spec.base_width
        uppers = [w for w in spec.widths if w > base]
        # every certified obligation must be *served* (not re-solved) at
        # every upper width — the "single cached family verdict" claim
        for width in uppers:
            for scope in (group, full):
                served = scope["counters"][width]["served"]
                assert served == len(certified), (
                    f"{name}@{width}: served {served} != {len(certified)}"
                )

        group_off = sum(group["off"].values())
        group_on = sum(group["on"].values())
        group_speedup = group_off / group_on
        full_off = sum(full["off"].values())
        full_on = sum(full["on"].values())
        entry = {
            "widths": list(spec.widths),
            "obligations": len(analysis.certificates),
            "certified": len(certified),
            "analysis_seconds": round(analysis_seconds, 3),
            "group": {
                "off_walls": {str(w): round(v, 3) for w, v in group["off"].items()},
                "on_walls": {str(w): round(v, 3) for w, v in group["on"].items()},
                "counters": {str(w): c for w, c in group["counters"].items()},
                "off_total": round(group_off, 3),
                "on_total": round(group_on, 3),
                "speedup": round(group_speedup, 2),
                "speedup_incl_analysis": round(
                    group_off / (group_on + analysis_seconds), 2
                ),
            },
            "full_suite": {
                "off_walls": {str(w): round(v, 3) for w, v in full["off"].items()},
                "on_walls": {str(w): round(v, 3) for w, v in full["on"].items()},
                "counters": {str(w): c for w, c in full["counters"].items()},
                "off_total": round(full_off, 3),
                "on_total": round(full_on, 3),
                "ratio": round(full_off / full_on, 2),
                "ratio_incl_analysis": round(
                    full_off / (full_on + analysis_seconds), 2
                ),
            },
            "min_speedup_gate": MIN_SPEEDUP,
        }
        payload[name] = entry
        if group_speedup < MIN_SPEEDUP:
            failures.append(
                f"{name}: group sweep speedup {group_speedup:.2f}x"
                f" < {MIN_SPEEDUP}x"
            )
        if full_on > full_off * MAX_FULL_RATIO:
            failures.append(
                f"{name}: family-on full suite regressed"
                f" ({full_on:.2f}s vs {full_off:.2f}s off)"
            )
    report_json("family", {"smoke": SMOKE, "families": payload})
    assert not failures, failures
