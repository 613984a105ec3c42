"""The mutation campaign: inject every catalogued fault, demand detection.

For each mutant the runner walks a staged detection ladder, cheapest
detector first, stopping at the first kill:

1. **build** — the mutated netlist is rejected by structural validation;
2. **lint**  — :func:`repro.lint.lint_pipeline` reports an ERROR finding
   (the static hazard audit catching a dropped coverage record, a
   structural pass catching a never-enabled register, ...);
3. **absint** — the sequential abstract interpretation objects: the
   fixpoint-based semantic lint (:func:`repro.lint.lint_semantic`)
   reports an ERROR (a register provably frozen at its reset value), or
   a word of an instruction ROM concretely violates a declared invariant
   template (:func:`repro.absint.rom_template_violations`);
4. **taint** — the speculation-aware information-flow analysis
   (:func:`repro.lint.lint_taint`) reports an ERROR: speculative state
   reaches an architectural sink outside a commit guard, a rollback tag
   is bypassed, or a forwarding valid bit is provably forced early;
5. **trace** — a dynamic trace obligation fails: the mutated pipeline
   diverges from the sequential reference on the core's workload, or a
   scheduling/liveness trace check is violated.  Each mutant's pipeline
   is simulated once; the sequential reference once per core
   (:class:`SequentialReference`);
6. **formal** — a SAT-discharged proof obligation produces a concrete
   counterexample (``Status.FAILED``; an ``unknown`` verdict does *not*
   count as detection).

A mutant surviving all six detectors is a **verifier soundness gap**:
the campaign's job is to prove the checker stack leaves none.  The
baseline (unmutated) design runs through the same ladder first and must
be detected by nothing — a noisy checker would make kills meaningless.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable

from ..absint import rom_template_violations
from ..core.consistency import SpecStateCache, repair_targets, seq_commit_side
from ..core.transform import PipelinedMachine, transform
from ..formal.bmc import TransitionSystem
from ..lint import lint_pipeline, lint_semantic, lint_taint
from ..machine.prepared import PreparedMachine
from ..proofs.discharge import (
    Status,
    build_trace,
    discharge_equivalence,
    discharge_invariant_group,
    discharge_trace,
    resolve_properties,
)
from ..proofs.obligations import generate_obligations
from .catalog import CORES, OPERATORS, CoreSpec, Mutant, generate_mutants

Progress = Callable[[str], None]


@dataclass
class MutantResult:
    """The campaign verdict for one mutant."""

    mid: str
    core: str
    operator: str
    site: str
    detected: bool
    detector: str = ""  # build | lint | absint | taint | trace | formal ("" = survived)
    detail: str = ""
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "mid": self.mid,
            "core": self.core,
            "operator": self.operator,
            "site": self.site,
            "detected": self.detected,
            "detector": self.detector,
            "detail": self.detail,
            "seconds": round(self.seconds, 4),
        }


@dataclass
class CampaignReport:
    """Aggregated mutation-coverage results across cores."""

    cores: list[str] = field(default_factory=list)
    operators: list[str] = field(default_factory=list)
    results: list[MutantResult] = field(default_factory=list)
    baseline_clean: dict[str, bool] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def survivors(self) -> list[MutantResult]:
        return [r for r in self.results if not r.detected]

    @property
    def killed(self) -> int:
        return sum(1 for r in self.results if r.detected)

    @property
    def score(self) -> float:
        return self.killed / len(self.results) if self.results else 1.0

    @property
    def ok(self) -> bool:
        return not self.survivors and all(self.baseline_clean.values())

    def by_operator(self) -> dict[str, tuple[int, int]]:
        """operator -> (killed, total)."""
        table: dict[str, tuple[int, int]] = {}
        for r in self.results:
            killed, total = table.get(r.operator, (0, 0))
            table[r.operator] = (killed + int(r.detected), total + 1)
        return table

    def by_detector(self) -> dict[str, int]:
        table: dict[str, int] = {}
        for r in self.results:
            if r.detected:
                table[r.detector] = table.get(r.detector, 0) + 1
        return table

    def to_dict(self) -> dict:
        return {
            "cores": self.cores,
            "operators": self.operators,
            "mutants": len(self.results),
            "killed": self.killed,
            "survivors": [r.to_dict() for r in self.survivors],
            "score": round(self.score, 4),
            "baseline_clean": self.baseline_clean,
            "ok": self.ok,
            "by_operator": {
                op: {"killed": k, "total": t}
                for op, (k, t) in sorted(self.by_operator().items())
            },
            "by_detector": dict(sorted(self.by_detector().items())),
            "wall_seconds": round(self.wall_seconds, 3),
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_text(self) -> str:
        lines = [
            f"mutation campaign: cores {', '.join(self.cores)}"
            f" — {len(self.results)} mutants, {self.killed} killed,"
            f" {len(self.survivors)} surviving"
            f" (score {self.score:.1%}, {self.wall_seconds:.1f}s)"
        ]
        for core, clean in sorted(self.baseline_clean.items()):
            if not clean:
                lines.append(f"  BASELINE NOT CLEAN: {core} — kills are void")
        for op, (killed, total) in sorted(self.by_operator().items()):
            mark = "ok" if killed == total else "SURVIVED"
            lines.append(f"  {op:<18} {killed}/{total} {mark}")
        detectors = ", ".join(
            f"{name}: {count}" for name, count in sorted(self.by_detector().items())
        )
        if detectors:
            lines.append(f"  kills by detector — {detectors}")
        for r in self.survivors:
            lines.append(f"  SURVIVOR {r.mid}: {r.site}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DetectParams:
    """Budgets for the detection ladder: the formal stage's induction
    depth, BMC bound and conflict budget, and the trace stage's stimulus
    length (``None``: the core's own)."""

    max_k: int = 2
    bmc_bound: int = 8
    max_conflicts: int | None = 50_000
    trace_cycles: int | None = None


class SequentialReference:
    """The sequential side of the trace obligations, simulated once for
    every design built on one machine.

    Mutation operators rewrite the pipelined elaboration only and keep
    its ``machine`` object (``dataclasses.replace``), and the sequential
    reference is elaborated from that machine alone.  So the reference
    run is the same for the baseline and every mutant of a core: its
    state snapshots (:class:`repro.core.SpecStateCache`, for data
    consistency) and its commit streams (:func:`repro.core.seq_commit_side`)
    are computed once, on first use, and handed to every trace check.
    """

    def __init__(self, machine: PreparedMachine, trace_cycles: int) -> None:
        self.machine = machine
        self.trace_cycles = trace_cycles
        self._spec_cache = SpecStateCache(machine)
        self._seq_side: tuple[dict[str, list[tuple]], int] | None = None

    def arguments(self, checker: str) -> dict:
        """The :func:`repro.proofs.discharge.discharge_trace` arguments
        that hand this reference to one trace checker."""
        if checker == "consistency":
            return {"spec_cache": self._spec_cache}
        if checker == "commit_streams":
            if self._seq_side is None:
                machine = self.machine
                self._seq_side = seq_commit_side(
                    machine,
                    self.trace_cycles * machine.n_stages,
                    exclude=repair_targets(machine),
                )
            return {"seq_side": self._seq_side}
        return {}


def detect_static(pipelined: PipelinedMachine) -> tuple[str, str]:
    """The simulation-free rungs of the ladder: lint, absint, taint."""
    lint = lint_pipeline(pipelined)
    if lint.has_errors:
        first = lint.errors[0]
        return "lint", f"{first.rule}: {first.message}"

    semantic = lint_semantic(pipelined.module)
    if semantic.has_errors:
        first = semantic.errors[0]
        return "absint", f"{first.rule}: {first.message}"
    violations = rom_template_violations(pipelined.machine, pipelined.module)
    if violations:
        return "absint", violations[0]

    taint = lint_taint(pipelined)
    if taint.has_errors:
        first = taint.errors[0]
        return "taint", f"{first.rule}: {first.message}"
    return "", ""


def detect_formal(
    pipelined: PipelinedMachine,
    obligations,
    params: DetectParams = DetectParams(),
) -> tuple[str, str]:
    """The SAT rung of the ladder over an already-generated obligation
    set (trace obligations must have been discharged beforehand)."""
    resolve_properties(pipelined, obligations)
    system = TransitionSystem.from_module(pipelined.module)
    for obligation in obligations.invariants():
        ((_, record),) = discharge_invariant_group(
            system,
            [obligation],
            max_k=params.max_k,
            bmc_bound=params.bmc_bound,
            max_conflicts=params.max_conflicts,
        )
        if record.status is Status.FAILED:
            return "formal", f"{obligation.oid}: {record.method}"
    for obligation in obligations.equivalences():
        record = discharge_equivalence(obligation)
        if record.status is Status.FAILED:
            return "formal", f"{obligation.oid}: {record.detail}"
    return "", ""


def detect(
    pipelined: PipelinedMachine,
    trace_cycles: int,
    params: DetectParams = DetectParams(),
    reference: SequentialReference | None = None,
) -> tuple[str, str]:
    """Run the detection ladder; return ``(detector, detail)`` —
    ``("", "")`` when every checker accepts the design.

    The trace rung checks against ``reference`` only when it was built
    for this design's very ``machine`` object and trace length; any
    other design gets a fresh sequential reference."""
    detector, detail = detect_static(pipelined)
    if detector:
        return detector, detail

    if (
        reference is None
        or reference.machine is not pipelined.machine
        or reference.trace_cycles != trace_cycles
    ):
        reference = SequentialReference(pipelined.machine, trace_cycles)
    obligations = generate_obligations(pipelined)
    trace_obs = obligations.trace_checks()
    trace = build_trace(pipelined, trace_cycles) if trace_obs else None
    for obligation in trace_obs:
        record = discharge_trace(
            pipelined,
            obligation,
            trace=trace,
            trace_cycles=trace_cycles,
            **reference.arguments(obligation.checker),
        )
        if record.status is Status.FAILED:
            return "trace", f"{obligation.oid}: {record.detail}"

    return detect_formal(pipelined, obligations, params)


def run_mutant(
    mutant: Mutant,
    trace_cycles: int,
    params: DetectParams = DetectParams(),
    reference: SequentialReference | None = None,
) -> MutantResult:
    """Build one mutant and push it down the detection ladder (see
    :func:`detect` for when ``reference`` is used)."""
    start = time.perf_counter()
    try:
        mutated = mutant.build()
    except Exception as error:  # structural rejection is a legitimate kill
        return MutantResult(
            mid=mutant.mid,
            core=mutant.core,
            operator=mutant.operator,
            site=mutant.site,
            detected=True,
            detector="build",
            detail=f"{type(error).__name__}: {error}",
            seconds=time.perf_counter() - start,
        )
    detector, detail = detect(mutated, trace_cycles, params, reference)
    return MutantResult(
        mid=mutant.mid,
        core=mutant.core,
        operator=mutant.operator,
        site=mutant.site,
        detected=bool(detector),
        detector=detector,
        detail=detail,
        seconds=time.perf_counter() - start,
    )


def run_campaign(
    cores: list[str] | None = None,
    operators: list[str] | None = None,
    max_per_operator: int | None = None,
    params: DetectParams = DetectParams(),
    progress: Progress | None = None,
) -> CampaignReport:
    """Run the full campaign over the named cores (default: every
    non-slow core)."""
    if cores is None:
        cores = [name for name, spec in CORES.items() if not spec.slow]
    selected = list(operators) if operators is not None else list(OPERATORS)
    report = CampaignReport(cores=list(cores), operators=selected)
    start = time.perf_counter()

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    for name in cores:
        spec: CoreSpec = CORES[name]
        cycles = (
            params.trace_cycles
            if params.trace_cycles is not None
            else spec.trace_cycles
        )
        # the baseline and every mutant share one machine object, and so
        # one sequential reference
        machine = spec.build_machine()
        reference = SequentialReference(machine, cycles)
        baseline = transform(machine)
        detector, detail = detect(baseline, cycles, params, reference)
        clean = detector == ""
        report.baseline_clean[name] = clean
        note(
            f"[{name}] baseline {'clean' if clean else f'DIRTY ({detector}: {detail})'}"
        )
        if not clean:
            continue  # kills against a noisy checker prove nothing

        mutants = generate_mutants(
            spec, selected, max_per_operator, machine=machine
        )
        note(f"[{name}] {len(mutants)} mutants across {len(selected)} operators")
        for mutant in mutants:
            result = run_mutant(mutant, cycles, params, reference)
            report.results.append(result)
            verdict = (
                f"killed by {result.detector}" if result.detected else "SURVIVED"
            )
            note(f"[{name}] {result.mid}: {verdict} ({result.seconds:.2f}s)")

    report.wall_seconds = time.perf_counter() - start
    return report
