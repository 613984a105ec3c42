"""Cycle-level performance measurement.

``run_to_completion`` drives a machine until it has retired the same
number of instructions as the ISA reference needed to reach the halt
loop, then reports cycles, CPI, stall/hazard statistics and speculation
behaviour — the quantities behind experiments E3 and E5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..hdl.compile import CompiledSimulator
from ..hdl.netlist import Module

InputProvider = Callable[[int], Mapping[str, int]]


@dataclass
class PerfReport:
    """Performance counters of one run."""

    name: str
    cycles: int
    instructions: int
    completed: bool
    stall_cycles: int = 0
    hazard_cycles: int = 0
    rollbacks: int = 0
    ext_stall_cycles: int = 0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else float("inf")

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def row(self) -> dict[str, float | int | str]:
        """A flat dict for tabular reporting."""
        return {
            "workload": self.name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "CPI": round(self.cpi, 3),
            "stalls": self.stall_cycles,
            "hazards": self.hazard_cycles,
            "rollbacks": self.rollbacks,
        }


def run_to_completion(
    module: Module,
    target_instructions: int,
    n_stages: int,
    name: str = "",
    max_cycles: int | None = None,
    inputs: InputProvider | None = None,
    *,
    sim: CompiledSimulator | None = None,
) -> PerfReport:
    """Run ``module`` on the compiled simulator until
    ``target_instructions`` have retired (counted by ``ue`` of the last
    stage), collecting performance counters.

    Works for the sequential elaboration (``ue.{n-1}`` fires once per
    instruction), the pipelined one, and speculative machines (squashed
    instructions never fire the final ``ue``).  A caller that wants the
    run's final state or trace passes its own fresh ``sim`` of ``module``.
    """
    if max_cycles is None:
        max_cycles = max(64, target_instructions * n_stages * 6)
    if sim is None:
        sim = CompiledSimulator(module)
    last_ue = f"ue.{n_stages - 1}"
    has_stall = "stall.0" in module.probes
    stall_probes = [f"stall.{k}" for k in range(n_stages) if has_stall]
    dhaz_probes = [f"dhaz.{k}" for k in range(n_stages) if has_stall]
    rollback_probes = [
        name_
        for name_ in module.probes
        if name_.startswith("spec.") and name_.endswith(".mispredict")
    ]
    ext_names = [name_ for name_ in module.inputs if name_.startswith("ext.")]

    retired = 0
    stall_cycles = 0
    hazard_cycles = 0
    rollbacks = 0
    ext_stall_cycles = 0
    cycles = 0
    while retired < target_instructions and cycles < max_cycles:
        stimulus = dict(inputs(sim.cycle)) if inputs is not None else {}
        values = sim.step(stimulus)
        cycles += 1
        retired += values[last_ue]
        if has_stall:
            stall_cycles += int(any(values[p] for p in stall_probes))
            hazard_cycles += int(any(values[p] for p in dhaz_probes))
        rollbacks += sum(values[p] for p in rollback_probes)
        ext_stall_cycles += int(any(stimulus.get(e, 0) for e in ext_names))
    return PerfReport(
        name=name or module.name,
        cycles=cycles,
        instructions=retired,
        completed=retired >= target_instructions,
        stall_cycles=stall_cycles,
        hazard_cycles=hazard_cycles,
        rollbacks=rollbacks,
        ext_stall_cycles=ext_stall_cycles,
    )


@dataclass
class Comparison:
    """Side-by-side performance of several machine variants."""

    workload: str
    reports: dict[str, PerfReport] = field(default_factory=dict)

    def speedup(self, base: str, other: str) -> float:
        """Cycles(base) / cycles(other) — how much faster ``other`` is."""
        return self.reports[base].cycles / self.reports[other].cycles


def format_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render dict rows as a fixed-width text table (bench output)."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())
    widths = {
        col: max(len(str(col)), *(len(str(row.get(col, ""))) for row in rows))
        for col in columns
    }
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)
