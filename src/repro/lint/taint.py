"""Information-flow taint analysis over the hash-consed expression DAG.

Speculation (paper, Section 5) is only correct if speculative state can
never influence architectural state except through the sanctioned
channel: the guess comparator's squash-or-not outcome.  This pass checks
that *statically*, in one walk over the transformed netlist:

* **Sources** are the labeled state classes a
  :class:`repro.machine.prepared.PreparedMachine` declares (derived from
  its speculation annotations plus designer ``label_state`` entries):
  piped guess values (``SPEC_GUESS``), pre-commit stage results
  (``PRECOMMIT``) and the squash-window occupancy bits
  (``ROLLBACK_TAG``).
* **Transfer functions** propagate per-node taint sets bottom-up over
  the netlist alone: constants and inputs carry no taint, a register
  read carries its register's labels, a memory read leaks only through
  its address, and every other node joins its operands' taint.  The
  mux-precise and masking cases need no rule of their own, because
  hash-consing folds them when the expression is built: a constant
  select keeps only the live arm, and an AND with constant 0 is the
  constant itself.
* **Declassification** happens at the guess comparator: the mispredict
  net's taint is ``SPEC_CTRL`` regardless of what flows in — the paper
  sanctions exactly this one-bit digest steering repairs and squashes.

On top of propagation, declared **non-interference policies** become
ordinary lint rules through the registry/severity/waiver machinery:

* ``taint.spec-to-arch`` — architectural write-port data/addr and
  unrepaired visible-register updates must not carry raw ``SPEC_GUESS``
  or ``PRECOMMIT`` taint;
* ``taint.spec-to-select`` — stall and forwarding-select nets must not
  read raw guesses (``SPEC_GUESS``); rollback tags and declassified
  control are the commit guard working as intended and are allowed;
* ``taint.rollback-escape`` — every squash-window full bit must keep a
  live dependence on its ``rollback'`` net, else squashed wrong-path
  instructions survive;
* ``taint.unguarded-commit`` — every architectural write-port enable
  must keep a live dependence on the write stage's occupancy bit;
* ``taint.unguarded-forward`` — no forwarding valid bit may have a
  next-state function that is constant 1 under one-shot ternary
  propagation (a value claimed final before its producer wrote it).

The first two are *absence-of-flow* claims; each clean verdict can be
cross-checked against ground truth by a SAT two-copy self-composition
(:mod:`repro.formal.noninterference`).  The last three are
*presence-of-guard* claims the fault campaign's seeded leak mutants
(dropped commit guard, rollback-tag bypass, early valid) must trip.

Like :mod:`.semantic`, this family is not part of the default pass
lists — call :func:`lint_taint` explicitly (the fault ladder's taint
rung and the discharge engine's taint gate do).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..hdl import expr as E
from ..machine.prepared import PRECOMMIT, SPEC_CTRL, SPEC_GUESS
from .diagnostics import LintConfig, LintResult, Severity
from .registry import MachineContext, register_rule

if TYPE_CHECKING:  # pragma: no cover
    from ..core.transform import PipelinedMachine

register_rule(
    "taint.spec-to-arch",
    "speculative value taints an architectural write",
    Severity.ERROR,
    target="machine",
    description="an architectural write port's data/address or a visible"
    " register's update carries raw speculative (guess or pre-commit)"
    " taint without passing the resolve-stage comparator; wrong-path"
    " values can commit",
)
register_rule(
    "taint.spec-to-select",
    "raw guess taints a stall/forwarding select",
    Severity.ERROR,
    target="machine",
    description="a stall or forwarding-select net depends on an in-flight"
    " guess value directly, not via the declassified mispredict outcome;"
    " schedule decisions would leak speculative data",
)
register_rule(
    "taint.rollback-escape",
    "squash-window full bit ignores its rollback net",
    Severity.ERROR,
    target="machine",
    description="the next-state function of a full bit inside a"
    " speculation's squash window no longer consults rollback'; squashed"
    " wrong-path instructions keep their occupancy tag and commit",
)
register_rule(
    "taint.unguarded-commit",
    "architectural write enable lacks its occupancy guard",
    Severity.ERROR,
    target="machine",
    description="a visible register file's write-port enable does not"
    " depend on the write stage's full bit; bubbles and squashed"
    " instructions would write architectural state",
)
register_rule(
    "taint.unguarded-forward",
    "forwarding valid bit's next state is constant 1",
    Severity.ERROR,
    target="machine",
    description="a forwarding valid bit's next-state function is constant"
    " 1 under one-shot ternary propagation, so the bit claims the"
    " forwarded value final whatever the pipeline holds; consumers would"
    " read operands their producer has not written yet",
)


def _full_bit_name(stage: int) -> str:
    from ..core.stall_engine import full_bit_name

    return full_bit_name(stage)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

_EMPTY: frozenset[str] = frozenset()


class TaintAnalysis:
    """Per-node taint sets over one pipelined machine's netlist.

    ``sources`` maps register names to label sets (the machine's state
    classes restricted to registers that exist in the module);
    ``declassifiers`` are the mispredict nets, pre-seeded to
    ``{SPEC_CTRL}``.  Taint queries are memoised on the interned nodes
    themselves, so each node's transfer runs once per analysis.
    """

    def __init__(self, pipelined: "PipelinedMachine") -> None:
        self.pipelined = pipelined
        module = pipelined.module
        self.sources: dict[str, frozenset[str]] = {
            name: frozenset(classes)
            for name, classes in pipelined.machine.state_classes().items()
            if name in module.registers
        }
        self.declassifiers: tuple[E.Expr, ...] = tuple(
            hardware.mispredict for hardware in pipelined.speculations
        )
        self._memo: dict[E.Expr, frozenset[str]] = {
            node: frozenset((SPEC_CTRL,)) for node in self.declassifiers
        }

    def taint(self, root: E.Expr) -> frozenset[str]:
        memo = self._memo
        for node in E.walk_new([root], memo):
            if isinstance(node, E.RegRead):
                memo[node] = self.sources.get(node.name, _EMPTY)
            else:
                # a node joins its operands' taint: constants and inputs
                # have none, and a memory read's one operand is its
                # address (memory contents are architectural)
                memo[node] = _EMPTY.union(*(memo[c] for c in node.children()))
        return memo[root]


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyVerdict:
    """One non-interference policy instance: a sink, the taint classes it
    must not carry, and what propagation actually found.

    ``sources``/``declassifiers`` record the two-copy SAT query that
    validates a clean verdict: the sink must be unsatisfiably different
    across two copies that disagree only on the source registers, with
    the declassifier nets tied equal.
    """

    rule: str
    path: str  # element path of the sink, e.g. "memory:GPR.w0.data"
    sink: E.Expr
    forbidden: frozenset[str]
    found: frozenset[str]
    sources: tuple[str, ...]
    declassifiers: tuple[E.Expr, ...]

    @property
    def clean(self) -> bool:
        return not self.found


def _arch_sinks(pipelined: "PipelinedMachine") -> list[tuple[str, E.Expr]]:
    """Architectural value sinks: write-port data/addr of visible register
    files and the update of visible registers that no speculation repairs
    (a repaired register is protected by the repair path itself, which
    the guard rules check)."""
    machine = pipelined.machine
    module = pipelined.module
    sinks: list[tuple[str, E.Expr]] = []
    for regfile in machine.visible_regfiles():
        memory = module.memories.get(regfile.name)
        if memory is None:
            continue
        for index, port in enumerate(memory.write_ports):
            sinks.append((f"memory:{regfile.name}.w{index}.data", port.data))
            sinks.append((f"memory:{regfile.name}.w{index}.addr", port.addr))
    repaired = {
        target
        for hardware in pipelined.speculations
        for target in hardware.spec.repairs
    }
    for reg in machine.visible_registers():
        name = reg.instance_name(reg.last)
        if name in repaired or name not in module.registers:
            continue
        sinks.append((f"register:{name}", module.registers[name].next))
    return sinks


def _select_sinks(pipelined: "PipelinedMachine") -> list[tuple[str, E.Expr]]:
    """Schedule sinks: the stall chain, per-read forwarding selects and
    the squash/refill controls (the full-bit next functions).

    The full bits are the one place raw guesses legitimately *approach*
    the schedule — but only through the resolve comparator, whose
    mispredict digest is declassified.  Including them makes the policy
    (and its SAT cross-check) witness the declassification instead of
    holding vacuously."""
    sinks: list[tuple[str, E.Expr]] = []
    for stage, stall in enumerate(pipelined.engine.stall):
        if not isinstance(stall, E.Const):
            sinks.append((f"probe:stall.{stage}", stall))
    for stage in range(1, pipelined.n_stages):
        name = _full_bit_name(stage)
        reg = pipelined.module.registers.get(name)
        if reg is not None and not isinstance(reg.next, E.Const):
            sinks.append((f"register:{name}", reg.next))
    for index, network in enumerate(pipelined.networks):
        for j in network.hit_stages:
            hit = network.hits.get(j)
            if hit is not None and not isinstance(hit, E.Const):
                sinks.append(
                    (f"machine:{network.regfile}@{network.stage}.hit{j}", hit)
                )
    return sinks


def taint_verdicts(
    pipelined: "PipelinedMachine",
    analysis: TaintAnalysis | None = None,
) -> list[PolicyVerdict]:
    """Evaluate the absence-of-flow policies (the SAT-cross-checkable
    half of :func:`lint_taint`)."""
    analysis = analysis or TaintAnalysis(pipelined)
    policies: list[tuple[str, frozenset[str], list[tuple[str, E.Expr]]]] = [
        (
            "taint.spec-to-arch",
            frozenset((SPEC_GUESS, PRECOMMIT)),
            _arch_sinks(pipelined),
        ),
        (
            "taint.spec-to-select",
            frozenset((SPEC_GUESS,)),
            _select_sinks(pipelined),
        ),
    ]
    verdicts: list[PolicyVerdict] = []
    for rule, forbidden, sinks in policies:
        labeled = tuple(
            sorted(
                name
                for name, classes in analysis.sources.items()
                if classes & forbidden
            )
        )
        for path, sink in sinks:
            found = analysis.taint(sink) & forbidden
            in_cone = E.reg_reads([sink])
            verdicts.append(
                PolicyVerdict(
                    rule=rule,
                    path=path,
                    sink=sink,
                    forbidden=forbidden,
                    found=found,
                    sources=tuple(n for n in labeled if n in in_cone),
                    declassifiers=analysis.declassifiers,
                )
            )
    return verdicts


# ---------------------------------------------------------------------------
# Guard checks + entry point
# ---------------------------------------------------------------------------


def _check_rollback_escape(context: MachineContext) -> None:
    from ..hdl.subst import substitute
    from .structural import ternary_eval

    pipelined = context.pipelined
    module = pipelined.module
    checked: set[int] = set()
    for hardware in pipelined.speculations:
        spec = hardware.spec
        for stage in range(1, spec.resolve_stage + 1):
            if stage in checked:
                continue
            checked.add(stage)
            name = _full_bit_name(stage)
            reg = module.registers.get(name)
            prime = pipelined.engine.rollback_prime[stage]
            if reg is None or isinstance(prime, E.Const):
                continue
            # the squash contract: rollback'_s = 1 must force the full
            # bit to 0 no matter what the rest of the state holds.  A
            # mere reachability check is too weak — the prime chain is
            # built back-to-front, so rollback'_s is a *sub-node* of
            # ue_{s-1} and survives in the walk even when the gate is
            # dropped; ternary propagation under the one assumption
            # decides the actual implication.
            assumed = substitute(reg.next, memo={id(prime): E.const(1, 1)})
            known, value = ternary_eval([assumed]).get(id(assumed), (0, 0))
            if known == 1 and value == 0:
                continue
            context.emit(
                "taint.rollback-escape",
                f"register:{name}",
                f"full bit {name} (squash window of speculation"
                f" {spec.name!r}) is not forced to 0 by"
                f" rollback'_{stage}; wrong-path instructions in"
                f" stage {stage} escape the squash",
                speculation=spec.name,
                stage=stage,
            )


def _check_unguarded_commit(context: MachineContext) -> None:
    pipelined = context.pipelined
    module = pipelined.module
    for regfile in pipelined.machine.visible_regfiles():
        memory = module.memories.get(regfile.name)
        stage = regfile.write_stage
        full = pipelined.engine.full[stage]
        if memory is None or isinstance(full, E.Const):
            continue
        guard = _full_bit_name(stage)
        for index, port in enumerate(memory.write_ports):
            if guard in E.reg_reads([port.enable]):
                continue
            context.emit(
                "taint.unguarded-commit",
                f"memory:{regfile.name}.w{index}",
                f"write port {index} of {regfile.name!r} commits without"
                f" consulting {guard}; empty or squashed stage {stage}"
                " slots would write architectural state",
                stage=stage,
            )


def _check_unguarded_forward(context: MachineContext) -> None:
    from ..core.forwarding import valid_bit_name
    from .structural import ternary_eval

    pipelined = context.pipelined
    module = pipelined.module
    names = {
        valid_bit_name(network.regfile, stage)
        for network in pipelined.networks
        for stage in range(pipelined.n_stages + 1)
    }
    for name in sorted(names & set(module.registers)):
        next_value = module.registers[name].next
        if ternary_eval([next_value]).get(id(next_value)) != (1, 1):
            continue
        context.emit(
            "taint.unguarded-forward",
            f"register:{name}",
            f"forwarding valid bit {name} is reachably constant 1:"
            " the chain claims the forwarded value final before its"
            " producer decides to write it",
        )


def lint_taint(
    pipelined: "PipelinedMachine",
    config: LintConfig | None = None,
    analysis: TaintAnalysis | None = None,
) -> LintResult:
    """Run the taint propagation and every non-interference policy over
    one pipelined machine.

    ``analysis`` may be supplied to reuse the propagation itself
    (``repro taint`` reads its sources and verdicts too).
    """
    config = config or LintConfig()
    result = LintResult()
    context = MachineContext(
        config=config,
        result=result,
        module_name=pipelined.module.name,
        ignores=getattr(pipelined.module, "lint_ignores", {}),
        machine=pipelined.machine,
        pipelined=pipelined,
    )
    analysis = analysis or TaintAnalysis(pipelined)
    for verdict in taint_verdicts(pipelined, analysis=analysis):
        if verdict.clean:
            continue
        classes = ", ".join(sorted(verdict.found))
        context.emit(
            verdict.rule,
            verdict.path,
            f"sink carries {classes} taint from in-flight speculation"
            f" ({len(verdict.sources)} labeled source register(s))"
            " without passing a commit guard",
            classes=classes,
        )
    _check_rollback_escape(context)
    _check_unguarded_commit(context)
    _check_unguarded_forward(context)
    return result
