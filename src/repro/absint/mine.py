"""Invariant mining from the abstract fixpoint.

The pipeline is *generate → trace-filter → SAT-verify*:

1. **generate** — candidate 1-bit properties from three sources: facts
   the fixpoint already proved abstractly (known-bits masks and interval
   bounds per register — re-proving them inductively lets the SAT
   engine *assume* them, which abstract truth alone would not justify
   for injection bookkeeping), a relational grammar the domains cannot
   express (implication and at-most-one pairs over the 1-bit control
   registers — stall ``fullb`` bits, write enables, forwarding valids),
   and machine-declared invariant templates
   (:class:`repro.machine.prepared.InvariantTemplate`);
2. **trace-filter** — run the compiled simulator for a few dozen
   cycles and drop any candidate observed false (cheap, kills most
   junk before the solver sees it);
3. **verify** — Houdini simultaneous induction
   (:func:`repro.absint.verify.verify_candidates`); only survivors are
   ever returned as proven.

:func:`inject_invariants` then strengthens proof obligations with the
proven facts: an invariant is attached to an obligation only when its
cone-of-influence is contained in the obligation's (so the obligation's
COI slice, and hence its cache fingerprint, grows by nothing outside
what it already reads).
"""

from __future__ import annotations

import copy
import itertools
import time
from dataclasses import dataclass, field, replace

from ..formal.bmc import TransitionSystem
from ..hdl import expr as E
from ..hdl.bitvec import mask
from ..hdl.compile import CompiledSimulator
from ..hdl.serialize import exprs_from_json, exprs_to_json
from ..proofs.obligations import Obligation, ObligationKind
from .domain import ABSINT_VERSION
from .fixpoint import FixpointResult, analyze
from .verify import verify_candidates


# The mining knobs.  They decide which invariants a run proves, and the
# absint cache key does not hash them, so changing any of these (or the
# fixpoint's, in repro.absint.fixpoint) means bumping ABSINT_VERSION.
MAX_CONFLICTS = 200_000  # conflict budget of the Houdini check
MAX_CANDIDATES = 512  # candidates kept, in generation order
MAX_ONEBIT_REGISTERS = 16  # 1-bit registers the relational grammar pairs


@dataclass(frozen=True)
class MinedInvariant:
    """One SAT-proven (or, with ``check=False``, merely conjectured)
    invariant property."""

    name: str
    kind: str  # "bits" | "range" | "implication" | "mutex" | "template"
    prop: E.Expr


@dataclass
class MiningResult:
    """Outcome of one mining run over a module."""

    module_name: str
    candidates: int
    survivors: int  # candidates alive after the concrete trace filter
    proven: list[MinedInvariant]
    rejected: dict[str, str] = field(default_factory=dict)
    rounds: int = 0
    fixpoint_iterations: int = 0
    seconds: float = 0.0
    checked: bool = True
    from_cache: bool = False

    def to_dict(self, include_exprs: bool = True) -> dict:
        payload = {
            "module": self.module_name,
            "candidates": self.candidates,
            "survivors": self.survivors,
            "proven": [
                {"name": inv.name, "kind": inv.kind} for inv in self.proven
            ],
            "rejected": dict(self.rejected),
            "rounds": self.rounds,
            "fixpoint_iterations": self.fixpoint_iterations,
            "seconds": round(self.seconds, 4),
            "checked": self.checked,
            "from_cache": self.from_cache,
            "absint_version": ABSINT_VERSION,
        }
        if include_exprs:
            payload["exprs"] = exprs_to_json([inv.prop for inv in self.proven])
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MiningResult":
        props = exprs_from_json(payload["exprs"])
        proven = [
            MinedInvariant(meta["name"], meta["kind"], prop)
            for meta, prop in zip(payload["proven"], props)
        ]
        return cls(
            module_name=payload["module"],
            candidates=payload["candidates"],
            survivors=payload["survivors"],
            proven=proven,
            rejected=dict(payload.get("rejected", {})),
            rounds=payload.get("rounds", 0),
            fixpoint_iterations=payload.get("fixpoint_iterations", 0),
            seconds=payload.get("seconds", 0.0),
            checked=payload.get("checked", True),
            from_cache=True,
        )


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def rom_template_violations(machine, module) -> list[str]:
    """Concretely check every declared invariant template against every
    word of every ROM matching its register's width.

    The mined ``tmpl.*`` facts say a pipeline register only ever holds
    template-satisfying words, and those words come out of a read-only
    memory — so an image word violating the template is a defect the
    abstract interpretation of the *program image* flags directly, with
    no reachability argument (trace depth, BMC bound) needed.  The fault
    campaign's absint rung uses this against ``unalign-rom``-style image
    corruption.  Returns one message per violating (template, word).
    """
    violations: list[str] = []
    for template in getattr(machine, "invariant_templates", ()):
        reg = machine.registers.get(template.register)
        if reg is None:
            continue
        for mem_name, memory in module.memories.items():
            if memory.write_ports or memory.data_width != reg.width:
                continue
            for addr in sorted(memory.init):
                word = memory.init[addr] & mask(memory.data_width)
                prop = template.prop(E.const(memory.data_width, word))
                if isinstance(prop, E.Const) and prop.value == 0:
                    violations.append(
                        f"tmpl.{template.name}: {mem_name}[{addr:#x}] ="
                        f" {word:#x} violates the declared template"
                    )
    return violations


def generate_candidates(
    pipelined, fixpoint: FixpointResult
) -> dict[str, tuple[str, E.Expr]]:
    """Candidate name -> (kind, property); insertion order is the
    deterministic priority order used when trimming to
    ``MAX_CANDIDATES``."""
    module = getattr(pipelined, "module", pipelined)
    out: dict[str, tuple[str, E.Expr]] = {}

    # machine-declared templates first: they encode designer knowledge
    # and are the candidates obligations are generated from
    machine = getattr(pipelined, "machine", None)
    if machine is not None:
        for template in getattr(machine, "invariant_templates", ()):
            reg = machine.registers[template.register]
            for k in reg.instances():
                name = reg.instance_name(k)
                if name not in module.registers:
                    continue
                read = E.reg_read(name, reg.width)
                out[f"tmpl.{template.name}.{name}"] = (
                    "template",
                    template.prop(read),
                )

    # facts the fixpoint proved abstractly, re-stated as properties
    for name, reg in module.registers.items():
        value = fixpoint.registers.get(name)
        if value is None:
            continue
        w = reg.width
        full = mask(w)
        read = E.reg_read(name, w)
        if value.known:
            prop = E.eq(
                E.band(read, E.const(w, value.known)),
                E.const(w, value.value),
            )
            if not isinstance(prop, E.Const):
                out[f"bits.{name}"] = ("bits", prop)
        # only bounds strictly tighter than what the bit fact implies
        bit_hi = value.value | (full & ~value.known)
        if value.hi < bit_hi:
            out[f"range.hi.{name}"] = (
                "range",
                E.ule(read, E.const(w, value.hi)),
            )
        if value.lo > value.value:
            out[f"range.lo.{name}"] = (
                "range",
                E.ule(E.const(w, value.lo), read),
            )

    # relational grammar over the 1-bit control registers
    onebit = sorted(
        name
        for name, reg in module.registers.items()
        if reg.width == 1
        and not (
            fixpoint.registers[name].is_const()
            if name in fixpoint.registers
            else False
        )
    )[:MAX_ONEBIT_REGISTERS]
    for a, b in itertools.permutations(onebit, 2):
        out[f"imp.{a}->{b}"] = (
            "implication",
            E.implies(E.reg_read(a, 1), E.reg_read(b, 1)),
        )
    for a, b in itertools.combinations(onebit, 2):
        out[f"mutex.{a}.{b}"] = (
            "mutex",
            E.bnot(E.band(E.reg_read(a, 1), E.reg_read(b, 1))),
        )

    if len(out) > MAX_CANDIDATES:
        out = dict(itertools.islice(out.items(), MAX_CANDIDATES))
    return out


def _trace_filter(
    module,
    candidates: dict[str, E.Expr],
    cycles: int,
    fixpoint: FixpointResult | None = None,
) -> tuple[dict[str, E.Expr], dict[str, str]]:
    """Drop candidates observed false on a concrete zero-input run.

    Candidates the fixpoint already proves abstractly (their property
    evaluates to constant 1 in the stable abstract state, via the
    memoised cross-candidate :meth:`FixpointResult.eval`) hold in every
    reachable state, a fortiori on the trace — they are survivors by
    construction and skip the simulation entirely.  The rest become the
    probes of a copy of ``module`` (same registers and memories) on the
    compiled simulator; a probe reads each cycle's pre-edge state, so a
    candidate is rejected at the first cycle whose state falsifies it.
    """
    alive = dict(candidates)
    rejected: dict[str, str] = {}
    simulated = dict(alive)
    if fixpoint is not None:
        simulated = {}
        for name, prop in alive.items():
            value = fixpoint.eval(prop)
            if not (value.width == 1 and value.is_const() and value.lo == 1):
                simulated[name] = prop
    if simulated:
        probed = copy.copy(module)
        probed.probes = dict(simulated)
        sim = CompiledSimulator(probed)
        for cycle in range(cycles):
            if not simulated:
                break
            values = sim.step()
            for name in list(simulated):
                if values[name] != 1:
                    rejected[name] = f"falsified at trace cycle {cycle}"
                    del simulated[name]
                    del alive[name]
    return alive, rejected


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def mine_invariants(
    pipelined,
    *,
    system: TransitionSystem | None = None,
    trace_cycles: int = 64,
    check: bool = True,
    cache=None,
    fixpoint: FixpointResult | None = None,
) -> MiningResult:
    """Mine (and, with ``check=True``, SAT-prove) invariants for a module.

    ``pipelined`` is a :class:`repro.machine.PipelinedMachine` or a bare
    :class:`repro.hdl.netlist.Module`.  ``trace_cycles`` is the length of
    the concrete run that filters candidates before the SAT check; the
    other knobs are this module's and :mod:`repro.absint.fixpoint`'s
    constants.  With ``check=False`` the result carries the
    trace-surviving *conjectures* and ``checked=False`` — such a result
    must never be injected.  ``cache`` is an optional
    :class:`repro.absint.cache.InvariantCache`; only checked results are
    cached.
    """
    t0 = time.perf_counter()
    module = getattr(pipelined, "module", pipelined)

    key = None
    if cache is not None and check:
        key = cache.key_for(module, trace_cycles)
        hit = cache.get(key)
        if hit is not None:
            return hit

    if fixpoint is None:
        fixpoint = analyze(module)
    generated = generate_candidates(pipelined, fixpoint)
    kinds = {name: kind for name, (kind, _prop) in generated.items()}
    candidates = {name: prop for name, (_kind, prop) in generated.items()}

    survivors, rejected = _trace_filter(
        module, candidates, trace_cycles, fixpoint=fixpoint
    )

    if check:
        if system is None:
            system = TransitionSystem.from_module(module)
        outcome = verify_candidates(
            module, system, survivors, max_conflicts=MAX_CONFLICTS
        )
        rejected.update(outcome.rejected)
        proven = [
            MinedInvariant(name, kinds[name], prop)
            for name, prop in outcome.proven.items()
        ]
        rounds = outcome.rounds
    else:
        proven = [
            MinedInvariant(name, kinds[name], prop)
            for name, prop in survivors.items()
        ]
        rounds = 0

    result = MiningResult(
        module_name=module.name,
        candidates=len(candidates),
        survivors=len(survivors),
        proven=proven,
        rejected=rejected,
        rounds=rounds,
        fixpoint_iterations=fixpoint.iterations,
        seconds=time.perf_counter() - t0,
        checked=check,
    )
    if key is not None:
        cache.put(key, result)
    return result


# ---------------------------------------------------------------------------
# Injection into proof obligations
# ---------------------------------------------------------------------------


def inject_invariants(
    obligations: list[Obligation],
    proven: list[MinedInvariant],
    system: TransitionSystem,
) -> list[Obligation]:
    """Strengthen invariant obligations with proven facts.

    Each proven invariant is attached (as an ``assume`` conjunct) to
    every :data:`~repro.proofs.obligations.ObligationKind.INVARIANT`
    obligation whose cone-of-influence already contains the invariant's
    — never to trace or liveness obligations, never an obligation's own
    property to itself.  The assumption set is part of the obligation
    fingerprint, so cached verdicts are keyed by exactly the facts that
    were assumed.
    """
    if not proven:
        return list(obligations)
    inv_cones = [
        (inv, frozenset(system.cone_of_influence([inv.prop])))
        for inv in proven
    ]
    out: list[Obligation] = []
    for obligation in obligations:
        if (
            obligation.kind is not ObligationKind.INVARIANT
            or obligation.prop is None
        ):
            out.append(obligation)
            continue
        cone = system.cone_of_influence(
            [obligation.prop, *obligation.assume]
        )
        extra = tuple(
            inv.prop
            for inv, inv_cone in inv_cones
            if inv.prop is not obligation.prop
            and inv.prop not in obligation.assume
            and inv_cone <= cone
        )
        if extra:
            out.append(
                replace(obligation, assume=tuple(obligation.assume) + extra)
            )
        else:
            out.append(obligation)
    return out
