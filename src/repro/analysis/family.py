"""Family certificates: prove an obligation once, cover the width family.

A *family* is one core built at every legal datapath width — the toy
machine at word 8, 16, 32, the DLX at 32, 48, 64.  Discharging the full
obligation suite per member repeats work that, for most obligations, is
literally identical: a stall-engine invariant's cone is the same control
circuit at every width, and HADES-style small-model reasoning says a
truncation-stable datapath cone proved at the cutoff width transfers
upward.  This module turns that observation into an auditable artifact:

1. :func:`analyze_family` builds **two** instances of a family (base and
   check width), runs the differential parametricity inference of
   :mod:`repro.analysis.widths` over every obligation cone, and emits an
   :class:`ObligationCertificate` per obligation — certified or not,
   with the reason and the entanglement count.

2. A certified obligation gets a **width-erased template**: the exact
   canonical serialization its content fingerprint digests, with every
   width-dependent numeric token replaced by an affine form ``a·W+b``
   (or a signed constant for folded all-ones masks).  The template's
   digest is the :dfn:`family fingerprint` — one key for the whole
   family.  At serve time the template is instantiated at the concrete
   width, **re-hash-consed** (hash-consing merges the DAG differently
   per width — degenerate zero-extensions fold, padding constants
   coincide — so the instantiated line list is deduplicated and folded
   exactly the way ``repro.hdl.expr`` interning would), and compared
   against the obligation's actual serialization.  A wrong or stale
   template can never alias a verdict.

3. :class:`FamilyContext` plugs into :func:`repro.jobs.engine.discharge_jobs`:
   certified obligations are served from a :class:`repro.jobs.cache.FamilyCache`
   under their family fingerprint, and freshly proved ones seed it.

4. :func:`crosscheck_family` is the soundness audit: every certified
   obligation is re-discharged *family-off* at two distinct widths and
   the verdicts compared verbatim.  Any mismatch is ``CONTRADICTED`` —
   the analysis (or a declassification) over-claimed, and CI fails.

Templates are erased from the *upper* instance pair (check width and one
step above), where no degenerate folds occur, and validated by
round-tripping through instantiation + re-hash-consing at the base
width.  All serializations are in *canonical* form, where ``K(...)``
concat lines are run-length-encoded (``K(5,5,5,3)`` → ``K(5*3,3)``) so
sign-replication — whose part count scales with width — becomes one
affine token instead of a variable-arity line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..absint.fixpoint import shared_fixpoint
from ..core.transform import PipelinedMachine, transform
from ..formal.bmc import TransitionSystem
from ..hdl import expr as E
from ..machine.prepared import PreparedMachine
from ..proofs.discharge import resolve_properties
from ..proofs.fingerprint import (
    _digest,
    equivalence_lines,
    invariant_lines,
    trace_lines,
)
from ..proofs.obligations import (
    Obligation,
    ObligationKind,
    ObligationSet,
    generate_obligations,
)
from .widths import (
    ConeTyping,
    MemSpec,
    PairMismatch,
    ParamType,
    StateSpec,
    infer_types,
)

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from ..jobs.cache import FamilyCache
    from ..jobs.engine import EngineParams
    from ..proofs.discharge import DischargeRecord


class FamilyMismatch(Exception):
    """The instances' serializations cannot be erased to one template."""


# ---------------------------------------------------------------------------
# family registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """One width family: a core builder parameterized by datapath word.

    ``base_width`` is the cutoff the certificate discharges at (and the
    width the fault catalog's :data:`~repro.faults.catalog.CORES` entry
    builds, so family verdicts and ordinary discharge share machines);
    ``check_width`` is the second instance the differential analysis and
    the crosscheck audit use; ``widths`` is the sweep the differential
    test suite and the benchmark cover.
    """

    name: str
    base_width: int
    check_width: int
    widths: tuple[int, ...]
    build: Callable[[int], PreparedMachine]
    trace_cycles: int = 150

    @property
    def template_width(self) -> int:
        """The third instance templates are erased against — one stride
        above the check width, where no degenerate folds occur."""
        return self.check_width + (self.check_width - self.base_width)

    def instance(self, width: int) -> PipelinedMachine:
        return transform(self.build(width))


def _families() -> dict[str, FamilySpec]:
    from ..faults import catalog

    return {
        "toy": FamilySpec(
            "toy", 8, 16, (8, 16, 32), catalog._toy_machine, trace_cycles=60
        ),
        # The DLX instruction encoding is 32-bit and LHI fills bits 16..31,
        # so the family starts at word 32 and grows upward.
        "dlx-small": FamilySpec(
            "dlx-small",
            32,
            48,
            (32, 48, 64),
            catalog._dlx_small_machine,
            trace_cycles=150,
        ),
        "dlx-spec": FamilySpec(
            "dlx-spec",
            32,
            48,
            (32, 48, 64),
            catalog._dlx_spec_machine,
            trace_cycles=150,
        ),
    }


FAMILIES: dict[str, FamilySpec] = _families()


# ---------------------------------------------------------------------------
# canonical lines and width-erased templates
# ---------------------------------------------------------------------------

_NUM_SPLIT = re.compile(r"(\d+)")
_TEMPLATE_TOKEN = re.compile(r"\{[^{}]*\}|\d+")
_AFFINE = re.compile(r"\{(\d*)W([+-]\d+)?\}")
_SIGNED = re.compile(r"\{s(-?\d+)@(\d+)\}")
# node lines start with an uppercase kind letter; metadata lines
# (prop:/state:/reg:/...) are all lowercase
_NODE_LINE = re.compile(r"^[CIRMUBXKS][\d:(]")


def canonicalize(lines: Iterable[str]) -> tuple[str, ...]:
    """Run-length-encode concat lines; everything else passes through."""
    out: list[str] = []
    for line in lines:
        if line.startswith("K(") and line.endswith(")"):
            tokens = line[2:-1].split(",")
            runs: list[tuple[str, int]] = []
            for token in tokens:
                if runs and runs[-1][0] == token:
                    runs[-1] = (token, runs[-1][1] + 1)
                else:
                    runs.append((token, 1))
            body = ",".join(
                token if count == 1 else f"{token}*{count}"
                for token, count in runs
            )
            out.append(f"K({body})")
        else:
            out.append(line)
    return tuple(out)


def _render_affine(a: int, b: int) -> str:
    head = "W" if a == 1 else f"{a}W"
    return "{" + head + (f"{b:+d}" if b else "") + "}"


def _centered(value: int, width: int) -> int | None:
    if width < 1 or value >= (1 << width):
        return None
    half = 1 << (width - 1)
    return value - (1 << width) if value >= half else value


def erase_template(
    lines0: Sequence[str], lines1: Sequence[str], w0: int, w1: int
) -> tuple[str, ...]:
    """Unify two canonical serializations into one width-generic template.

    Numeric tokens are paired positionally: equal values stay literal,
    values differing by an exact multiple of ``w1 - w0`` become affine
    ``{a·W+b}`` fields, and the remainder fall back to signed constants
    ``{s c @ anchor}`` interpreted modulo ``2^anchor`` — this is how a
    folded all-ones mask (65535 at word 16, 16777215 at word 24) erases
    to ``-1`` at the width of a preceding field on the same line.
    Anything else — including mismatched skeletons — raises
    :class:`FamilyMismatch`, and the obligation is simply not certified.
    """
    if len(lines0) != len(lines1):
        raise FamilyMismatch(
            f"serializations differ in length ({len(lines0)} vs {len(lines1)})"
        )
    delta_w = w1 - w0
    if delta_w <= 0:
        raise FamilyMismatch("template widths must be increasing")
    template: list[str] = []
    for line_no, (l0, l1) in enumerate(zip(lines0, lines1)):
        parts0 = _NUM_SPLIT.split(l0)
        parts1 = _NUM_SPLIT.split(l1)
        if len(parts0) != len(parts1):
            raise FamilyMismatch(f"line {line_no}: token structure differs")
        resolved: list[tuple[int, int]] = []  # numeric fields at (w0, w1)
        out: list[str] = []
        for i, (p0, p1) in enumerate(zip(parts0, parts1)):
            if i % 2 == 0:  # skeleton text between numbers
                if p0 != p1:
                    raise FamilyMismatch(
                        f"line {line_no}: skeleton differs ({p0!r} vs {p1!r})"
                    )
                if "{" in p0 or "}" in p0:
                    raise FamilyMismatch(
                        f"line {line_no}: brace in skeleton text"
                    )
                out.append(p0)
                continue
            v0, v1 = int(p0), int(p1)
            if v0 == v1:
                out.append(p0)
            else:
                diff = v1 - v0
                a, rem = divmod(diff, delta_w)
                b = v0 - a * w0
                if rem == 0 and a >= 1 and v1 == a * w1 + b:
                    out.append(_render_affine(a, b))
                else:
                    for anchor in range(len(resolved) - 1, -1, -1):
                        a0, a1 = resolved[anchor]
                        c0 = _centered(v0, a0)
                        c1 = _centered(v1, a1)
                        if c0 is not None and c0 == c1:
                            out.append("{s" + str(c0) + "@" + str(anchor) + "}")
                            break
                    else:
                        raise FamilyMismatch(
                            f"line {line_no}: token not width-generic"
                            f" ({v0} vs {v1})"
                        )
            resolved.append((v0, v1))
        template.append("".join(out))
    return tuple(template)


def instantiate(template: Sequence[str], width: int) -> tuple[str, ...]:
    """Resolve a template at a concrete width (no re-hash-consing).

    Fields resolve left to right per line, so a signed field's anchor —
    an earlier numeric field giving its bit width — is always available.
    """
    out: list[str] = []
    for line in template:
        resolved: list[int] = []

        def sub(match: re.Match[str]) -> str:
            token = match.group(0)
            if token[0] != "{":
                value = int(token)
            else:
                affine = _AFFINE.fullmatch(token)
                if affine is not None:
                    a = int(affine.group(1) or "1")
                    b = int(affine.group(2) or "0")
                    value = a * width + b
                else:
                    signed = _SIGNED.fullmatch(token)
                    if signed is None:
                        raise FamilyMismatch(f"bad template field {token!r}")
                    c = int(signed.group(1))
                    anchor_width = resolved[int(signed.group(2))]
                    value = c % (1 << anchor_width)
                if value < 0:
                    raise FamilyMismatch(
                        f"template field {token!r} negative at width {width}"
                    )
            resolved.append(value)
            return str(value)

        out.append(_TEMPLATE_TOKEN.sub(sub, line))
    return tuple(out)


def _rewrite_ref(token: str, remap: list[int | None]) -> int:
    index = remap[int(token)]
    if index is None:
        raise FamilyMismatch("reference to a vanished (zero-width) node")
    return index


def recons(lines: Sequence[str]) -> tuple[str, ...]:
    """Re-run hash-consing over an instantiated serialization.

    At low widths the interned DAG merges nodes the template keeps
    separate (a scaled padding constant coinciding with a fixed one) and
    folds degenerate operations (a zero-width zero-extension constant, a
    single-part concat).  This pass reproduces exactly those rules on the
    *line* level — dedup identical node lines, drop zero-width constants,
    fold single-part concats, remap references — so that an instantiated
    template can be compared verbatim against the actual serialization of
    the machine built at that width.  Idempotent on already-consed input.
    """
    out: list[str] = []
    remap: list[int | None] = []
    seen: dict[str, int] = {}
    node_count = 0  # references index node lines only, in emission order

    def emit(line: str) -> None:
        nonlocal node_count
        existing = seen.get(line)
        if existing is not None:
            remap.append(existing)
            return
        seen[line] = node_count
        remap.append(node_count)
        node_count += 1
        out.append(line)

    for line in lines:
        if not _NODE_LINE.match(line):
            out.append(_rewrite_meta(line, remap))
            continue
        head = line[0]
        if head == "C":
            width_str, value = line[1:].split(":", 1)
            if width_str == "0":
                if value != "0":
                    raise FamilyMismatch("zero-width constant with a value")
                remap.append(None)  # node vanishes (degenerate zext padding)
                continue
            emit(line)
        elif head in "IR":
            emit(line)
        elif head == "M":
            body, ref = line.rsplit("@", 1)
            emit(f"{body}@{_rewrite_ref(ref, remap)}")
        elif head == "U":
            op, ref = re.fullmatch(r"U:(\w+)\((\d+)\)", line).groups()
            emit(f"U:{op}({_rewrite_ref(ref, remap)})")
        elif head == "B":
            op, ra, rb = re.fullmatch(r"B:(\w+)\((\d+),(\d+)\)", line).groups()
            emit(
                f"B:{op}({_rewrite_ref(ra, remap)},{_rewrite_ref(rb, remap)})"
            )
        elif head == "X":
            rs, rt, re_ = re.fullmatch(r"X\((\d+),(\d+),(\d+)\)", line).groups()
            emit(
                f"X({_rewrite_ref(rs, remap)},{_rewrite_ref(rt, remap)}"
                f",{_rewrite_ref(re_, remap)})"
            )
        elif head == "S":
            ra, lo, hi = re.fullmatch(r"S\((\d+),(\d+),(\d+)\)", line).groups()
            emit(f"S({_rewrite_ref(ra, remap)},{lo},{hi})")
        elif head == "K":
            runs: list[tuple[int, int]] = []
            for term in line[2:-1].split(","):
                match = re.fullmatch(r"(\d+)(?:\*(\d+))?", term)
                if match is None:
                    raise FamilyMismatch(f"malformed concat term {term!r}")
                count = int(match.group(2) or "1")
                if count == 0:
                    continue  # a replication that vanished at this width
                ref = remap[int(match.group(1))]
                if ref is None:
                    continue  # zero-width part dropped
                if runs and runs[-1][0] == ref:
                    runs[-1] = (ref, runs[-1][1] + count)
                else:
                    runs.append((ref, count))
            if not runs:
                raise FamilyMismatch("concat with no surviving parts")
            if len(runs) == 1 and runs[0][1] == 1:
                remap.append(runs[0][0])  # single-part concat folds away
                continue
            body = ",".join(
                str(ref) if count == 1 else f"{ref}*{count}"
                for ref, count in runs
            )
            emit(f"K({body})")
        else:  # pragma: no cover - regex-gated
            raise FamilyMismatch(f"unrecognized node line {line!r}")
    return tuple(out)


def _rewrite_meta(line: str, remap: list[int | None]) -> str:
    """Remap node references inside a metadata line."""

    def ref(token: str) -> str:
        return str(_rewrite_ref(token, remap))

    if line.startswith("prop:"):
        return "prop:" + ref(line[5:])
    if line.startswith("assume:"):
        body = line[len("assume:") :]
        if not body:
            return line
        return "assume:" + ",".join(ref(token) for token in body.split(","))
    if line.startswith("equiv:"):
        a, b = line[len("equiv:") :].split(",")
        return f"equiv:{ref(a)},{ref(b)}"
    if line.startswith("state:"):
        body, next_ref = line.rsplit(":", 1)
        return f"{body}:{ref(next_ref)}"
    if line.startswith("reg:"):
        body, next_ref, enable_ref = line.rsplit(":", 2)
        return f"{body}:{ref(next_ref)}:{ref(enable_ref)}"
    if line.startswith("port:"):
        body, en, addr, data = line.rsplit(":", 3)
        return f"{body}:{ref(en)}:{ref(addr)}:{ref(data)}"
    if line.startswith("probe:"):
        body, probe_ref = line.rsplit(":", 1)
        return f"{body}:{ref(probe_ref)}"
    # rom:/param:/trace:/module:/input:/mem: carry no node references
    return line


def family_fingerprint(kind: str, template: Sequence[str]) -> str:
    """Digest of the width-erased template — the family cache key.

    Versioned the same way content fingerprints are (``_digest`` prefixes
    the solver/engine version line), so engine changes invalidate family
    verdicts too.
    """
    return _digest([f"family:{kind}", *template])


# ---------------------------------------------------------------------------
# per-obligation serialization (must match the content fingerprint's view)
# ---------------------------------------------------------------------------


def obligation_lines(
    obligation: Obligation,
    pipelined: PipelinedMachine,
    system: TransitionSystem,
    params: "EngineParams",
) -> list[str]:
    """The canonical serialization of one obligation, exactly as its
    content fingerprint digests it (flat form for traces)."""
    if obligation.kind is ObligationKind.INVARIANT:
        assert obligation.prop is not None
        return invariant_lines(
            system,
            obligation.prop,
            obligation.assume,
            params.invariant_params(),
        )
    if obligation.kind is ObligationKind.EQUIVALENCE:
        assert obligation.equiv is not None
        return equivalence_lines(*obligation.equiv)
    assert obligation.checker is not None
    return trace_lines(
        pipelined.module,
        obligation.checker,
        params.trace_params(obligation.checker, pipelined.n_stages),
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class ObligationCertificate:
    """The analysis verdict for one obligation of a family."""

    oid: str
    kind: str
    certified: bool
    reason: str
    cutoff_width: int
    entangled_nodes: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    template: tuple[str, ...] | None = None
    family_fingerprint: str | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "oid": self.oid,
            "kind": self.kind,
            "certified": self.certified,
            "reason": self.reason,
            "cutoff_width": self.cutoff_width,
            "entangled_nodes": self.entangled_nodes,
            "counts": dict(self.counts),
            "family_fingerprint": self.family_fingerprint,
        }


@dataclass
class FamilyAnalysis:
    """Certificates for every obligation of a family, plus the instances
    they were inferred from (kept alive so hash-consed ids stay valid)."""

    spec: FamilySpec
    base: PipelinedMachine = field(repr=False)
    check: PipelinedMachine = field(repr=False)
    certificates: dict[str, ObligationCertificate] = field(default_factory=dict)

    def certified(self) -> list[ObligationCertificate]:
        return [c for c in self.certificates.values() if c.certified]

    def to_dict(self) -> dict[str, object]:
        certified = self.certified()
        return {
            "family": self.spec.name,
            "base_width": self.spec.base_width,
            "check_width": self.spec.check_width,
            "widths": list(self.spec.widths),
            "obligations": len(self.certificates),
            "certified": len(certified),
            "certificates": [
                self.certificates[oid].to_dict()
                for oid in sorted(self.certificates)
            ],
        }


def _state_specs(
    support: Sequence[str], system0: TransitionSystem, system1: TransitionSystem
) -> list[StateSpec]:
    specs = []
    for name in support:
        v0, v1 = system0.var(name), system1.var(name)
        specs.append(
            StateSpec(
                name=name,
                width0=v0.width,
                width1=v1.width,
                init0=v0.init,
                init1=v1.init,
                next0=v0.next,
                next1=v1.next,
            )
        )
    return specs


def _mem_specs(
    support: Sequence[str],
    pipelined0: PipelinedMachine,
    pipelined1: PipelinedMachine,
    system0: TransitionSystem,
) -> list[MemSpec]:
    by_mem: dict[str, list[str]] = {}
    for name in support:
        if "[" in name:
            by_mem.setdefault(name.split("[")[0], []).append(name)
    specs = []
    for mem in sorted(by_mem):
        m0 = pipelined0.module.memories[mem]
        m1 = pipelined1.module.memories[mem]
        specs.append(
            MemSpec(
                name=mem,
                width0=m0.data_width,
                width1=m1.data_width,
                rom=mem in system0.constant_mems,
                init_equal=(
                    m0.addr_width == m1.addr_width and m0.init == m1.init
                ),
                word_vars=tuple(sorted(by_mem[mem])),
            )
        )
    return specs


class _Sharpener:
    """Absint value oracle: a pair may drop to ``UNIFORM`` when the
    known-bits/interval fixpoints prove the two instances equal-valued —
    either both reachably constant with the same value, or
    truncation-stable (``SLICEWISE``: narrow == wide mod 2^w0) with the
    wide instance provably below ``2^w0``, so the high bits that could
    differ are known zero and the integers coincide."""

    def __init__(self, pipelined0: PipelinedMachine, pipelined1: PipelinedMachine):
        self.fp0 = shared_fixpoint(pipelined0.module)
        self.fp1 = shared_fixpoint(pipelined1.module)
        self._memo: dict[tuple[int, int, int], bool] = {}

    def prime(self, roots0: Sequence[E.Expr], roots1: Sequence[E.Expr]) -> None:
        """Evaluate whole cones once, so per-pair consultations are
        memo-table lookups instead of per-node cone walks."""
        for root in roots0:
            self.fp0.eval(root)
        for root in roots1:
            self.fp1.eval(root)

    def __call__(self, n0: E.Expr, n1: E.Expr, computed: ParamType) -> bool:
        key = (id(n0), id(n1), int(computed))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        v0 = self.fp0.values.get(id(n0))
        if v0 is None:
            v0 = self.fp0.eval(n0)
        v1 = self.fp1.values.get(id(n1))
        if v1 is None:
            v1 = self.fp1.eval(n1)
        result = v0.is_const() and v1.is_const() and v0.lo == v1.lo
        if not result and computed is ParamType.SLICEWISE:
            result = n0.width < n1.width and v1.hi < (1 << n0.width)
        self._memo[key] = result
        return result


def _declassified(pipelined: PipelinedMachine) -> set[int]:
    # Speculation mispredict bits and designer-declared scheduling oracles
    # (branch decisions) are the sanctioned squash/redirect channels: the
    # scheduling argument quantifies over their outcomes, so the one-bit
    # results are width-generic even though the compared datapath values
    # are not.  Audited empirically by crosscheck_family.
    ids = {id(hw.mispredict) for hw in pipelined.speculations}
    ids.update(id(oracle) for oracle in pipelined.oracles)
    return ids


_UNIFORM = ParamType.UNIFORM
_SLICEWISE = ParamType.SLICEWISE


def _gate_roots(
    typing: ConeTyping,
    roots0: Sequence[E.Expr],
    roots1: Sequence[E.Expr],
    bound: ParamType,
) -> str | None:
    for r0, r1 in zip(roots0, roots1):
        if typing.of(r0, r1) > bound:
            return f"root typed {typing.of(r0, r1)}"
    return None


def _gate_trace(
    typing: ConeTyping,
    pipelined0: PipelinedMachine,
    pipelined1: PipelinedMachine,
) -> str | None:
    """Everything the trace checker can observe must be width-stable:
    unscaled (control) signals ``UNIFORM``, scaled (datapath) signals
    ``SLICEWISE``."""
    module0, module1 = pipelined0.module, pipelined1.module
    for (name, reg0), reg1 in zip(
        module0.registers.items(), module1.registers.values()
    ):
        bound = _UNIFORM if reg0.width == reg1.width else _SLICEWISE
        if typing.env.get(name, ParamType.ENTANGLED) > bound:
            return f"register {name} typed {typing.env[name]}"
    for (name, memory0), memory1 in zip(
        module0.memories.items(), module1.memories.values()
    ):
        for port0, port1 in zip(memory0.write_ports, memory1.write_ports):
            if typing.of(port0.enable, port1.enable) > _UNIFORM:
                return f"memory {name} write enable not uniform"
            if typing.of(port0.addr, port1.addr) > _UNIFORM:
                return f"memory {name} write address not uniform"
            bound = (
                _UNIFORM
                if port0.data.width == port1.data.width
                else _SLICEWISE
            )
            if typing.of(port0.data, port1.data) > bound:
                return f"memory {name} write data entangled"
    for (name, probe0), probe1 in zip(
        module0.probes.items(), module1.probes.values()
    ):
        bound = _UNIFORM if probe0.width == probe1.width else _SLICEWISE
        if typing.of(probe0, probe1) > bound:
            return f"probe {name} typed {typing.of(probe0, probe1)}"
    for signals0, signals1 in zip(
        _engine_signals(pipelined0), _engine_signals(pipelined1)
    ):
        for stage, (s0, s1) in enumerate(zip(signals0, signals1)):
            if typing.of(s0, s1) > _UNIFORM:
                return f"stall-engine signal (stage {stage}) not uniform"
    return None


def _engine_signals(pipelined: PipelinedMachine) -> list[list[E.Expr]]:
    engine = pipelined.engine
    return [engine.full, engine.dhaz, engine.stall, engine.rollback_prime, engine.ue]


def analyze_family(
    spec: FamilySpec,
    params: "EngineParams | None" = None,
    absint: bool = True,
) -> FamilyAnalysis:
    """Run the differential width-parametricity analysis over one family.

    Builds the base- and check-width instances, types every obligation's
    cone by paired bisimulation, erases width-generic templates against a
    third (template-width) instance, and emits one certificate per
    obligation.  Failures anywhere — structural divergence, entangled
    roots, un-erasable serializations — yield an *uncertified*
    certificate with the reason; they never raise.
    """
    if params is None:
        from ..jobs.engine import EngineParams

        params = EngineParams(trace_cycles=spec.trace_cycles)
    pipelined0 = spec.instance(spec.base_width)
    pipelined1 = spec.instance(spec.check_width)
    pipelined2 = spec.instance(spec.template_width)
    obligations0 = generate_obligations(pipelined0)
    obligations1 = generate_obligations(pipelined1)
    obligations2 = generate_obligations(pipelined2)
    resolve_properties(pipelined0, obligations0)
    resolve_properties(pipelined1, obligations1)
    resolve_properties(pipelined2, obligations2)
    system0 = TransitionSystem.from_module(pipelined0.module)
    system1 = TransitionSystem.from_module(pipelined1.module)
    system2 = TransitionSystem.from_module(pipelined2.module)
    sharpen = _Sharpener(pipelined0, pipelined1) if absint else None
    declassify0 = _declassified(pipelined0)
    declassify1 = _declassified(pipelined1)
    by_oid1 = {obligation.oid: obligation for obligation in obligations1}
    by_oid2 = {obligation.oid: obligation for obligation in obligations2}

    analysis = FamilyAnalysis(spec=spec, base=pipelined0, check=pipelined1)

    module_typing: ConeTyping | PairMismatch | None = None

    def trace_typing() -> ConeTyping:
        nonlocal module_typing
        if module_typing is None:
            roots0 = pipelined0.module.roots() + [
                signal for group in _engine_signals(pipelined0) for signal in group
            ]
            roots1 = pipelined1.module.roots() + [
                signal for group in _engine_signals(pipelined1) for signal in group
            ]
            states = [
                StateSpec(
                    name=name,
                    width0=reg0.width,
                    width1=reg1.width,
                    init0=reg0.init,
                    init1=reg1.init,
                    next0=reg0.next,
                    next1=reg1.next,
                    enable0=reg0.enable,
                    enable1=reg1.enable,
                )
                for (name, reg0), reg1 in zip(
                    pipelined0.module.registers.items(),
                    pipelined1.module.registers.values(),
                )
            ]
            mems = [
                MemSpec(
                    name=name,
                    width0=m0.data_width,
                    width1=m1.data_width,
                    rom=not m0.write_ports,
                    init_equal=(
                        m0.addr_width == m1.addr_width and m0.init == m1.init
                    ),
                    ports0=tuple(
                        (p.enable, p.addr, p.data) for p in m0.write_ports
                    ),
                    ports1=tuple(
                        (p.enable, p.addr, p.data) for p in m1.write_ports
                    ),
                )
                for (name, m0), m1 in zip(
                    pipelined0.module.memories.items(),
                    pipelined1.module.memories.values(),
                )
            ]
            try:
                if sharpen is not None:
                    sharpen.prime(roots0, roots1)
                module_typing = infer_types(
                    roots0,
                    roots1,
                    states=states,
                    mems=mems,
                    declassify0=declassify0,
                    declassify1=declassify1,
                    sharpen=sharpen,
                )
            except PairMismatch as exc:
                module_typing = exc
        if isinstance(module_typing, PairMismatch):
            raise module_typing
        return module_typing

    for obligation in obligations0:
        oid = obligation.oid
        kind = obligation.kind.name.lower()
        other = by_oid1.get(oid)
        upper = by_oid2.get(oid)
        certificate = ObligationCertificate(
            oid=oid,
            kind=kind,
            certified=False,
            reason="",
            cutoff_width=spec.base_width,
        )
        analysis.certificates[oid] = certificate
        if other is None or upper is None:
            certificate.reason = "obligation missing at a sibling width"
            continue
        scaled_support: int | None = None
        try:
            if obligation.kind is ObligationKind.INVARIANT:
                assert obligation.prop is not None and other.prop is not None
                roots0 = [obligation.prop, *obligation.assume]
                roots1 = [other.prop, *other.assume]
                support = sorted(system0.cone_of_influence(roots0))
                support1 = sorted(system1.cone_of_influence(roots1))
                if support != support1:
                    raise PairMismatch("cone supports differ across widths")
                scaled_support = sum(
                    1
                    for name in support
                    if system0.var(name).width != system1.var(name).width
                )
                walk0 = roots0 + [system0.var(n).next for n in support]
                walk1 = roots1 + [system1.var(n).next for n in support]
                if sharpen is not None:
                    sharpen.prime(walk0, walk1)
                typing = infer_types(
                    walk0,
                    walk1,
                    states=_state_specs(support, system0, system1),
                    mems=_mem_specs(support, pipelined0, pipelined1, system0),
                    declassify0=declassify0,
                    declassify1=declassify1,
                    sharpen=sharpen,
                )
                failure = _gate_roots(typing, roots0, roots1, _UNIFORM)
            elif obligation.kind is ObligationKind.EQUIVALENCE:
                assert obligation.equiv is not None and other.equiv is not None
                roots0 = list(obligation.equiv)
                roots1 = list(other.equiv)
                if sharpen is not None:
                    sharpen.prime(roots0, roots1)
                typing = infer_types(
                    roots0,
                    roots1,
                    declassify0=declassify0,
                    declassify1=declassify1,
                    sharpen=sharpen,
                )
                failure = _gate_roots(typing, roots0, roots1, _SLICEWISE)
            else:
                typing = trace_typing()
                failure = _gate_trace(typing, pipelined0, pipelined1)
            certificate.entangled_nodes = typing.entangled
            certificate.counts = typing.counts()
            if scaled_support is not None:
                certificate.counts["scaled_support"] = scaled_support
            if failure is not None:
                certificate.reason = failure
                continue
            lines0 = canonicalize(
                obligation_lines(obligation, pipelined0, system0, params)
            )
            lines1 = canonicalize(
                obligation_lines(other, pipelined1, system1, params)
            )
            lines2 = canonicalize(
                obligation_lines(upper, pipelined2, system2, params)
            )
            template = erase_template(
                lines1, lines2, spec.check_width, spec.template_width
            )
            # the template must round-trip — after re-hash-consing — at
            # every analysed width; instantiation + recons is exactly how
            # serve-time validation works, so this check is the guarantee
            # that width-dependent folds (degenerate zero-extensions,
            # coinciding padding constants) are reproduced faithfully
            if recons(instantiate(template, spec.base_width)) != lines0:
                raise FamilyMismatch("template does not round-trip at base")
            if recons(instantiate(template, spec.check_width)) != lines1:
                raise FamilyMismatch("template does not round-trip at check")
        except (PairMismatch, FamilyMismatch) as exc:
            certificate.reason = str(exc) or type(exc).__name__
            continue
        certificate.certified = True
        certificate.reason = "width-parametric"
        certificate.template = template
        certificate.family_fingerprint = family_fingerprint(kind, template)
    return analysis


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------


class FamilyContext:
    """Serve/seed adapter between the discharge engine and a family cache.

    Built once per (core, width) by the CLI or service; the engine calls
    :meth:`lookup` for every raw obligation before solving and
    :meth:`seed` for every freshly proved one after.  All serve paths
    re-validate the instantiated template against the obligation's
    actual serialization, so a certificate can only ever alias the
    obligation it was erased from.
    """

    def __init__(
        self,
        analysis: FamilyAnalysis,
        width: int,
        cache: "FamilyCache | None",
    ) -> None:
        self.analysis = analysis
        self.width = width
        self.cache = cache
        self.served = 0
        self.seeded = 0
        self._validated: dict[str, str] = {}  # oid -> family fingerprint

    @property
    def certified(self) -> int:
        return len(self.analysis.certified())

    def _validate(
        self,
        obligation: Obligation,
        pipelined: PipelinedMachine,
        system: TransitionSystem,
        params: "EngineParams",
    ) -> str | None:
        """Family fingerprint for this obligation at this width, or None."""
        if obligation.oid in self._validated:
            return self._validated[obligation.oid]
        certificate = self.analysis.certificates.get(obligation.oid)
        if (
            certificate is None
            or not certificate.certified
            or certificate.template is None
            or self.width < certificate.cutoff_width
        ):
            return None
        actual = canonicalize(
            obligation_lines(obligation, pipelined, system, params)
        )
        try:
            expected = recons(instantiate(certificate.template, self.width))
        except FamilyMismatch:
            return None
        if expected != actual:
            return None
        assert certificate.family_fingerprint is not None
        self._validated[obligation.oid] = certificate.family_fingerprint
        return certificate.family_fingerprint

    def lookup(
        self,
        obligation: Obligation,
        pipelined: PipelinedMachine,
        system: TransitionSystem,
        params: "EngineParams",
    ) -> "tuple[DischargeRecord, str] | None":
        """A cached family verdict applicable to this obligation, if any."""
        if self.cache is None:
            return None
        fingerprint = self._validate(obligation, pipelined, system, params)
        if fingerprint is None:
            return None
        record = self.cache.serve(fingerprint, self.width)
        if record is None:
            return None
        self.served += 1
        return (
            replace(record, oid=obligation.oid, title=obligation.title),
            fingerprint,
        )

    def seed(
        self,
        obligation: Obligation,
        pipelined: PipelinedMachine,
        system: TransitionSystem,
        params: "EngineParams",
        record: "DischargeRecord",
    ) -> bool:
        """Store a freshly proved verdict under its family fingerprint."""
        if self.cache is None:
            return False
        fingerprint = self._validate(obligation, pipelined, system, params)
        if fingerprint is None:
            return False
        stored = self.cache.put_family(
            fingerprint,
            record,
            base_width=self.analysis.spec.base_width,
            width=self.width,
            core=self.analysis.spec.name,
        )
        if stored:
            self.seeded += 1
        return stored

    def counters(self) -> dict[str, int]:
        return {
            "certified": self.certified,
            "served": self.served,
            "seeded": self.seeded,
        }


_ANALYSES: dict[tuple[str, str], FamilyAnalysis] = {}


def family_context(
    core: str,
    width: int | None = None,
    cache: "FamilyCache | None" = None,
    params: "EngineParams | None" = None,
    absint: bool = True,
) -> FamilyContext | None:
    """Memoised analysis + context for one core, or None for non-family
    cores.  The analysis is pure in (core, params), so repeated discharges
    — the width sweep, the service's per-request calls — reuse it."""
    spec = FAMILIES.get(core)
    if spec is None:
        return None
    if params is None:
        from ..jobs.engine import EngineParams

        params = EngineParams(trace_cycles=spec.trace_cycles)
    key = (
        core,
        f"{sorted(params.invariant_params().items())!r}"
        f":{params.trace_cycles}:{params.liveness_bound}:{absint}",
    )
    analysis = _ANALYSES.get(key)
    if analysis is None:
        analysis = analyze_family(spec, params, absint=absint)
        _ANALYSES[key] = analysis
    return FamilyContext(analysis, width or spec.base_width, cache)


# ---------------------------------------------------------------------------
# soundness audit
# ---------------------------------------------------------------------------


@dataclass
class CrosscheckReport:
    """Verbatim verdict comparison of certified obligations at two widths."""

    family: str
    widths: tuple[int, int]
    checked: list[str] = field(default_factory=list)
    contradicted: list[dict[str, str]] = field(default_factory=list)
    statuses: dict[str, dict[str, str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.contradicted

    def to_dict(self) -> dict[str, object]:
        return {
            "family": self.family,
            "widths": list(self.widths),
            "checked": list(self.checked),
            "contradicted": list(self.contradicted),
            "statuses": {k: dict(v) for k, v in self.statuses.items()},
        }


def crosscheck_family(
    spec: FamilySpec,
    params: "EngineParams | None" = None,
    sample: int | None = None,
    analysis: FamilyAnalysis | None = None,
) -> CrosscheckReport:
    """Audit certificates empirically: re-discharge every certified
    obligation *family-off* at the base and check widths and compare the
    verdicts verbatim.  A mismatch means the analysis claimed
    width-independence for a width-dependent obligation — CONTRADICTED.
    """
    from ..jobs.engine import EngineParams, discharge_jobs

    if params is None:
        params = EngineParams(trace_cycles=spec.trace_cycles)
    if analysis is None:
        analysis = analyze_family(spec, params)
    oids = sorted(c.oid for c in analysis.certified())
    if sample is not None:
        oids = oids[:sample]
    report = CrosscheckReport(
        family=spec.name,
        widths=(spec.base_width, spec.check_width),
        checked=list(oids),
    )
    if not oids:
        return report
    per_width: dict[int, dict[str, str]] = {}
    for width in (spec.base_width, spec.check_width):
        pipelined = spec.instance(width)
        full = generate_obligations(pipelined)
        keep = [o for o in full if o.oid in set(oids)]
        subset = ObligationSet(machine_name=full.machine_name, obligations=keep)
        result = discharge_jobs(pipelined, subset, params=params, cache=None)
        per_width[width] = {
            outcome.record.oid: outcome.record.status.name
            for outcome in result.outcomes
        }
    for oid in oids:
        status0 = per_width[spec.base_width].get(oid, "missing")
        status1 = per_width[spec.check_width].get(oid, "missing")
        report.statuses[oid] = {
            str(spec.base_width): status0,
            str(spec.check_width): status1,
        }
        if status0 != status1:
            report.contradicted.append(
                {
                    "oid": oid,
                    str(spec.base_width): status0,
                    str(spec.check_width): status1,
                }
            )
    return report
