"""Width-parametricity analysis (repro.analysis) and family certificates.

Covers the slice-dependence type inference (``repro.analysis.widths``),
the template erasure/instantiation/re-hash-consing machinery and the
per-obligation certificates (``repro.analysis.family``), the engine
serve/seed integration, the :class:`FamilyCache` store, the lint rules,
the crosscheck audit, and the CLI surface (``repro family``,
``repro cache`` family breakouts, the ``repro lint`` multi-core exit
code).
"""

import json

import pytest

from repro.analysis import family as family_module
from repro.analysis.family import (
    FAMILIES,
    FamilyAnalysis,
    FamilyContext,
    FamilyMismatch,
    _declassified,
    _mem_specs,
    _state_specs,
    _system_typing,
    analyze_family,
    canonicalize,
    crosscheck_family,
    erase_template,
    family_fingerprint,
    instantiate,
    recons,
)
from repro.analysis.widths import (
    MemSpec,
    ParamType,
    PairMismatch,
    StateSpec,
    infer_types,
    join,
)
from repro.formal.bmc import TransitionSystem
from repro.hdl import expr as E
from repro.jobs import EngineParams, discharge_jobs
from repro.jobs.cache import FamilyCache
from repro.lint import Severity, lint_family
from repro.proofs import generate_obligations
from repro.proofs.discharge import resolve_properties
from repro.proofs.obligations import Obligation, ObligationKind, ObligationSet


@pytest.fixture(scope="module")
def toy_analysis():
    spec = FAMILIES["toy"]
    return analyze_family(spec, EngineParams(trace_cycles=spec.trace_cycles))


def _toy_instances(widths):
    spec = FAMILIES["toy"]
    out = []
    for width in widths:
        pipelined = spec.instance(width)
        out.append((width, pipelined, generate_obligations(pipelined)))
    return out


def _subset(full, oids):
    keep = [o for o in full.obligations if o.oid in oids]
    return ObligationSet(machine_name=full.machine_name, obligations=keep)


# ---------------------------------------------------------------------------
# repro.analysis.widths — the slice-dependence type lattice
# ---------------------------------------------------------------------------


class TestWidthTyping:
    def _pair(self, builder):
        """Build the same expression at widths 8 and 16 and type it."""
        r0, r1 = builder(8), builder(16)
        typing = infer_types([r0], [r1])
        return typing.of(r0, r1)

    def test_join_lattice(self):
        assert join() is ParamType.CONST
        assert join(ParamType.UNIFORM, ParamType.SLICEWISE) is ParamType.SLICEWISE
        assert join(ParamType.CONST, ParamType.ENTANGLED) is ParamType.ENTANGLED

    def test_equal_constants_are_const(self):
        assert self._pair(lambda w: E.const(w, 5)) is ParamType.CONST

    def test_folded_mask_is_slicewise(self):
        # an all-ones mask folds to a different value per width but is
        # truncation-stable: wide mod 2^narrow == narrow
        assert self._pair(lambda w: E.const(w, (1 << w) - 1)) is (
            ParamType.SLICEWISE
        )

    def test_scaled_input_is_slicewise(self):
        assert self._pair(lambda w: E.input_port("a", w)) is ParamType.SLICEWISE

    def test_unscaled_input_is_uniform(self):
        r0 = E.input_port("sel", 5)
        typing = infer_types([r0], [r0])
        assert typing.of(r0, r0) is ParamType.UNIFORM

    def test_addition_stays_slicewise(self):
        # carries propagate upward only: the common low slice agrees
        assert self._pair(
            lambda w: E.add(E.input_port("a", w), E.input_port("b", w))
        ) is ParamType.SLICEWISE

    def test_compare_of_scaled_data_entangles(self):
        # the wide instance sees high bits the narrow one cannot
        assert self._pair(
            lambda w: E.eq(E.input_port("a", w), E.input_port("b", w))
        ) is ParamType.ENTANGLED

    def test_signed_compare_of_scaled_data_entangles(self):
        assert self._pair(
            lambda w: E.slt(E.input_port("a", w), E.input_port("b", w))
        ) is ParamType.ENTANGLED

    def test_compare_of_uniform_operands_is_uniform(self):
        r = E.eq(E.input_port("rs", 5), E.input_port("rd", 5))
        typing = infer_types([r], [r])
        assert typing.of(r, r) is ParamType.UNIFORM

    def test_mux_uniform_select_joins_arms(self):
        def build(w):
            return E.mux(
                E.input_port("sel", 1),
                E.input_port("a", w),
                E.input_port("b", w),
            )

        assert self._pair(build) is ParamType.SLICEWISE

    def test_mux_scaled_select_entangles(self):
        def build(w):
            return E.mux(
                E.eq(E.input_port("a", w), E.input_port("b", w)),
                E.input_port("x", w),
                E.input_port("y", w),
            )

        assert self._pair(build) is ParamType.ENTANGLED

    def test_zext_alignment_across_widths(self):
        # zext pads with a scaled zero run; the aligned-run rule keeps
        # the value truncation-stable even though the run shapes differ
        def build(w):
            return E.zext(E.input_port("a", 4), w)

        assert self._pair(build) in (ParamType.UNIFORM, ParamType.SLICEWISE)

    def test_declassification_forces_uniform(self):
        def build(w):
            return E.eq(E.input_port("a", w), E.input_port("b", w))

        r0, r1 = build(8), build(16)
        typing = infer_types(
            [r0], [r1], declassify0={id(r0)}, declassify1={id(r1)}
        )
        assert typing.of(r0, r1) is ParamType.UNIFORM

    def test_declassification_needs_both_sides(self):
        def build(w):
            return E.eq(E.input_port("a", w), E.input_port("b", w))

        r0, r1 = build(8), build(16)
        typing = infer_types([r0], [r1], declassify0={id(r0)})
        assert typing.of(r0, r1) is ParamType.ENTANGLED

    def test_structural_divergence_raises(self):
        r0 = E.add(E.input_port("a", 8), E.input_port("b", 8))
        r1 = E.sub(E.input_port("a", 16), E.input_port("b", 16))
        with pytest.raises(PairMismatch):
            infer_types([r0], [r1])

    def test_state_fixpoint_accumulator_is_slicewise(self):
        def build(w):
            return E.add(E.reg_read("acc", w), E.input_port("a", w))

        n0, n1 = build(8), build(16)
        states = [
            StateSpec(
                name="acc",
                width0=8,
                width1=16,
                init0=0,
                init1=0,
                next0=n0,
                next1=n1,
            )
        ]
        typing = infer_types([n0], [n1], states=states)
        assert typing.env["acc"] is ParamType.SLICEWISE

    def test_state_fixpoint_entangles_through_compare(self):
        def build(w):
            # a 1-bit flag latching a scaled comparison
            return E.eq(E.reg_read("d", w), E.const(w, 0))

        n0, n1 = build(8), build(16)
        states = [
            StateSpec(
                name="flag",
                width0=1,
                width1=1,
                init0=0,
                init1=0,
                next0=n0,
                next1=n1,
            ),
            StateSpec(
                name="d",
                width0=8,
                width1=16,
                init0=0,
                init1=0,
                next0=E.input_port("a", 8),
                next1=E.input_port("a", 16),
            ),
        ]
        typing = infer_types(
            [n0, states[1].next0], [n1, states[1].next1], states=states
        )
        assert typing.env["flag"] is ParamType.ENTANGLED

    def test_memory_typed_once_from_its_write_ports(self):
        """A memory is one element of the fixpoint: a read joins the
        type of every port's data, and a port whose address is not
        uniform entangles the whole memory."""

        def build(w, addr):
            read = E.mem_read("M", E.reg_read("p", 4), w)
            port = (E.const(1, 1), addr, E.add(E.input_port("a", w), read))
            return read, port

        def memory_type(addr0, addr1):
            (read0, port0), (read1, port1) = build(8, addr0), build(16, addr1)
            mems = [
                MemSpec(
                    name="M", width0=8, width1=16, ports0=(port0,), ports1=(port1,)
                )
            ]
            typing = infer_types([read0, *port0], [read1, *port1], mems=mems)
            assert typing.of(read0, read1) is typing.env["M"]
            return typing.env["M"]

        uniform = E.input_port("q", 4)
        assert memory_type(uniform, uniform) is ParamType.SLICEWISE
        # an address decided by a scaled compare writes different words
        entangled0 = E.zext(E.ult(E.input_port("a", 8), E.input_port("b", 8)), 4)
        entangled1 = E.zext(E.ult(E.input_port("a", 16), E.input_port("b", 16)), 4)
        assert memory_type(entangled0, entangled1) is ParamType.ENTANGLED

    def test_counts_reports_all_levels(self):
        r0 = E.add(E.input_port("a", 8), E.const(8, 1))
        r1 = E.add(E.input_port("a", 16), E.const(16, 1))
        counts = infer_types([r0], [r1]).counts()
        assert counts["slicewise"] >= 2 and counts["const"] >= 1

    def test_restrict_reads_a_subcone(self):
        def build(w):
            inner = E.add(E.input_port("a", w), E.const(w, 1))
            return inner, E.eq(inner, E.input_port("b", w))

        (inner0, outer0), (inner1, outer1) = build(8), build(16)
        whole = infer_types([outer0], [outer1])
        restricted = whole.restrict([inner0], [inner1])
        own = infer_types([inner0], [inner1])
        assert restricted.order == own.order
        assert restricted.types == own.types
        assert restricted.counts() == own.counts() != whole.counts()


# ---------------------------------------------------------------------------
# templates: canonicalize / erase / instantiate / recons
# ---------------------------------------------------------------------------


class TestTemplates:
    def test_canonicalize_rle(self):
        assert canonicalize(["K(5,5,5,3)"]) == ("K(5*3,3)",)
        assert canonicalize(["K(7)"]) == ("K(7)",)
        assert canonicalize(["B:add(1,2)"]) == ("B:add(1,2)",)

    def test_erase_affine_token(self):
        template = erase_template(["C16:0"], ["C24:0"], 16, 24)
        assert template == ("C{W}:0",)
        assert instantiate(template, 8) == ("C8:0",)
        assert instantiate(template, 48) == ("C48:0",)

    def test_erase_affine_with_offset(self):
        # a field tracking W-1 (e.g. an MSB index)
        template = erase_template(["S(3,15,15)"], ["S(3,23,23)"], 16, 24)
        assert template == ("S(3,{W-1},{W-1})",)
        assert instantiate(template, 8) == ("S(3,7,7)",)

    def test_erase_signed_constant(self):
        # a folded negative constant whose value difference is not a
        # multiple of the width stride: the affine form cannot fit, so
        # the token erases to a signed constant interpreted modulo the
        # width given by the preceding field on the line (-3 here)
        template = erase_template(["C4:13"], ["C7:125"], 4, 7)
        assert template == ("C{W}:{s-3@0}",)
        assert instantiate(template, 5) == ("C5:29",)
        assert instantiate(template, 8) == ("C8:253",)

    def test_degenerate_affine_fails_at_base_width(self):
        # an all-ones mask erased between two upper widths fits a steep
        # affine form; instantiating it below those widths goes negative
        # and raises — this is why analyze_family round-trips every
        # template at the base width before certifying
        template = erase_template(["C16:65535"], ["C24:16777215"], 16, 24)
        with pytest.raises(FamilyMismatch):
            instantiate(template, 8)

    def test_erase_rejects_non_generic_token(self):
        with pytest.raises(FamilyMismatch):
            erase_template(["C16:3"], ["C24:5"], 16, 24)

    def test_erase_rejects_skeleton_divergence(self):
        with pytest.raises(FamilyMismatch):
            erase_template(["B:add(1,2)"], ["B:sub(1,2)"], 16, 24)

    def test_erase_rejects_length_mismatch(self):
        with pytest.raises(FamilyMismatch):
            erase_template(["C16:0", "C16:1"], ["C24:0"], 16, 24)

    def test_recons_dedups_identical_nodes(self):
        lines = ["C8:0", "C8:0", "B:add(0,1)"]
        assert recons(lines) == ("C8:0", "B:add(0,0)")

    def test_recons_drops_zero_width_constant(self):
        # a degenerate zext pad vanishes; the single-part concat folds
        lines = ["C0:0", "I:a:8", "K(1,0)", "prop:2"]
        assert recons(lines) == ("I:a:8", "prop:0")

    def test_recons_idempotent_on_consed_input(self):
        lines = ["C8:0", "I:a:8", "B:add(0,1)", "prop:2"]
        assert recons(lines) == tuple(lines)
        assert recons(recons(lines)) == recons(lines)

    def test_family_fingerprint_is_stable_and_kind_scoped(self):
        template = ("C{W}:0", "prop:0")
        fp = family_fingerprint("invariant", template)
        assert fp == family_fingerprint("invariant", template)
        assert fp != family_fingerprint("trace", template)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

DLX_SPEC_CERTIFIED = {
    "stall.hazard_blocks_update.0",
    "stall.hazard_blocks_update.2",
    "stall.hazard_blocks_update.3",
    "stall.hazard_blocks_update.4",
    "stall.no_ue_when_stalled.2",
    "stall.no_ue_when_stalled.3",
    "stall.no_ue_when_stalled.4",
    "stall.propagates.1",
    "stall.propagates.2",
    "stall.propagates.3",
    "stall.squash_blocks_update.3",
    "stall.squash_blocks_update.4",
    "stall.stall_implies_full.0",
    "stall.stall_implies_full.2",
    "stall.stall_implies_full.3",
    "stall.stall_implies_full.4",
    "stall.ue_implies_full.0",
}
# dlx-small also certifies the squash guards of stages 0 to 2 and its one
# hazard-to-stall forwarding invariant
DLX_SMALL_CERTIFIED = DLX_SPEC_CERTIFIED | {
    "fwd.dhaz_feeds_stall.DPC.0.2",
    "stall.squash_blocks_update.0",
    "stall.squash_blocks_update.1",
    "stall.squash_blocks_update.2",
}


class TestCertificates:
    def test_toy_fully_certified(self, toy_analysis):
        certificates = toy_analysis.certificates
        assert len(certificates) >= 30
        uncertified = [c.oid for c in certificates.values() if not c.certified]
        assert uncertified == []
        for certificate in certificates.values():
            assert certificate.reason == "width-parametric"
            assert certificate.template is not None
            assert certificate.family_fingerprint is not None
            assert certificate.cutoff_width == 8

    def test_certified_templates_round_trip(self, toy_analysis):
        # the analysis already asserts this internally; re-check one
        # certificate end to end as a regression against recons drift
        certificate = next(iter(toy_analysis.certified()))
        base = FAMILIES["toy"].base_width
        lines = recons(instantiate(certificate.template, base))
        assert lines == recons(lines)

    def test_invariant_counts_expose_scaled_support(self, toy_analysis):
        invariants = [
            c
            for c in toy_analysis.certificates.values()
            if c.kind == "invariant"
        ]
        assert invariants
        for certificate in invariants:
            assert "scaled_support" in certificate.counts

    def test_to_dict_shape(self, toy_analysis):
        payload = toy_analysis.to_dict()
        assert payload["family"] == "toy"
        assert payload["base_width"] == 8
        assert payload["widths"] == [8, 16, 32]
        assert payload["certified"] == len(toy_analysis.certified())
        assert len(payload["certificates"]) == payload["obligations"]

    def _assert_certified_exactly(self, core, expected, obligations):
        spec = FAMILIES[core]
        analysis = analyze_family(
            spec, EngineParams(trace_cycles=spec.trace_cycles)
        )
        assert len(analysis.certificates) == obligations
        # the stall-engine/forwarding invariant group is the headline:
        # scheduling is pure control, so it must certify — and nothing
        # else does, so the set is pinned exactly
        assert {c.oid for c in analysis.certified()} == expected
        for oid in expected:
            assert analysis.certificates[oid].kind == "invariant"
        # the width-entangled remainder stays honest: uncertified with a
        # recorded reason, never a silent drop
        for oid, certificate in analysis.certificates.items():
            if oid not in expected:
                assert certificate.reason

    def test_dlx_small_stall_group_certified(self):
        self._assert_certified_exactly("dlx-small", DLX_SMALL_CERTIFIED, 51)

    def test_dlx_spec_stall_group_certified(self):
        self._assert_certified_exactly("dlx-spec", DLX_SPEC_CERTIFIED, 47)


# ---------------------------------------------------------------------------
# one typing per family, restricted to every certificate's cone
# ---------------------------------------------------------------------------


def _paired_invariants(spec):
    """The base and check instances, their transition systems, and the
    invariant obligations paired by oid, as analyze_family builds them."""
    pipelined0 = spec.instance(spec.base_width)
    pipelined1 = spec.instance(spec.check_width)
    obligations0 = generate_obligations(pipelined0)
    obligations1 = generate_obligations(pipelined1)
    resolve_properties(pipelined0, obligations0)
    resolve_properties(pipelined1, obligations1)
    by_oid1 = {obligation.oid: obligation for obligation in obligations1}
    invariants = [
        (obligation, by_oid1[obligation.oid])
        for obligation in obligations0
        if obligation.kind is ObligationKind.INVARIANT
    ]
    systems = (
        TransitionSystem.from_module(pipelined0.module),
        TransitionSystem.from_module(pipelined1.module),
    )
    return (pipelined0, pipelined1), systems, invariants


class TestOneTyping:
    @pytest.mark.parametrize("core", ["toy", "dlx-small"])
    def test_system_typing_restricts_to_each_cone_typing(self, core):
        spec = FAMILIES[core]
        analysis = analyze_family(
            spec, EngineParams(trace_cycles=spec.trace_cycles)
        )
        (pipelined0, pipelined1), (system0, system1), invariants = (
            _paired_invariants(spec)
        )
        declassify0 = _declassified(pipelined0)
        declassify1 = _declassified(pipelined1)
        typing = _system_typing(
            pipelined0, pipelined1, system0, system1, invariants
        )
        assert invariants
        for obligation, other in invariants:
            roots0 = [obligation.prop, *obligation.assume]
            roots1 = [other.prop, *other.assume]
            support = sorted(system0.cone_of_influence(roots0))
            walk0 = roots0 + system0.roots_of(support)
            walk1 = roots1 + system1.roots_of(support)
            # the oracle: a fixpoint over this cone's own state elements
            cone = infer_types(
                walk0,
                walk1,
                states=_state_specs(support, system0, system1),
                mems=_mem_specs(support, system0, system1),
                declassify0=declassify0,
                declassify1=declassify1,
            )
            restricted = typing.restrict(walk0, walk1)
            assert restricted.order == cone.order, obligation.oid
            assert restricted.types == cone.types, obligation.oid
            assert {n: typing.env[n] for n in support} == cone.env
            certificate = analysis.certificates[obligation.oid]
            counts = dict(certificate.counts)
            del counts["scaled_support"]
            assert counts == cone.counts(), obligation.oid
            assert certificate.entangled_nodes == cone.entangled

    def test_analyze_family_types_the_system_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(bool(kwargs.get("states")))
            return infer_types(*args, **kwargs)

        monkeypatch.setattr(family_module, "infer_types", counting)
        spec = FAMILIES["toy"]
        analysis = analyze_family(
            spec, EngineParams(trace_cycles=spec.trace_cycles)
        )
        assert len(analysis.certified()) == len(analysis.certificates)
        # one stateful typing of the paired systems; every certificate
        # reads its cone off it
        assert calls == [True]

    def test_analyze_family_runs_no_absint_fixpoint(self, monkeypatch):
        from repro.absint import fixpoint

        calls = []
        real = fixpoint.analyze

        def counting(module):
            calls.append(module.name)
            return real(module)

        monkeypatch.setattr(fixpoint, "analyze", counting)
        spec = FAMILIES["toy"]
        analysis = analyze_family(
            spec, EngineParams(trace_cycles=spec.trace_cycles)
        )
        assert len(analysis.certified()) == len(analysis.certificates) == 36
        assert calls == []

    def test_equivalence_obligation_stays_uncertified(self, monkeypatch):
        # families use chain forwarding, which emits no equivalence; one
        # that appears is refused by kind, never sent to the trace gate
        real = family_module.generate_obligations

        def with_equivalence(pipelined):
            obligations = real(pipelined)
            probe = E.input_port("probe", 4)
            obligations.obligations.append(
                Obligation(
                    oid="fwd.style_equivalent.probe",
                    title="probe",
                    kind=ObligationKind.EQUIVALENCE,
                    equiv=(probe, probe),
                )
            )
            return obligations

        monkeypatch.setattr(family_module, "generate_obligations", with_equivalence)
        spec = FAMILIES["toy"]
        analysis = analyze_family(
            spec, EngineParams(trace_cycles=spec.trace_cycles)
        )
        certificate = analysis.certificates["fwd.style_equivalent.probe"]
        assert not certificate.certified
        assert certificate.reason == "equivalence obligations are not analysed"
        assert certificate.template is None
        assert len(analysis.certified()) == 36

    def test_system_mismatch_uncertifies_invariants_and_traces(
        self, monkeypatch
    ):
        def mismatch(*args, **kwargs):
            raise PairMismatch("injected mismatch")

        monkeypatch.setattr(family_module, "_system_typing", mismatch)
        spec = FAMILIES["toy"]
        analysis = analyze_family(
            spec, EngineParams(trace_cycles=spec.trace_cycles)
        )
        kinds = set()
        for certificate in analysis.certificates.values():
            kinds.add(certificate.kind)
            assert not certificate.certified
            assert certificate.reason == "injected mismatch"
            assert certificate.template is None
            assert certificate.family_fingerprint is None
        assert kinds == {"invariant", "trace"}


# ---------------------------------------------------------------------------
# engine integration: seed at the cutoff, serve the family
# ---------------------------------------------------------------------------


class TestEngineServe:
    def test_seed_then_serve_across_widths(self, toy_analysis, tmp_path):
        cache = FamilyCache(tmp_path)
        spec = FAMILIES["toy"]
        params = EngineParams(trace_cycles=spec.trace_cycles)
        (w0, p0, o0), (w1, p1, o1) = _toy_instances((8, 16))

        seed_ctx = FamilyContext(toy_analysis, w0, cache)
        report0 = discharge_jobs(p0, o0, params=params, cache=None, family=seed_ctx)
        assert not report0.failed
        assert seed_ctx.seeded == len(toy_analysis.certified())
        assert seed_ctx.served == 0
        assert report0.family == seed_ctx.counters()

        serve_ctx = FamilyContext(toy_analysis, w1, cache)
        report1 = discharge_jobs(p1, o1, params=params, cache=None, family=serve_ctx)
        assert not report1.failed
        assert serve_ctx.served == len(toy_analysis.certified())
        served = [o for o in report1.outcomes if o.source == "family"]
        assert len(served) == serve_ctx.served

        # served verdicts are the seeded verdicts, re-identified
        seeded_status = {
            o.record.oid: o.record.status for o in report0.outcomes
        }
        for outcome in served:
            assert outcome.record.status is seeded_status[outcome.record.oid]

    def test_width_below_cutoff_never_serves(self, toy_analysis, tmp_path):
        cache = FamilyCache(tmp_path)
        spec = FAMILIES["toy"]
        params = EngineParams(trace_cycles=spec.trace_cycles)
        pipelined = spec.instance(8)
        obligations = generate_obligations(pipelined)
        system = TransitionSystem.from_module(pipelined.module)
        context = FamilyContext(toy_analysis, 4, cache)  # below w0=8
        for obligation in obligations:
            assert (
                context.lookup(obligation, pipelined, system, params) is None
            )

    def test_cacheless_context_is_inert(self, toy_analysis):
        spec = FAMILIES["toy"]
        params = EngineParams(trace_cycles=spec.trace_cycles)
        pipelined = spec.instance(8)
        obligations = generate_obligations(pipelined)
        context = FamilyContext(toy_analysis, 8, None)
        report = discharge_jobs(
            pipelined, obligations, params=params, cache=None, family=context
        )
        assert not report.failed
        assert context.served == 0 and context.seeded == 0

    def test_fully_served_run_skips_mining(
        self, toy_analysis, tmp_path, fixpoint_calls
    ):
        # mining strengthens obligations headed to the solver; a run in
        # which the family cache settles everything must not pay for it,
        # nor for the absint fixpoint, whose one consumer is mining
        cache = FamilyCache(tmp_path)
        spec = FAMILIES["toy"]
        params = EngineParams(trace_cycles=spec.trace_cycles)
        (w0, p0, o0), (w1, p1, o1) = _toy_instances((8, 16))
        discharge_jobs(
            p0, o0, params=params, cache=None,
            family=FamilyContext(toy_analysis, w0, cache),
        )
        fixpoint_calls.clear()
        ctx = FamilyContext(toy_analysis, w1, cache)
        report = discharge_jobs(
            p1, o1, params=params, cache=None, family=ctx
        )
        assert ctx.served == len(o1.obligations)
        assert report.absint is None
        assert fixpoint_calls == []

    def test_served_verdicts_are_never_slowest(self, toy_analysis, tmp_path):
        # a served outcome carries the seconds of the solve that seeded
        # it; a fully served run solved nothing, so nothing is slowest
        cache = FamilyCache(tmp_path)
        spec = FAMILIES["toy"]
        params = EngineParams(trace_cycles=spec.trace_cycles)
        (w0, p0, o0), (w1, p1, o1) = _toy_instances((8, 16))
        discharge_jobs(
            p0, o0, params=params, cache=None,
            family=FamilyContext(toy_analysis, w0, cache),
        )
        report = discharge_jobs(
            p1, o1, params=params, cache=None,
            family=FamilyContext(toy_analysis, w1, cache),
        )
        assert {o.source for o in report.outcomes} == {"family"}
        assert max(o.record.seconds for o in report.outcomes) > 0
        assert "slowest:" not in report.format_text()


# ---------------------------------------------------------------------------
# the family verdict store
# ---------------------------------------------------------------------------


class TestFamilyCache:
    def _record(self):
        from repro.proofs.discharge import DischargeRecord, Status

        return DischargeRecord(
            oid="stall.example", title="t", status=Status.PROVED, method="1-ind"
        )

    def test_put_get_and_width_merge(self, tmp_path):
        cache = FamilyCache(tmp_path)
        fp = "f" * 24
        assert cache.put_family(fp, self._record(), base_width=8, width=8, core="toy")
        assert cache.load(fp) is not None
        assert cache.width_histogram() == {8: 1}
        assert cache.serve(fp, 16) is not None
        assert cache.serve(fp, 16) is not None  # idempotent
        assert cache.width_histogram() == {8: 1, 16: 1}
        cache.put_family(fp, self._record(), base_width=8, width=32, core="toy")
        assert cache.width_histogram() == {8: 1, 16: 1, 32: 1}

    def test_serve_reads_the_record_once(self, tmp_path):
        fp = "e" * 24
        FamilyCache(tmp_path).put_family(fp, self._record(), base_width=8, width=8)
        cache = FamilyCache(tmp_path)
        assert cache.serve(fp, 16).status.value == "proved"
        # one read; the new width is written back once
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (1, 0, 1)
        assert cache.serve(fp, 16) is not None
        assert (cache.stats.hits, cache.stats.stores) == (2, 1)
        assert cache.width_histogram() == {8: 1, 16: 1}

    def test_record_width_unknown_fingerprint(self, tmp_path):
        cache = FamilyCache(tmp_path)
        assert cache.serve("0" * 24, 16) is None
        assert cache.entries() == []

    def test_family_store_is_disjoint_from_content_store(self, tmp_path):
        from repro.jobs import ResultCache

        family = FamilyCache(tmp_path)
        content = ResultCache(tmp_path)
        family.put_family("a" * 24, self._record(), base_width=8, width=8)
        assert content.disk_stats()["records"] == 0
        assert family.disk_stats()["records"] == 1
        assert family.clear() == 1


# ---------------------------------------------------------------------------
# lint rules
# ---------------------------------------------------------------------------


class TestLintFamily:
    def test_toy_emits_info_cutoff_and_no_errors(self, toy_analysis):
        result = lint_family(toy_analysis)
        assert not result.has_errors
        infos = [
            d for d in result.diagnostics if d.rule == "family.width-cutoff"
        ]
        assert len(infos) == 1
        assert infos[0].severity is Severity.INFO
        assert infos[0].datum("certified") == len(toy_analysis.certified())
        assert infos[0].datum("cutoff_width") == 8

    def test_entangled_pure_control_is_an_error(self, toy_analysis):
        from repro.analysis.family import ObligationCertificate

        broken = ObligationCertificate(
            oid="stall.bogus",
            kind="invariant",
            certified=False,
            reason="root typed entangled",
            cutoff_width=8,
            entangled_nodes=3,
            counts={"scaled_support": 0},
        )
        analysis = FamilyAnalysis(
            spec=toy_analysis.spec,
            base=toy_analysis.base,
            certificates={"stall.bogus": broken},
        )
        result = lint_family(analysis)
        errors = result.errors
        assert [d.rule for d in errors] == ["family.entangled-control"]
        assert errors[0].path == "obligation:stall.bogus"

    def test_entangled_scaled_support_is_not_an_error(self, toy_analysis):
        from repro.analysis.family import ObligationCertificate

        honest = ObligationCertificate(
            oid="lemma.data",
            kind="invariant",
            certified=False,
            reason="root typed entangled",
            cutoff_width=8,
            entangled_nodes=5,
            counts={"scaled_support": 4},  # genuinely reads scaled state
        )
        analysis = FamilyAnalysis(
            spec=toy_analysis.spec,
            base=toy_analysis.base,
            certificates={"lemma.data": honest},
        )
        assert not lint_family(analysis).has_errors

    def test_rules_registered(self):
        from repro.lint import rule_table

        table = rule_table()
        assert table["family.entangled-control"].severity is Severity.ERROR
        assert table["family.width-cutoff"].severity is Severity.INFO
        assert table["family.entangled-control"].target == "machine"


# ---------------------------------------------------------------------------
# the soundness audit
# ---------------------------------------------------------------------------


class TestCrosscheck:
    def test_toy_sample_not_contradicted(self, toy_analysis):
        spec = FAMILIES["toy"]
        report = crosscheck_family(
            spec,
            EngineParams(trace_cycles=spec.trace_cycles),
            sample=3,
            analysis=toy_analysis,
        )
        assert report.ok
        assert len(report.checked) == 3
        payload = report.to_dict()
        assert payload["contradicted"] == []
        for oid in report.checked:
            statuses = payload["statuses"][oid]
            assert statuses["8"] == statuses["16"]


# ---------------------------------------------------------------------------
# differential width suite: certified verdicts are verbatim identical
# ---------------------------------------------------------------------------


def _sweep_statuses(spec, widths, oids):
    """Discharge the certified subset family-off at each width."""
    params = EngineParams(trace_cycles=spec.trace_cycles)
    per_width = {}
    for width in widths:
        pipelined = spec.instance(width)
        subset = _subset(generate_obligations(pipelined), oids)
        assert len(subset.obligations) == len(oids)
        report = discharge_jobs(pipelined, subset, params=params, cache=None)
        per_width[width] = {
            o.record.oid: (o.record.status.name, o.record.method)
            for o in report.outcomes
        }
    return per_width


class TestDifferentialWidths:
    def test_toy_certified_verdicts_identical_across_widths(self, toy_analysis):
        spec = FAMILIES["toy"]
        oids = {c.oid for c in toy_analysis.certified()}
        per_width = _sweep_statuses(spec, spec.widths, oids)
        base = per_width[spec.base_width]
        for width in spec.widths:
            assert per_width[width] == base, f"verdicts diverge at {width}"

    @pytest.mark.slow
    def test_dlx_small_certified_verdicts_identical_across_widths(self):
        spec = FAMILIES["dlx-small"]
        analysis = analyze_family(
            spec, EngineParams(trace_cycles=spec.trace_cycles)
        )
        oids = {c.oid for c in analysis.certified()}
        assert oids
        per_width = _sweep_statuses(spec, spec.widths, oids)
        base = per_width[spec.base_width]
        for width in spec.widths:
            assert per_width[width] == base, f"verdicts diverge at {width}"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_family_command_json(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "family.json"
        code = main(["family", "--core", "toy", "--json", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "== toy ==" in out
        assert "certified width-parametric" in out
        payload = json.loads(out_path.read_text())
        (entry,) = payload["families"]
        assert entry["family"] == "toy"
        assert entry["certified"] == entry["obligations"]
        assert entry["lint"]  # the width-cutoff INFO

    def test_width_sweep_json_lists_failed_oids(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.jobs.engine as engine_mod
        from repro.cli import main
        from repro.jobs.engine import JobOutcome, JobReport
        from repro.proofs import DischargeRecord, Status

        def one_failure(pipelined, obligations, **kwargs):
            record = DischargeRecord(
                oid="stall.bogus", title="t", status=Status.FAILED, method="bmc(1)"
            )
            return JobReport(
                machine_name=obligations.machine_name,
                jobs=1,
                timeout=None,
                outcomes=[JobOutcome(record=record, fingerprint=None, source="inline")],
            )

        monkeypatch.setattr(engine_mod, "discharge_jobs", one_failure)
        out_path = tmp_path / "family.json"
        code = main(
            [
                "family",
                "--core",
                "toy",
                "--width-sweep",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
                str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 1
        (entry,) = json.loads(out_path.read_text())["families"]
        assert [w["width"] for w in entry["width_sweep"]] == [8, 16, 32]
        for width in entry["width_sweep"]:
            assert width["failed"] == ["stall.bogus"]

    def test_family_command_unknown_core(self, capsys):
        from repro.cli import main

        assert main(["family", "--core", "bogus"]) == 2
        assert "unknown family core" in capsys.readouterr().out

    def test_family_check_and_sweep(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "family",
                "--core",
                "toy",
                "--check",
                "--sample",
                "2",
                "--width-sweep",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 CONTRADICTED" in out
        assert not any(
            line.strip().startswith("CONTRADICTED")
            for line in out.splitlines()
        )
        assert "width 16" in out and "width 32" in out
        # the sweep seeds at w0=8 and serves both upper widths
        assert "served 0" in out

        # the family store now has entries the cache command must expose
        stats = main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert stats == 0
        assert payload["family"]["records"] > 0
        assert payload["family"]["bytes"] > 0
        assert set(payload["family"]["widths"]) >= {"8", "16", "32"}

        assert main(["cache", "clear", "--cache-dir", str(tmp_path), "--json"]) == 0
        clear_payload = json.loads(capsys.readouterr().out)
        assert clear_payload["family"]["removed"] > 0


class TestLintExitCode:
    """``repro lint --core all`` exit code accumulates over every core.

    Regression pin: with two targets where only the *first* produces an
    error-level finding, the exit code must still be 1 — a bug that
    derived the exit from the last target alone would return 0.
    """

    def _run(self, monkeypatch, order, capsys):
        import repro.cli as cli
        import repro.lint as lint_pkg
        from repro.lint import Diagnostic, LintResult

        real_targets = cli._lint_targets

        def two_targets(args):
            targets = dict(real_targets(args))
            assert set(order) <= set(targets)
            return [(name, targets[name]) for name in order]

        def fake_lint_pipeline(pipelined, config):
            result = LintResult()
            if pipelined.module.name.startswith("toy"):
                result.diagnostics.append(
                    Diagnostic(
                        rule="test.synthetic",
                        severity=Severity.ERROR,
                        module=pipelined.module.name,
                        path="machine:test",
                        message="synthetic error for exit-code pinning",
                    )
                )
            return result

        monkeypatch.setattr(cli, "_lint_targets", two_targets)
        monkeypatch.setattr(lint_pkg, "lint_pipeline", fake_lint_pipeline)
        code = cli.main(["lint", "--core", "all"])
        capsys.readouterr()
        return code

    def test_error_in_first_core_fails(self, monkeypatch, capsys):
        assert self._run(monkeypatch, ("toy", "dlx"), capsys) == 1

    def test_error_in_last_core_fails(self, monkeypatch, capsys):
        assert self._run(monkeypatch, ("dlx", "toy"), capsys) == 1

    def test_clean_cores_pass(self, monkeypatch, capsys):
        import repro.cli as cli
        import repro.lint as lint_pkg
        from repro.lint import LintResult

        real_targets = cli._lint_targets
        monkeypatch.setattr(
            cli,
            "_lint_targets",
            lambda args: [
                (name, pipelined)
                for name, pipelined in real_targets(args)
                if name in ("toy", "dlx")
            ],
        )
        monkeypatch.setattr(
            lint_pkg, "lint_pipeline", lambda pipelined, config: LintResult()
        )
        assert cli.main(["lint", "--core", "all"]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# service pass-through
# ---------------------------------------------------------------------------


class TestService:
    def test_width_spec_validation(self):
        from repro.service.protocol import BadRequest, canonical_machine_spec

        assert canonical_machine_spec({"core": "toy"}) == {"core": "toy"}
        assert canonical_machine_spec({"core": "toy", "width": 16}) == {
            "core": "toy",
            "width": 16,
        }
        with pytest.raises(BadRequest):
            canonical_machine_spec({"core": "toy", "width": 2})
        with pytest.raises(BadRequest):
            canonical_machine_spec({"core": "toy", "width": "wide"})

    def test_family_param_is_not_verdict_relevant(self):
        from repro.service.protocol import KEY_PARAMS, PARAM_KEYS

        assert "family" in PARAM_KEYS
        assert "family" not in KEY_PARAMS

    def test_resolve_params_family_override(self):
        from repro.service.protocol import BadRequest, resolve_params

        defaults = EngineParams()
        params, clean = resolve_params(defaults, {"family": False})
        # not an engine parameter: the service decides whether to pass
        # the engine a FamilyContext
        assert params == defaults
        assert clean == {"family": False}
        with pytest.raises(BadRequest):
            resolve_params(defaults, {"family": "yes"})

    def test_build_pipelined_at_width(self):
        from repro.service.protocol import build_pipelined, machine_label

        assert machine_label({"core": "toy", "width": 16}) == "toy@16"
        # the datapath really scales: the widest register follows the word
        wide = build_pipelined({"core": "toy", "width": 16})
        default = build_pipelined({"core": "toy"})
        assert max(r.width for r in wide.module.registers.values()) == 16
        assert max(r.width for r in default.module.registers.values()) == 8

    def test_service_serves_family_across_requests(self, tmp_path):
        import asyncio

        from repro.service.server import DischargeService, ServiceConfig

        async def run():
            service = DischargeService(
                ServiceConfig(
                    root=tmp_path,
                    solve_slots=1,
                    engine_jobs=2,
                    params=EngineParams(trace_cycles=60),
                )
            )
            await service.start()
            try:
                counters = {}
                for width in (8, 16):
                    job, _disposition = service.submit(
                        "t1", {"machine": {"core": "toy", "width": width}}
                    )
                    await job.done_event.wait()
                    assert job.report is not None
                    counters[width] = job.report.family
                return counters
            finally:
                await service.drain()

        counters = asyncio.run(run())
        assert counters[8]["seeded"] == counters[8]["certified"] > 0
        assert counters[16]["served"] == counters[16]["certified"]
        assert counters[16]["seeded"] == 0
