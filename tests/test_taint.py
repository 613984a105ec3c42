"""Speculation-aware information-flow taint analysis (repro.lint.taint).

Three layers under test:

* the propagation itself — state-class sources derived from the machine's
  speculation annotations, transfer functions that read the netlist
  alone (hash-consing has already folded constant masks and selects),
  declassification at the mispredict comparator;
* the non-interference policies as lint rules — clean on every campaign
  core, and every seeded leak mutant (dropped commit guard, rollback-tag
  bypass, early valid on every core) killed by the taint rung *before*
  the trace rung;
* the SAT cross-check — two-copy self-composition agrees with every
  static clean verdict (no contradictions), is non-vacuous on the
  speculative core, and confirms a hand-crafted leak in both directions.

The speculative DLX build is the slow part; it is module-scoped and the
genuinely expensive campaigns stay in test_faults.py.
"""

from __future__ import annotations

import json

import pytest

from repro.core.transform import transform
from repro.faults import CORES, generate_mutants, run_mutant
from repro.faults.operators import with_write_port
from repro.formal.noninterference import (
    check_noninterference,
    crosscheck_policies,
)
from repro.hdl import expr as E
from repro.jobs import discharge_jobs
from repro.lint import (
    LintResult,
    TaintAnalysis,
    lint_taint,
    render_sarif,
    rule_table,
    taint_verdicts,
)
from repro.machine.prepared import (
    PRECOMMIT,
    ROLLBACK_TAG,
    SPEC_CTRL,
    SPEC_GUESS,
)
from repro.proofs import generate_obligations


@pytest.fixture(scope="module")
def spec_pipelined():
    return transform(CORES["dlx-spec"].build_machine())


@pytest.fixture(scope="module")
def spec_analysis(spec_pipelined):
    return TaintAnalysis(spec_pipelined)


# ---------------------------------------------------------------------------
# sources / state classes


class TestStateClasses:
    def test_speculative_core_labels_every_class(self, spec_pipelined):
        classes = spec_pipelined.machine.state_classes()
        found = {label for labels in classes.values() for label in labels}
        assert SPEC_GUESS in found
        assert ROLLBACK_TAG in found
        assert PRECOMMIT in found
        # SPEC_CTRL is a net-level label (the mispredict digest), never a
        # register class
        assert SPEC_CTRL not in found

    def test_label_state_rejects_unknown_class(self, spec_pipelined):
        with pytest.raises(ValueError):
            spec_pipelined.machine.label_state("PC.0", "radioactive")

    def test_sources_restricted_to_existing_registers(
        self, spec_pipelined, spec_analysis
    ):
        registers = set(spec_pipelined.module.registers)
        assert spec_analysis.sources
        assert set(spec_analysis.sources) <= registers

    def test_toy_core_has_no_speculative_sources(self, toy_pipelined):
        analysis = TaintAnalysis(toy_pipelined)
        assert analysis.sources == {}
        assert analysis.declassifiers == ()

    def test_declassifiers_are_the_mispredict_nets(
        self, spec_pipelined, spec_analysis
    ):
        assert len(spec_analysis.declassifiers) == len(
            spec_pipelined.speculations
        )
        for net in spec_analysis.declassifiers:
            assert spec_analysis.taint(net) == {SPEC_CTRL}


# ---------------------------------------------------------------------------
# transfer functions


def _first_source(analysis: TaintAnalysis) -> tuple[str, int, frozenset[str]]:
    """The first labeled source register, its width and its labels."""
    name = min(analysis.sources)
    width = analysis.pipelined.module.registers[name].width
    return name, width, analysis.sources[name]


class TestPropagation:
    def test_constants_and_inputs_carry_nothing(self, spec_analysis):
        assert spec_analysis.taint(E.const(8, 3)) == frozenset()
        assert spec_analysis.taint(E.input_port("ext.stall", 1)) == frozenset()

    def test_source_read_carries_its_label(self, spec_analysis):
        name, width, labels = _first_source(spec_analysis)
        assert spec_analysis.taint(E.reg_read(name, width)) == labels

    def test_taint_joins_across_operators(self, spec_analysis):
        name, width, labels = _first_source(spec_analysis)
        read = E.reg_read(name, width)
        clean = E.input_port("fresh.operand", width)
        assert spec_analysis.taint(E.bxor(read, clean)) == labels
        assert spec_analysis.taint(E.bits(read, 0, 0)) == labels

    def test_constant_mask_drops_taint(self, spec_analysis):
        """Hash-consing folds the mask: AND with constant 0 is the
        constant itself, so the flow dies although the tainted read was
        written right there in the expression."""
        name, width, _labels = _first_source(spec_analysis)
        read = E.reg_read(name, width)
        masked = E.band(read, E.const(width, 0))
        assert isinstance(masked, E.Const)
        assert spec_analysis.taint(masked) == frozenset()

    def test_mux_select_taints_result(self, spec_analysis):
        name, width, labels = _first_source(spec_analysis)
        bit = E.bits(E.reg_read(name, width), 0, 0)
        a = E.input_port("arm.a", 4)
        b = E.input_port("arm.b", 4)
        assert spec_analysis.taint(E.mux(bit, a, b)) == labels

    def test_memread_leaks_only_through_address(self, spec_analysis):
        module = spec_analysis.pipelined.module
        name, width, labels = _first_source(spec_analysis)
        mem = module.memories["DMem"]
        bit = E.bits(E.reg_read(name, width), 0, 0)
        addr = E.concat(E.const(mem.addr_width - 1, 0), bit)
        assert spec_analysis.taint(
            E.mem_read(mem.name, addr, mem.data_width)
        ) == labels

    def test_propagation_is_nonvacuous(self, spec_analysis):
        """Taint actually spreads: strictly more registers carry taint
        than are labeled as sources."""
        module = spec_analysis.pipelined.module
        tainted = {
            name
            for name, reg in module.registers.items()
            if spec_analysis.taint(reg.next)
        }
        assert len(tainted) > len(spec_analysis.sources)


# ---------------------------------------------------------------------------
# policy verdicts on clean cores


class TestCleanCores:
    @pytest.mark.parametrize("core", ["toy", "dlx-small", "dlx-spec"])
    def test_campaign_cores_are_policy_clean(self, request, core):
        if core == "dlx-spec":
            pipelined = request.getfixturevalue("spec_pipelined")
        elif core == "toy":
            pipelined = request.getfixturevalue("toy_pipelined")
        else:
            pipelined = transform(CORES[core].build_machine())
        result = lint_taint(pipelined)
        assert not result.has_errors, [d.format() for d in result.errors]

    def test_verdicts_cover_both_policies(self, spec_pipelined):
        verdicts = taint_verdicts(spec_pipelined)
        rules = {verdict.rule for verdict in verdicts}
        assert rules == {"taint.spec-to-arch", "taint.spec-to-select"}
        assert all(verdict.clean for verdict in verdicts)
        # the arch policy watches the write ports of the visible state
        paths = {verdict.path for verdict in verdicts}
        assert "memory:GPR.w0.data" in paths
        assert "memory:DMem.w0.addr" in paths


# ---------------------------------------------------------------------------
# seeded leak mutants: killed by taint, before the trace rung


class TestLeakMutants:
    def test_drop_commit_guard_killed_by_taint(self):
        mutants = generate_mutants("toy", operators=["drop-commit-guard"])
        assert mutants, "toy must enumerate a drop-commit-guard site"
        for mutant in mutants:
            result = run_mutant(mutant, CORES["toy"].trace_cycles)
            assert result.detected, f"{mutant.mid} survived"
            assert result.detector == "taint", (mutant.mid, result.detector)
            assert "taint.unguarded-commit" in result.detail

    EARLY_VALID_SITES = {
        "toy": ["fwd.RF.v.2"],
        "dlx-small": ["fwd.GPR.v.2", "fwd.GPR.v.3"],
        "dlx-spec": ["fwd.GPR.v.2", "fwd.GPR.v.3"],
    }

    @pytest.mark.parametrize("core", sorted(EARLY_VALID_SITES))
    def test_early_valid_killed_by_taint(self, core):
        mutants = generate_mutants(core, operators=["early-valid"])
        assert [m.mid for m in mutants] == [
            f"{core}/early-valid/{site}" for site in self.EARLY_VALID_SITES[core]
        ]
        for mutant in mutants:
            result = run_mutant(mutant, CORES[core].trace_cycles)
            assert result.detected
            assert result.detector == "taint", (mutant.mid, result.detector)
            assert "taint.unguarded-forward" in result.detail

    def test_rollback_tag_bypass_killed_by_taint(self, spec_pipelined):
        mutants = generate_mutants("dlx-spec", operators=["rollback-tag-bypass"])
        assert mutants, "dlx-spec must enumerate a rollback-tag-bypass site"
        for mutant in mutants:
            result = lint_taint(mutant.build())
            rules = {d.rule for d in result.errors}
            assert "taint.rollback-escape" in rules, mutant.mid

    def test_drop_rollback_killed_by_taint(self, spec_pipelined):
        """The pre-existing rollback operators are static kills now too:
        the semantic squash-contract check (rollback' = 1 must force the
        full bit to 0) fires without simulating a single cycle."""
        mutants = generate_mutants("dlx-spec", operators=["drop-rollback"])
        assert mutants
        flagged = 0
        for mutant in mutants:
            result = lint_taint(mutant.build())
            if any(d.rule == "taint.rollback-escape" for d in result.errors):
                flagged += 1
        assert flagged == len(mutants)


# ---------------------------------------------------------------------------
# SAT cross-check (two-copy self-composition)


class TestCrossCheck:
    def test_toy_policies_vacuously_independent(self, toy_pipelined):
        entries = crosscheck_policies(toy_pipelined)
        assert entries
        assert all(entry.static_clean for entry in entries)
        assert all(entry.verdict.independent for entry in entries)
        # no speculation -> no labeled sources -> nothing to free
        assert all(entry.verdict.vacuous for entry in entries)
        assert not any(entry.contradicted for entry in entries)

    def test_spec_core_has_nonvacuous_agreement(self, spec_pipelined):
        """The acceptance bar: on the speculative core the solver proves
        real independence facts (the squash controls depend on guesses
        only through the declassified comparator) and never refutes a
        static clean claim."""
        entries = crosscheck_policies(spec_pipelined)
        assert not any(entry.contradicted for entry in entries)
        live = [entry for entry in entries if not entry.verdict.vacuous]
        assert live, "every query vacuous: the cross-check proves nothing"
        assert all(entry.verdict.independent for entry in live)
        assert any(entry.path.startswith("register:fullb.") for entry in live)

    def test_handcrafted_leak_agrees_dirty(self, spec_pipelined):
        """Static taint and the solver must also agree on a *leaky*
        design: route a raw guess bit into the GPR write data and both
        sides flip together (tainted + dependent)."""
        analysis = TaintAnalysis(spec_pipelined)
        guess = next(
            name
            for name in sorted(analysis.sources)
            if SPEC_GUESS in analysis.sources[name]
        )
        width = spec_pipelined.module.registers[guess].width
        bit = E.bits(E.reg_read(guess, width), 0, 0)
        port = spec_pipelined.module.memories["GPR"].write_ports[0]
        leaky = with_write_port(
            spec_pipelined, "GPR", 0,
            data=E.mux(bit, E.bnot(port.data), port.data),
        )
        verdict = next(
            v
            for v in taint_verdicts(leaky)
            if v.path == "memory:GPR.w0.data"
        )
        assert SPEC_GUESS in verdict.found
        assert guess in verdict.sources
        ni = check_noninterference(
            leaky.module,
            verdict.sink,
            verdict.sources,
            declassifiers=verdict.declassifiers,
        )
        assert ni.vacuous is False
        assert ni.independent is False  # the solver finds the leak too


# ---------------------------------------------------------------------------
# discharge engine: taint-gate


class TestTaintGate:
    def test_leaky_machine_fails_every_obligation_fast(self):
        mutant = generate_mutants("toy", operators=["drop-commit-guard"])[0]
        leaky = mutant.build()
        obligations = generate_obligations(leaky)
        report = discharge_jobs(leaky, obligations, jobs=1)
        assert report.taint_errors, "the gate must surface its findings"
        assert report.lint_errors == []
        assert len(report.outcomes) == len(list(obligations))
        for outcome in report.outcomes:
            assert outcome.record.status.name == "FAILED"
            assert outcome.record.method == "taint-gate"
            assert outcome.source == "taint"
        payload = report.to_dict()
        assert payload["taint_errors"] == report.taint_errors
        assert "TAINT" in report.format_text()

    def test_gate_can_be_disabled(self):
        mutant = generate_mutants("toy", operators=["drop-commit-guard"])[0]
        leaky = mutant.build()
        obligations = generate_obligations(leaky)
        report = discharge_jobs(
            leaky, obligations, jobs=1, taint_gate=False
        )
        assert report.taint_errors == []
        assert all(
            outcome.record.method != "taint-gate"
            for outcome in report.outcomes
        )


# ---------------------------------------------------------------------------
# satellites: rule metadata, SARIF, dedup, CLI


class TestRuleMetadata:
    def test_every_registered_rule_is_described(self):
        for rule_id, rule in rule_table().items():
            assert rule.description, f"{rule_id} has no description"
            assert rule.title, rule_id
            assert rule.target in ("module", "machine"), rule_id

    def test_taint_rules_registered_as_machine_errors(self):
        table = rule_table()
        for rule_id in (
            "taint.spec-to-arch",
            "taint.spec-to-select",
            "taint.rollback-escape",
            "taint.unguarded-commit",
            "taint.unguarded-forward",
        ):
            assert rule_id in table, rule_id
            assert table[rule_id].target == "machine"
            assert table[rule_id].severity.label == "error"

    def test_sarif_rule_table_renders_descriptions(self):
        payload = json.loads(render_sarif(LintResult()))
        rules = {
            rule["id"]: rule
            for rule in payload["runs"][0]["tool"]["driver"]["rules"]
        }
        table = rule_table()
        assert set(rules) == set(table)
        for rule_id, rule in rules.items():
            assert (
                rule["fullDescription"]["text"] == table[rule_id].description
            ), rule_id


class TestDeduplication:
    def test_exact_duplicates_dropped_and_sorted(self, toy_pipelined):
        once = lint_taint(toy_pipelined)
        twice = LintResult()
        twice.extend(once)
        twice.extend(lint_taint(toy_pipelined))
        twice.extend(once)
        deduped = twice.deduplicated()
        assert len(deduped) == len(once.deduplicated())
        keys = [
            (d.rule, d.module, d.path, d.message, d.severity) for d in deduped
        ]
        assert keys == sorted(keys)

    def test_lint_cli_all_cores_deduplicates(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["lint", "--core", "all"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if "::" in line]
        assert lines == sorted(lines, key=lambda line: line.split()[1])
        assert len(lines) == len(set(lines))


class TestCli:
    def test_taint_command_clean_toy(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["taint", "--core", "toy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== toy ==" in out

    def test_taint_command_crosscheck(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["taint", "--core", "toy", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sat=independent" in out
        assert "CONTRADICTED" not in out

    def test_list_rules_shows_target_and_description(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        assert "machine" in out and "module" in out
        assert "taint.spec-to-arch" in out
        # the description rides on its own indented line
        assert "wrong-path" in out
