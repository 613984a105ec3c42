"""Tests for the structural lint framework (repro.lint)."""

import json

import pytest

from repro.hdl import expr as E
from repro.hdl.netlist import Module, NetlistError
from repro.lint import (
    LintConfig,
    Severity,
    lint_module,
    lint_pipeline,
    render,
    render_json,
    render_sarif,
    rule_table,
)


def _cyclic_module() -> Module:
    """A module with a hand-mutated combinational cycle (the public
    constructors build DAGs only; a buggy pass could still create one)."""
    module = Module("cyclic")
    a = module.add_input("a", 4)
    x = E._binary("ADD", a, E.const(4, 1), 4)
    y = E._binary("ADD", x, a, 4)
    x.b = y  # close the loop
    module.add_probe("p", x)
    # the mutated nodes are in the global intern table; drop it so later
    # constructions don't receive the corrupted nodes
    E.clear_intern_table()
    return module


class TestCheckRefactor:
    """Module.check collects all violations; validate stays the raising
    wrapper over the error-level subset."""

    def test_check_collects_multiple_errors(self):
        module = Module("broken")
        module.add_probe("p1", E.reg_read("ghost", 4))
        module.add_probe("p2", E.mem_read("nomem", E.const(4, 0), 8))
        module.add_probe("p3", E.input_port("noinput", 2))
        issues = module.check()
        codes = {issue.code for issue in issues}
        assert codes == {
            "undefined-register",
            "undefined-memory",
            "undefined-input",
        }
        assert all(issue.error for issue in issues)

    def test_validate_message_lists_every_error(self):
        module = Module("broken")
        module.add_probe("p1", E.reg_read("ghost", 4))
        module.add_probe("p2", E.input_port("noinput", 2))
        with pytest.raises(NetlistError) as excinfo:
            module.validate()
        assert "ghost" in str(excinfo.value)
        assert "noinput" in str(excinfo.value)

    def test_width_mismatch_collected(self):
        module = Module("widths")
        module.add_register("R", 4, next=E.const(4, 0))
        module.add_probe("p", E.reg_read("R", 8))
        codes = {issue.code for issue in module.check()}
        assert "width-mismatch" in codes

    def test_undriven_register_is_advisory(self):
        module = Module("undriven")
        module.add_register("R", 4)
        issues = module.check()
        assert [issue.code for issue in issues] == ["undriven-register"]
        assert not issues[0].error
        module.validate()  # advisory findings must not raise

    def test_drive_register_clears_undriven(self):
        module = Module("driven")
        module.add_register("R", 4)
        module.drive_register("R", E.const(4, 3))
        assert module.check() == []

    def test_one_issue_per_element(self):
        module = Module("dedup")
        ghost = E.reg_read("ghost", 4)
        module.add_probe("p1", ghost)
        module.add_probe("p2", E.bnot(ghost))
        assert len(module.check()) == 1


class TestCombCycle:
    def test_cycle_is_exactly_one_error(self):
        result = lint_module(_cyclic_module())
        assert [d.rule for d in result.errors] == ["comb-cycle"]
        assert result.errors[0].severity is Severity.ERROR
        assert result.errors[0].path == "probe:p"

    def test_acyclic_module_is_clean(self):
        module = Module("fine")
        a = module.add_input("a", 4)
        module.add_probe("p", E.add(a, E.const(4, 1)))
        assert not lint_module(module).errors

    def test_self_loop_detected(self):
        module = Module("selfloop")
        a = module.add_input("a", 4)
        x = E._binary("ADD", a, a, 4)
        x.b = x
        module.add_probe("p", x)
        E.clear_intern_table()
        assert [d.rule for d in lint_module(module).errors] == ["comb-cycle"]


class TestDataflowRules:
    def test_never_enabled_register(self):
        module = Module("m")
        a = module.add_input("a", 4)
        module.add_register("FR", 4, init=3, next=a, enable=E.const(1, 0))
        rules = {d.rule for d in lint_module(module)}
        assert "never-enabled-register" in rules

    def test_constant_probe_through_frozen_register(self):
        module = Module("m")
        module.add_register(
            "FR",
            4,
            init=3,
            next=module.add_input("a", 4),
            enable=E.const(1, 0),
        )
        # 3 + 2 through a frozen register: the constructors cannot fold
        # this, only dataflow analysis can
        module.add_probe("pc", E.add(E.reg_read("FR", 4), E.const(4, 2)))
        found = [d for d in lint_module(module) if d.rule == "constant-net"]
        assert len(found) == 1
        assert found[0].datum("value") == 5

    def test_register_reloading_init_is_constant_net(self):
        module = Module("m")
        module.add_input("a", 4)
        module.add_register("FR", 4, init=0, next=E.const(4, 7), enable=E.const(1, 0))
        # R always reloads its init through frozen FR-derived logic
        module.add_register(
            "R",
            4,
            init=2,
            next=E.sub(E.add(E.reg_read("FR", 4), E.const(4, 3)), E.const(4, 1)),
        )
        found = [d for d in lint_module(module) if d.rule == "constant-net"]
        assert any(d.path == "register:R" for d in found)

    def test_hold_register_not_reported_as_constant(self):
        module = Module("m")
        enable = module.add_input("go", 1)
        module.add_register(
            "H", 4, next=E.reg_read("H", 4), enable=enable
        )
        module.drive_register("H", E.reg_read("H", 4), enable=enable)
        assert not [d for d in lint_module(module) if d.rule == "constant-net"]

    def test_unreachable_mux_arm(self):
        module = Module("m")
        a = module.add_input("a", 4)
        module.add_register("FR", 4, init=3, next=a, enable=E.const(1, 0))
        sel = E.eq(E.reg_read("FR", 4), E.const(4, 3))  # always true
        module.add_probe("pm", E.mux(sel, a, E.bnot(a)))
        found = [d for d in lint_module(module) if d.rule == "unreachable-mux-arm"]
        assert len(found) == 1
        assert found[0].datum("select") == 1

    def test_dead_write_port(self):
        module = Module("m")
        a = module.add_input("a", 4)
        memory = module.add_memory("M", 2, 4)
        memory.add_write_port(E.const(1, 0), E.bits(a, 0, 1), a)
        found = [d for d in lint_module(module) if d.rule == "dead-write-port"]
        assert len(found) == 1

    def test_write_overlap_flagged(self):
        module = Module("m")
        a = module.add_input("a", 4)
        we1 = module.add_input("we1", 1)
        we2 = module.add_input("we2", 1)
        memory = module.add_memory("M", 2, 4)
        addr = E.bits(a, 0, 1)
        memory.add_write_port(we1, addr, a)
        memory.add_write_port(we2, addr, E.bnot(a))
        found = [d for d in lint_module(module) if d.rule == "memory-write-overlap"]
        assert len(found) == 1
        assert found[0].datum("ports") == (0, 1)

    def test_complementary_enables_are_exclusive(self):
        module = Module("m")
        a = module.add_input("a", 4)
        we = module.add_input("we", 1)
        memory = module.add_memory("M", 2, 4)
        addr = E.bits(a, 0, 1)
        memory.add_write_port(we, addr, a)
        memory.add_write_port(E.bnot(we), addr, E.bnot(a))
        assert not [
            d for d in lint_module(module) if d.rule == "memory-write-overlap"
        ]

    def test_distinct_constant_addresses_are_exclusive(self):
        module = Module("m")
        a = module.add_input("a", 4)
        we1 = module.add_input("we1", 1)
        we2 = module.add_input("we2", 1)
        memory = module.add_memory("M", 2, 4)
        memory.add_write_port(we1, E.const(2, 0), a)
        memory.add_write_port(we2, E.const(2, 3), E.bnot(a))
        assert not [
            d for d in lint_module(module) if d.rule == "memory-write-overlap"
        ]


class TestWidthSmells:
    def test_narrowed_arithmetic(self):
        module = Module("m")
        a = module.add_input("a", 8)
        b = module.add_input("b", 8)
        module.add_probe("p", E.bits(E.add(a, b), 0, 3))
        found = [d for d in lint_module(module) if d.rule == "narrowed-arithmetic"]
        assert len(found) == 1
        assert found[0].severity is Severity.INFO

    def test_full_width_slice_is_fine(self):
        module = Module("m")
        a = module.add_input("a", 8)
        b = module.add_input("b", 8)
        module.add_probe("p", E.bits(E.add(a, b), 4, 7))
        assert not [
            d for d in lint_module(module) if d.rule == "narrowed-arithmetic"
        ]

    def test_slice_of_concat(self):
        module = Module("m")
        a = module.add_input("a", 4)
        b = module.add_input("b", 4)
        # straddle the seam so the constructors cannot fold the slice away
        module.add_probe("p", E.bits(E.concat(a, b), 2, 5))
        found = [d for d in lint_module(module) if d.rule == "slice-of-concat"]
        assert len(found) == 1


class TestBudgets:
    def _wide_adder_module(self) -> Module:
        module = Module("m")
        value = module.add_input("a", 32)
        for _ in range(4):
            value = E.add(value, E.input_port("b", 32))
        module.add_probe("p", value)
        return module

    def test_budgets_off_by_default(self):
        assert not [
            d
            for d in lint_module(self._wide_adder_module())
            if d.rule in ("delay-budget", "cost-budget")
        ]

    def test_delay_budget(self):
        result = lint_module(
            self._wide_adder_module(), LintConfig(max_delay=10.0)
        )
        found = [d for d in result if d.rule == "delay-budget"]
        assert found and found[0].path == "probe:p"

    def test_cost_budget(self):
        result = lint_module(
            self._wide_adder_module(), LintConfig(max_cost=100.0)
        )
        assert [d.rule for d in result if d.rule == "cost-budget"] == [
            "cost-budget"
        ]


class TestSuppression:
    def _undriven(self) -> Module:
        module = Module("m")
        module.add_register("R", 4)
        return module

    def test_disabled_rule(self):
        result = lint_module(
            self._undriven(), LintConfig(disabled={"undriven-register"})
        )
        assert len(result) == 0

    def test_waiver_glob(self):
        result = lint_module(
            self._undriven(),
            LintConfig(waivers=[("register:R*", "undriven-register")]),
        )
        assert len(result) == 0

    def test_waiver_wildcard_rule(self):
        result = lint_module(
            self._undriven(), LintConfig(waivers=[("register:*", "*")])
        )
        assert len(result) == 0

    def test_non_matching_waiver_keeps_finding(self):
        result = lint_module(
            self._undriven(),
            LintConfig(waivers=[("probe:*", "undriven-register")]),
        )
        assert len(result) == 1

    def test_tag_lint_ignore_specific_rule(self):
        module = self._undriven()
        module.tag_lint_ignore("R", "undriven-register")
        assert len(lint_module(module)) == 0

    def test_tag_lint_ignore_all_rules(self):
        module = self._undriven()
        module.tag_lint_ignore("R")
        assert len(lint_module(module)) == 0

    def test_tag_on_other_element_keeps_finding(self):
        module = self._undriven()
        module.tag_lint_ignore("S", "undriven-register")
        assert len(lint_module(module)) == 1

    def test_severity_override(self):
        result = lint_module(
            self._undriven(),
            LintConfig(severity_overrides={"undriven-register": Severity.ERROR}),
        )
        assert result.has_errors


class TestRenderers:
    def _result(self):
        return lint_module(_cyclic_module())

    def test_text(self):
        text = render(self._result(), "text")
        assert "comb-cycle" in text
        assert "lint: 1 error" in text

    def test_json(self):
        payload = json.loads(render_json(self._result()))
        assert payload["summary"] == {"error": 1}
        [diagnostic] = payload["diagnostics"]
        assert diagnostic["rule"] == "comb-cycle"
        assert diagnostic["severity"] == "error"
        assert diagnostic["module"] == "cyclic"

    def test_sarif(self):
        payload = json.loads(render_sarif(self._result()))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rules = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "comb-cycle" in rules and "hazard-uncovered-raw" in rules
        [sarif_result] = run["results"]
        assert sarif_result["ruleId"] == "comb-cycle"
        assert sarif_result["level"] == "error"
        location = sarif_result["locations"][0]["logicalLocations"][0]
        assert location["fullyQualifiedName"] == "cyclic::probe:p"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(self._result(), "xml")


class TestRuleTable:
    def test_every_rule_has_metadata(self):
        table = rule_table()
        for rule_id, rule in table.items():
            assert rule.rule_id == rule_id
            assert rule.title
            assert rule.target in ("module", "machine")

    def test_expected_vocabulary_present(self):
        table = rule_table()
        for rule_id in (
            "comb-cycle",
            "undriven-register",
            "never-enabled-register",
            "constant-net",
            "unreachable-mux-arm",
            "memory-write-overlap",
            "narrowed-arithmetic",
            "slice-of-concat",
            "delay-budget",
            "cost-budget",
            "hazard-uncovered-raw",
            "hazard-unprotected-stage",
            "hazard-useless-forwarding",
            "hazard-raw-pair",
        ):
            assert rule_id in table, rule_id


class TestGeneratedPipelines:
    def test_toy_pipeline_structurally_clean(self, toy_pipelined):
        result = lint_module(toy_pipelined.module)
        assert not result.at_least(Severity.WARNING), [
            d.format() for d in result.at_least(Severity.WARNING)
        ]

    def test_toy_full_lint_no_errors(self, toy_pipelined):
        assert not lint_pipeline(toy_pipelined).has_errors


@pytest.mark.parametrize("core", ["toy", "dlx-small", "dlx-spec"])
def test_owner_map_matches_full_walk_definition(core):
    """The owner map's walks stop at owned nodes; the result must equal
    the first-seen owner of every node under a full walk of each root."""
    from repro.core import transform
    from repro.faults.catalog import CORES
    from repro.lint.structural import _owner_map, named_roots

    module = transform(CORES[core].build_machine()).module
    roots = named_roots(module)
    expected: dict[int, str] = {}
    for path, root in roots:
        for node in E.walk([root]):
            expected.setdefault(id(node), path)
    owner = _owner_map(roots)
    assert {id(node): path for node, path in owner.items()} == expected
