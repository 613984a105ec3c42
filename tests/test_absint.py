"""Word-level abstract interpretation and invariant mining (repro.absint).

Four layers, mirroring the subsystem's own structure:

* **domain algebra** — the reduced product's lattice laws (join/meet/
  widen/le soundness and termination), checked exhaustively over small
  widths rather than by example;
* **fixpoint** — termination on counters that need widening, and
  containment of every concretely-reachable state (BFS over a
  nondeterministic-input module) in the abstract answer;
* **mining** — the generate → trace-filter → Houdini pipeline: a
  deliberately falsified candidate (true on the trace, or 1-inductive
  but false at reset) must be *rejected and never assumed*; proven sets
  round-trip through the serializer and the self-healing cache;
* **end-to-end** — the declared DLX ``ctl-imm-aligned`` template chain
  flips from ladder-fallback ``bounded`` to ``proved`` when mining is
  on, and the fault campaign's absint rung kills the freeze-reg /
  unalign-rom mutants the other detectors are blind to.
"""

from __future__ import annotations

import itertools

import pytest

from repro.absint import (
    AbsValue,
    InvariantCache,
    analyze,
    mine_invariants,
    rom_template_violations,
    verify_candidates,
)
from repro.absint.fixpoint import MAX_ITERATIONS
from repro.absint.mine import MiningResult
from repro.core.transform import transform
from repro.faults import CORES, OPERATORS, generate_mutants, run_mutant
from repro.faults.operators import with_rom_word
from repro.formal.bmc import TransitionSystem
from repro.hdl import expr as E
from repro.hdl.bitvec import BitVector
from repro.hdl.netlist import Module
from repro.hdl.sim import Simulator
from repro.lint import lint_semantic

# ---------------------------------------------------------------------------
# domain algebra
# ---------------------------------------------------------------------------

W = 4  # small enough to enumerate the full concretisation


def _values(width: int = W) -> list[AbsValue]:
    """A structured sample of abstract values: top, constants, pure
    intervals, pure bit facts, and reduced mixtures."""
    out = [AbsValue.top(width)]
    out += [AbsValue.const(width, v) for v in (0, 1, 5, 15)]
    out += [
        AbsValue.from_interval(width, lo, hi)
        for lo, hi in ((0, 3), (2, 9), (8, 15), (7, 7))
    ]
    out += [
        AbsValue.from_ternary(width, tern)
        for tern in ((0b0001, 0b0001), (0b1001, 0b1000), (0b1111, 0b0110))
    ]
    out.append(AbsValue.make(width, 0b0011, 0b0010, 1, 11))
    return out


def _gamma(value: AbsValue) -> set[int]:
    return {x for x in range(1 << value.width) if value.contains(x)}


def test_join_is_sound_commutative_and_an_upper_bound():
    for a, b in itertools.product(_values(), repeat=2):
        j = a.join(b)
        assert _gamma(a) | _gamma(b) <= _gamma(j)
        assert j == b.join(a)
        assert a.le(j) and b.le(j)
        assert a.join(a) == a


def test_le_agrees_with_concretisation():
    for a, b in itertools.product(_values(), repeat=2):
        if a.le(b):
            assert _gamma(a) <= _gamma(b)


def test_meet_is_exact_intersection_or_none():
    for a, b in itertools.product(_values(), repeat=2):
        m = a.meet(b)
        both = _gamma(a) & _gamma(b)
        if m is None:
            assert both == set()
        else:
            # the meet may over-approximate the intersection but must
            # contain it and refine both operands
            assert both <= _gamma(m)
            assert _gamma(m) <= _gamma(a) and _gamma(m) <= _gamma(b)


def test_widen_is_an_upper_bound_and_terminates():
    for a, b in itertools.product(_values(), repeat=2):
        w = a.widen(b)
        assert a.le(w) and b.le(w)
    # any ascending chain stabilises quickly: a moved interval bound
    # jumps to the extreme and known bits only ever disappear
    value = AbsValue.const(16, 0)
    for step in range(1, 40):
        grown = value.join(AbsValue.const(16, step * 3))
        widened = value.widen(grown)
        if widened == value:
            break
        value = widened
    else:
        pytest.fail("widening chain did not stabilise")
    assert step < 5, f"widening took {step} steps"


def test_reduced_product_tightens_both_components():
    # known top bit -> interval floor
    v = AbsValue.make(8, 0x80, 0x80, 0, 255)
    assert v.lo >= 0x80
    # degenerate interval -> fully known bits
    v = AbsValue.from_interval(8, 42, 42)
    assert v.is_const() and v.known == 0xFF and v.value == 42
    # common leading bits of the bounds become known
    v = AbsValue.from_interval(8, 0xF0, 0xF3)
    assert v.known & 0xF0 == 0xF0 and v.value & 0xF0 == 0xF0


# ---------------------------------------------------------------------------
# fixpoint
# ---------------------------------------------------------------------------


def _counter_module(masked: bool = False) -> Module:
    module = Module("counter")
    count = module.add_register("c", 16, init=0)
    bumped = E.add(count, E.const(16, 1))
    if masked:
        bumped = E.band(bumped, E.const(16, 7))
    module.drive_register("c", bumped)
    module.add_probe("out", count)
    return module


def test_fixpoint_terminates_on_free_counter_via_widening():
    result = analyze(_counter_module())
    assert result.iterations < MAX_ITERATIONS
    value = result.registers["c"]
    # sound: every value the counter concretely reaches is included
    for concrete in (0, 1, 2, 1000, 0xFFFF):
        assert value.contains(concrete)


def test_fixpoint_soundness_vs_exhaustive_reachability():
    """BFS the *exact* reachable states of a module with a free 1-bit
    input; the abstract fixpoint must contain every one of them."""
    module = Module("bfs")
    step = module.add_input("step", 1)
    x = module.add_register("x", 4, init=2)
    y = module.add_register("y", 4, init=0)
    module.drive_register(
        "x",
        E.mux(step, E.add(x, E.const(4, 3)), x),
    )
    module.drive_register("y", E.bxor(y, E.band(x, E.const(4, 5))))
    module.add_probe("out", E.concat(x, y))

    seen: set[tuple[int, int]] = set()
    frontier = [(2, 0)]
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        for inp in (0, 1):
            xv, yv = state
            sim = Simulator(module)
            sim.state.registers["x"] = BitVector(4, xv)
            sim.state.registers["y"] = BitVector(4, yv)
            sim.step({"step": inp})
            frontier.append((sim.state.reg("x"), sim.state.reg("y")))

    result = analyze(module)
    for xv, yv in seen:
        assert result.registers["x"].contains(xv), (xv, result.registers["x"])
        assert result.registers["y"].contains(yv), (yv, result.registers["y"])


def test_fixpoint_proves_masked_counter_high_bits_zero():
    """A counter masked to 3 bits keeps its high bits provably zero even
    though its low bits cycle: the known-bits component carries what the
    (non-relational) interval component alone would lose to widening."""
    result = analyze(_counter_module(masked=True))
    value = result.registers["c"]
    for concrete in range(8):
        assert value.contains(concrete)
    assert not value.contains(8), value
    assert not value.contains(0xFFFF), value
    assert value.known & 0xFFF8 == 0xFFF8 and value.value & 0xFFF8 == 0


def test_fixpoint_eval_memoises_on_nodes():
    result = analyze(_counter_module(masked=True))
    count = E.reg_read("c", 16)
    high = E.band(count, E.const(16, 0xFFF8))
    value = result.eval(E.eq(high, E.const(16, 0)))
    assert value.is_const() and value.lo == 1
    # every node of the new cone is memoised under the node itself
    assert result.values[high] == result.eval(high)
    assert high in result.values and count in result.values


# ---------------------------------------------------------------------------
# mining: falsified candidates are rejected, never assumed
# ---------------------------------------------------------------------------


def test_base_false_candidate_rejected_despite_being_inductive():
    """x' := 1 with x init 0: "x == 1" is perfectly 1-inductive but
    false at reset — the concrete base check must reject it."""
    module = Module("basecheck")
    x = module.add_register("x", 1, init=0)
    module.drive_register("x", E.const(1, 1))
    module.add_probe("out", x)
    system = TransitionSystem.from_module(module)
    outcome = verify_candidates(
        module, system, {"lie": E.eq(x, E.const(1, 1))}
    )
    assert outcome.proven == {}
    assert outcome.rejected == {"lie": "fails in the reset state"}


def test_trace_true_but_noninductive_candidate_rejected():
    """y' := y + step: "y <= 3" holds on the zero-input trace forever
    but is not inductive; Houdini must drop it."""
    module = Module("stepcheck")
    step = module.add_input("step", 4)
    y = module.add_register("y", 4, init=0)
    module.drive_register("y", E.add(y, E.band(step, E.const(4, 1))))
    module.add_probe("out", y)
    system = TransitionSystem.from_module(module)
    candidates = {
        "small": E.ule(y, E.const(4, 3)),
        "reads-input": E.eq(step, E.const(4, 0)),
    }
    outcome = verify_candidates(module, system, candidates)
    assert "small" not in outcome.proven
    assert outcome.rejected["small"] == (
        "not inductive relative to the surviving set"
    )
    # candidates over external inputs are meaningless and rejected early
    assert outcome.rejected["reads-input"] == "reads external inputs"


def test_mine_invariants_never_returns_unchecked_as_proven():
    module = _counter_module(masked=True)
    checked = mine_invariants(module, check=True)
    assert checked.checked
    names = {inv.name for inv in checked.proven}
    # the masked counter's known-bits fact survives Houdini
    assert any(name.startswith(("range.", "bits.")) for name in names), names
    unchecked = mine_invariants(module, check=False)
    assert not unchecked.checked  # conjectures only: must not be injected


# ---------------------------------------------------------------------------
# serialisation and the invariant cache
# ---------------------------------------------------------------------------


def test_mining_result_roundtrips_through_json():
    module = _counter_module(masked=True)
    result = mine_invariants(module, check=True)
    clone = MiningResult.from_dict(result.to_dict(include_exprs=True))
    assert clone.module_name == result.module_name
    assert clone.checked and clone.from_cache
    assert {(i.name, i.kind) for i in clone.proven} == {
        (i.name, i.kind) for i in result.proven
    }
    # expressions are hash-consed: deserialisation reproduces the nodes
    for ours, theirs in zip(result.proven, clone.proven):
        assert ours.prop is theirs.prop


def test_invariant_cache_hit_and_corrupt_eviction(tmp_path):
    module = _counter_module(masked=True)
    cache = InvariantCache(tmp_path)
    first = mine_invariants(module, check=True, cache=cache)
    assert not first.from_cache and cache.stats.stores == 1
    second = mine_invariants(module, check=True, cache=cache)
    assert second.from_cache and cache.stats.hits == 1
    assert {i.name for i in second.proven} == {i.name for i in first.proven}

    # corrupt the record: the cache must evict and re-mine, not crash
    key = cache.key_for(module, 64)
    path = cache._path(key)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    third = mine_invariants(module, check=True, cache=cache)
    assert not third.from_cache
    assert cache.stats.evictions == 1


# ---------------------------------------------------------------------------
# semantic lint and the fault campaign's absint rung
# ---------------------------------------------------------------------------


def _reachably_frozen_module() -> Module:
    # r is reachably frozen: whichever mux arm fires, the next value is
    # the current content (3).  One-shot constant propagation cannot see
    # this — the register read is unknown to it.
    module = Module("frozen")
    flag = module.add_register("flag", 1, init=0)
    r = module.add_register("r", 4, init=3)
    module.drive_register("flag", E.bnot(flag))
    module.drive_register("r", E.mux(flag, r, E.const(4, 3)))
    module.add_probe("out", E.band(r, E.const(4, 7)))
    return module


def test_semantic_lint_flags_reachably_frozen_register():
    result = lint_semantic(_reachably_frozen_module())
    rules = {d.rule for d in result.diagnostics}
    assert "absint-frozen-register" in rules
    assert result.has_errors
    # and stays quiet where the structural pass already reports
    from repro.lint import lint_module

    structural = lint_module(_reachably_frozen_module())
    assert "absint-frozen-register" not in {
        d.rule for d in structural.diagnostics
    }


def test_campaign_cores_are_semantically_clean():
    for name in ("toy", "dlx-small"):
        pipelined = transform(CORES[name].build_machine())
        result = lint_semantic(pipelined.module)
        assert not result.has_errors, [d.message for d in result.errors]
        assert rom_template_violations(
            pipelined.machine, pipelined.module
        ) == []


def test_new_operators_are_registered():
    assert {"freeze-reg", "unalign-rom"} <= set(OPERATORS)


def test_freeze_reg_mutant_killed_by_absint_rung():
    spec = CORES["toy"]
    mutants = generate_mutants(spec, operators=["freeze-reg"])
    assert mutants, "toy must enumerate freeze-reg sites"
    result = run_mutant(mutants[0], spec.trace_cycles)
    assert result.detected
    assert result.detector == "absint"
    assert "absint-frozen-register" in result.detail


def test_unalign_rom_mutant_killed_by_absint_rung():
    spec = CORES["dlx-small"]
    mutants = generate_mutants(spec, operators=["unalign-rom"])
    assert mutants, "dlx-small must enumerate unalign-rom sites"
    mutated = mutants[0].build()
    violations = rom_template_violations(mutated.machine, mutated.module)
    assert violations and "ctl-imm-aligned" in violations[0]
    result = run_mutant(mutants[0], spec.trace_cycles)
    assert result.detected
    assert result.detector == "absint"
    assert "tmpl." in result.detail


def test_with_rom_word_rejects_writable_memories():
    pipelined = transform(CORES["dlx-small"].build_machine())
    with pytest.raises(ValueError, match="writable"):
        with_rom_word(pipelined, "DMem", 0, 0)
    # and leaves the original image untouched on success
    addr = next(iter(pipelined.module.memories["IMem"].init))
    original = pipelined.module.memories["IMem"].init[addr]
    mutated = with_rom_word(pipelined, "IMem", addr, original ^ 1)
    assert pipelined.module.memories["IMem"].init[addr] == original
    assert mutated.module.memories["IMem"].init[addr] == original ^ 1


# ---------------------------------------------------------------------------
# end to end: mined invariants close previously-fallback obligations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dlx_small():
    return transform(CORES["dlx-small"].build_machine())


def test_mining_proves_declared_template_chain(dlx_small):
    result = mine_invariants(dlx_small, check=True)
    proven = {inv.name for inv in result.proven}
    chain = {n for n in proven if n.startswith("tmpl.ctl-imm-aligned.IR.")}
    assert len(chain) >= 2, proven
    # every proven invariant carries a 1-bit property expression
    assert all(inv.prop.width == 1 for inv in result.proven)


@pytest.mark.slow
def test_discharge_flips_template_obligations_to_proved(dlx_small):
    """The PR's headline behaviour: ``tmpl.*`` obligations that only
    close as ``bounded bmc(k)`` without help are ``proved`` outright
    once the mined chain is injected."""
    from repro.absint import inject_invariants
    from repro.proofs import (
        discharge_invariant_group,
        generate_obligations,
        resolve_properties,
    )

    obligations = generate_obligations(dlx_small)
    resolve_properties(dlx_small, obligations)
    system = TransitionSystem.from_module(dlx_small.module)
    invariants = obligations.invariants()

    def tmpl_status(group) -> dict[str, str]:
        records = [
            record for _, record in discharge_invariant_group(system, group)
        ]
        assert all(r.ok for r in records), [r.oid for r in records if not r.ok]
        return {
            r.oid: r.status.value
            for r in records
            if r.oid.startswith("tmpl.")
        }

    without = tmpl_status(invariants)
    ladder_only = {oid for oid, status in without.items() if status == "bounded"}
    assert ladder_only, without
    mined = mine_invariants(dlx_small, system=system).proven
    with_mining = tmpl_status(inject_invariants(invariants, mined, system))
    assert all(with_mining[oid] == "proved" for oid in ladder_only), (
        ladder_only,
        with_mining,
    )
