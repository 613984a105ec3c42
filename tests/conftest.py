"""Shared fixtures: cached machines (building/transforming is the slow
part, and the machines are immutable from the tests' point of view),
plus seed plumbing for the fuzz suites.

Fuzz reproduction: every property-based suite derives its seeds from
``fuzz_seed_base`` (``--fuzz-seed`` on the pytest command line, falling
back to the ``REPRO_FUZZ_SEED`` environment variable, default 0) and
embeds the *effective* seed in its assertion context, so any failure
prints the seed and replays with ``pytest --fuzz-seed=<seed>``."""

from __future__ import annotations

import os
import sys

import pytest

from repro.core import PipelinedMachine, TransformOptions, transform
from repro.machine import toy
from repro.machine.prepared import PreparedMachine


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--fuzz-seed",
        action="store",
        type=int,
        default=None,
        help=(
            "base offset added to every generated fuzz seed"
            " (default: $REPRO_FUZZ_SEED or 0); failures print the"
            " effective seed so they replay deterministically"
        ),
    )


@pytest.fixture(scope="session")
def fuzz_seed_base(request: pytest.FixtureRequest) -> int:
    """Base offset for fuzz seeds: --fuzz-seed > $REPRO_FUZZ_SEED > 0."""
    option = request.config.getoption("--fuzz-seed")
    if option is not None:
        return option
    return int(os.environ.get("REPRO_FUZZ_SEED", "0"))

TOY_PROGRAM = [
    toy.li(1, 5),
    toy.li(2, 7),
    toy.add(3, 1, 2),
    toy.add(0, 3, 3),
    toy.ld(1, 3),
    toy.add(2, 1, 1),
]
TOY_DMEM = {12: 99}


@pytest.fixture()
def one_shot_verdict():
    """The test oracle for invariant discharge: the one-shot engines
    (``incremental=False``, a fresh unrolling and solver per query) walking
    the discharge escalation — k-induction at k = 1..``max_k``, then BMC
    to ``bmc_bound``.  Returns the ``(status, method)`` the discharge
    engine must reproduce for an obligation."""
    from repro.formal.bmc import bmc, k_induction

    def verdict(system, obligation, max_k=2, bmc_bound=8):
        assume = list(obligation.assume)
        for k in range(1, max_k + 1):
            result = k_induction(
                system, obligation.prop, k=k, assume=assume, incremental=False
            )
            if result.holds is True:
                return "proved", f"{k}-induction"
            if result.holds is False:
                return "failed", result.method
        result = bmc(
            system, obligation.prop, bound=bmc_bound, assume=assume,
            incremental=False,
        )
        if result.holds is True:
            return "bounded", f"bmc({bmc_bound})"
        if result.holds is False:
            return "failed", f"bmc({result.bound})"
        return "unknown", "exhausted"

    return verdict


@pytest.fixture()
def fixpoint_calls(monkeypatch) -> list:
    """Count absint fixpoints: :func:`repro.absint.fixpoint.analyze` is
    rebound in every loaded ``repro`` module that holds it by name, and
    each call appends the analysed module to the returned list."""
    from repro.absint import fixpoint

    original = fixpoint.analyze
    calls: list = []

    def counted(module):
        calls.append(module)
        return original(module)

    for name, loaded in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                monkeypatch.setattr(loaded, key, counted)
    return calls


@pytest.fixture(scope="session")
def toy_machine() -> PreparedMachine:
    return toy.build_toy_machine(TOY_PROGRAM, TOY_DMEM)


@pytest.fixture(scope="session")
def toy_pipelined(toy_machine) -> PipelinedMachine:
    return transform(toy_machine)


@pytest.fixture(scope="session")
def toy_interlock_only(toy_machine) -> PipelinedMachine:
    return transform(toy_machine, TransformOptions(interlock_only=True))
