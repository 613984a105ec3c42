#!/usr/bin/env python3
"""Quickstart: transform a prepared sequential machine into a pipeline.

Builds the 4-stage "toy" machine shipped with the library, runs the
transformation tool on it, simulates both machines on a small program, and
verifies data consistency plus the generated proof obligations — the whole
life cycle of the paper's flow in one script.

Run:  python examples/quickstart.py
"""

from repro.core import (
    TransformOptions,
    check_data_consistency,
    check_lemma1,
    check_liveness,
    transform,
)
from repro.hdl.sim import Simulator
from repro.jobs import EngineParams, discharge_jobs
from repro.machine import build_sequential, toy
from repro.perf import format_table
from repro.proofs import generate_obligations


def main() -> None:
    # 1. A program for the toy ISA (see repro.machine.toy for the encoding).
    program = [
        toy.li(1, 5),        # r1 = 5
        toy.li(2, 7),        # r2 = 7
        toy.add(3, 1, 2),    # r3 = r1 + r2      (forwarded from EX)
        toy.add(0, 3, 3),    # r0 = r3 + r3      (forwarded again)
        toy.ld(1, 3),        # r1 = DM[r3]       (load)
        toy.add(2, 1, 1),    # r2 = r1 + r1      (load-use interlock!)
    ]
    data = {12: 99}
    expected_rf, expected_writes = toy.reference_execution(program, data)
    print("ISA reference:      RF =", expected_rf)

    # 2. The designer's input: a prepared sequential machine.
    machine = toy.build_toy_machine(program, data)

    # 3. Elaborate it sequentially (the correctness reference)...
    sequential = build_sequential(machine)
    sim = Simulator(sequential)
    for _ in range(4 * 10):
        sim.step()
    print("sequential machine: RF =", [sim.mem("RF", i) for i in range(4)])

    # 4. ...and run the transformation tool: stall engine + forwarding +
    #    interlock are synthesized automatically.
    pipelined = transform(machine, TransformOptions(forwarding_style="chain"))
    print("\nsynthesized forwarding networks:")
    for network in pipelined.networks:
        print(
            f"  {network.regfile} read in stage {network.stage}:"
            f" hit stages {network.hit_stages},"
            f" {network.comparators} address comparator(s)"
        )

    sim = Simulator(pipelined.module)
    commits = []
    for _ in range(30):
        values = sim.step()
        if values["commit.RF.we"]:
            commits.append((values["commit.RF.wa"], values["commit.RF.data"]))
    print("pipelined machine:  RF =", [sim.mem("RF", i) for i in range(4)])
    assert commits[: len(expected_writes)] == expected_writes

    # 5. Verify: the paper's data-consistency criterion, Lemma 1, liveness.
    consistency = check_data_consistency(machine, pipelined.module, cycles=40)
    lemma1 = check_lemma1(sim.trace, machine.n_stages)
    liveness = check_liveness(sim.trace, machine.n_stages, bound=16)
    print("\nverification:")
    print(f"  data consistency (R_I^T = R_S^i): {'OK' if consistency.ok else 'FAIL'}")
    print(f"  Lemma 1 (scheduling functions):   {'OK' if lemma1.ok else 'FAIL'}")
    print(
        f"  liveness: worst latency {liveness.worst_latency} cycles"
        f" (bound {liveness.bound})"
    )

    # 6. Discharge the generated proof obligations mechanically.
    obligations = generate_obligations(pipelined)
    report = discharge_jobs(
        pipelined,
        obligations,
        params=EngineParams(trace_cycles=60),
        jobs=1,
        cache=None,
    )
    print(f"\nproof obligations:\n{report.format_text()}")
    rows = [
        {
            "obligation": record.oid,
            "status": record.status.value,
            "method": record.method,
        }
        for record in report.records[:8]
    ]
    print(format_table(rows))
    print(f"  ... and {len(report.records) - len(rows)} more, all discharged."
          if report.ok else "  SOME OBLIGATIONS FAILED")
    assert consistency.ok and lemma1.ok and liveness.ok and report.ok
    print("\nquickstart finished: the generated pipeline is provably consistent.")


if __name__ == "__main__":
    main()
