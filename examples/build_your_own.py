#!/usr/bin/env python3
"""Build-your-own machine (the docs/tutorial.md walkthrough, runnable).

Defines a 3-stage multiply-accumulate engine from scratch, pipelines it
with the transformation tool, and verifies it — showing that the flow is
not specific to the shipped toy/DLX machines.

Run:  python examples/build_your_own.py
"""

from repro.core import check_data_consistency, transform
from repro.hdl import Simulator
from repro.hdl import expr as E
from repro.jobs import EngineParams, discharge_jobs
from repro.machine.prepared import PreparedMachine
from repro.proofs import generate_obligations


def build_mac_machine(rf_init: dict[int, int] | None = None) -> PreparedMachine:
    """A 3-stage MAC engine: FETCH, READ, MACC.

    Instruction word (8 bits): coeff(3) | dst(2) | src(2) | we(1);
    semantics: RF[dst] += coeff * RF[src].
    """
    m = PreparedMachine("mac", 3)

    m.add_register("PC", 4, first=1, visible=True)
    m.add_register("IR", 8, first=1, last=2)
    m.add_register("A", 8, first=2)

    m.add_register_file(
        "RF", addr_width=2, data_width=8, write_stage=2, init=rf_init
    )
    m.add_register_file(
        "IMem",
        addr_width=4,
        data_width=8,
        write_stage=0,
        read_only=True,
        init={
            0: 0b001_01_00_1,  # RF[1] += 1 * RF[0]
            1: 0b010_10_01_1,  # RF[2] += 2 * RF[1]
            2: 0b011_01_10_1,  # RF[1] += 3 * RF[2]  (back-to-back deps!)
            3: 0b101_11_01_1,  # RF[3] += 5 * RF[1]
        },
    )

    # stage 0: fetch
    pc = m.read_last("PC")
    m.set_output(0, "IR", m.read_file("IMem", pc))
    m.set_output(0, "PC", E.add(pc, E.const(4, 1)))

    # stage 1: operand read (RF written by stage 2 -> needs forwarding)
    ir = m.read("IR", 1)
    src = E.bits(ir, 1, 2)
    m.set_output(1, "A", m.read_file("RF", src))

    # stage 2: multiply-accumulate and write back.
    # NOTE the stage discipline: the *data* is computed in stage 2 from
    # IR.2 (the instruction now in stage 2), but the precomputed write
    # enable/address are evaluated in compute_stage=1 and must therefore
    # decode IR.1 — decoding IR.2 there would read the *previous*
    # instruction's word (a classic prepared-machine bug; see the tutorial).
    ir2 = m.read("IR", 2)
    coeff = E.zext(E.bits(ir2, 5, 7), 8)
    dst2 = E.bits(ir2, 3, 4)
    old = m.read_file("RF", dst2)  # same-stage read: no forwarding needed
    m.set_regfile_write(
        "RF",
        data=E.add(E.mul(m.read("A", 2), coeff), old),
        we=E.bit(ir, 0),
        wa=E.bits(ir, 3, 4),
        compute_stage=1,
    )
    m.validate()
    return m


def reference(rf):
    """The MAC program's effect, computed directly."""
    rf = list(rf)
    for coeff, dst, src in ((1, 1, 0), (2, 2, 1), (3, 1, 2), (5, 3, 1)):
        rf[dst] = (rf[dst] + coeff * rf[src]) % 256
    return rf


def main() -> None:
    machine = build_mac_machine(rf_init={0: 7})  # seed RF[0] = 7

    print("transforming the 3-stage MAC engine ...")
    pipelined = transform(machine)
    for network in pipelined.networks:
        print(
            f"  synthesized: {network.regfile} read in stage {network.stage},"
            f" hit stages {network.hit_stages},"
            f" {network.comparators} comparator(s)"
        )

    expected = reference([7, 0, 0, 0])
    sim = Simulator(pipelined.module)
    # 4 instructions + pipe fill; stop well before the 4-bit PC wraps and
    # the program re-executes
    for _ in range(10):
        sim.step()
    got = [sim.mem("RF", i) for i in range(4)]
    print(f"\n  expected RF: {expected}")
    print(f"  pipelined RF: {got}")
    assert got == expected

    report = check_data_consistency(machine, pipelined.module, cycles=12)
    print(f"\n  data consistency vs sequential: {'OK' if report.ok else 'FAIL'}")
    proofs = discharge_jobs(
        pipelined,
        generate_obligations(pipelined),
        params=EngineParams(trace_cycles=50),
        jobs=1,
        cache=None,
    )
    print(f"  {proofs.format_text()}")
    assert report.ok and proofs.ok
    print("\nYour machine is pipelined and provably consistent.")


if __name__ == "__main__":
    main()
