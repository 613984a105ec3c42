"""The mutant catalog: cores under test and systematic fault enumeration.

Each *core* is a named factory for a prepared machine plus a workload that
exercises its hazards (the toy machine's load-use chain, the DLX
fibonacci loop).  :func:`generate_mutants` enumerates every applicable
fault site of every operator over a core:

====================  =========================================================
operator              fault shape
====================  =========================================================
``stuck-data``        register-file write data stuck at all-0 / all-1
``stuck-addr``        register-file write address stuck at 0
``invert-we``         register-file write enable inverted
``always-we``         register-file write enable forced on
``swap-mux``          the write-back value mux with its arms swapped
``invert-enable``     a pipeline register's clock enable inverted
``stuck-reg``         a designer forwarding register's next value stuck at 0
``stuck-full``        a full bit's next value stuck at 0 / 1
``drop-hit``          one forwarding-hit comparator forced to never match
``swap-hit-values``   the values forwarded by two adjacent hit stages swapped
``weaken-dhaz``       a stage's data-hazard (interlock) signal forced to 0
``weaken-stall``      a stage's stall signal forced to 0
``drop-rollback``     a stage's squash signal forced to 0 (speculative cores)
``shift-rollback``    the squash window shifted one stage (off-by-one tag)
``drop-forwarding``   a synthesized network dropped from coverage records
``early-valid``       a forwarding valid bit forced on one stage too early
``freeze-reg``        a pipeline register's next value tied to its own output
``unalign-rom``       an instruction-ROM word corrupted against its template
``drop-commit-guard`` a write-port enable's occupancy (full-bit) guard forced to 1
``rollback-tag-bypass`` a squash-window full bit keeps its tag across rollback
====================  =========================================================

Every mutant must be caught by the verifier stack (lint, the absint
semantic checks, trace checking, or proof discharge) — a survivor is a
soundness gap in the checker, not a property of the mutant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..core.transform import PipelinedMachine, transform
from ..hdl import expr as E
from ..machine.prepared import PreparedMachine
from . import operators as ops


@dataclass
class Mutant:
    """One injectable fault: an operator applied at one site of one core."""

    mid: str  # unique id, e.g. "toy/invert-we/RF.w0"
    core: str
    operator: str
    site: str
    build: Callable[[], PipelinedMachine] = field(repr=False)

    def to_dict(self) -> dict[str, str]:
        return {
            "mid": self.mid,
            "core": self.core,
            "operator": self.operator,
            "site": self.site,
        }


@dataclass(frozen=True)
class CoreSpec:
    """A named machine + workload the campaign runs against."""

    name: str
    build_machine: Callable[[], PreparedMachine] = field(repr=False)
    trace_cycles: int = 150
    slow: bool = False  # excluded from the default CLI core set


def _toy_machine(word: int | None = None) -> PreparedMachine:
    from ..machine import toy

    # exercises forwarding (back-to-back adds), the two-producer C chain
    # (LI in RD, ADD in EX) and the load-use interlock
    program = [
        toy.li(1, 5),
        toy.li(2, 7),
        toy.add(3, 1, 2),
        toy.add(0, 3, 3),
        toy.ld(1, 3),
        toy.add(2, 1, 1),
    ]
    return toy.build_toy_machine(program, {12: 99}, word=word or toy.WORD)


def _dlx_small_machine(word: int | None = None) -> PreparedMachine:
    from ..dlx import DlxConfig, build_dlx_machine, isa
    from ..dlx.programs import hazard_torture

    workload = hazard_torture()
    return build_dlx_machine(
        workload.program,
        data=workload.data,
        config=DlxConfig(
            imem_addr_width=6, dmem_addr_width=4, word=word or isa.WORD
        ),
    )


def _dlx_machine(word: int | None = None) -> PreparedMachine:
    from ..dlx import DlxConfig, build_dlx_machine, isa
    from ..dlx.programs import hazard_torture

    workload = hazard_torture(iterations=4)
    return build_dlx_machine(
        workload.program,
        data=workload.data,
        config=DlxConfig(word=word or isa.WORD),
    )


def _dlx_spec_machine(word: int | None = None) -> PreparedMachine:
    from ..dlx import isa
    from ..dlx.programs import hazard_torture
    from ..dlx.speculative import DlxSpecConfig, build_dlx_spec_machine

    workload = hazard_torture(delay_slots=False)
    return build_dlx_spec_machine(
        workload.program,
        data=workload.data,
        config=DlxSpecConfig(word=word or isa.WORD),
    )


CORES: dict[str, CoreSpec] = {
    "toy": CoreSpec("toy", _toy_machine, trace_cycles=60),
    "dlx-small": CoreSpec("dlx-small", _dlx_small_machine, trace_cycles=150),
    "dlx": CoreSpec("dlx", _dlx_machine, trace_cycles=300, slow=True),
    "dlx-spec": CoreSpec(
        "dlx-spec", _dlx_spec_machine, trace_cycles=150, slow=True
    ),
}


def _nonconst(expression: E.Expr) -> bool:
    return not isinstance(expression, E.Const)


# ---------------------------------------------------------------------------
# netlist-level enumerators: (core name, baseline pipeline) -> mutants
# ---------------------------------------------------------------------------


def _writable_memories(pipelined: PipelinedMachine) -> list[str]:
    return [
        name
        for name, memory in pipelined.module.memories.items()
        if memory.write_ports
    ]


def _enum_stuck_data(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    for name in _writable_memories(pipelined):
        memory = pipelined.module.memories[name]
        for index, port in enumerate(memory.write_ports):
            for value, tag in ((0, "0"), ((1 << memory.data_width) - 1, "1")):
                yield Mutant(
                    mid=f"{core}/stuck-data-{tag}/{name}.w{index}",
                    core=core,
                    operator="stuck-data",
                    site=f"{name} write port {index} data := {tag * 2}...",
                    build=lambda p=index, n=name, v=value, w=memory.data_width: (
                        ops.with_write_port(
                            pipelined, n, p, data=E.const(w, v)
                        )
                    ),
                )


def _enum_stuck_addr(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    for name in _writable_memories(pipelined):
        memory = pipelined.module.memories[name]
        for index in range(len(memory.write_ports)):
            yield Mutant(
                mid=f"{core}/stuck-addr/{name}.w{index}",
                core=core,
                operator="stuck-addr",
                site=f"{name} write port {index} addr := 0",
                build=lambda p=index, n=name, w=memory.addr_width: (
                    ops.with_write_port(pipelined, n, p, addr=E.const(w, 0))
                ),
            )


def _enum_invert_we(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    for name in _writable_memories(pipelined):
        memory = pipelined.module.memories[name]
        for index, port in enumerate(memory.write_ports):
            yield Mutant(
                mid=f"{core}/invert-we/{name}.w{index}",
                core=core,
                operator="invert-we",
                site=f"{name} write port {index} enable inverted",
                build=lambda p=index, n=name, e=port.enable: (
                    ops.with_write_port(pipelined, n, p, enable=E.bnot(e))
                ),
            )


def _enum_always_we(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    for name in _writable_memories(pipelined):
        memory = pipelined.module.memories[name]
        for index, port in enumerate(memory.write_ports):
            if isinstance(port.enable, E.Const) and port.enable.value == 1:
                continue
            yield Mutant(
                mid=f"{core}/always-we/{name}.w{index}",
                core=core,
                operator="always-we",
                site=f"{name} write port {index} enable := 1",
                build=lambda p=index, n=name: (
                    ops.with_write_port(pipelined, n, p, enable=E.const(1, 1))
                ),
            )


def _enum_swap_mux(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    for name in _writable_memories(pipelined):
        memory = pipelined.module.memories[name]
        for index, port in enumerate(memory.write_ports):
            mux = ops.first_mux(port.data)
            if mux is None or mux.then is mux.els:
                continue
            yield Mutant(
                mid=f"{core}/swap-mux/{name}.w{index}",
                core=core,
                operator="swap-mux",
                site=f"{name} write port {index} data mux arms swapped",
                build=lambda m=mux: ops.swap_mux_arms(pipelined, m),
            )


def _observable_registers(pipelined: PipelinedMachine) -> set[str]:
    """Registers in the transitive fan-in of an architectural sink
    (memory write port or visible register).  A register outside this
    cone — e.g. the interrupt PC chain with interrupts configured off —
    cannot affect any observable behaviour, so mutating it yields an
    equivalent mutant the catalog must exclude."""
    module = pipelined.module
    observable: set[str] = set()
    frontier: list[E.Expr] = []
    for memory in module.memories.values():
        for port in memory.write_ports:
            frontier += [port.enable, port.addr, port.data]
    for reg in pipelined.machine.registers.values():
        if reg.visible:
            name = reg.instance_name(reg.last)
            if name in module.registers:
                observable.add(name)
                frontier += [
                    module.registers[name].next,
                    module.registers[name].enable,
                ]
    while frontier:
        reads = {
            node.name
            for node in E.walk(frontier)
            if isinstance(node, E.RegRead)
        }
        frontier = []
        for name in reads - observable:
            observable.add(name)
            reg = module.registers.get(name)
            if reg is not None:
                frontier += [reg.next, reg.enable]
    return observable


def _enum_invert_enable(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    instance_names = set(pipelined.machine.instance_names())
    observable = _observable_registers(pipelined)
    for name, reg in pipelined.module.registers.items():
        if name not in instance_names or name not in observable:
            continue
        yield Mutant(
            mid=f"{core}/invert-enable/{name}",
            core=core,
            operator="invert-enable",
            site=f"register {name} clock enable inverted",
            build=lambda n=name, e=reg.enable: (
                ops.with_register(pipelined, n, enable=E.bnot(e))
            ),
        )


def _enum_stuck_reg(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    machine = pipelined.machine
    for annotation in machine.forwarding:
        reg = machine.registers.get(annotation.reg)
        if reg is None:
            continue
        instance = reg.instance_name(annotation.stage + 1)
        if instance not in pipelined.module.registers:
            continue
        yield Mutant(
            mid=f"{core}/stuck-reg/{instance}",
            core=core,
            operator="stuck-reg",
            site=f"forwarding register {instance} next := 0",
            build=lambda n=instance, w=reg.width: (
                ops.with_register(pipelined, n, next=E.const(w, 0))
            ),
        )


def _enum_stuck_full(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    from ..core.stall_engine import full_bit_name

    for stage in range(1, pipelined.n_stages):
        name = full_bit_name(stage)
        if name not in pipelined.module.registers:
            continue
        yield Mutant(
            mid=f"{core}/stuck-full-0/{name}",
            core=core,
            operator="stuck-full",
            site=f"{name} next := 0 (stage {stage} never full)",
            build=lambda n=name: ops.with_register(
                pipelined, n, next=E.const(1, 0)
            ),
        )
        # a stuck-at-1 full bit is only a reachable difference for stages a
        # bubble can actually enter (stage 1 refills every cycle from the
        # always-full fetch stage, so forcing it is a no-op)
        if stage >= 2:
            yield Mutant(
                mid=f"{core}/stuck-full-1/{name}",
                core=core,
                operator="stuck-full",
                site=f"{name} next := 1 (bubbles in stage {stage} claim full)",
                build=lambda n=name: ops.with_register(
                    pipelined, n, next=E.const(1, 1)
                ),
            )


def _enum_drop_hit(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    for index, network in enumerate(pipelined.networks):
        for j in network.hit_stages:
            hit = network.hits.get(j)
            if hit is None or not _nonconst(hit):
                continue
            yield Mutant(
                mid=f"{core}/drop-hit/{network.regfile}.{network.stage}.{index}.{j}",
                core=core,
                operator="drop-hit",
                site=(
                    f"{network.regfile} read in stage {network.stage}:"
                    f" hit against stage {j} never matches"
                ),
                build=lambda h=hit: ops.force_net(pipelined, h, 0),
            )


def _enum_swap_hit_values(
    core: str, pipelined: PipelinedMachine
) -> Iterator[Mutant]:
    for index, network in enumerate(pipelined.networks):
        stages = [
            j
            for j in network.hit_stages
            if network.values.get(j) is not None
        ]
        for a, b in zip(stages, stages[1:]):
            va, vb = network.values[a], network.values[b]
            if va is vb:
                continue
            yield Mutant(
                mid=(
                    f"{core}/swap-hit-values/"
                    f"{network.regfile}.{network.stage}.{index}.{a}-{b}"
                ),
                core=core,
                operator="swap-hit-values",
                site=(
                    f"{network.regfile} read in stage {network.stage}:"
                    f" values forwarded from stages {a} and {b} swapped"
                ),
                build=lambda x=va, y=vb: ops.rewrite_module(
                    pipelined, [(x, y), (y, x)]
                ),
            )


def _enum_weaken_dhaz(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    for stage, dhaz in enumerate(pipelined.engine.dhaz):
        if not _nonconst(dhaz):
            continue
        yield Mutant(
            mid=f"{core}/weaken-dhaz/{stage}",
            core=core,
            operator="weaken-dhaz",
            site=f"dhaz_{stage} := 0 (interlock removed)",
            build=lambda d=dhaz: ops.force_net(pipelined, d, 0),
        )


def _enum_weaken_stall(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    for stage, stall in enumerate(pipelined.engine.stall):
        if not _nonconst(stall):
            continue
        yield Mutant(
            mid=f"{core}/weaken-stall/{stage}",
            core=core,
            operator="weaken-stall",
            site=f"stall_{stage} := 0 (stage never holds)",
            build=lambda s=stall: ops.force_net(pipelined, s, 0),
        )


def _enum_drop_rollback(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    for stage, prime in enumerate(pipelined.engine.rollback_prime):
        if not _nonconst(prime):
            continue
        yield Mutant(
            mid=f"{core}/drop-rollback/{stage}",
            core=core,
            operator="drop-rollback",
            site=f"rollback'_{stage} := 0 (stage {stage} never squashes)",
            build=lambda p=prime: ops.force_net(pipelined, p, 0),
        )


def _enum_shift_rollback(
    core: str, pipelined: PipelinedMachine
) -> Iterator[Mutant]:
    primes = pipelined.engine.rollback_prime
    for stage in range(len(primes) - 1):
        a, b = primes[stage], primes[stage + 1]
        if not _nonconst(a) or a is b:
            continue
        yield Mutant(
            mid=f"{core}/shift-rollback/{stage}",
            core=core,
            operator="shift-rollback",
            site=(
                f"rollback'_{stage} := rollback'_{stage + 1}"
                " (squash window off by one)"
            ),
            build=lambda x=a, y=b: ops.rewrite_module(pipelined, [(x, y)]),
        )


def _enum_drop_forwarding(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    # drops the *record* of a synthesized network while keeping the
    # hardware — the transformation claiming coverage it does not track.
    # the static hazard audit must notice the uncovered read site.
    import dataclasses

    for index, network in enumerate(pipelined.networks):
        yield Mutant(
            mid=f"{core}/drop-forwarding/{network.regfile}.{network.stage}.{index}",
            core=core,
            operator="drop-forwarding",
            site=(
                f"network for {network.regfile} read in stage"
                f" {network.stage} dropped from coverage records"
            ),
            build=lambda i=index: dataclasses.replace(
                pipelined,
                networks=pipelined.networks[:i] + pipelined.networks[i + 1 :],
            ),
        )


def _enum_early_valid(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    # the off-by-one *mis-staged forward*: a valid bit claiming the
    # forwarded value final a stage before its producer writes it.  (The
    # dual defect — moving a designer annotation a stage *earlier* and
    # re-transforming — is masked by the precise per-stage write enables
    # the valid chain consults, so it is excluded as an equivalent
    # mutant; forcing the valid pipeline itself is the real fault.)
    from ..core.forwarding import valid_bit_name

    valid_names = {
        valid_bit_name(regfile, stage)
        for regfile in {network.regfile for network in pipelined.networks}
        for stage in range(pipelined.n_stages + 1)
    }
    for name in sorted(valid_names & set(pipelined.module.registers)):
        yield Mutant(
            mid=f"{core}/early-valid/{name}",
            core=core,
            operator="early-valid",
            site=f"valid bit {name} next := 1 (value claimed final early)",
            build=lambda n=name: ops.with_register(
                pipelined, n, next=E.const(1, 1)
            ),
        )


def _enum_freeze_reg(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    # the register reloads its own content every cycle: structurally it
    # still has update logic (one-shot lint deliberately tolerates hold
    # registers), but no reachable state ever changes — only the
    # sequential absint fixpoint proves the update dead, so this operator
    # exercises the campaign's absint rung.
    instance_names = set(pipelined.machine.instance_names())
    observable = _observable_registers(pipelined)
    for name, reg in pipelined.module.registers.items():
        if name not in instance_names or name not in observable:
            continue
        if isinstance(reg.next, E.Const):
            continue  # stuck-reg territory, not a silent freeze
        if isinstance(reg.next, E.RegRead) and reg.next.name == name:
            continue  # already a hold register: the mutant is equivalent
        yield Mutant(
            mid=f"{core}/freeze-reg/{name}",
            core=core,
            operator="freeze-reg",
            site=f"register {name} next := its own value (update frozen)",
            build=lambda n=name, w=reg.width: ops.with_register(
                pipelined, n, next=E.reg_read(n, w)
            ),
        )


def _enum_unalign_rom(core: str, pipelined: PipelinedMachine) -> Iterator[Mutant]:
    # flip the low bit of an instruction-ROM word a declared invariant
    # template constrains (a control-transfer immediate losing its word
    # alignment): the corrupted *image* violates the template even when
    # the word is never fetched inside the trace or BMC horizon, so the
    # absint image check is the detector that catches it cheaply.
    machine = pipelined.machine
    module = pipelined.module
    seen: set[tuple[str, int]] = set()
    for template in getattr(machine, "invariant_templates", ()):
        reg = machine.registers[template.register]

        def _holds(word: int) -> bool | None:
            prop = template.prop(E.const(reg.width, word))
            return prop.value == 1 if isinstance(prop, E.Const) else None

        for mem_name, memory in module.memories.items():
            if memory.write_ports or memory.data_width != reg.width:
                continue
            for addr in sorted(memory.init):
                word = memory.init[addr]
                if (mem_name, addr) in seen:
                    continue
                if _holds(word) is not True or _holds(word ^ 1) is not False:
                    continue
                seen.add((mem_name, addr))
                yield Mutant(
                    mid=f"{core}/unalign-rom/{mem_name}.{addr:#x}",
                    core=core,
                    operator="unalign-rom",
                    site=(
                        f"{mem_name}[{addr:#x}] low bit flipped"
                        f" (image violates tmpl.{template.name})"
                    ),
                    build=lambda m=mem_name, a=addr, w=word: (
                        ops.with_rom_word(pipelined, m, a, w ^ 1)
                    ),
                )


def _enum_drop_commit_guard(
    core: str, pipelined: PipelinedMachine
) -> Iterator[Mutant]:
    # the seeded speculation leak: the write-port enable keeps its piped
    # write-enable logic but loses the occupancy guard, so bubbles and
    # squashed slots retire whatever address/data is in flight.  The
    # hazard audit still sees full coverage and nothing becomes reachably
    # constant, so the taint rung's unguarded-commit policy is the
    # detector that must catch it.
    from ..core.stall_engine import full_bit_name
    from ..hdl.subst import substitute

    full_names = {
        full_bit_name(stage) for stage in range(1, pipelined.n_stages)
    }
    for name in _writable_memories(pipelined):
        memory = pipelined.module.memories[name]
        for index, port in enumerate(memory.write_ports):
            guards = tuple(
                node
                for node in E.walk([port.enable])
                if isinstance(node, E.RegRead) and node.name in full_names
            )
            if not guards:
                continue
            yield Mutant(
                mid=f"{core}/drop-commit-guard/{name}.w{index}",
                core=core,
                operator="drop-commit-guard",
                site=f"{name} write port {index} enable: occupancy guard := 1",
                build=lambda p=index, n=name, e=port.enable, g=guards: (
                    ops.with_write_port(
                        pipelined,
                        n,
                        p,
                        enable=substitute(
                            e, memo={id(node): E.const(1, 1) for node in g}
                        ),
                    )
                ),
            )


def _enum_rollback_tag_bypass(
    core: str, pipelined: PipelinedMachine
) -> Iterator[Mutant]:
    # the seeded rollback-tag bypass: a squash-window full bit is rebuilt
    # as ``ue_{s-1} OR stall_s`` without the ``NOT rollback'_s`` gate, so
    # an instruction *stalled* in stage s during a squash keeps its
    # occupancy tag and later commits.  (When stall_s is constant 0 the
    # stage cannot hold across the squash and the mutant is equivalent —
    # those sites are excluded.)  Killed by taint.rollback-escape.
    from ..core.stall_engine import full_bit_name

    engine = pipelined.engine
    seen: set[int] = set()
    for hardware in pipelined.speculations:
        for stage in range(1, hardware.spec.resolve_stage + 1):
            if stage in seen:
                continue
            seen.add(stage)
            name = full_bit_name(stage)
            prime = engine.rollback_prime[stage]
            if (
                name not in pipelined.module.registers
                or not _nonconst(prime)
                or not _nonconst(engine.stall[stage])
            ):
                continue
            yield Mutant(
                mid=f"{core}/rollback-tag-bypass/{name}",
                core=core,
                operator="rollback-tag-bypass",
                site=f"{name} next := ue_{stage - 1} | stall_{stage}"
                " (NOT rollback' gate dropped)",
                build=lambda n=name, s=stage: ops.with_register(
                    pipelined,
                    n,
                    next=E.bor(engine.ue[s - 1], engine.stall[s]),
                ),
            )


_NETLIST_ENUMERATORS: dict[
    str, Callable[[str, PipelinedMachine], Iterator[Mutant]]
] = {
    "stuck-data": _enum_stuck_data,
    "stuck-addr": _enum_stuck_addr,
    "invert-we": _enum_invert_we,
    "always-we": _enum_always_we,
    "swap-mux": _enum_swap_mux,
    "invert-enable": _enum_invert_enable,
    "stuck-reg": _enum_stuck_reg,
    "stuck-full": _enum_stuck_full,
    "drop-hit": _enum_drop_hit,
    "swap-hit-values": _enum_swap_hit_values,
    "weaken-dhaz": _enum_weaken_dhaz,
    "weaken-stall": _enum_weaken_stall,
    "drop-rollback": _enum_drop_rollback,
    "shift-rollback": _enum_shift_rollback,
    "drop-forwarding": _enum_drop_forwarding,
    "early-valid": _enum_early_valid,
    "freeze-reg": _enum_freeze_reg,
    "unalign-rom": _enum_unalign_rom,
    "drop-commit-guard": _enum_drop_commit_guard,
    "rollback-tag-bypass": _enum_rollback_tag_bypass,
}

OPERATORS: tuple[str, ...] = tuple(_NETLIST_ENUMERATORS)


def generate_mutants(
    core: CoreSpec | str,
    operators: Iterator[str] | list[str] | None = None,
    max_per_operator: int | None = None,
    machine: PreparedMachine | None = None,
) -> list[Mutant]:
    """Enumerate the full fault catalog for one core.

    ``operators`` restricts to a subset of operator names;
    ``max_per_operator`` caps the sites taken per operator (first-N in
    deterministic enumeration order) for quick smoke runs.  The mutants
    are built on ``machine`` (default: a fresh ``build_machine()`` of
    the core); every mutant's ``machine`` is that object.
    """
    spec = CORES[core] if isinstance(core, str) else core
    selected = list(operators) if operators is not None else list(OPERATORS)
    unknown = [name for name in selected if name not in OPERATORS]
    if unknown:
        raise ValueError(f"unknown mutation operator(s): {unknown}")
    if machine is None:
        machine = spec.build_machine()
    baseline = transform(machine)
    mutants: list[Mutant] = []
    for name in selected:
        sites = list(_NETLIST_ENUMERATORS[name](spec.name, baseline))
        if max_per_operator is not None:
            sites = sites[:max_per_operator]
        mutants.extend(sites)
    return mutants
