"""Command-line front end: assemble, transform, run and verify DLX programs.

Usage examples::

    python -m repro.cli run program.s                 # pipelined execution
    python -m repro.cli run program.s --machine seq   # sequential reference
    python -m repro.cli run program.s --vcd out.vcd   # dump waveforms
    python -m repro.cli verify program.s              # obligations + traces
    python -m repro.cli discharge program.s -j 4      # parallel cached proofs
    python -m repro.cli lint --core all               # static analysis
    python -m repro.cli lint program.s --format sarif # lint one program
    python -m repro.cli cost --depths 4 8 12          # forwarding-cost table

The program file is DLX assembly (see :mod:`repro.dlx.assemble` for the
syntax); execution stops when the instruction count of the ISA reference
reaching the ``halt`` label is retired, or after ``--cycles``.
"""

from __future__ import annotations

import argparse
import math
import sys

from .core import TransformOptions, check_data_consistency, transform
from .dlx import DlxConfig, DlxReference, assemble, build_dlx_machine, labels_of
from .hdl.sim import Simulator
from .machine import build_sequential
from .perf import cost_versus_depth, format_table, run_to_completion
from .proofs import discharge, generate_obligations


def _load(path: str):
    with open(path) as handle:
        source = handle.read()
    program = assemble(source)
    labels = labels_of(source)
    return source, program, labels


def _config_for(program, dmem_bits: int = 6) -> DlxConfig:
    """Size the machine's memories to the program: smaller memories mean a
    much smaller state space for the formal engines, with identical
    behaviour for programs that fit."""
    imem_bits = max(4, math.ceil(math.log2(len(program) + 4)))
    return DlxConfig(imem_addr_width=imem_bits, dmem_addr_width=dmem_bits)


def _target_instructions(program, labels, dmem_bits: int = 6) -> int:
    if "halt" not in labels:
        return 0
    config = _config_for(program, dmem_bits)
    reference = DlxReference(
        program,
        imem_addr_width=config.imem_addr_width,
        dmem_addr_width=config.dmem_addr_width,
    )
    count = 0
    while reference.state.dpc != labels["halt"] and count < 100_000:
        reference.step()
        count += 1
    return count


def cmd_run(args: argparse.Namespace) -> int:
    _source, program, labels = _load(args.program)
    if args.list:
        from .dlx.disassemble import disassemble

        print(disassemble(program))
        print()
    machine = build_dlx_machine(program, config=_config_for(program, args.dmem_bits))
    if args.machine == "seq":
        module = build_sequential(machine)
    else:
        options = TransformOptions(
            forwarding_style=args.style,
            interlock_only=args.machine == "interlock",
        )
        module = transform(machine, options).module

    target = _target_instructions(program, labels, args.dmem_bits)
    if target and not args.cycles:
        report = run_to_completion(module, target, 5, name=args.program)
        cycles = report.cycles
        print(
            f"{report.instructions} instructions in {report.cycles} cycles"
            f" (CPI {report.cpi:.2f}, {report.stall_cycles} stall cycles)"
        )
    else:
        cycles = args.cycles or 1000

    sim = Simulator(module)
    for _ in range(cycles):
        sim.step()
    print("\nGPR:")
    rows = [
        {"reg": f"r{reg}", "value": f"{sim.mem('GPR', reg):#010x}"}
        for reg in range(32)
        if sim.mem("GPR", reg)
    ]
    print(format_table(rows) if rows else "  (all zero)")
    dmem = {
        addr: value
        for addr, value in sim.state.memories["DMem"].items()
        if value
    }
    if dmem:
        print("\nDMem (word-indexed):")
        print(
            format_table(
                [
                    {"word": addr, "value": f"{value:#010x}"}
                    for addr, value in sorted(dmem.items())
                ]
            )
        )
    if args.pipeview and args.machine != "seq":
        from .perf.pipeview import dlx_labels, render

        print("\npipeline diagram (first instructions):")
        print(
            render(
                sim.trace,
                5,
                labels=dlx_labels(sim.trace, program),
                max_instructions=args.pipeview,
                max_cycles=min(cycles, args.pipeview * 3 + 8),
            )
        )
    if args.vcd:
        from .hdl.vcd import dump_vcd

        dump_vcd(sim.trace, module, args.vcd)
        print(f"\nwaveforms written to {args.vcd}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _source, program, _labels = _load(args.program)
    machine = build_dlx_machine(program, config=_config_for(program, args.dmem_bits))
    pipelined = transform(machine)
    print("checking data consistency against the sequential reference ...")
    consistency = check_data_consistency(
        machine, pipelined.module, cycles=args.cycles
    )
    print(f"  {'OK' if consistency.ok else 'FAIL'}"
          f" ({consistency.instructions_retired} instructions retired)")
    if not consistency.ok:
        print("  first violation:", consistency.first_violation())
        return 1
    print("discharging generated proof obligations ...")
    obligations = generate_obligations(pipelined)
    report = discharge(pipelined, obligations, trace_cycles=args.cycles)
    print(f"  {report.summary()}")
    for record in report.failed():
        print(f"  FAILED {record.oid}: {record.detail[:120]}")
    return 0 if report.ok else 1


def cmd_discharge(args: argparse.Namespace) -> int:
    from .jobs import EngineParams, ResultCache, discharge_jobs

    _source, program, _labels = _load(args.program)
    machine = build_dlx_machine(program, config=_config_for(program, args.dmem_bits))
    pipelined = transform(machine)
    obligations = generate_obligations(pipelined)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    report = discharge_jobs(
        pipelined,
        obligations,
        params=EngineParams(
            max_k=args.max_k,
            bmc_bound=args.bmc_bound,
            trace_cycles=args.cycles,
            max_retries=args.max_retries,
            mem_limit_mb=args.mem_limit,
            cpu_limit_s=args.cpu_limit,
            absint=not args.no_absint,
        ),
        jobs=args.jobs,
        timeout=args.timeout,
        cache=cache,
        lint_gate=not args.no_lint,
        taint_gate=not args.no_taint,
    )
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    print(report.format_text())
    if args.profile:
        print(report.format_profile())
    # unknowns (timeouts, budget exhaustion) are inconclusive, not failures
    return 1 if report.failed else 0


def _absint_value_row(name: str, width: int, value) -> dict[str, str]:
    """One register's abstract value, rendered for the text table."""
    if value.is_const():
        shape = f"const {value.value:#x}"
    elif value.is_top():
        shape = "top"
    else:
        parts = []
        if value.known:
            parts.append(f"bits &{value.known:#x}=={value.value:#x}")
        from .hdl.bitvec import mask

        if (value.lo, value.hi) != (0, mask(width)):
            parts.append(f"range [{value.lo:#x},{value.hi:#x}]")
        shape = "; ".join(parts) or "top"
    return {"register": name, "width": str(width), "abstract": shape}


def cmd_absint(args: argparse.Namespace) -> int:
    from .absint import InvariantCache, MiningParams, analyze, mine_invariants
    from .faults.catalog import CORES
    from .perf import format_table as _format_table

    targets: list[tuple[str, object]] = []
    if args.program:
        _source, program, _labels = _load(args.program)
        machine = build_dlx_machine(
            program, config=_config_for(program, args.dmem_bits)
        )
        targets.append((args.program, transform(machine)))
    else:
        names = args.core or ["toy", "dlx-small"]
        for name in names:
            targets.append((name, transform(CORES[name].build_machine())))

    params = MiningParams()
    if args.cycles is not None:
        params = MiningParams(trace_cycles=args.cycles)
    cache = None
    if args.check and not args.no_cache:
        cache = InvariantCache(args.cache_dir)

    payload: list[dict] = []
    failed = False
    for name, pipelined in targets:
        module = pipelined.module
        fixpoint = analyze(
            module,
            widen_after=params.widen_after,
            max_iterations=params.max_iterations,
            rom_case_limit=params.rom_case_limit,
        )
        result = mine_invariants(
            pipelined,
            params=params,
            check=args.check,
            cache=cache,
            fixpoint=fixpoint,
        )
        print(f"== {name} ({module.name}) ==")
        rows = [
            _absint_value_row(reg_name, module.registers[reg_name].width, value)
            for reg_name, value in sorted(fixpoint.registers.items())
        ]
        if rows:
            print(_format_table(rows))
        verb = "proved" if result.checked else "conjectured"
        source = " (cached)" if result.from_cache else ""
        print(
            f"{result.candidates} candidate(s), {result.survivors} past the"
            f" trace filter, {len(result.proven)} {verb} in"
            f" {result.seconds:.2f}s{source}"
        )
        for invariant in result.proven:
            print(f"  {verb} [{invariant.kind}] {invariant.name}")
        if args.verbose and result.rejected:
            for cand, reason in sorted(result.rejected.items()):
                print(f"  rejected {cand}: {reason}")
        print()
        if args.check and result.survivors and not result.proven:
            failed = True
        payload.append(
            {
                "target": name,
                "registers": {
                    reg_name: {
                        "width": module.registers[reg_name].width,
                        "known": value.known,
                        "value": value.value,
                        "lo": value.lo,
                        "hi": value.hi,
                    }
                    for reg_name, value in sorted(fixpoint.registers.items())
                },
                "fixpoint_iterations": fixpoint.iterations,
                "mining": result.to_dict(include_exprs=False),
            }
        )

    if args.json:
        import json as _json

        with open(args.json, "w") as handle:
            _json.dump({"targets": payload}, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 1 if failed else 0


LINT_CORES = ("toy", "dlx", "dlx-spec", "superpipe")


def _lint_targets(args) -> list[tuple[str, object]]:
    """(name, PipelinedMachine) pairs selected by ``repro lint``."""
    from .dlx.programs import fibonacci
    from .dlx.speculative import build_dlx_spec_machine
    from .dlx.superpipe import build_superpipelined_dlx
    from .machine import toy

    options = TransformOptions(interlock_only=args.interlock_only)
    targets: list[tuple[str, object]] = []
    if args.program:
        _source, program, _labels = _load(args.program)
        machine = build_dlx_machine(
            program, config=_config_for(program, args.dmem_bits)
        )
        return [(args.program, transform(machine, options))]
    cores = LINT_CORES if args.core == "all" else (args.core,)
    workload = fibonacci()
    for core in cores:
        if core == "toy":
            program = [
                toy.li(1, 5),
                toy.li(2, 7),
                toy.add(3, 1, 2),
                toy.ld(1, 3),
                toy.add(2, 1, 1),
            ]
            machine = toy.build_toy_machine(program, {12: 99})
        elif core == "dlx":
            machine = build_dlx_machine(workload.program, data=workload.data)
        elif core == "dlx-spec":
            machine = build_dlx_spec_machine(workload.program)
        else:  # superpipe
            machine = build_superpipelined_dlx(
                workload.program, data=workload.data
            )
        targets.append((core, transform(machine, options)))
    return targets


def cmd_faults(args: argparse.Namespace) -> int:
    from .faults import CORES, OPERATORS, DetectParams, run_campaign

    if args.list:
        print("cores:")
        for name, spec in CORES.items():
            mark = "  (slow)" if spec.slow else ""
            print(f"  {name:<10} {spec.trace_cycles} trace cycles{mark}")
        print("operators:")
        for operator in OPERATORS:
            print(f"  {operator}")
        return 0

    params = DetectParams(trace_cycles=args.cycles, lanes=args.lanes)
    progress = None if args.quiet else print
    report = run_campaign(
        cores=args.core or None,
        operators=args.operator or None,
        max_per_operator=args.max_per_operator,
        params=params,
        progress=progress,
    )
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    print(report.format_text())
    # a surviving mutant (or dirty baseline) is a verifier soundness gap
    return 0 if report.ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint import LintConfig, LintResult, Severity, lint_pipeline, render
    from .lint import rule_table

    if args.list_rules:
        for rule in sorted(rule_table().values(), key=lambda r: r.rule_id):
            print(
                f"{rule.rule_id:<28} {rule.severity.label:<7}"
                f" {rule.target:<8} {rule.title}"
            )
            if rule.description:
                print(f"{'':37}{rule.description}")
        return 0

    config = LintConfig(
        disabled=set(args.disable or ()),
        max_delay=args.max_delay,
        max_cost=args.max_cost,
        enumerate_hazards=not args.no_hazard_pairs,
    )
    combined = LintResult()
    for _name, pipelined in _lint_targets(args):
        combined.extend(lint_pipeline(pipelined, config))

    # multi-target runs repeat findings for shared submodules; collapse
    # exact duplicates and emit in stable (rule, location) order
    combined = combined.deduplicated()
    rendered = render(combined, args.format)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
            handle.write("\n")
        print(f"{len(combined)} finding(s) written to {args.output}"
              f" ({combined.summary()})")
    else:
        print(rendered)

    threshold = Severity.parse(args.fail_on)
    return 1 if combined.at_least(threshold) else 0


def cmd_taint(args: argparse.Namespace) -> int:
    from .absint.fixpoint import shared_fixpoint
    from .faults.catalog import CORES
    from .lint import LintResult, lint_taint, render
    from .lint.taint import TaintAnalysis, taint_verdicts

    targets: list[tuple[str, object]] = []
    if args.program:
        _source, program, _labels = _load(args.program)
        machine = build_dlx_machine(
            program, config=_config_for(program, args.dmem_bits)
        )
        targets.append((args.program, transform(machine)))
    else:
        names = args.core or ["toy", "dlx-small", "dlx-spec"]
        for name in names:
            targets.append((name, transform(CORES[name].build_machine())))

    combined = LintResult()
    contradictions = 0
    for name, pipelined in targets:
        fixpoint = shared_fixpoint(pipelined.module)
        analysis = TaintAnalysis(pipelined, fixpoint=fixpoint)
        result = lint_taint(pipelined, fixpoint=fixpoint, analysis=analysis)
        combined.extend(result)
        verdicts = taint_verdicts(pipelined, analysis=analysis)
        clean = sum(1 for verdict in verdicts if verdict.clean)
        print(
            f"== {name} == {len(analysis.sources)} labeled source(s),"
            f" {len(verdicts)} policy sink(s), {clean} clean —"
            f" findings: {result.summary()}"
        )
        if args.check:
            from .formal.noninterference import crosscheck_policies

            entries = crosscheck_policies(
                pipelined, fixpoint=fixpoint, max_conflicts=args.max_conflicts
            )
            for entry in entries:
                verdict = entry.verdict
                if verdict.independent is True:
                    label = "independent"
                elif verdict.independent is False:
                    label = "dependent"
                else:
                    label = "unknown (conflict budget)"
                if verdict.vacuous:
                    label += " (vacuous)"
                agree = "CONTRADICTED" if entry.contradicted else "agrees"
                contradictions += int(entry.contradicted)
                print(
                    f"  {entry.rule:<22} {entry.path:<34}"
                    f" static={'clean' if entry.static_clean else 'tainted'}"
                    f" sat={label} {agree} ({verdict.seconds:.3f}s)"
                )

    combined = combined.deduplicated()
    rendered = render(combined, args.format)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
            handle.write("\n")
        print(f"{len(combined)} finding(s) written to {args.output}"
              f" ({combined.summary()})")
    elif len(combined) or args.format != "text":
        print(rendered)
    if contradictions:
        print(f"{contradictions} clean policy claim(s) CONTRADICTED by SAT")
    return 1 if combined.has_errors or contradictions else 0


def cmd_cost(args: argparse.Namespace) -> int:
    results = cost_versus_depth(depths=args.depths)
    print(format_table([r.row() for r in results]))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .jobs import EngineParams
    from .service import ChaosConfig, ServiceConfig, run_chaos, serve_forever
    from .service.chaos import write_report

    config = ServiceConfig(
        root=args.root,
        engine_jobs=args.jobs,
        solve_slots=args.slots,
        obligation_timeout=args.timeout,
        params=EngineParams(
            max_retries=args.max_retries,
            mem_limit_mb=args.mem_limit,
            cpu_limit_s=args.cpu_limit,
        ),
        max_queue=args.max_queue,
        tenant_active=args.tenant_active,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        use_cache=not args.no_cache,
        fsync_journal=args.fsync,
        recover=not args.no_recover,
    )
    if args.chaos:
        chaos = ChaosConfig(
            root=args.root,
            seed=args.seed,
            requests=args.chaos_requests,
            solve_slots=args.slots,
            engine_jobs=args.jobs or 2,
        )
        report = run_chaos(chaos)
        if args.chaos_report:
            path = write_report(report, args.chaos_report)
            print(f"chaos report written to {path}")
        print(
            f"chaos: {len(report.requests)} requests,"
            f" {sum(report.injected.values())} faults injected,"
            f" {report.recovered_jobs} jobs recovered,"
            f" {len(report.violations)} violation(s)"
            f" in {report.wall_seconds:.1f}s"
        )
        for violation in report.violations:
            print(f"  VIOLATION: {violation}")
        return 0 if report.ok else 1
    try:
        asyncio.run(serve_forever(config, host=args.host, port=args.port))
    except KeyboardInterrupt:  # pragma: no cover - Ctrl-C before drain
        pass
    return 0


def cmd_family(args: argparse.Namespace) -> int:
    import json as _json
    import time

    from .analysis.family import (
        FAMILIES,
        FamilyContext,
        analyze_family,
        crosscheck_family,
    )
    from .jobs.cache import FamilyCache
    from .jobs.engine import EngineParams, discharge_jobs
    from .lint import lint_family

    names = args.core or sorted(FAMILIES)
    unknown = [name for name in names if name not in FAMILIES]
    if unknown:
        print(f"unknown family core(s): {', '.join(unknown)}"
              f" (known: {', '.join(sorted(FAMILIES))})")
        return 2

    payload: list[dict] = []
    failed = False
    for name in names:
        spec = FAMILIES[name]
        params = EngineParams(trace_cycles=spec.trace_cycles)
        started = time.perf_counter()
        analysis = analyze_family(spec, params)
        seconds = time.perf_counter() - started
        certified = analysis.certified()
        print(
            f"== {name} == {len(certified)}/{len(analysis.certificates)}"
            f" obligation(s) certified width-parametric at"
            f" w0={spec.base_width} (widths {spec.widths},"
            f" analysis {seconds:.1f}s)"
        )
        reasons: dict[str, int] = {}
        for certificate in analysis.certificates.values():
            if not certificate.certified:
                reasons[certificate.reason] = reasons.get(certificate.reason, 0) + 1
        for reason, count in sorted(reasons.items(), key=lambda kv: -kv[1]):
            print(f"   not certified ({count}): {reason}")
        lint_result = lint_family(analysis)
        for diagnostic in lint_result.diagnostics:
            print(f"   {diagnostic.severity.label} {diagnostic.rule}"
                  f" {diagnostic.path}: {diagnostic.message}")
        entry = analysis.to_dict()
        entry["analysis_seconds"] = round(seconds, 3)
        entry["lint"] = [d.to_dict() for d in lint_result.diagnostics]
        if args.check and lint_result.has_errors:
            failed = True

        if args.check or args.crosscheck:
            sample = None if args.crosscheck else args.sample
            report = crosscheck_family(
                spec, params, sample=sample, analysis=analysis
            )
            checked = report.to_dict()
            entry["crosscheck"] = checked
            contradicted = checked["contradicted"]
            scope = "all" if sample is None else f"sample of {len(checked['checked'])}"
            print(
                f"   crosscheck ({scope} at widths"
                f" {spec.base_width}/{spec.check_width}):"
                f" {len(contradicted)} CONTRADICTED"
            )
            for oid in contradicted:
                print(f"     CONTRADICTED {oid}: {checked['statuses'][oid]}")
                failed = True

        if args.width_sweep:
            cache = FamilyCache(args.cache_dir)
            sweep: list[dict] = []
            for width in spec.widths:
                pipelined = spec.instance(width)
                obligations = generate_obligations(pipelined)
                context = FamilyContext(analysis, width, cache)
                started = time.perf_counter()
                report = discharge_jobs(
                    pipelined, obligations, params=params, family=context
                )
                wall = time.perf_counter() - started
                print(
                    f"   width {width}: {len(report.outcomes)} obligation(s)"
                    f" in {wall:.2f}s — served {context.served},"
                    f" seeded {context.seeded}"
                )
                sweep.append(
                    {
                        "width": width,
                        "wall_seconds": round(wall, 3),
                        "outcomes": len(report.outcomes),
                        "served": context.served,
                        "seeded": context.seeded,
                        "failed": report.failed,
                    }
                )
                if report.failed:
                    failed = True
            entry["width_sweep"] = sweep
        payload.append(entry)

    if args.json:
        with open(args.json, "w") as handle:
            _json.dump({"families": payload}, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 1 if failed else 0


def cmd_cache(args: argparse.Namespace) -> int:
    import json as _json

    from .absint.cache import InvariantCache
    from .jobs.cache import FamilyCache, ResultCache

    family = FamilyCache(args.cache_dir)
    payload: dict[str, dict] = {}
    for store in (
        ResultCache(args.cache_dir), family, InvariantCache(args.cache_dir)
    ):
        if args.action == "stats":
            entry = store.disk_stats()
        elif args.action == "verify":
            entry = store.verify()
        elif args.action == "gc":
            entry = store.gc(
                max_age_s=args.max_age_s,
                max_bytes=args.max_bytes,
                dry_run=args.dry_run,
            )
        else:  # clear
            entry = {"removed": store.clear()}
        payload[store.namespace] = entry
    if args.action == "stats":
        payload["family"]["widths"] = {
            str(width): count for width, count in family.width_histogram().items()
        }
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        for namespace, entry in payload.items():
            print(f"[{namespace}]")
            for key, value in entry.items():
                print(f"{key:>14}: {value}")
    evicted = sum(entry.get("evicted", 0) for entry in payload.values())
    if evicted:
        # evictions self-heal the store; surface them without failing
        # (on stderr, so --json output stays one JSON document)
        print(f"note: {evicted} corrupt record(s) evicted", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="assemble and execute a program")
    run_parser.add_argument("program", help="DLX assembly file")
    run_parser.add_argument(
        "--machine",
        choices=("pipelined", "interlock", "seq"),
        default="pipelined",
    )
    run_parser.add_argument(
        "--style", choices=("chain", "tree", "bus"), default="chain"
    )
    run_parser.add_argument("--cycles", type=int, default=0)
    run_parser.add_argument(
        "--dmem-bits", type=int, default=6,
        help="data memory size in address bits (words)",
    )
    run_parser.add_argument("--vcd", help="dump waveforms to this file")
    run_parser.add_argument(
        "--list", action="store_true", help="print a disassembly listing first"
    )
    run_parser.add_argument(
        "--pipeview",
        type=int,
        default=0,
        metavar="N",
        help="print a pipeline occupancy diagram for the first N instructions",
    )
    run_parser.set_defaults(func=cmd_run)

    verify_parser = sub.add_parser(
        "verify", help="transform a program's machine and discharge the proofs"
    )
    verify_parser.add_argument("program", help="DLX assembly file")
    verify_parser.add_argument("--cycles", type=int, default=150)
    verify_parser.add_argument(
        "--dmem-bits", type=int, default=6,
        help="data memory size in address bits (words)",
    )
    verify_parser.set_defaults(func=cmd_verify)

    discharge_parser = sub.add_parser(
        "discharge",
        aliases=["jobs"],
        help="discharge the proof obligations with caching and a worker pool",
    )
    discharge_parser.add_argument("program", help="DLX assembly file")
    discharge_parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes (default: all CPUs)",
    )
    discharge_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-obligation wall-clock budget; overruns become 'unknown'",
    )
    discharge_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk result cache entirely",
    )
    discharge_parser.add_argument(
        "--cache-dir", default=".repro-cache",
        help="cache location (default: %(default)s)",
    )
    discharge_parser.add_argument(
        "--json", metavar="FILE", help="also write the structured report here"
    )
    discharge_parser.add_argument(
        "--profile", action="store_true",
        help="print a per-obligation table of wall-clock, solver conflicts"
        " and peak unrolled frames (hottest first)",
    )
    discharge_parser.add_argument("--max-k", type=int, default=2)
    discharge_parser.add_argument("--bmc-bound", type=int, default=8)
    discharge_parser.add_argument(
        "--cycles", type=int, default=150, help="trace-check stimulus length"
    )
    discharge_parser.add_argument(
        "--dmem-bits", type=int, default=6,
        help="data memory size in address bits (words)",
    )
    discharge_parser.add_argument(
        "--no-lint", action="store_true",
        help="skip the static-lint gate that fails obligations fast on"
        " ERROR-level findings",
    )
    discharge_parser.add_argument(
        "--no-taint", action="store_true",
        help="skip the taint gate that fails obligations fast when a"
        " speculation non-interference policy is violated",
    )
    discharge_parser.add_argument(
        "--max-retries", type=int, default=1, metavar="N",
        help="relaunches granted to a crashed (signalled) worker before the"
        " obligation is quarantined as 'crashed' (default: %(default)s)",
    )
    discharge_parser.add_argument(
        "--mem-limit", type=int, default=None, metavar="MB",
        help="rlimit address-space cap per solver worker, in MiB",
    )
    discharge_parser.add_argument(
        "--cpu-limit", type=int, default=None, metavar="SECONDS",
        help="rlimit CPU-time cap per solver worker, in seconds",
    )
    discharge_parser.add_argument(
        "--no-absint", action="store_true",
        help="skip abstract-interpretation invariant mining (obligations"
        " are discharged without mined strengthening assumptions)",
    )
    discharge_parser.set_defaults(func=cmd_discharge)

    absint_parser = sub.add_parser(
        "absint",
        help="abstract-interpretation fixpoint dump and invariant mining",
    )
    absint_parser.add_argument(
        "program", nargs="?", default=None,
        help="DLX assembly file to analyse (default: the built-in cores)",
    )
    absint_parser.add_argument(
        "--core", action="append", metavar="NAME",
        choices=("toy", "dlx-small", "dlx", "dlx-spec"),
        help="built-in core(s) to analyse when no program is given"
        " (repeatable; default: toy and dlx-small)",
    )
    absint_parser.add_argument(
        "--check", action="store_true",
        help="SAT-verify the mined candidates (simultaneous induction);"
        " without this the output is trace-filtered conjectures only",
    )
    absint_parser.add_argument(
        "--cycles", type=int, default=None,
        help="trace-filter stimulus length (default: 64)",
    )
    absint_parser.add_argument(
        "--json", metavar="FILE", help="write the structured report here"
    )
    absint_parser.add_argument(
        "--verbose", action="store_true",
        help="also list rejected candidates with their rejection reasons",
    )
    absint_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk invariant cache",
    )
    absint_parser.add_argument(
        "--cache-dir", default=".repro-cache",
        help="cache location (default: %(default)s)",
    )
    absint_parser.add_argument(
        "--dmem-bits", type=int, default=6,
        help="data memory size in address bits (words; program files only)",
    )
    absint_parser.set_defaults(func=cmd_absint)

    faults_parser = sub.add_parser(
        "faults",
        help="mutation-test the verifier: inject pipeline defects and demand"
        " every one is detected",
    )
    faults_parser.add_argument(
        "--core", action="append", metavar="NAME",
        help="core(s) to mutate (repeatable; default: every non-slow core;"
        " see --list)",
    )
    faults_parser.add_argument(
        "--operator", action="append", metavar="NAME",
        help="restrict to these mutation operators (repeatable)",
    )
    faults_parser.add_argument(
        "--max-per-operator", type=int, default=None, metavar="N",
        help="cap the mutants drawn from each operator",
    )
    faults_parser.add_argument(
        "--cycles", type=int, default=None,
        help="override the per-core trace-check stimulus length",
    )
    faults_parser.add_argument(
        "--lanes", type=int, default=64, metavar="N",
        help="bit-parallel lanes for the trace stage: chunks of N-1 mutants"
        " simulate in lockstep with the golden design (1 = per-vector;"
        " verdicts are identical either way; default: %(default)s)",
    )
    faults_parser.add_argument(
        "--json", metavar="FILE",
        help="write the mutation-coverage report here",
    )
    faults_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-mutant progress"
    )
    faults_parser.add_argument(
        "--list", action="store_true",
        help="print the available cores and operators and exit",
    )
    faults_parser.set_defaults(func=cmd_faults)

    lint_parser = sub.add_parser(
        "lint", help="static analysis of netlists and generated pipelines"
    )
    lint_parser.add_argument(
        "program", nargs="?", default=None,
        help="DLX assembly file to lint (default: the built-in cores)",
    )
    lint_parser.add_argument(
        "--core", choices=LINT_CORES + ("all",), default="all",
        help="which built-in core(s) to lint when no program is given",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    lint_parser.add_argument(
        "--output", metavar="FILE", help="write the report here instead of stdout"
    )
    lint_parser.add_argument(
        "--fail-on", choices=("info", "warning", "error"), default="error",
        help="exit nonzero if any finding at or above this severity"
        " (default: %(default)s)",
    )
    lint_parser.add_argument(
        "--disable", action="append", metavar="RULE",
        help="disable a rule id (repeatable)",
    )
    lint_parser.add_argument(
        "--max-delay", type=float, default=None,
        help="warn when a combinational cone exceeds this many gate delays",
    )
    lint_parser.add_argument(
        "--max-cost", type=float, default=None,
        help="warn when a module exceeds this many gate equivalents",
    )
    lint_parser.add_argument(
        "--no-hazard-pairs", action="store_true",
        help="omit the INFO-level RAW-pair enumeration",
    )
    lint_parser.add_argument(
        "--interlock-only", action="store_true",
        help="lint the interlock-only (no forwarding) transformation",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    lint_parser.add_argument(
        "--dmem-bits", type=int, default=6,
        help="data memory size in address bits (words)",
    )
    lint_parser.set_defaults(func=cmd_lint)

    taint_parser = sub.add_parser(
        "taint",
        help="speculation-aware information-flow taint analysis with"
        " SAT-cross-checked non-interference policies",
    )
    taint_parser.add_argument(
        "program", nargs="?", default=None,
        help="DLX assembly file to analyse (default: the built-in cores)",
    )
    taint_parser.add_argument(
        "--core", action="append", metavar="NAME",
        choices=("toy", "dlx-small", "dlx", "dlx-spec"),
        help="built-in core(s) to analyse when no program is given"
        " (repeatable; default: toy, dlx-small and dlx-spec)",
    )
    taint_parser.add_argument(
        "--check", action="store_true",
        help="cross-check every absence-of-flow policy verdict against a"
        " two-copy SAT non-interference query",
    )
    taint_parser.add_argument(
        "--max-conflicts", type=int, default=200_000, metavar="N",
        help="conflict budget per SAT query (default: %(default)s)",
    )
    taint_parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    taint_parser.add_argument(
        "--output", metavar="FILE",
        help="write the findings report here instead of stdout",
    )
    taint_parser.add_argument(
        "--dmem-bits", type=int, default=6,
        help="data memory size in address bits (words; program files only)",
    )
    taint_parser.set_defaults(func=cmd_taint)

    cost_parser = sub.add_parser("cost", help="forwarding cost vs pipeline depth")
    cost_parser.add_argument(
        "--depths", type=int, nargs="+", default=[4, 6, 8, 12, 16]
    )
    cost_parser.set_defaults(func=cmd_cost)

    serve_parser = sub.add_parser(
        "serve",
        help="run the crash-tolerant multi-tenant discharge server"
        " (NDJSON verdict streaming, write-ahead journal, chaos harness)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8745, help="0 picks a free port"
    )
    serve_parser.add_argument(
        "--root", default=".repro-service",
        help="service state directory: verdict cache + job journal"
        " (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--slots", type=int, default=2, metavar="N",
        help="concurrent discharge runs (default: %(default)s)",
    )
    serve_parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes per discharge run (default: all CPUs)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-obligation wall-clock budget",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=32, metavar="N",
        help="queued jobs beyond which requests are shed with 429"
        " + Retry-After (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--tenant-active", type=int, default=4, metavar="N",
        help="in-flight jobs allowed per tenant (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive crashy jobs before a tenant is quarantined"
        " (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="quarantine duration (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="crashed-worker relaunches per obligation (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--mem-limit", type=int, default=None, metavar="MB",
        help="rlimit address-space cap per solver worker, in MiB",
    )
    serve_parser.add_argument(
        "--cpu-limit", type=int, default=None, metavar="SECONDS",
        help="rlimit CPU-time cap per solver worker, in seconds",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the on-disk verdict cache",
    )
    serve_parser.add_argument(
        "--fsync", action="store_true",
        help="fsync every journal append (survives power loss, not just"
        " process death)",
    )
    serve_parser.add_argument(
        "--no-recover", action="store_true",
        help="skip journal recovery of accepted-but-undischarged jobs",
    )
    serve_parser.add_argument(
        "--chaos", action="store_true",
        help="run the chaos-injection campaign against a live server"
        " instead of serving: worker SIGKILLs, cache corruption, journal"
        " truncation, solver stalls and client disconnects under load,"
        " then a kill/recover phase; exits nonzero on any integrity"
        " violation",
    )
    serve_parser.add_argument(
        "--chaos-requests", type=int, default=12, metavar="N",
        help="concurrent client requests in the chaos campaign",
    )
    serve_parser.add_argument(
        "--chaos-report", metavar="FILE",
        help="write the chaos report JSON here",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=7, help="chaos campaign RNG seed"
    )
    serve_parser.set_defaults(func=cmd_serve)

    cache_parser = sub.add_parser(
        "cache",
        help="maintain the on-disk record store (discharge verdicts,"
        " family verdicts, mined invariants): stats, checksum"
        " verification, garbage collection",
    )
    cache_parser.add_argument(
        "action", choices=("stats", "verify", "gc", "clear"),
        help="each action covers every namespace. stats: on-disk shape;"
        " verify: load every record through the checksum gauntlet,"
        " evicting corrupt ones; gc: prune by age and bound each"
        " namespace's size (oldest evicted first), always removing"
        " orphaned temp files; clear: delete every record",
    )
    cache_parser.add_argument(
        "--cache-dir", default=".repro-cache",
        help="cache location (default: %(default)s)",
    )
    cache_parser.add_argument(
        "--max-age-s", type=float, default=None, metavar="SECONDS",
        help="gc: evict records older than this",
    )
    cache_parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="gc: evict oldest records until each namespace fits this budget",
    )
    cache_parser.add_argument(
        "--dry-run", action="store_true",
        help="gc: report what would be removed without touching anything",
    )
    cache_parser.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    cache_parser.set_defaults(func=cmd_cache)

    family_parser = sub.add_parser(
        "family",
        help="width-parametricity certificates: analyze, audit and sweep"
        " the datapath width families",
    )
    family_parser.add_argument(
        "--core", action="append", metavar="NAME",
        help="family core(s) to analyze (default: all; repeatable)",
    )
    family_parser.add_argument(
        "--check", action="store_true",
        help="fail on family lint errors and on a crosscheck sample"
        " (re-prove certified obligations family-off at two widths;"
        " any verdict mismatch is CONTRADICTED and fails)",
    )
    family_parser.add_argument(
        "--crosscheck", action="store_true",
        help="audit every certified obligation at both analysis widths"
        " (not just the --check sample)",
    )
    family_parser.add_argument(
        "--sample", type=int, default=5, metavar="N",
        help="certified obligations per core to crosscheck under --check"
        " (default: %(default)s)",
    )
    family_parser.add_argument(
        "--width-sweep", action="store_true",
        help="discharge every member width with a family cache, reporting"
        " served/seeded counts per width",
    )
    family_parser.add_argument(
        "--cache-dir", default=".repro-cache",
        help="family cache location for --width-sweep (default: %(default)s)",
    )
    family_parser.add_argument(
        "--json", metavar="FILE", help="write the structured report here"
    )
    family_parser.set_defaults(func=cmd_family)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
