"""The end-to-end benchmark of record.

Usage (from the root of a source checkout)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--trace-out FILE] [--out FILE]

Each workload runs in a fresh interpreter (``workloads.py``).  Set-up is
timed from interpreter start to the first timed round in ``SETUPS``
interpreters (the measuring one and set-up-only ones before it), and
reported as the median plus the workload's own preparation (the warm
cache's priming pass, the service's server spawn).  Every time is paced
(``pace.py``).
With ``--trace 0`` the runner prints every end-to-end metric as
``workload metric value unit`` with its sample count, median, IQR and
min.  With ``--trace 1`` it runs the traced rounds instead and prints
the per-layer metrics and the self-time table.  The last line of
standard output is one JSON object
per workload: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 0 only when every verdict matched ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import (  # noqa: E402
    E2E,
    LAYER,
    PERCENTILES,
    TIMED_LAYERS,
    WORKLOADS,
    e2e_values,
)

SETUPS = 3  # interpreters whose set-up time is measured per workload
CHILD_TIMEOUT = 170.0  # seconds one workload may take in total


def run_child(argv: list[str], env: dict, deadline: float):
    """Run one workload interpreter; returns ``(exit code, paced set-up
    seconds or None, result dict or None)``."""
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [*argv, "--spawned", repr(spawned)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    lines: list[str] = []

    def pump() -> None:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None, None, None
    finally:
        if proc.poll() is None:  # timed out, or this run is terminating
            proc.terminate()
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        reader.join(5.0)
    setup = None
    result = None
    for line in lines:
        if line.startswith("E2E-READY "):
            setup = float(line.split()[1])
        elif line.startswith("E2E-RESULT "):
            result = json.loads(line[len("E2E-RESULT "):])
        else:
            print(line, file=sys.stderr)
    return proc.returncode, setup, result


def run_workload(name: str, args, work: Path) -> dict | None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["TMPDIR"] = str(work)
    # string hashing, and with it set and dict order, the same in every
    # interpreter: under a random hash seed the order verdicts stream in,
    # and so which verdict a latency percentile lands on, varied from
    # interpreter to interpreter, and the sweep's median verdict latency
    # with it by 10%
    env["PYTHONHASHSEED"] = "0"
    work.mkdir(parents=True, exist_ok=True)
    base = [
        sys.executable, str(HERE / "workloads.py"),
        name, str(args.seed), str(args.seconds), str(args.trace),
        str(work / name),
    ]
    if args.trace:
        extra = ["--chrome", args.trace_out] if args.trace_out else []
        return set_up_and_run(name, [*base, *extra], env, 1)
    result = set_up_and_run(name, base, env, SETUPS)
    if result is not None:
        result["values"], result["samples"] = e2e_values(result)
    return result


def set_up_and_run(name: str, base: list[str], env: dict, set_ups: int) -> dict | None:
    """``set_ups - 1`` set-up-only interpreters, then the measuring one;
    returns its result with every interpreter's paced set-up seconds."""
    deadline = time.perf_counter() + CHILD_TIMEOUT
    setups: list[float] = []
    for _ in range(set_ups - 1):
        code, setup, _ = run_child([*base, "--setup-only"], env, deadline)
        if code != 0 or setup is None:
            print(f"{name}: set-up interpreter failed ({code})", file=sys.stderr)
            return None
        setups.append(setup)
    code, setup, result = run_child(base, env, deadline)
    if code != 0 or result is None or setup is None:
        print(f"{name}: workload interpreter failed ({code})", file=sys.stderr)
        return None
    result["setups"] = [*setups, setup]
    return result


def report(name: str, args, result: dict) -> dict:
    """Print one workload's metric lines; returns its ``--out`` record."""
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and attempted > 0
    metrics: dict[str, dict] = {}
    extra: dict[str, float] = {}
    if args.trace:
        for metric, unit in LAYER.items():
            value = result["values"][metric]
            metrics[metric] = {"value": value, "unit": unit}
            print(f"{name} {metric} {value:.6g} {unit}")
        self_times = {layer: result["values"][f"{layer}_s"] for layer in TIMED_LAYERS}
        wall = result["values"]["trace.wall_s"]
        print(f"{name} self time per traced round (wall {wall:.3f}s):")
        for layer, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<22} {seconds:9.4f}s {seconds / wall:7.1%}")
        print(f"  {'trace.coverage':<22} {result['values']['trace.coverage']:.4f}")
    else:
        for metric, (unit, _) in E2E.items():
            value = result["values"][metric]
            summary = stats.summarize(result["samples"][metric])
            metrics[metric] = {"value": value, "unit": unit, **summary}
            note = ""
            if metric in PERCENTILES:
                per_round = len(result["rounds"][0]["latencies"])
                tail = stats.beyond(per_round, PERCENTILES[metric])
                note = f" beyond={tail}/{per_round} per round" + (
                    " (fewer than 10 samples beyond)"
                    if tail < stats.MIN_BEYOND
                    else ""
                )
            print(
                f"{name} {metric} {value:.6g} {unit}"
                f" n={summary['n']} median={summary['median']:.6g}"
                f" iqr={summary['iqr']:.4g} min={summary['min']:.6g}{note}"
            )
        print(f"{name} fail_ratio {failed / max(1, attempted):.6g} fraction")
        # for compare.py's check that a paced gain is a raw one too
        extra["raw_wall_s"] = statistics.median(r["raw"] for r in result["rounds"])
        print(f"{name} raw_wall_s {extra['raw_wall_s']:.6g} s (median round, not paced)")
    for problem in result["problems"]:
        print(f"{name} MISMATCH {problem}", file=sys.stderr)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v["value"], "unit": v["unit"]} for m, v in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": result["traced_rounds"] if args.trace else len(result["rounds"]),
        **line,
        "metrics": metrics,
        **extra,
        "problems": result["problems"],
    }


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced rounds and per-layer metrics")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1: Chrome trace-event JSON of the"
                        " traced rounds (one workload per file)")
    parser.add_argument("--out", metavar="FILE",
                        help="write every run's metrics with their summaries")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {ROOT}: run from a source checkout",
              file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    if args.trace_out and len(workloads) > 1:
        print("--trace-out takes one workload", file=sys.stderr)
        return 2
    # a terminated run stops its workload interpreter and removes its files
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".e2e-work" / str(os.getpid())
    runs: list[dict] = []
    status = 0
    try:
        for name in workloads:
            result = run_workload(name, args, work)
            if result is None:
                return 3
            record = report(name, args, result)
            runs.append(record)
            if not record["correct"]:
                status = 1
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass
        if args.out and runs:
            with open(args.out, "w") as handle:
                json.dump({"runs": runs}, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
