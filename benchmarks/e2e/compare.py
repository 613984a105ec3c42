"""Judge a change against its parent from alternating benchmark runs.

Usage::

    python3 benchmarks/e2e/compare.py --parent P1.json ... --change C1.json ...

Each file is a ``run.py --out`` result (``{"runs": [...]}``); runs are
paired in order, parent *i* with change *i*, and at least ``MIN_PAIRS``
pairs are required.  For every (workload, end-to-end metric) the script
prints each side's median and quartiles and a verdict:

``regression``  the change's median is worse than the parent's by more
                than the metric's bound in ``BENCHMARK.json``;
``gain``        the change wins at least 9 of 10 pairs (ties count for
                neither) and the medians differ by more than the parent's
                inter-quartile distance;
``unresolved``  either side's spread (IQR over median) exceeds the bound,
                unless every change run beats every parent run;
``same``        none of the above.

End-to-end times are paced (``pace.py``).  Each workload also gets a
``raw_wall_s`` row, the unpaced median round, judged like ``wall_s``; a
``wall_s`` gain whose raw medians do not also favour the change is
reported as ``unresolved``, so a gain cannot come from the pacing alone.

The exit status is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

MIN_PAIRS = 10
GAIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's paired samples; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pmed, p3 = stats.quartiles(parent)
    c1, cmed, c3 = stats.quartiles(change)
    worse = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pairs = min(len(parent), len(change))
    every = (
        max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    )
    noisy = max(stats.spread(parent), stats.spread(change)) > bound
    if noisy and not every:
        label = "unresolved"
    elif worse > bound:
        label = "regression"
    elif (
        worse < 0
        and wins >= GAIN_SHARE * pairs
        and abs(cmed - pmed) > p3 - p1
    ):
        label = "gain"
    else:
        label = "same"
    return {
        "parent": (p1, pmed, p3),
        "change": (c1, cmed, c3),
        "worse": worse,
        "wins": wins,
        "pairs": pairs,
        "verdict": label,
    }


def samples(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` in run order over ``paths``."""
    out: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        with open(path) as handle:
            for run in json.load(handle)["runs"]:
                for metric, entry in run["metrics"].items():
                    out.setdefault((run["workload"], metric), []).append(
                        entry["value"]
                    )
                if "raw_wall_s" in run:
                    out.setdefault((run["workload"], "raw_wall_s"), []).append(
                        run["raw_wall_s"]
                    )
    return out


def compare(parent_paths, change_paths, benchmark: dict) -> list[dict]:
    parent, change = samples(parent_paths), samples(change_paths)
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    specs["raw_wall_s"] = specs.get("wall_s")
    rows = []
    for (workload, metric), before in sorted(parent.items()):
        spec = specs.get(metric)
        after = change.get((workload, metric))
        if spec is None or not after:
            continue
        row = verdict(before, after, spec["better"], spec["bound"])
        rows.append({"workload": workload, "metric": metric, **row})
    raw = {r["workload"]: r for r in rows if r["metric"] == "raw_wall_s"}
    for row in rows:
        if row["metric"] == "wall_s" and row["verdict"] == "gain" and not (
            row["workload"] in raw and raw[row["workload"]]["worse"] < 0
        ):
            row["verdict"] = "unresolved"
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument(
        "--benchmark", default=str(HERE.parents[1] / "BENCHMARK.json")
    )
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    rows = compare(args.parent, args.change, benchmark)
    short = [r for r in rows if r["pairs"] < MIN_PAIRS]
    if not rows or short:
        print(f"need at least {MIN_PAIRS} parent/change pairs per metric",
              file=sys.stderr)
        return 2
    print(f"{'workload':<8} {'metric':<14} {'parent q1/med/q3':>30}"
          f" {'change q1/med/q3':>30} {'worse':>7} {'wins':>6}  verdict")
    for r in rows:
        parent = "/".join(f"{v:.4g}" for v in r["parent"])
        change = "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:<8} {r['metric']:<14} {parent:>30} {change:>30}"
              f" {r['worse']:>+7.1%} {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
