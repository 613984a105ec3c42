"""Self-tests of the end-to-end benchmark (``pytest benchmarks/e2e -q``).

The batch-workload tests run toy-only, one-round versions of the real
workloads in this process, so they take seconds.
"""

from __future__ import annotations

import gc
import itertools
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import known  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tree = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 3.0, 6.0, parent=0),  # overlaps a: union 1..6
        spans.Span("leaf", 1.5, 2.5, parent=1),
        spans.Span("a", 8.0, 9.0, parent=0),
    ]
    times = spans.self_times(tree)
    assert times["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert times["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert times["b"] == pytest.approx(3.0)
    assert times["leaf"] == pytest.approx(1.0)
    # self times of a tree add up to the root's duration
    assert sum(times.values()) == pytest.approx(10.0 + 1.0)


def test_wrappers_record_nested_spans_and_restore_originals():
    from repro.jobs import engine

    original = engine._solver_record
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert engine._solver_record is not original
    finally:
        uninstall()
    assert engine._solver_record is original
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0]


# -- statistics ----------------------------------------------------------------


def test_nearest_rank_percentiles_and_tail_counts():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 0.50) == 50.0
    assert stats.percentile(values, 0.95) == 95.0
    assert stats.percentile([3.0], 0.95) == 3.0
    assert stats.beyond(100, 0.95) == 5
    assert stats.beyond(200, 0.95) == stats.MIN_BEYOND
    assert stats.beyond(0, 0.95) == 0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_e2e_values_are_medians_over_rounds_and_set_ups():
    rounds = [
        workloads.Round(4.0, 6.0, 8, [1.0, 3.0], 5.0),
        workloads.Round(6.0, 7.0, 8, [2.0, 5.0], 6.0),
        workloads.Round(20.0, 30.0, 8, [9.0, 9.0], 20.0),  # one slow round
    ]
    result = {
        "rounds": [asdict(r) for r in rounds],
        "prep": [2.0, 3.0, 1.0],
        "setups": [1.0, 0.5, 2.0],
        "peak_mib": 5.0,
    }
    values, samples = workloads.e2e_values(result)
    # each round's own percentile, then the median over rounds
    assert values == pytest.approx({
        "setup_s": 3.0, "wall_s": 6.0, "cpu_s": 7.0, "peak_rss_mb": 5.0,
        "latency_p50_s": 2.0, "latency_p95_s": 5.0, "ops_per_s": 24 / 30,
    })
    assert samples["latency_p50_s"] == [1.0, 2.0, 9.0]
    assert len(samples["setup_s"]) == 3 and len(samples["wall_s"]) == 3


def test_timeline_leaves_probes_out_and_rescales_between_them():
    r = pace.REFERENCE_S
    # the host at half pace for the first two probes, then at full pace
    timeline = pace.Timeline([(0.0, 2 * r, 2 * r), (10.0, 10.0 + 2 * r, 2 * r),
                              (20.0, 20.0 + r, r)])
    assert timeline.raw(0.0, 10.0) == pytest.approx(10.0 - 2 * r)
    assert timeline.paced(0.0, 10.0) == pytest.approx((10.0 - 2 * r) / 2)
    assert timeline.paced(10.0 + 2 * r, 20.0) == pytest.approx((10.0 - 2 * r) * 2 / 3)
    assert timeline.paced(0.0, r) == 0.0  # inside a probe
    assert timeline.paced(-1.0, 0.0) == pytest.approx(0.5)  # before the first
    assert timeline.paced(20.0 + r, 25.0 + r) == pytest.approx(5.0)  # after the last


def test_sampler_probes_until_its_block_ends():
    with pace.Sampler() as sampler:
        time.sleep(3 * pace.INTERVAL_S)
    count = len(sampler.samples)
    time.sleep(2 * pace.INTERVAL_S)
    assert count >= 2 and len(sampler.samples) == count
    starts = [start for start, _, _ in sampler.samples]
    assert starts == sorted(starts)
    # the timed second run lies inside the probe
    assert all(0 < seconds < end - start for start, end, seconds in sampler.samples)


def test_probe_never_collects_the_programs_heap():
    collections = []

    def seen(phase, info):
        collections.append(phase)

    threshold = gc.get_threshold()
    gc.set_threshold(1)
    gc.callbacks.append(seen)
    try:
        pace._probe()
    finally:
        gc.callbacks.remove(seen)
        gc.set_threshold(*threshold)
    assert collections == [] and gc.isenabled()


def test_summary_quartiles_match_statistics_quantiles():
    summary = stats.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (summary["n"], summary["median"], summary["min"]) == (5, 3.0, 1.0)
    assert summary["iqr"] == pytest.approx(4.5 - 1.5)
    assert stats.spread([10.0, 10.0, 10.0]) == 0.0


# -- known answers -------------------------------------------------------------


def test_table_pins_every_machine_with_final_statuses():
    table = known.load()
    assert set(table) == {
        known.machine_key(core, width)
        for core, widths in known.WIDTHS.items()
        for width in widths
    }
    for verdicts in table.values():
        assert set(verdicts.values()) <= {"proved", "trace-ok"}


def test_mismatches_name_missing_extra_and_flipped():
    expected = {"a": "proved", "b": "trace-ok"}
    assert known.mismatches(expected, dict(expected)) == []
    problems = known.mismatches(expected, {"a": "bounded", "c": "proved"})
    assert problems == ["missing b", "extra c", "a: bounded != proved"]


# -- the runner ----------------------------------------------------------------


@pytest.fixture
def toy_only(monkeypatch, tmp_path):
    """Batch workloads reduced to the toy core (and the toy family)."""
    monkeypatch.setattr(workloads, "CORE_ORDER", ("toy",))
    monkeypatch.setattr(workloads, "SWEEP_FAMILY", "toy")
    return tmp_path


def _in_process(name: str, trace: bool, work: Path, table) -> dict:
    with pace.Sampler() as sampler:
        # as in workloads.main: traced rounds run without probes
        ready = sampler.stop if trace else (lambda: None)
        result = workloads.run_batch(
            name, 0.0, trace, work / name, table, ready, None, sampler
        )
    if not trace:
        result["setups"] = [1.0]
        result["values"], result["samples"] = workloads.e2e_values(result)
    return result


def _main(monkeypatch, capsys, result, name, trace) -> tuple[int, dict]:
    monkeypatch.setattr(run, "run_workload", lambda *_: result)
    code = run.main(["--workload", name, "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, last


@pytest.mark.parametrize("name", ["cold", "warm", "sweep"])
@pytest.mark.parametrize("trace", [0, 1])
def test_one_round_prints_every_benchmark_metric(
    toy_only, monkeypatch, capsys, name, trace
):
    result = _in_process(name, bool(trace), toy_only, known.load())
    code, last = _main(monkeypatch, capsys, result, name, trace)
    section = "per_layer" if trace else "end_to_end"
    assert code == 0
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert sorted(last["metrics"]) == sorted(m["name"] for m in BENCHMARK[section])
    for metric in BENCHMARK[section]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert last["metrics"]["trace.coverage"]["value"] >= 0.95
    else:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_flipped_status_fails_the_run(toy_only, monkeypatch, capsys):
    table = known.load()
    rigged = {key: dict(verdicts) for key, verdicts in table.items()}
    oid = sorted(rigged["toy@8"])[0]
    rigged["toy@8"][oid] = "trace-ok" if rigged["toy@8"][oid] == "proved" else "proved"
    result = _in_process("cold", False, toy_only, rigged)
    monkeypatch.setattr(run, "run_workload", lambda *_: result)
    code = run.main(["--workload", "cold"])
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    fail_ratio = float(
        next(line for line in out.splitlines() if " fail_ratio " in line).split()[2]
    )
    assert code != 0
    assert fail_ratio > 0 and last["failed"] >= 1 and not last["correct"]


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == (
        workloads.E2E
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == workloads.LAYER
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_request_mix_is_seeded_with_fixed_solves_and_distinct_count():
    mix = workloads.request_mix(7)
    assert mix == workloads.request_mix(7) != workloads.request_mix(8)
    assert len(mix) == workloads.REQUESTS
    assert len(set(mix)) == workloads.DISTINCT
    assert mix[: len(workloads.SOLVING)] == list(workloads.SOLVING)
    assert set(workloads.SERVED_DLX) <= set(mix)
    assert {core for core, _, _ in mix} == {"toy", "dlx-small"}
    table = known.load()
    assert all(known.machine_key(c, w) in table for c, w, _ in mix)


def test_repeats_wait_for_every_distinct_job(monkeypatch):
    from repro.service import client as service_client

    calls = itertools.count()
    spans_by_call: dict[int, tuple[float, float]] = {}

    class Client:
        """Answers at once, except that the solving jobs take a while, so
        without the wait the other client's first repeats would overlap
        them."""

        def __init__(self, *_, **__):
            pass

        def stream(self, machine, params):
            call, start = next(calls), time.perf_counter()
            if call < len(workloads.SOLVING):
                time.sleep(0.05)
            spans_by_call[call] = (start, time.perf_counter())
            return service_client.DischargeResult(status=200)

    monkeypatch.setattr(service_client, "ServiceClient", Client)
    mix = workloads.request_mix(3)
    _, _, done = workloads.drive("127.0.0.1", 0, mix, known.load(), workloads.Tally())
    assert len(done) == len(spans_by_call) == len(mix)
    last_distinct = max(spans_by_call[i][1] for i in range(workloads.DISTINCT))
    first_repeat = min(
        spans_by_call[i][0] for i in range(workloads.DISTINCT, len(mix))
    )
    assert last_distinct <= first_repeat


# -- compare.py ----------------------------------------------------------------


def _runs(path: Path, values: list[float], raw: list[float] | None = None) -> str:
    """A ``run.py --out`` file of cold runs; the raw round time follows
    the paced one unless ``raw`` says otherwise."""
    path.write_text(json.dumps({"runs": [
        {"workload": "cold", "metrics": {"wall_s": {"value": v, "unit": "s"}},
         "raw_wall_s": r}
        for v, r in zip(values, raw or values)
    ]}))
    return str(path)


BASE = [10.0 + 0.01 * i for i in range(10)]
NOISY = [10.0 + 2.0 * (i % 2) for i in range(10)]


@pytest.mark.parametrize(
    "parent, change, change_raw, expected",
    [
        (BASE, [8.0 + 0.01 * i for i in range(10)], None, "gain"),
        (BASE, [12.0 + 0.01 * i for i in range(10)], None, "regression"),
        (BASE, [10.02 + 0.01 * i for i in range(10)], None, "same"),
        (NOISY, [10.0] * 10, None, "unresolved"),
        (NOISY, [7.0] * 10, None, "gain"),
        # paced faster, but the raw rounds were not: the pacing made the gain
        (BASE, [8.0 + 0.01 * i for i in range(10)], [10.5] * 10, "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, parent, change, change_raw, expected):
    benchmark = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
    ]}
    rows = compare.compare(
        [_runs(tmp_path / "p.json", parent)],
        [_runs(tmp_path / "c.json", change, change_raw)],
        benchmark,
    )
    assert {row["metric"]: row["verdict"] for row in rows}["wall_s"] == expected


def test_compare_cli_needs_ten_pairs(tmp_path, capsys):
    parent = _runs(tmp_path / "p.json", [1.0] * 5)
    change = _runs(tmp_path / "c.json", [1.0] * 5)
    assert compare.main(["--parent", parent, "--change", change]) == 2
