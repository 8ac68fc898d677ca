"""Sample summaries, metric names, and BENCHMARK.json agreement."""

import json
import os
import statistics

import pytest

from perfbench.sample import E2E_UNITS, LAYER_UNITS, canonical, metric_of
from perfbench.summary import (
    percentile,
    summarize,
    tail_percentile,
    valid_name,
    valid_unit,
)
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_summary_reports_median_quartiles_and_count():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    summary = summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary == {"median": 4.0, "q1": q1, "q3": q3, "n": 7}


def test_single_sample_summary_has_degenerate_quartiles():
    assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_empty_sample_is_rejected():
    with pytest.raises(ValueError):
        summarize([])


@pytest.mark.parametrize("n, expected", [
    (1, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert tail_percentile(n) == expected


def test_summary_adds_the_tail_percentile_when_supported():
    values = [float(v) for v in range(1, 101)]
    summary = summarize(values)
    assert summary["n"] == 100
    assert summary["p90"] == 90.0
    assert percentile(values, 50) == 50.0


@pytest.mark.parametrize("name", [
    "events_per_s", "larkswitch.process_s", "zipf-1m-sketch", "p99.9", "9a",
])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "has space", "a/b", "a:b", "x" * 65, "é",
])
def test_invalid_names(name):
    assert not valid_name(name)


def test_every_metric_workload_and_unit_is_well_formed():
    for name, unit in list(E2E_UNITS.items()) + list(LAYER_UNITS.items()):
        assert valid_name(name), name
        assert valid_unit(unit), unit
    for name in WORKLOADS:
        assert valid_name(name), name


def test_benchmark_json_lists_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS


def test_every_timed_layer_metric_has_spans_feeding_it():
    fed = {metric_of(n) for n in (
        "pipeline.run", "workloads.generate_batch",
        "workloads.accumulate_reference", "cookie_cache.encode_columns",
        "larkswitch.process_quic_columnar", "larkswitch.end_period",
        "larkswitch.drain_user_stats", "aggregation.encode",
        "aggswitch.process_columnar", "aggswitch.report",
        "worker.push_batch", "worker.drain",
    )}
    timed = {n for n, u in LAYER_UNITS.items() if u == "s"} - {"worker.cpu_s"}
    assert timed == fed


def test_a_later_batched_entry_point_is_attributed_to_its_layer():
    assert metric_of("aggregation.encode_many") == "aggregation.encode_s"
    assert metric_of("aggswitch.fold_many") == "aggswitch.fold_s"
    assert metric_of("unknown.method") is None


def test_canonical_report_ignores_dict_order():
    a = {"s": {("c", "x"): 1, ("c", "y"): 2}, "t": [1, 2]}
    b = {"t": [1, 2], "s": {("c", "y"): 2, ("c", "x"): 1}}
    assert canonical(a) == canonical(b)
    assert canonical(a) != canonical({"s": {("c", "x"): 2}, "t": [1, 2]})
