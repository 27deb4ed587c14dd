"""Tests of the benchmark itself, on a tiny configuration.

    python -m pytest perfbench/tests -q

The tiny configuration has no pinned digests and too few beats for the
criterion-6 bands, so these tests look at the checks they name, not at
`correct`.
"""

import json

import pytest

from perfbench.bench import END_TO_END, PER_LAYER, pass_seconds, run_workload
from perfbench.workloads import ROOT, WORKLOADS, Config, Walkthrough

TINY = dict(beats_per_class=12, test_per_class=6, epochs=3, grid_per_class=2)


def tiny_run(tmp_path, workload, trace, pins=None, seed=1):
    return run_workload(workload, seed, 0, trace, out_root=tmp_path,
                        cfg=Config.for_seed(seed, **TINY), pins={} if pins is None else pins)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    return request.param, tiny_run(tmp_path_factory.mktemp(request.param), request.param, True)


def test_traced_outputs_equal_untraced(traced):
    _, record = traced
    compared = [op for op in record["operations"] if "/identical_to_" in op]
    assert compared == ["traced_setup/identical_to_setup0", "traced/identical_to_pass0"]
    assert not [op for op in record["failures"] if op in compared], record["failures"]


def test_traced_run_reports_every_per_layer_metric(traced):
    _, record = traced
    metrics = record["result"]["metrics"]
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["wakectl.wakes"]["value"] == metrics["mlpback.infers"]["value"]
    assert metrics["memsim.reads"]["value"] > 0


def test_exact_counters_repeat(traced, tmp_path):
    workload, first = traced
    second = tiny_run(tmp_path, workload, True)
    counts = [name for name, unit in PER_LAYER if unit in ("count", "bytes", "fraction")]
    assert {k: first["result"]["metrics"][k] for k in counts} == \
        {k: second["result"]["metrics"][k] for k in counts}
    assert first["noisy_digests"] == second["noisy_digests"]


def test_child_rss_is_captured_once_per_command(tmp_path):
    record = tiny_run(tmp_path, "walkthrough", False)
    commands = [(c["tag"], c["command"]) for c in record["commands"]]
    expected = [(f"setup{i}", "prepare_data") for i in range(Walkthrough.setup_reps)]
    expected += [("pass0", name) for name, _ in Walkthrough(Config(), tmp_path, None, {}).commands(tmp_path)]
    assert commands == expected
    assert all(c["rss_mb"] > 0 and c["code"] == 0 for c in record["commands"])
    assert record["result"]["metrics"]["peak_rss_mb"]["value"] == max(c["rss_mb"] for c in record["commands"])


def test_failing_output_check_counts_as_failed_operation(tmp_path):
    record = tiny_run(tmp_path, "regime_stream", False, pins={"run_ideal/trace.csv": "0" * 64})
    result = record["result"]
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] == 4
    assert any("pinned" in msg for msg in record["failures"]["pass0/ideal"])
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["regime_stream", "rates_grid"]
    assert set(WORKLOADS) == {"walkthrough", "regime_stream", "rates_grid"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_pass_seconds_sums_each_pass_and_skips_other_phases():
    seconds = {"setup0/prepare_data": 5.0, "pass0/a": 1.0, "pass1/a": 2.0, "pass1/b": 0.5,
               "traced/a": 9.0}
    assert pass_seconds(seconds, 2) == [1.0, 2.5]

