"""Self-test of the benchmark: every workload at its quick size, on two seeds.

    python3 -m pytest perfbench -q

Asserts that every metric named in BENCHMARK.json is emitted and that every
output check passes.  It asserts on no timing.
"""

import json
from pathlib import Path

import pytest

import run

run.import_package()

import gpalign  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics(workload, seed):
    result, details = run.run(workload, seed, 0.0, trace=False, size="quick")
    assert details["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_layer_metrics_with_repeatable_counts(workload):
    first, details = run.run(workload, 3, 0.0, trace=True, size="quick")
    second, _ = run.run(workload, 3, 0.0, trace=True, size="quick")
    assert details["problems"] == [] and details["absent"] == []
    assert first["correct"] and first["failed"] == 0
    emitted = {name: m["unit"] for name, m in first["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert m["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["model.ascent_calls"]["value"] > 0


def test_tracer_restores_functions_and_reports_absent_names(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "warping",
                        tracing.TARGETS["warping"] + ["no_such_function"])
    original = gpalign.warping.warp_from_base
    tracer = tracing.Tracer()
    assert tracer.absent == ["warping.no_such_function"]
    with tracer.root("job", 0), tracer.active():
        assert gpalign.warping.warp_from_base is not original
        assert gpalign.model.warp_from_base is gpalign.warping.warp_from_base
        gpalign.project_endpoint([0.1, 0.2], [0.0, 0.5, 1.0])
    assert gpalign.warping.warp_from_base is original
    assert gpalign.model.warp_from_base is original
    calls = tracing.totals(tracer.roots)
    assert calls["project_endpoint"][0] == 1
