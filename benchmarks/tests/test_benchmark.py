"""Self-tests of the planner benchmark: inputs, oracle and reported names."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from mtdplan.case import case_from_dict  # noqa: E402
from tracing import layer_self_times  # noqa: E402


def _draws(seed, count):
    rng = np.random.default_rng(seed)
    return [workloads.draw_bound_set(rng, k) for k in range(count)]


def _files(directory):
    return {name: (Path(directory) / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_same_seed_gives_identical_cases_and_plan(tmp_path):
    plan_a, oracle_a = workloads.prepare("bound-verdicts", 3, str(tmp_path / "a"))
    plan_b, oracle_b = workloads.prepare("bound-verdicts", 3, str(tmp_path / "b"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [op["label"] for op in plan_a["ops"]] == [op["label"] for op in plan_b["ops"]]
    assert {k: v["verdict"] for k, v in oracle_a.items()} == \
        {k: v["verdict"] for k, v in oracle_b.items()}
    verdicts = [v["verdict"] for v in oracle_a.values()]
    assert verdicts.count("feasible") == 1 + workloads.DRAWN_FEASIBLE
    assert verdicts.count("infeasible") == workloads.DRAWN_INFEASIBLE + 1


def test_different_seed_gives_different_draws():
    same = [workloads.case_bytes(d) for d in _draws(3, 5)]
    again = [workloads.case_bytes(d) for d in _draws(3, 5)]
    other = [workloads.case_bytes(d) for d in _draws(4, 5)]
    assert same == again
    assert all(a != b for a, b in zip(same, other))


def test_draws_tighten_within_range_and_keep_utopian_levels():
    demo = {c["name"]: c for c in workloads.demo_doc()["criteria"]}
    low, high = workloads.TIGHTEN_GY
    for doc in _draws(7, 20):
        for c in doc["criteria"]:
            base = demo[c["name"]]
            if "hard_upper" in c:
                assert base["hard_upper"] - high - 1e-3 <= c["hard_upper"] <= base["hard_upper"] - low + 1e-3
                assert c["hard_upper"] >= c.get("utopian_lower", 0.0)
            if "hard_lower" in c:
                assert base["hard_lower"] + low - 1e-3 <= c["hard_lower"] <= base["hard_lower"] + high + 1e-3
                assert c["hard_lower"] <= c.get("utopian_upper", np.inf)


def test_highs_finds_refined_case_feasible_and_floor66_infeasible():
    refined = case_from_dict(workloads.refined_doc())
    assert refined.phantom.num_voxels == 8 * case_from_dict(workloads.demo_doc()).phantom.num_voxels
    ref = workloads.highs_reference(refined, workloads.balanced_weights(3))
    assert ref["verdict"] == "feasible"
    assert abs(ref["objective"] - 22.6932) < 0.01
    floor = case_from_dict(workloads.contradictory_doc())
    assert workloads.highs_reference(floor, workloads.balanced_weights(3))["verdict"] == "infeasible"


def test_reported_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == [os.path.relpath(BENCH / "run.py", ROOT)]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for section, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[section]] == list(names.items())
        line = json.loads(run.result_line(True, 1, 0, dict.fromkeys(names, 1.0), names))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert [(k, v["unit"]) for k, v in line["metrics"].items()] == list(names.items())


def _span(i, name, layer, start, end, parent=None, **counts):
    span = {"id": i, "name": name, "layer": layer, "parent": parent, "unit": 1,
            "start": start, "end": end}
    if counts:
        span["counts"] = counts
    return span


def test_per_layer_metrics_from_spans():
    spans = [
        _span(0, "cli.main", "cli", 0.0, 10.0),
        _span(1, "case.load_case", "case", 0.5, 1.5, 0),
        _span(2, "phantom.dose_influence", "phantom", 1.5, 2.0, 0, nnz=50),
        _span(3, "mco.solve_single_weight", "mco", 2.0, 9.0, 0),
        _span(4, "formulation.build_weighted_instance", "formulation", 2.0, 3.0, 3, a21_nnz=9),
        _span(5, "ipm.solve", "ipm", 3.0, 8.0, 3, iterations=20, status="converged",
              schur_order=7),
        _span(6, "cli.write_plan_artifacts", "io", 9.0, 9.5, 0),
    ]
    assert layer_self_times(spans) == pytest.approx(
        {"cli": 1.0, "case": 1.0, "phantom": 0.5, "mco": 1.0, "formulation": 1.0,
         "ipm": 5.0, "io": 0.5})
    plan = {"weights": [1.0], "iterations": 20, "status": "converged"}
    result = {"spans": spans, "newton_s": 0.01,
              "units": [{"traced": False, "seconds": 9.0, "bytes": 10, "ops": []},
                        {"traced": True, "seconds": 11.0, "bytes": 10,
                         "ops": [{"case": "c.json", "plans": [plan]}]}]}
    oracle = {"c.json|1": {"verdict": "feasible", "objective": 1.0, "seconds": 0.5}}
    metrics, _ = run.per_layer_metrics(result, oracle, lambda op, p: "feasible")
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["ipm.highs_ratio"] == pytest.approx(10.0)
    assert metrics["ipm.s_per_iter"] == pytest.approx(0.25)
    assert metrics["unattributed_s"] == pytest.approx(11.0 - 9.0)
    assert metrics["trace.overhead_ratio"] == pytest.approx(11.0 / 9.0)
    assert metrics["ipm.iterations.infeasible"] == 0


def test_refuses_to_run_without_planner_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "demo-pareto",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
