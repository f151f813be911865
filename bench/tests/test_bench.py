"""Tests of the benchmark's own parts: generator, checker and tracing.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from obpb import scenario  # noqa: E402

# Small enough to run in well under a second, broad enough to reach every
# kind of artifact directory: OBPB with and without a surface, a full-array
# chain and the sub-array search.
TINY = {"name": "tiny", "output_dir": "tiny",
        "methods": ["obpb:optimal", "obpb:plane", "full_array:det",
                    "sub_array"],
        "n_ue": [4, 9], "quadrature": {"bs": [12, 24], "ue": [8, 16]},
        "antenna": {"bs_aperture_side": 0.5, "ue_aperture_side": 0.5},
        "obpb": {"m_max": 2}, "conventional": {"n_v": 4, "n_h": 4},
        "artifacts": {"cut_step_deg": 30.0, "grid_step_deg": 45.0}}


def _values(obj):
    """Plain nested values of a Scenario (or any part of one)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_values(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _values(v) for k, v in obj.items()}
    if hasattr(obj, "__dict__"):
        return {k: _values(v) for k, v in vars(obj).items() if k != "source"}
    return obj


def test_seed_zero_is_the_shipped_baseline(tmp_path):
    path = tmp_path / "generated.yaml"
    workloads.write_scenario("paper_baseline", 0, path)
    shipped = scenario.load_scenario(ROOT / "scenarios" / "paper_baseline.yaml")
    assert _values(scenario.load_scenario(path)) == _values(shipped)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_scenarios_validate_and_repeat(tmp_path, workload):
    base = workloads.scenario_tree(workload, 0)
    for seed in range(5):
        path = tmp_path / f"{seed}.yaml"
        tree = workloads.write_scenario(workload, seed, path)
        assert tree == workloads.scenario_tree(workload, seed)
        loaded = scenario.load_scenario(path)
        assert loaded.methods == scenario.Scenario(base).methods
        assert loaded.n_ue == base["n_ue"]
        if seed:
            assert {k: v for k, v in tree.items() if k != "profile"} == \
                {k: v for k, v in base.items() if k != "profile"}
            assert tree["profile"] != base.get("profile")


@pytest.fixture(scope="module")
def tiny_tree(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tiny") / "tiny"
    scenario.run_scenario(scenario.Scenario(dict(TINY,
                                                 output_dir=str(out_dir))))
    return out_dir


@pytest.fixture
def tree_copy(tiny_tree, tmp_path):
    return Path(shutil.copytree(tiny_tree, tmp_path / "tiny"))


def test_checker_passes_a_clean_tree(tree_copy):
    assert len(check.expected_files(TINY)) == 2 + 2 * 2 * 7 + 2 * 2 * 5
    reference = [list(r) for r in check.read_summary(tree_copy)]
    assert check.check_tree(tree_copy, TINY, reference) == []


def test_checker_flags_a_missing_file(tree_copy):
    (tree_copy / "obpb_plane" / "n_ue_9" / "cut_theta_plane_ue.csv").unlink()
    assert check.check_tree(tree_copy, TINY) == [
        "missing obpb_plane/n_ue_9/cut_theta_plane_ue.csv"]


def test_checker_flags_a_perturbed_summary(tree_copy):
    reference = [list(r) for r in check.read_summary(tree_copy)]
    path = tree_copy / "summary.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-6))
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = check.check_tree(tree_copy, TINY, reference)
    assert any("capacity.json disagrees" in p for p in problems)
    assert any("differs from reference" in p for p in problems)


def test_checker_compares_against_the_reference(tree_copy):
    reference = [list(r) for r in check.read_summary(tree_copy)]
    reference[0][2] += 1
    reference[-1][4] += 10 * check.DB_TOL
    problems = check.check_tree(tree_copy, TINY, reference)
    assert len(problems) == 2
    assert all("differs from reference" in p for p in problems)


def test_self_time_on_a_synthetic_span_tree():
    spans = [["scenario.run_scenario", 0.0, 10.0, -1],
             ["optimizer.run", 1.0, 5.0, 0],
             ["correlation.mode_correlation", 2.0, 3.0, 1],
             [tracing.OBSERVE, 3.0, 3.5, 1],
             ["optimizer.run", 6.0, 8.0, 0],
             ["optimizer.run", 6.5, 7.0, 4],
             ["capacity.rank_adapt", 9.0, 9.25, 0]]
    assert tracing.self_times(spans) == [3.75, 2.5, 1.0, 0.5, 1.5, 0.5, 0.25]
    metrics = tracing.layer_metrics(spans, {}, 0)
    assert metrics["optimizer.run.calls"] == 3
    assert metrics["optimizer.run.s"] == 6.0      # nested call counted once
    assert metrics["optimizer.run.self_s"] == 4.5
    assert metrics["scenario.run_scenario.self_s"] == 3.75
    assert metrics["correlation.mode_correlation.s"] == 1.0


def test_overlapping_children_are_covered_once():
    spans = [["a", 0.0, 4.0, -1], ["b", 1.0, 3.0, 0], ["c", 2.0, 5.0, 0]]
    assert tracing.self_times(spans)[0] == 1.0


def test_every_boundary_resolves_to_an_obpb_callable():
    for paths in tracing.BOUNDARIES.values():
        for path in paths:
            owner, attr, obj = tracing.resolve(path)
            assert callable(obj), path


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics([], {}, 0)) | {
        "scenario.artifact_files", "scenario.artifact_bytes",
        "trace.overhead_s"}
    listed = [m["name"] for m in spec["per_layer"]]
    assert len(listed) == len(set(listed))
    assert set(listed) <= produced


def test_traced_run_reaches_every_namespace(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY))
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OBPB_OUTPUT_ROOT=str(tmp_path / "out"))
    subprocess.run([sys.executable, str(BENCH / "tracing.py"), str(path),
                    str(trace_path)], env=env, check=True,
                   capture_output=True, timeout=120)
    trace = json.loads(trace_path.read_text())
    metrics = tracing.layer_metrics(trace["spans"], trace["counters"], 2)
    # cli binds load_scenario and run_scenario by name, scenario binds
    # far_field_matrix by name: each call is seen only if those were patched
    assert metrics["scenario.load_scenario.calls"] == 1
    assert metrics["scenario.run_scenario.calls"] == 1
    profile_nodes = 12 * 24 + 8 * 16
    assert metrics["modes.far_field_matrix.directions"] > profile_nodes
    for name in ("profiles.JointProfile", "profiles.marginal",
                 "correlation.mode_correlation", "optimizer.run",
                 "surfaces.build_z", "conventional.candidate_gram",
                 "conventional.best_subarray_partition",
                 "capacity.rank_adapt"):
        assert metrics[f"{name}.calls"] > 0, name
    assert metrics["optimizer.half_steps"] >= 2 * metrics["optimizer.run.calls"]
    assert 0 < metrics["correlation.mode_correlation.active_node_frac"] <= 1
    assert check.check_tree(tmp_path / "out" / "tiny", TINY) == []
