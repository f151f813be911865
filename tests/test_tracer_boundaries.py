"""The benchmark tracer's hooks against the library's API.

`bench/tracing.py` wraps the functions its BOUNDARIES name and binds the
arguments of some calls by name for its observers.  A rename in the library
would break a traced benchmark run only when it runs; these checks catch it
with the unit tests, and one traced run of a tiny scenario shows that the
wrapped pipeline still runs through.
"""

import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
PATHS = sorted({path for paths in tracing.BOUNDARIES.values()
                for path in paths})


@pytest.mark.parametrize("path", PATHS)
def test_every_boundary_path_resolves(path):
    _, _, target = tracing.resolve(path)
    assert callable(target), path


@pytest.mark.parametrize("path", sorted(tracing._OBSERVERS))
def test_every_argument_an_observer_reads_is_a_parameter(path):
    assert path in PATHS
    observer = tracing._OBSERVERS[path]
    read = set(re.findall(r'args\["(\w+)"\]', inspect.getsource(observer)))
    params = inspect.signature(tracing.resolve(path)[2]).parameters
    assert read <= set(params), (path, sorted(read - set(params)))


def test_traced_run_of_a_tiny_scenario_completes(tmp_path):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(
        "name: tiny\noutput_dir: tiny\nmethods: [obpb:optimal, sub_array]\n"
        "n_ue: [2]\nquadrature: {bs: [12, 24], ue: [8, 16]}\n"
        "antenna: {bs_aperture_side: 0.5, ue_aperture_side: 0.5}\n"
        "obpb: {m_max: 2}\nconventional: {n_v: 4, n_h: 4}\n"
        "artifacts: {cut_step_deg: 30.0, grid_step_deg: 45.0}\n")
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OBPB_OUTPUT_ROOT=str(tmp_path / "out"))
    done = subprocess.run([sys.executable, str(BENCH / "tracing.py"),
                           str(cfg), str(trace)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = json.loads(trace.read_text())["spans"]
    assert any(name == "optimizer.run" for name, *_ in spans)
    assert (tmp_path / "out" / "tiny" / "manifest.json").is_file()
