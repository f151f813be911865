"""The benchmark tracer's hooks against the library's API.

`bench/tracing.py` wraps the functions its BOUNDARIES name and binds the
arguments of some calls by name for its observers.  A rename in the library
would break a traced benchmark run only when it runs; these checks catch it
with the unit tests.
"""

import importlib.util
import inspect
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
