"""Shared fixtures: the heavy physics objects are built once per session.

`baseline_run` executes the shipped paper_baseline scenario twice into
temporary directories; the acceptance tests read their artifacts instead of
recomputing the pipeline, and the determinism criterion compares the two
trees byte for byte.  `reachable` walks what an object holds, for the
tests that check what a long-lived object keeps.
"""

from pathlib import Path

import numpy as np
import pytest

from obpb import profiles, scenario
from obpb.modes import ModeSet

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_YAML = REPO_ROOT / "scenarios" / "paper_baseline.yaml"


@pytest.fixture(scope="session")
def baseline_profile():
    return profiles.JointProfile(profiles.baseline_params())


@pytest.fixture(scope="session")
def bs_modes():
    return ModeSet(enclosing_radius=4.0 / np.sqrt(2.0))


@pytest.fixture(scope="session")
def ue_modes():
    return ModeSet(enclosing_radius=1.0 / np.sqrt(2.0))


@pytest.fixture(scope="session")
def baseline_run(tmp_path_factory):
    """Two runs of paper_baseline; returns their output directories."""
    root = tmp_path_factory.mktemp("paper_baseline")
    outs = []
    for tag in ("run_a", "run_b"):
        scn = scenario.load_scenario(BASELINE_YAML)
        scn.output_dir = str(root / tag)
        outcome = scenario.run_scenario(scn)
        assert outcome.exit_code in (0, 2)
        outs.append(outcome)
    return {"a": outs[0], "b": outs[1]}


def _reachable(obj):
    """Every object reachable from obj through attributes and containers."""
    seen, stack, out = set(), [obj], []
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        out.append(item)
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set)):
            stack.extend(item)
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.extend(vars(item).values())
    return out


@pytest.fixture(scope="session")
def reachable():
    return _reachable
