"""Every scenario runs or says why.

Desk-size scenario trees are drawn from the rows of `scenario._SECTIONS`
and the method list: each key is left out, set to a value a desk run can
afford, or set where its parser or its consumer must refuse it.  A draw
must either make `scenario.Scenario` or `scenario.run_scenario` raise
ScenarioError, or make the run write a tree that the benchmark's artifact
checker (``bench/check.py``) accepts; no other exception may escape.  The
draws are derandomized, so the suite sees the same trees on every run.
"""

import importlib.util
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from obpb import scenario

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_check",
                                               ROOT / "bench" / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

METHODS = ("obpb:optimal", "obpb:plane", "obpb:one_32_sphere",
           "obpb:hemisphere", "full_array:power", "full_array:det",
           "sub_array", "sub_array:det")

# (values a desk run affords, values to refuse) for the keys whose defaults
# are benchmark-size or which a consumer (not the parser) validates; every
# other row affords leaving it out and its default, and refuses its bound
DESK = {
    ("profile", "mean_bs"): (([90.0, 0.0], [10.0, -120.0], [90.0, 178.0]),
                             ([90.0],)),
    ("profile", "mean_ue"): (([90.0, 0.0], [20.0, 0.0], [90.0, -178.0]),
                             ([90.0, float("nan")],)),
    ("profile", "sigma"): (([4.0, 21.0, 11.0, 48.0], [3.0, 60.0, 5.0, 70.0],
                            [4.0, 8.0, 4.0, 8.0], [0.5, 0.5, 0.5, 0.5]),
                           ([4.0, 90.0, 11.0, 48.0], [4.0, 0.0, 1.0, 1.0])),
    ("profile", "corr"): ((None,), ([[1.0, 0.9, 0.0, 0.0],
                                     [0.9, 1.0, 0.9, 0.0],
                                     [0.0, 0.9, 1.0, 0.0],
                                     [0.0, 0.0, 0.0, 1.0]],)),
    ("profile", "polarization"): ((None, "theta", "full"), ("both",)),
    ("quadrature", "bs"): (([24, 48], [32, 64], [48, 96]), ([2, 2], [1, 4])),
    ("quadrature", "ue"): (([12, 24], [24, 48]), ([2, 2],)),
    ("antenna", "bs_aperture_side"): ((0.5, 1.0), (0.0,)),
    ("antenna", "ue_aperture_side"): ((0.5, 1.0), (-1.0,)),
    ("obpb", "m_max"): ((1, 2, 4), (0,)),
    ("conventional", "n_v"): ((2, 4, 8), (0,)),
    ("conventional", "n_h"): ((1, 2, 4), (0,)),
    ("conventional", "spacing"): ((None, 0.25), (0.0,)),
    ("artifacts", "cut_step_deg"): ((None, 30.0), (7.0,)),
    ("artifacts", "grid_step_deg"): ((45.0, 60.0), (0.0,)),
}
ROWS = [(section, row) for section, rows in scenario._SECTIONS.items()
        for row in rows]


def _values(section, key, default, minimum):
    """(afforded values, refused values) of one `_SECTIONS` row."""
    if (section, key) in DESK:
        return DESK[section, key]
    bound = minimum - 1 if isinstance(minimum, int) else minimum
    return (None, default), (() if minimum is None else (
        [bound, bound] if isinstance(default, list) else bound,))


@st.composite
def trees(draw):
    """A scenario tree with at most one row set to a refused value (about
    one draw in two)."""
    tree = {"name": "fuzz",
            "methods": draw(st.lists(st.sampled_from(METHODS), min_size=1,
                                     max_size=3, unique=True)),
            "n_ue": draw(st.lists(st.sampled_from((1, 2, 4, 9, 16)),
                                  min_size=1, max_size=3, unique=True)),
            "report_m": draw(st.sampled_from((None, 1, 2)))}
    broken = draw(st.sampled_from([None] * len(ROWS) + ROWS))
    for section, (key, _, default, minimum) in ROWS:
        good, bad = _values(section, key, default, minimum)
        value = draw(st.sampled_from(
            bad if broken == (section, (key, _, default, minimum)) and bad
            else good))
        if value is not None:
            tree.setdefault(section, {})[key] = value
    return tree


# ROADMAP item 15's reproducer: the determinant chain runs out of beams
# that raise the determinant before its 16 streams
RANK_EXHAUSTED = {
    "name": "rank_exhausted", "methods": ["full_array:det"], "n_ue": [16],
    "conventional": {"n_v": 8, "n_h": 2, "spacing": 0.25,
                     "beam_interval": 2},
    "quadrature": {"bs": [32, 64], "ue": [12, 24]},
    "profile": {"sigma": [3.0, 60.0, 5.0, 70.0], "mean_bs": [10.0, -120.0],
                "mean_ue": [20.0, 0.0]}}

# a profile that passes validation but whose nodal density, which the
# codebook path streams, overflows a float on these grids
OVERFLOW = {
    "name": "overflow", "methods": ["full_array:power"], "n_ue": [2],
    "conventional": {"n_v": 4, "n_h": 4, "beam_interval": 2},
    "quadrature": {"bs": [48, 96], "ue": [24, 48]},
    "profile": {"mean_bs": [90.0, 178.0], "mean_ue": [90.0, -178.0],
                "sigma": [4.0, 8.0, 4.0, 8.0]}}

# what the named examples must stop with
STOPS = {"rank_exhausted": "determinant metric exhausted admissible beams",
         "overflow": "profile density overflows a float"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trees())
@example(RANK_EXHAUSTED)
@example(OVERFLOW)
def test_every_scenario_runs_or_says_why(tree):
    with tempfile.TemporaryDirectory() as tmp:
        tree = dict(tree, output_dir=str(Path(tmp) / "out"))
        try:
            run = scenario.Scenario(tree, str(Path(tmp) / "fuzz.yaml"))
            scenario.run_scenario(run)
        except scenario.ScenarioError as exc:
            assert STOPS.get(tree["name"], "") in str(exc)
            return
        assert tree["name"] not in STOPS
        assert check.check_tree(tree["output_dir"], tree) == []
