"""Seeded scenario generator for the benchmark workloads.

Each workload is a scenario tree that `obpb run` reads from a generated YAML
file.  Seed 0 gives the workload's base values (for ``paper_baseline`` the
values of the shipped ``scenarios/paper_baseline.yaml``, pinned here so that
an edit to the shipped file cannot silently change the benchmark).  Other
seeds perturb only the angular profile, and only by amounts that keep each
workload's defining property: the narrow urban-macro profile leaves most BS
quadrature nodes inactive, the wide one keeps nearly all of them active.
"""

import copy
import random

import yaml

ALL_METHODS = ["obpb:optimal", "obpb:plane", "obpb:one_32_sphere",
               "obpb:hemisphere", "full_array:power", "full_array:det",
               "sub_array"]

BASELINE_PROFILE = {
    "mean_bs": [90.0, 0.0],
    "mean_ue": [90.0, 0.0],
    "sigma": [4.0, 21.0, 11.0, 48.0],
    "corr": [[1.0, 0.3, 0.0, 0.2],
             [0.3, 1.0, 0.1, 0.4],
             [0.0, 0.1, 1.0, 0.0],
             [0.2, 0.4, 0.0, 1.0]],
    "polarization": "theta",
}

_BASES = {
    "paper_baseline": {
        "name": "paper_baseline",
        "output_dir": "paper_baseline",
        "methods": ALL_METHODS,
        "n_ue": [4, 9, 16, 25, 36, 49],
        "snr_db_siso": -12.0,
        "report_m": 4,
        "profile": BASELINE_PROFILE,
        "quadrature": {"bs": [96, 192], "ue": [48, 96]},
        "antenna": {"bs_aperture_side": 4.0, "ue_aperture_side": 1.0},
        "obpb": {"epsilon": 0.01, "max_iterations": 200, "m_max": 12},
        "surfaces": {"density": 4.0, "rank_rtol": 1.0e-14},
        "conventional": {"n_v": 8, "n_h": 8, "spacing": 0.5,
                         "beam_interval": 4},
        "artifacts": {"cut_step_deg": 1.0, "grid_step_deg": 3.0},
    },
    "obpb_wide": {
        "name": "obpb_wide",
        "output_dir": "obpb_wide",
        "methods": ALL_METHODS[:4],
        "n_ue": [16],
        "profile": {"sigma": [15.0, 45.0, 30.0, 50.0]},
        "obpb": {"m_max": 6},
    },
    "codebook_sweep": {
        "name": "codebook_sweep",
        "output_dir": "codebook_sweep",
        "methods": ALL_METHODS[4:],
        "n_ue": [4, 9, 16, 25, 36, 49, 64],
    },
}

WORKLOADS = tuple(_BASES)

# Largest relative change a nonzero seed applies to each sigma, and largest
# shift (degrees) of each end's mean azimuth.  The sigma jitter is kept small
# because the share of active BS nodes, which sets the mode-correlation cost,
# follows the profile's angular area: at 1% it moves about 2% between seeds
# (5% moved it 10%).  Azimuth shifts change the inputs without changing that
# share, since the quadrature is uniform in phi.
SIGMA_JITTER = 0.01
AZIMUTH_JITTER_DEG = 5.0


def scenario_tree(workload, seed):
    """The scenario mapping of `workload` at `seed` (seed 0: base values)."""
    if workload not in _BASES:
        raise ValueError(f"unknown workload '{workload}' "
                         f"(one of: {', '.join(WORKLOADS)})")
    tree = copy.deepcopy(_BASES[workload])
    if seed == 0:
        return tree
    rng = random.Random(f"{workload}:{seed}")
    profile = tree.setdefault("profile", {})
    sigma = profile.get("sigma", BASELINE_PROFILE["sigma"])
    profile["sigma"] = [
        round(s * (1.0 + rng.uniform(-SIGMA_JITTER, SIGMA_JITTER)), 4)
        for s in sigma]
    for key in ("mean_bs", "mean_ue"):
        theta, phi = profile.get(key, BASELINE_PROFILE[key])
        shift = rng.uniform(-AZIMUTH_JITTER_DEG, AZIMUTH_JITTER_DEG)
        profile[key] = [theta, round(phi + shift, 4)]
    return tree


def write_scenario(workload, seed, path):
    """Write the generated scenario YAML to `path`; return the tree."""
    tree = scenario_tree(workload, seed)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(tree, fh, sort_keys=False)
    return tree
