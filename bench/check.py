"""Artifact checker for one `obpb run` output tree.

A run passes when the tree holds exactly the files the scenario's methods x
N_UE points call for, when each point's ``capacity.json`` agrees with its
``summary.csv`` row and its ``m_opt`` maximises ``per_m``, and, for seeds in
the reference table, when ``summary.csv`` matches the recorded values within
REL_TOL / DB_TOL.
"""

import csv
import json
import math
from pathlib import Path

from obpb.scenario import parse_method

PATTERN_FILES = ("cut_phi_plane.csv", "cut_theta_plane.csv",
                 "pattern_grid.csv", "correlation.csv", "capacity.json")
UE_PATTERN_FILES = ("cut_phi_plane_ue.csv", "cut_theta_plane_ue.csv")

REL_TOL = 1e-9     # capacity_bits against the reference table
DB_TOL = 1e-6      # det_db against the reference table, in dB
TIE_REL = 1e-12    # rank adaptation breaks ties within this share


def method_label(spec):
    """Directory label `obpb run` gives a method string."""
    return parse_method(spec)["label"]


def expected_files(tree):
    """Relative paths of every file the scenario's run must write."""
    files = {"summary.csv", "manifest.json"}
    for spec in tree["methods"]:
        label = method_label(spec)
        names = PATTERN_FILES + (UE_PATTERN_FILES if label.startswith("obpb_")
                                 else ())
        for n_ue in tree["n_ue"]:
            files.update(f"{label}/n_ue_{n_ue}/{name}" for name in names)
    return files


def read_summary(out_dir):
    """summary.csv rows as (method, n_ue, m_opt, capacity_bits, det_db)."""
    with open(Path(out_dir) / "summary.csv", encoding="utf-8") as fh:
        return [(r["method"], int(r["n_ue"]), int(r["m_opt"]),
                 float(r["capacity_bits"]), float(r["det_db"]))
                for r in csv.DictReader(fh)]


def check_tree(out_dir, tree, reference=None):
    """List of problems found in one output tree (empty when it passes).

    reference: recorded summary rows for this workload and seed, or None.
    """
    out_dir = Path(out_dir)
    found = {p.relative_to(out_dir).as_posix()
             for p in out_dir.rglob("*") if p.is_file()}
    expected = expected_files(tree)
    problems = [f"missing {p}" for p in sorted(expected - found)]
    problems += [f"unexpected {p}" for p in sorted(found - expected)]
    if "summary.csv" not in found:
        return problems

    rows = read_summary(out_dir)
    points = [(method_label(s), n) for s in tree["methods"]
              for n in tree["n_ue"]]
    if [r[:2] for r in rows] != points:
        problems.append("summary.csv rows do not match methods x n_ue")
    for method, n_ue, m_opt, capacity_bits, det_db in rows:
        path = out_dir / method / f"n_ue_{n_ue}" / "capacity.json"
        if not path.is_file():
            continue
        point = json.loads(path.read_text(encoding="utf-8"))
        cap = point["capacity"]
        where = f"{method} N_UE={n_ue}"
        if cap["total"] != capacity_bits or cap["m_opt"] != m_opt:
            problems.append(f"{where}: capacity.json disagrees with "
                            "summary.csv")
        if point["det_db"] != det_db:
            problems.append(f"{where}: det_db disagrees with summary.csv")
        best = max(cap["per_m"].values())
        chosen = cap["per_m"].get(str(m_opt), -math.inf)
        if chosen < best - TIE_REL * max(abs(best), 1.0):
            problems.append(f"{where}: m_opt {m_opt} does not maximise per_m")

    if reference is not None:
        ref = [tuple(r) for r in reference]
        if len(ref) != len(rows):
            problems.append("summary.csv row count differs from reference")
        for got, want in zip(rows, ref):
            if (got[:3] != want[:3]
                    or not math.isclose(got[3], want[3], rel_tol=REL_TOL)
                    or not math.isclose(got[4], want[4], rel_tol=0.0,
                                        abs_tol=DB_TOL)):
                problems.append(f"{got[0]} N_UE={got[1]}: summary.csv "
                                f"{got[2:]} differs from reference "
                                f"{tuple(want[2:])}")
    return problems
