"""Projection of optimal beams onto constrained antenna surfaces.

The optimizer's beams live in the full 646-dimensional mode space of the
base-station sphere.  A physical aperture radiates only the modes reachable
from currents on its surface, so the deliverable beams are the orthogonal
projections onto that subspace.  Three surfaces, all inside the same
enclosing sphere of radius r0 = 4/sqrt(2) wavelengths:

  plane        the through-center square plate of side sqrt(2) r0
  1/32-sphere  a shallow concave dish (pi/8 half-widths, corners on the
               enclosing sphere), cupped toward the boresight
  hemisphere   half of the enclosing sphere itself

For each surface this script reports the numerical rank of the radiatable
subspace, the projected beams' normalized correlation matrix and the
determinant figure det(R_h) in dB, side by side with the unconstrained
optimum at M = 4 streams.  The fingerprints worth noticing:

* the plane's rank is exactly half the mode count (a planar sheet radiates
  only the x-reflection-symmetric half), and its gram is sparse -- the only
  surviving off-diagonals are the (1,3) and (2,4) pairs;
* the hemisphere reaches full rank, so its projector is the identity and
  the "projection" costs nothing at all;
* the shallow dish is already almost as good as the hemisphere: curvature,
  not area, is what buys back the odd modes.

Writes the per-surface grams to demos/out/surface_projection_study/.
"""

import csv
import time
from pathlib import Path

import numpy as np

from obpb import correlation, optimizer, profiles, surfaces
from obpb.modes import ModeSet

OUT = Path(__file__).resolve().parent / "out" / "surface_projection_study"
M = 4
R0 = 4.0 / np.sqrt(2.0)
SURFACES = ("plane", "one_32_sphere", "hemisphere")


def print_gram(label, g):
    print(f"  normalized |R_h| ({label}):")
    for row in g:
        print("    " + "  ".join(f"{v:7.4f}" for v in row))


def main():
    profile = profiles.JointProfile(profiles.baseline_params())
    modes_bs = ModeSet(enclosing_radius=R0)
    modes_ue = ModeSet(enclosing_radius=1.0 / np.sqrt(2.0))
    res = optimizer.run(optimizer.ObpbConfig(), profile, modes_bs, modes_ue,
                        M)
    print(f"optimizer: M = {M}, converged = {res.converged} "
          f"({res.iterations} iterations)")

    r_opt = correlation.beam_correlation(res.q_bs, res.r_bs)
    OUT.mkdir(parents=True, exist_ok=True)
    report = [("optimal (no surface)", r_opt)]

    for name in SURFACES:
        surf = surfaces.named_surface(name, R0)
        t0 = time.perf_counter()
        samp = surfaces.sample_surface(surf)
        op = surfaces.build_z(modes_bs, samp)
        q_semi = surfaces.project(op, res.q_bs)
        dt = time.perf_counter() - t0
        s = op.singular_values
        print(f"\n{name}: {samp.n_points} sample currents "
              f"({2 * samp.n_points} columns), rank {op.rank} of "
              f"{op.mode_count} ({dt:.1f} s)")
        if op.rank < s.size:
            print(f"  singular-value cliff: s[rank-1]/s[0] = "
                  f"{s[op.rank - 1] / s[0]:.2e}, next "
                  f"{s[op.rank] / s[0]:.2e}")
        else:
            print(f"  no numerical nullity (rank = min(J, 2P)): "
                  f"s[min]/s[0] = {s[-1] / s[0]:.2e}")
        report.append((name, correlation.beam_correlation(q_semi, res.r_bs)))

    print(f"\n==== beam correlation report, M = {M} ====")
    for label, r_h in report:
        g = correlation.normalize_correlation(r_h)
        off = g - np.eye(M)
        print(f"\n{label}: det(R_h) = {correlation.det_db(r_h):.2f} dB, "
              f"max off-diagonal {np.abs(off).max():.2e}")
        print_gram(label, g)
        stem = label.split()[0].replace("(", "").replace(")", "")
        with open(OUT / f"gram_{stem}.csv", "w", newline="\n") as f:
            w = csv.writer(f)
            w.writerow(["i", "j", "abs"])
            for i in range(M):
                for j in range(M):
                    w.writerow([i + 1, j + 1, repr(float(g[i, j]))])

    print("\nwrote", OUT)


if __name__ == "__main__":
    main()
