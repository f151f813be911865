"""Convergence of the alternating eigenbeam optimizer.

Starting from a single elementary-dipole pattern at the user, each half-step
fixes one side, rebuilds the other side's mode correlation under the fixed
side's radiated power, and swaps in the top-M eigenbeams.  The tracked
objective is det(R_h / M) of the base-station beam correlation, re-evaluated
after user-side updates too, so the history has one entry per half-step.

Two things to look for in the output:

* convergence is fast -- two to three full iterations at the default one
  percent epsilon for every stream count;
* at M > 1 the user half-step maximizes its OWN side's determinant, and
  near the fixed point that can cost the shared figure a wiggle far below
  epsilon (about 1e-7 relative at M = 4 here).  At M = 1 both sides share
  the same bilinear functional and the history is monotone to roundoff.

Writes per-half-step histories to demos/out/optimizer_convergence/.
"""

import csv
import time
from pathlib import Path

import numpy as np

from obpb import optimizer, profiles
from obpb.modes import ModeSet

OUT = Path(__file__).resolve().parent / "out" / "optimizer_convergence"
STREAM_COUNTS = (1, 2, 4, 8)


def main():
    profile = profiles.JointProfile(profiles.baseline_params())
    modes_bs = ModeSet(enclosing_radius=4.0 / np.sqrt(2.0))
    modes_ue = ModeSet(enclosing_radius=1.0 / np.sqrt(2.0))
    config = optimizer.ObpbConfig()
    print(f"mode spaces {modes_bs.mode_count} x {modes_ue.mode_count}, "
          f"epsilon = {config.epsilon}, max {config.max_iterations} iters\n")

    OUT.mkdir(parents=True, exist_ok=True)
    rows = [["m", "half_step", "side", "objective"]]
    for m in STREAM_COUNTS:
        t0 = time.perf_counter()
        res = optimizer.run(config, profile, modes_bs, modes_ue, m)
        dt = time.perf_counter() - t0
        h = np.asarray(res.objective_history)
        print(f"M = {m}: converged={res.converged} after {res.iterations} "
              f"iterations, {h.size} half-steps, {dt:.1f} s")
        for k, v in enumerate(h):
            side = "BS" if k % 2 == 0 else "UE"
            delta = "" if k == 0 else f"  (rel step {((v - h[k-1]) / h[k-1]):+.2e})"
            print(f"   {k:2d} {side}  det(R_h/M) = {v:.10e}{delta}")
            rows.append([m, k, side, repr(float(v))])
        dips = (h[:-1] - h[1:]) / np.abs(h[:-1])
        worst = float(dips.max()) if dips.size else 0.0
        print("   worst decrease: "
              + (f"{worst:.2e} relative" if worst > 0 else "none"))
        lam = res.eigvals_bs
        print("   final BS eigenvalues: "
              + "  ".join(f"{v:.4f}" for v in lam) + "\n")

    with open(OUT / "histories.csv", "w", newline="\n") as f:
        csv.writer(f).writerows(rows)
    print("wrote", OUT / "histories.csv")


if __name__ == "__main__":
    main()
