"""Average capacity and rank adaptation across every beamforming family.

The head-to-head: eigen-optimized beams (unconstrained, and projected onto
the plane / shallow-dish / hemisphere surfaces) against the DFT-codebook
baselines (full array with power and determinant greedy, and the best
sub-array partition), swept over the user antenna count.

Transmit SNR is calibrated so the single-dipole-to-single-dipole link sits
at a fixed mean SNR (default -12 dB), and capacity uses an equal power
split over M streams with M chosen by rank adaptation per family.  Two
structural facts shape the table:

* nothing on the eigenbeam side depends on N_UE (the user end is a mode
  sphere, not an element grid), so those rows are constant across the
  sweep;
* the conventional element correlation scales linearly with N_UE, which
  lifts capacity and pushes the determinant-greedy M_opt upward.

Writes the sweep to demos/out/capacity_rank_adaptation/sweep.csv.
"""

import argparse
import csv
import time
from pathlib import Path

import numpy as np

from obpb import (capacity, conventional, correlation, optimizer, profiles,
                  surfaces)
from obpb.modes import ModeSet

OUT = Path(__file__).resolve().parent / "out" / "capacity_rank_adaptation"
N_UE_SWEEP = (4, 9, 16, 25, 36, 49)
SURFACES = ("plane", "one_32_sphere", "hemisphere")


def obpb_families(profile, m_max):
    """Rank-adaptation families for the eigenbeam methods.

    Each stream count gets its own alternating run; the surface families
    project that run's beams and score them against the same run's
    base-station mode correlation.
    """
    modes_bs = ModeSet(enclosing_radius=4.0 / np.sqrt(2.0))
    modes_ue = ModeSet(enclosing_radius=1.0 / np.sqrt(2.0))
    config = optimizer.ObpbConfig()
    runs = {m: optimizer.run(config, profile, modes_bs, modes_ue, m)
            for m in range(1, m_max + 1)}
    ops = {name: surfaces.build_z(
        modes_bs, surfaces.sample_surface(
            surfaces.named_surface(name, 4.0 / np.sqrt(2.0))))
        for name in SURFACES}

    def family(surface):
        def r_of_m(m):
            q = runs[m].q_bs
            if surface != "optimal":
                q = surfaces.project(ops[surface], q)
            return correlation.beam_correlation(q, runs[m].r_bs)
        return r_of_m

    return {"obpb:" + s: family(s) for s in ("optimal",) + SURFACES}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--siso-snr-db", type=float, default=-12.0)
    ap.add_argument("--m-max", type=int, default=12,
                    help="deepest stream count tried by rank adaptation")
    args = ap.parse_args()

    profile = profiles.JointProfile(profiles.baseline_params())
    snr = correlation.calibrated_snr(profile, args.siso_snr_db)
    print(f"siso reference {correlation.siso_reference(profile):.4f} -> "
          f"snr = {snr:.5f} at {args.siso_snr_db:+.1f} dB\n")

    t0 = time.perf_counter()
    eig_families = obpb_families(profile, args.m_max)
    print(f"eigenbeam families ready ({time.perf_counter() - t0:.0f} s)")

    config = conventional.ArrayConfig()
    r_elem = conventional.element_correlation(profile, config)
    full = {metric: conventional.full_array_selection(
        r_elem, config, min(config.n_elements, max(N_UE_SWEEP)), metric)
        for metric in ("power", "determinant")}

    rows = [["method", "n_ue", "m_opt", "capacity_bits"]]
    reports = {}
    for label, fam in eig_families.items():
        rep = capacity.rank_adapt(fam, args.m_max, snr)
        reports[label] = rep
        for n_ue in N_UE_SWEEP:          # constant across the sweep
            rows.append([label, n_ue, rep.m_opt, repr(rep.total)])

    for n_ue in N_UE_SWEEP:
        for metric in ("power", "determinant"):
            sel = full[metric]
            m_cap = min(config.n_elements, n_ue)
            rep = capacity.rank_adapt(
                lambda m: n_ue * sel.beam_correlation(m), m_cap, snr)
            rows.append([f"full:{metric}", n_ue, rep.m_opt, repr(rep.total)])
            reports[(f"full:{metric}", n_ue)] = rep
        shape, _, rep = conventional.best_subarray_partition(
            n_ue * r_elem, config, n_ue, snr)
        rows.append([f"sub:{shape[0]}x{shape[1]}", n_ue, rep.m_opt,
                     repr(rep.total)])
        reports[("sub", n_ue)] = rep

    print("\naverage capacity (bit/s/Hz), rank-adapted")
    hdr = f"{'method':<26}" + "".join(f"{f'N_UE={n}':>10}" for n in N_UE_SWEEP)
    print(hdr + "\n" + "-" * len(hdr))
    for label in eig_families:
        rep = reports[label]
        cells = "".join(f"{rep.total:>10.3f}" for _ in N_UE_SWEEP)
        print(f"{label + f' (M={rep.m_opt})':<26}" + cells)
    for metric in ("power", "determinant"):
        cells = "".join(f"{reports[(f'full:{metric}', n)].total:>10.3f}"
                        for n in N_UE_SWEEP)
        print(f"{'full:' + metric:<26}" + cells)
    cells = "".join(f"{reports[('sub', n)].total:>10.3f}" for n in N_UE_SWEEP)
    print(f"{'sub (best shape)':<26}" + cells)

    print("\nM_opt details at the sweep ends:")
    for n_ue in (N_UE_SWEEP[0], N_UE_SWEEP[-1]):
        parts = [f"full:{m} -> {reports[(f'full:{m}', n_ue)].m_opt}"
                 for m in ("power", "determinant")]
        parts.append(f"sub -> {reports[('sub', n_ue)].m_opt}")
        print(f"  N_UE={n_ue:>2}: " + ", ".join(parts))

    best_eig = max((reports[l].total, l) for l in eig_families)
    print(f"\nbest eigenbeam family: {best_eig[1]} at "
          f"{best_eig[0]:.3f} bit/s/Hz (independent of N_UE)")
    for n_ue in N_UE_SWEEP:
        conv_best = max(reports[(f"full:{m}", n_ue)].total
                        for m in ("power", "determinant"))
        conv_best = max(conv_best, reports[("sub", n_ue)].total)
        print(f"  vs best conventional at N_UE={n_ue:>2}: "
              f"ratio {best_eig[0] / conv_best:5.2f}")

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "sweep.csv", "w", newline="\n") as f:
        csv.writer(f).writerows(rows)
    print("\nwrote", OUT / "sweep.csv")


if __name__ == "__main__":
    main()
