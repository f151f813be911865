"""Anatomy of the joint angular power profile.

The scattering environment is a single 4-D Gaussian over
(theta_BS, phi_BS, theta_UE, phi_UE) with azimuth wrapping, discretized on
a pair of sphere quadrature grids and normalized to unit double integral.
This script prints the marginal profiles each side sees, then demonstrates
the cross-correlation: conditioning on where the user-side power went moves
the base-station marginal, which is exactly the coupling the alternating
optimizer feeds on.

Writes the two marginal cuts to demos/out/profile_anatomy/.
"""

import csv
from pathlib import Path

import numpy as np

from obpb import profiles

OUT = Path(__file__).resolve().parent / "out" / "profile_anatomy"


def bar(x, width=46):
    return "#" * int(round(width * x))


def theta_cut(profile, side):
    """Per-theta-band marginal mass under an isotropic far side, normalized:
    the k = 0 column of the side's weighted azimuth harmonics, whose phi
    integral is exact."""
    grid, far, _ = profile.link_end(side)
    mass = profile.weighted_harmonics(np.ones((far.shape[0], 1)), side,
                                      0)[:, 0].real
    return grid.theta_nodes, mass / mass.sum()


def mean_angle(grid, marg, which):
    w = grid.weights * marg
    ang = grid.theta if which == "theta" else grid.phi
    return float((w * ang).sum() / w.sum())


def main():
    params = profiles.baseline_params()
    print("joint Gaussian profile, angles in degrees")
    print(f"  BS mean (theta, phi) = {tuple(params.mean_bs)}, "
          f"sigma (theta, phi) = {tuple(params.sigma[:2])}")
    print(f"  UE mean (theta, phi) = {tuple(params.mean_ue)}, "
          f"sigma (theta, phi) = {tuple(params.sigma[2:])}")
    print("  correlation (tb, pb, tu, pu):")
    for row in params.corr:
        print("    " + "  ".join(f"{v:5.2f}" for v in row))

    profile = profiles.JointProfile(params)
    # the nodal BS marginal under an isotropic UE side, for the double
    # integral and the conditioning baseline
    marg0 = profile.marginal_bs(np.ones(profile.ue_grid.n_nodes))
    mass = float(profile.bs_grid.weights @ marg0)
    print(f"\ngrids {profile.bs_grid.shape} x {profile.ue_grid.shape}; "
          f"double integral = {mass:.12f}")

    OUT.mkdir(parents=True, exist_ok=True)
    for side in ("bs", "ue"):
        nodes, mass_cut = theta_cut(profile, side)
        peak = mass_cut.max()
        print(f"\n{side.upper()} marginal vs theta (isotropic far side):")
        step = max(1, nodes.size // 16)
        for i in range(0, nodes.size, step):
            print(f"  {np.degrees(nodes[i]):6.1f} deg |"
                  f"{bar(mass_cut[i] / peak)}")
        with open(OUT / f"marginal_theta_{side}.csv", "w", newline="\n") as f:
            w = csv.writer(f)
            w.writerow(["theta_deg", "band_mass"])
            for t, v in zip(nodes, mass_cut):
                w.writerow([repr(float(np.degrees(t))), repr(float(v))])

    # the cross-correlation at work: light up only one azimuth half-space at
    # the UE and watch the BS azimuth mean move (corr(phi_b, phi_u) = 0.4).
    # A half-space mask has no finite azimuth harmonics, so these marginals
    # stay nodal
    print("\nconditioning experiment (cross-correlation):")
    for label, mask in (("UE power at phi_u > 0", profile.ue_grid.phi > 0),
                        ("UE power at phi_u < 0", profile.ue_grid.phi < 0)):
        marg = profile.marginal_bs(mask.astype(float))
        mb = np.degrees(mean_angle(profile.bs_grid, marg, "phi"))
        print(f"  {label:<26} ->  BS mean azimuth {mb:+7.3f} deg")
    print(f"  {'UE isotropic':<26} ->  BS mean azimuth "
          f"{np.degrees(mean_angle(profile.bs_grid, marg0, 'phi')):+7.3f} deg")
    print("\nwrote", OUT)


if __name__ == "__main__":
    main()
