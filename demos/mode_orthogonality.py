"""Spherical-mode machinery warm-up.

Three things have to hold before anything downstream can be trusted:

1. the truncation rule maps the two reference enclosing radii to exactly
   646 (base station) and 48 (user) modes;
2. the far-field functions are orthogonal under the sphere quadrature, with
   every mode carrying the same total power 4*pi;
3. the flat index j <-> (s, m, n) mapping round-trips: ModeSet's decode of
   j = 1 .. J gives back j under `flat_index`.

The orthogonality check runs on a deliberately small Gauss-Legendre grid:
products of order-17 modes are polynomials of degree <= 35 in cos(theta)
and harmonics up to e^{i 34 phi}, so 20 x 40 nodes already integrate them
exactly and the residual is pure roundoff.
"""

import time

import numpy as np

from obpb import modes, profiles

R0_BS = 4.0 / np.sqrt(2.0)     # half diagonal of the 4-wavelength square
R0_UE = 1.0 / np.sqrt(2.0)


def orthogonality_residual(modeset, grid):
    """Worst off-diagonal and diagonal error of the quadrature Gram / 4pi."""
    kth, kph = modes.far_field_matrix(modeset, grid.theta, grid.phi)
    gram = (kth * grid.weights) @ kth.conj().T
    gram += (kph * grid.weights) @ kph.conj().T
    gram /= 4.0 * np.pi
    off = gram - np.diag(np.diag(gram))
    return np.abs(off).max(), np.abs(np.diag(gram) - 1.0).max()


def main():
    print("truncation rule N = floor(2 pi r0 / lambda)")
    print(f"{'r0/lambda':>10} {'N_tr':>5} {'J = 2 N (N+2)':>14}")
    for r0 in (0.5, R0_UE, 1.0, 2.0, R0_BS, 4.0):
        n = modes.truncation_order(r0)
        print(f"{r0:>10.4f} {n:>5d} {modes.mode_count_for_radius(r0):>14d}")

    bs = modes.ModeSet(enclosing_radius=R0_BS)
    ue = modes.ModeSet(enclosing_radius=R0_UE)
    print(f"\nreference sets: J_BS = {bs.mode_count}, J_UE = {ue.mode_count}")

    # flat index round trip over the BS set plus the classic first entries
    smn = [(int(s), int(m), int(n)) for s, m, n in zip(bs.s, bs.m, bs.n)]
    for j, (s, m, n) in enumerate(smn, start=1):
        assert modes.flat_index(s, m, n) == j
    print("flat index round-trips for all", bs.mode_count, "BS modes")
    print("  j=1 ->", smn[0], " (TE, m=-1, n=1)")
    print("  j=2 ->", smn[1], " (TM, m=-1, n=1)")
    dipole = modes.flat_index(*modes.DIPOLE_SMN)
    print("  omni seed (s=2, m=0, n=1) sits at j =", dipole)

    grid = profiles.make_grid(20, 40)
    for name, ms in (("UE", ue), ("BS", bs)):
        t0 = time.perf_counter()
        off, diag = orthogonality_residual(ms, grid)
        dt = time.perf_counter() - t0
        print(f"\n{name}: J = {ms.mode_count} on a 20 x 40 grid "
              f"({dt:.2f} s)")
        print(f"  max |<K_i, K_j>| / 4pi, i != j : {off:.3e}")
        print(f"  max |<K_j, K_j>/4pi - 1|       : {diag:.3e}")

    # the dipole fingerprint: |K_201|^2 is the sin^2 donut with power 4 pi
    power = profiles.make_grid(64, 128)
    kth, kph = modes.far_field_matrix(modes.ModeSet(truncation_order=1),
                                      power.theta, power.phi)
    pat = np.abs(kth[dipole - 1]) ** 2 + np.abs(kph[dipole - 1]) ** 2
    total = power.integrate(pat)
    ratio = pat / np.sin(power.theta) ** 2
    print(f"\ndipole mode (2,0,1): total power / 4pi = {total / 4 / np.pi:.12f}")
    print(f"  |K|^2 / sin^2(theta) spread = {ratio.max() - ratio.min():.3e}"
          "  (a constant: the donut)")


if __name__ == "__main__":
    main()
