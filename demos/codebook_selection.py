"""Conventional DFT-codebook baselines: what greedy selection picks and why.

The reference array is 8 x 8 half-wavelength elements with a fourfold
oversampled DFT codebook (1024 beams).  Beams are scored against the element
correlation matrix of the angular profile, and two greedy rules build
nested selection chains:

  power        pick the strongest remaining beam (ignores overlap);
  determinant  pick the beam maximizing the updated Gram determinant
               (a Schur-complement chain that punishes correlated picks).

The sub-array variant splits the aperture into groups driven by one RF
chain each, restricts every beam to one group, and searches over the
partition shapes that tile the array.  A structural curiosity the output
shows: the per-group power scores are identical across groups (the group
offset is a pure phase), so the power rule picks the SAME intra-group DFT
column in every group.
"""

import numpy as np

from obpb import capacity, conventional, correlation, profiles

M_SHOW = 4
N_UE_SWEEP = (4, 9, 16, 25, 36, 49)


def beam_label(config, idx, sub_shape=None):
    """Map a flat codebook index back to its (p, q) steering pair."""
    shape = sub_shape or (config.n_v, config.n_h)
    a = config.beam_interval
    q = idx % (a * shape[1])
    p = idx // (a * shape[1])
    return f"({p + 1},{q + 1})"


def main():
    profile = profiles.JointProfile(profiles.baseline_params())
    config = conventional.ArrayConfig()
    snr = correlation.calibrated_snr(correlation.siso_reference(profile))
    print(f"array {config.n_v} x {config.n_h}, codebook {config.n_beams} "
          f"beams, calibrated snr = {snr:.5f}")

    r_elem = conventional.element_correlation(profile, config)
    print(f"element correlation: trace {np.trace(r_elem).real:.4f}, "
          f"lam1 {np.linalg.eigvalsh(r_elem)[-1]:.4f}")

    metrics = ("power", "determinant")
    for metric, sel in conventional.full_array_selections(
            r_elem, config, M_SHOW, metrics).items():
        g = correlation.normalize_correlation(sel.beam_correlation(M_SHOW))
        off = np.abs(g - np.eye(M_SHOW)).max()
        labels = " ".join(beam_label(config, i) for i in sel.chain)
        print(f"\nfull array, {metric} greedy, M = {M_SHOW}:")
        print(f"  picks (p,q): {labels}")
        print(f"  det(R_h) = {correlation.det_db(sel.beam_correlation(M_SHOW)):.2f} dB, "
              f"max |corr| off-diagonal = {off:.3f}")

    # sub-array: one beam per group; power scores repeat across groups
    shape = (8, 2)
    sel = conventional.subarray_selection(r_elem, config, shape, M_SHOW,
                                          "power")
    cols = [i % (config.beam_interval ** 2 * shape[0] * shape[1])
            for i in sel.chain]
    print(f"\nsub-array {shape[0]}x{shape[1]} (four groups), power greedy:")
    print(f"  intra-group DFT columns picked: {cols}"
          f"  <- the same column in every group")
    g = correlation.normalize_correlation(sel.beam_correlation(M_SHOW))
    top = sorted(float(x) for x in np.unique(np.round(
        np.abs(g - np.eye(M_SHOW)), 4)))[-3:]
    print(f"  det(R_h) = {correlation.det_db(sel.beam_correlation(M_SHOW)):.2f} dB, "
          f"largest |corr| off-diagonals {top}")

    print("\npartition search (capacity-ranked, rank-adapted):")
    print(f"{'N_UE':>5} {'winner':>7} {'M_opt':>6} {'capacity':>10}")
    for n_ue in N_UE_SWEEP:
        shape, _, rep = conventional.best_subarray_partition(
            n_ue * r_elem, config, n_ue, snr)
        print(f"{n_ue:>5} {f'{shape[0]}x{shape[1]}':>7} {rep.m_opt:>6} "
              f"{rep.total:>10.3f}")

    # rank adaptation on the full-array chains at the largest user count
    n_ue = N_UE_SWEEP[-1]
    print(f"\nfull-array rank adaptation at N_UE = {n_ue}:")
    m_max = min(config.n_elements, n_ue)
    for metric, sel in conventional.full_array_selections(
            r_elem, config, m_max, metrics).items():
        rep = capacity.rank_adapt(lambda m: n_ue * sel.beam_correlation(m),
                                  m_max, snr)
        print(f"  {metric:<12} M_opt = {rep.m_opt:>2}, "
              f"C = {rep.total:.3f} bit/s/Hz")


if __name__ == "__main__":
    main()
