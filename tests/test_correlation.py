"""Correlation assembly: structure, golden values and edge cases.

The brute-force quadrature oracle lives with the release gates; here the
checks are structural (Hermitian, PSD, the bilinear beam convention) plus
two golden numbers for the calibration chain: every mode radiates 4*pi and
the dipole-to-dipole reference power of the baseline profile is 2.1624.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obpb import correlation, profiles
from obpb.modes import FieldTable, ModeSet

FOUR_PI = 4.0 * np.pi


@pytest.fixture(scope="module")
def desk():
    modeset = ModeSet(truncation_order=2)
    profile = profiles.JointProfile(profiles.baseline_params(),
                                    bs_grid=profiles.make_grid(24, 48),
                                    ue_grid=profiles.make_grid(12, 24))
    marginal = profile.marginal_bs(np.ones(profile.ue_grid.n_nodes))
    r = correlation.mode_correlation(modeset, marginal, profile.bs_grid)
    return modeset, profile, marginal, r


def test_mode_correlation_is_hermitian_psd(desk):
    _, _, _, r = desk
    assert np.abs(r - r.conj().T).max() < 1e-14 * np.abs(r).max()
    lam = np.linalg.eigvalsh(r)
    assert lam.min() > -1e-12 * lam.max()


def test_mode_correlation_trace_is_weighted_power(desk):
    # sum_j integral P |K_j|^2: each node contributes P(node) * sum_j |K_j|^2,
    # so the trace equals the quadrature sum against the per-node mode power
    modeset, profile, marginal, r = desk
    from obpb.modes import far_field_matrix
    grid = profile.bs_grid
    kth, _ = far_field_matrix(modeset, grid.theta, grid.phi)
    node_power = np.sum(np.abs(kth) ** 2, axis=0)
    expected = np.sum(grid.weights * marginal * node_power)
    assert abs(np.trace(r).real - expected) < 1e-10 * expected


def test_mode_correlation_full_polarization_dominates(desk):
    # adding the phi components can only add power on the diagonal
    modeset, profile, marginal, r = desk
    r_full = correlation.mode_correlation(modeset, marginal, profile.bs_grid,
                                          polarization="full")
    gap = np.real(np.diag(r_full) - np.diag(r))
    assert gap.min() > -1e-14 * np.abs(r_full).max()


def test_mode_correlation_rejects_negative_marginal(desk):
    modeset, profile, marginal, _ = desk
    bad = marginal.copy()
    bad[0] = -1e-3 * marginal.max()
    with pytest.raises(ValueError):
        correlation.mode_correlation(modeset, bad, profile.bs_grid)


@pytest.mark.parametrize("polarization", ["Full", "phi"])
def test_unknown_polarizations_raise(desk, polarization):
    # mode_correlation(..., "Full") silently returned the theta-only matrix
    # and profile_fields(..., "Full") both components; every reader now
    # applies the one rule
    modeset, profile, marginal, _ = desk
    with pytest.raises(ValueError, match="polarization is 'theta' or"):
        correlation.mode_correlation(modeset, marginal, profile.bs_grid,
                                     polarization=polarization)
    with pytest.raises(ValueError, match="polarization is 'theta' or"):
        profiles.pattern_power(np.ones(modeset.mode_count), modeset,
                               profile.bs_grid, polarization)
    with pytest.raises(ValueError, match="polarization is 'theta' or"):
        profiles.profile_fields(profile, "bs", modeset, polarization)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_mode_correlation_psd_for_random_marginals(seed):
    # property: any nonnegative marginal yields a PSD Hermitian matrix
    modeset = ModeSet(truncation_order=1)
    grid = profiles.make_grid(6, 12)
    rng = np.random.default_rng(seed)
    marginal = rng.uniform(0.0, 1.0, grid.n_nodes)
    r = correlation.mode_correlation(modeset, marginal, grid)
    assert np.abs(r - r.conj().T).max() < 1e-13 * max(np.abs(r).max(), 1e-30)
    lam = np.linalg.eigvalsh(r)
    assert lam.min() > -1e-12 * max(lam.max(), 1e-30)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.sampled_from(["theta", "full"]),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_mode_correlation_is_exactly_hermitian(n_tr, polarization, seed):
    # only the blocks on and above the diagonal are computed; the rest are
    # their mirrors and the diagonal blocks their Hermitian parts, so R
    # equals its conjugate transpose bit for bit and its diagonal is real
    modeset = ModeSet(truncation_order=n_tr)
    grid = profiles.make_grid(n_tr + 2, 2 * n_tr + 3)
    rng = np.random.default_rng(seed)
    marginal = rng.uniform(0.0, 1.0, grid.n_nodes)
    marginal *= rng.uniform(size=grid.n_nodes) < 0.7
    r = correlation.mode_correlation(modeset, marginal, grid,
                                     polarization=polarization)
    assert np.array_equal(r, r.conj().T)
    assert np.all(np.diag(r).imag == 0.0)


# the separable theta x phi kernel against the dense on-grid reference

@pytest.fixture(scope="module")
def oracle():
    modeset = ModeSet(truncation_order=3)
    profile = profiles.JointProfile(profiles.baseline_params(),
                                    bs_grid=profiles.make_grid(10, 20),
                                    ue_grid=profiles.make_grid(10, 20))
    return modeset, profile


def _dense_components(profile, modeset, polarization):
    kth, kph = profiles.profile_fields(profile, "bs", modeset,
                                       polarization=polarization)
    return [kth] if kph is None else [kth, kph]


@pytest.mark.parametrize("polarization", ["theta", "full"])
@pytest.mark.parametrize("kind", ["random", "all_active"])
@pytest.mark.parametrize("prune_tol", [0.0, 1e-15])
def test_mode_correlation_matches_dense_node_sum(oracle, polarization, kind,
                                                 prune_tol):
    modeset, profile = oracle
    grid = profile.bs_grid
    rng = np.random.default_rng(5)
    marginal = rng.uniform(0.5, 1.5, grid.n_nodes)
    if kind == "random":
        # nonnegative with exact zeros and a spread of magnitudes
        marginal *= rng.uniform(size=grid.n_nodes) < 0.6
        marginal *= 10.0 ** rng.uniform(-20.0, 0.0, grid.n_nodes)
    wm = grid.weights * marginal
    wm[wm <= prune_tol * wm.max()] = 0.0
    dense = sum((k * wm) @ k.conj().T
                for k in _dense_components(profile, modeset, polarization))
    r = correlation.mode_correlation(modeset, marginal, grid,
                                     polarization=polarization,
                                     prune_tol=prune_tol)
    assert np.abs(r - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("polarization", ["theta", "full"])
@pytest.mark.parametrize("m", [1, 3])
def test_pattern_power_matches_dense_beam_sum(oracle, polarization, m):
    modeset, profile = oracle
    rng = np.random.default_rng(6)
    q = (rng.standard_normal((modeset.mode_count, m))
         + 1j * rng.standard_normal((modeset.mode_count, m)))
    dense = sum(np.sum(np.abs(q.T @ k) ** 2, axis=0)
                for k in _dense_components(profile, modeset, polarization))
    u = profiles.pattern_power(q, modeset, profile.bs_grid,
                               polarization=polarization)
    assert u.shape == dense.shape
    assert np.abs(u - dense).max() <= 1e-12 * dense.max()


def test_harmonic_core_matches_nodal_mode_correlation(baseline_profile,
                                                      bs_modes, ue_modes):
    # the optimizer's route (far power harmonics, closed-form weighted
    # harmonics, harmonic core) against pattern power, nodal marginal and
    # mode_correlation on the default grids, where the phi trapezoid has
    # converged: both ends, under random far beams
    prof = baseline_profile
    rng = np.random.default_rng(8)
    for near, far, grid, far_grid, marginal in (
            (bs_modes, ue_modes, prof.bs_grid, prof.ue_grid, prof.marginal_bs),
            (ue_modes, bs_modes, prof.ue_grid, prof.bs_grid,
             prof.marginal_ue)):
        side = "bs" if near is bs_modes else "ue"
        q = (rng.standard_normal((far.mode_count, 3))
             + 1j * rng.standard_normal((far.mode_count, 3)))
        r_nodal = correlation.mode_correlation(
            near, marginal(profiles.pattern_power(q, far, far_grid)), grid)
        d = prof.weighted_harmonics(
            FieldTable(far, far_grid.theta_nodes, "theta").power_harmonics(q),
            side, 2 * near.truncation_order)
        r = FieldTable(near, grid.theta_nodes, "theta").correlation(d)
        assert np.array_equal(r, r.conj().T)
        assert np.abs(r - r_nodal).max() <= 1e-14 * np.abs(r_nodal).max()


def test_beam_correlation_bilinear_convention():
    # R_beam = Q^T R Q^*, no conjugation on the first factor
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    r = a @ a.conj().T
    q = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    rb = correlation.beam_correlation(q, r)
    ref = q.T @ r @ q.conj()
    assert np.abs(rb - ref).max() < 1e-12 * np.abs(ref).max()
    # single-beam input keeps matrix shape
    assert correlation.beam_correlation(q[:, 0], r).shape == (1, 1)


def test_normalize_correlation():
    r = np.array([[4.0, 1.0 + 1.0j], [1.0 - 1.0j, 1.0]])
    n = correlation.normalize_correlation(r)
    assert np.allclose(np.diag(n), 1.0)
    assert abs(n[0, 1] - np.sqrt(2.0) / 2.0) < 1e-12
    with pytest.raises(ValueError):
        correlation.normalize_correlation(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_det_db_hand_values():
    assert abs(correlation.det_db(np.diag([2.0, 4.0]))
               - 10.0 * np.log10(8.0)) < 1e-12
    assert correlation.det_db(np.diag([1.0, 0.0])) == -np.inf


def test_omni_power_radiates_four_pi():
    grid = profiles.make_grid(16, 32)
    assert abs(grid.integrate(correlation.omni_power(grid))
               - FOUR_PI) < 1e-10


def test_siso_reference_golden_value(baseline_profile):
    # the -12 dB calibration divides by this number; it pins the whole
    # capacity scale, so it is locked as a golden value
    r_omni = correlation.siso_reference(baseline_profile)
    assert abs(r_omni - 2.1624) < 2e-4
    snr = correlation.calibrated_snr(r_omni, -12.0)
    assert abs(snr - 10.0 ** (-1.2) / r_omni) < 1e-15
