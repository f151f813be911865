"""Quadrature grids and the joint angular profile.

The profile checks are integral identities: the grid weights carry the full
surface measure (sum 4*pi), the normalized joint density integrates to one,
and marginalization against a far-side power pattern commutes with that
normalization.  Desk-size grids keep everything under a second.
"""

import numpy as np
import pytest

from obpb import profiles
from obpb.modes import ModeSet, flat_index


@pytest.fixture(scope="module")
def desk_profile():
    return profiles.JointProfile(profiles.baseline_params(),
                                 bs_grid=profiles.make_grid(32, 64),
                                 ue_grid=profiles.make_grid(16, 32))


def test_grid_weights_sum_to_sphere():
    for nt, np_ in ((8, 16), (48, 96), (96, 192)):
        grid = profiles.make_grid(nt, np_)
        assert abs(grid.weights.sum() - 4.0 * np.pi) < 1e-10
        assert abs(grid.integrate(np.ones(grid.n_nodes)) - 4.0 * np.pi) < 1e-10
        assert grid.n_nodes == nt * np_


def test_grid_quadrature_is_spectrally_exact():
    # cos^2(theta) integrates to 4 pi / 3; e^{i phi} to zero
    grid = profiles.make_grid(12, 24)
    assert abs(grid.integrate(np.cos(grid.theta) ** 2)
               - 4.0 * np.pi / 3.0) < 1e-12
    assert abs(np.sum(grid.weights * np.exp(1j * grid.phi))) < 1e-12


def test_grid_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        profiles.make_grid(1, 16)


def test_params_validation():
    base = profiles.baseline_params()
    with pytest.raises(ValueError):
        profiles.ProfileParams(base.mean_bs, base.mean_ue,
                               (4.0, -1.0, 11.0, 48.0), base.corr)
    lopsided = np.array(base.corr)
    lopsided[0, 1] = 0.9
    with pytest.raises(ValueError):
        profiles.ProfileParams(base.mean_bs, base.mean_ue, base.sigma,
                               lopsided)
    not_pd = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0],
                       [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        profiles.ProfileParams(base.mean_bs, base.mean_ue, base.sigma,
                               not_pd)
    with pytest.raises(ValueError):
        profiles.ProfileParams(base.mean_bs, base.mean_ue, base.sigma,
                               base.corr, polarization="circular")


def test_mean_azimuth_is_wrapped():
    # 350 and -10 degrees are the same physical profile; the +-1 image sum
    # assumes the wrapped mean, and in-range means keep their bits
    base = profiles.baseline_params()
    grids = (profiles.make_grid(24, 48), profiles.make_grid(24, 48))
    joint = {}
    for phi in (350.0, -10.0):
        params = profiles.ProfileParams(base.mean_bs, (90.0, phi),
                                        base.sigma, base.corr)
        assert params.mean_ue[1] == -10.0
        joint[phi] = profiles.JointProfile(params, *grids).joint_matrix
    err = np.abs(joint[350.0] - joint[-10.0]).max()
    assert err <= 1e-13 * joint[-10.0].max()
    for phi, wrapped in ((180.0, 180.0), (-180.0, 180.0), (-190.0, 170.0),
                         (540.0, 180.0), (0.1 + 0.2, 0.1 + 0.2)):
        params = profiles.ProfileParams((90.0, phi), base.mean_ue,
                                        base.sigma, base.corr)
        assert params.mean_bs[1] == wrapped
    # the caller's array is left alone
    mean = np.array([90.0, 350.0])
    profiles.ProfileParams(mean, base.mean_ue, base.sigma, base.corr)
    assert mean[1] == 350.0


def test_params_reject_azimuth_spread_past_the_image_cut():
    # exp(-(3 pi - |mu|)^2 / (2 sigma^2)) <= 1e-10 holds up to ~79.6 deg at
    # mu = 0 and to ~75.2 deg at mu = 30 deg
    base = profiles.baseline_params()
    for mean_ue, sigma_u in (((90.0, 0.0), 79.0), ((90.0, 30.0), 75.0)):
        profiles.ProfileParams(base.mean_bs, mean_ue,
                               (4.0, 21.0, 11.0, sigma_u), base.corr)
    for mean_ue, sigma_u in (((90.0, 0.0), 80.0), ((90.0, 30.0), 76.0)):
        with pytest.raises(ValueError, match=r"ue azimuth: .*1e-10"):
            profiles.ProfileParams(base.mean_bs, mean_ue,
                                   (4.0, 21.0, 11.0, sigma_u), base.corr)
    with pytest.raises(ValueError, match=r"bs azimuth: sigma 85 deg"):
        profiles.ProfileParams(base.mean_bs, base.mean_ue,
                               (4.0, 85.0, 11.0, 48.0), base.corr)


def test_joint_density_normalized(desk_profile):
    total = desk_profile.bs_grid.weights \
        @ desk_profile.joint_matrix @ desk_profile.ue_grid.weights
    assert abs(total - 1.0) < 1e-9
    assert desk_profile.total_power > 0
    assert desk_profile.joint_matrix.min() >= 0


def test_joint_density_wraps_in_azimuth(desk_profile):
    # shift invariance holds up to the +/- one-period image truncation; with
    # the widest sigma at 48 degrees the dropped image is below 1e-10 relative
    theta_b, phi_b = 1.4, 0.3
    theta_u, phi_u = 1.6, -0.3
    base = profiles.joint_density(desk_profile, (theta_b, phi_b),
                                  (theta_u, phi_u))
    wrapped = profiles.joint_density(desk_profile,
                                     (theta_b, phi_b + 2.0 * np.pi),
                                     (theta_u, phi_u - 2.0 * np.pi))
    assert abs(base - wrapped) < 1e-6 * abs(base)


def test_marginals_preserve_total_power(desk_profile):
    # integrating the marginal against the weights recovers the full double
    # integral of P * u, for a flat far-side pattern u = 1 that is exactly 1
    ones_ue = np.ones(desk_profile.ue_grid.n_nodes)
    marg_bs = desk_profile.marginal_bs(ones_ue)
    assert abs(desk_profile.bs_grid.integrate(marg_bs) - 1.0) < 1e-9
    ones_bs = np.ones(desk_profile.bs_grid.n_nodes)
    marg_ue = desk_profile.marginal_ue(ones_bs)
    assert abs(desk_profile.ue_grid.integrate(marg_ue) - 1.0) < 1e-9
    assert marg_bs.min() >= 0 and marg_ue.min() >= 0


def test_pattern_power_of_single_mode(desk_profile):
    ms = ModeSet(truncation_order=2)
    q = np.zeros((ms.mode_count, 1), dtype=complex)
    q[flat_index(2, 0, 1) - 1, 0] = 1.0
    u = profiles.pattern_power(q, ms, desk_profile.bs_grid,
                               polarization="full")
    # every unit-norm mode radiates 4 pi
    assert abs(desk_profile.bs_grid.integrate(u) - 4.0 * np.pi) < 1e-8
    # and the dipole donut decays toward the poles like sin^2(theta)
    assert u.reshape(desk_profile.bs_grid.shape)[0].max() < 0.02 * u.max()


def test_profile_fields_theta_polarization_drops_phi(desk_profile):
    ms = ModeSet(truncation_order=2)
    kth, kph = profiles.profile_fields(desk_profile, "ue", ms)
    assert kph is None
    assert kth.shape == (ms.mode_count, desk_profile.ue_grid.n_nodes)
