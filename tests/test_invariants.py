"""Physics invariants of the optimizer at full scale.

The profile's symmetries give exact answers that hold for any correct
program, so these checks do not depend on the last bits of any one
implementation.  Each runs the 4-wavelength BS and 1-wavelength UE mode sets
on the default grids through `optimizer.Sweep` and `optimizer.run`, as the
pipeline does, or through the harmonic products a half-step reads, and every
tolerance is a roundoff bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obpb import correlation, optimizer, profiles
from obpb.modes import FieldTable, ModeSet

BASE = profiles.baseline_params()
CONFIG = optimizer.ObpbConfig()
ROTATION_M = (2, 4, 8, 12)


@pytest.fixture(scope="module")
def mode_sets():
    return (ModeSet(enclosing_radius=4.0 / np.sqrt(2.0)),
            ModeSet(enclosing_radius=1.0 / np.sqrt(2.0)))


def _profile(mean_bs, mean_ue, corr=BASE.corr, polarization="theta"):
    return profiles.JointProfile(profiles.ProfileParams(
        mean_bs, mean_ue, BASE.sigma, corr, polarization))


def _sweep(profile, mode_sets, ms):
    """The seed sweep of `profile` and its runs at each M of ms."""
    modes_bs, modes_ue = mode_sets
    sweep = optimizer.Sweep(profile, modes_bs, modes_ue, max(ms))
    return sweep, {m: optimizer.run(CONFIG, profile, modes_bs, modes_ue, m,
                                    sweep=sweep) for m in ms}


def _assert_same_runs(runs_a, runs_b):
    """Equal iteration counts, final objectives to 1e-12 relative."""
    for m, a in runs_a.items():
        b = runs_b[m]
        assert a.iterations == b.iterations, m
        final = a.objective_history[-1]
        assert abs(b.objective_history[-1] - final) <= 1e-12 * abs(final), m


@pytest.fixture(scope="module")
def baseline_sweep(mode_sets):
    return _sweep(_profile(BASE.mean_bs, BASE.mean_ue), mode_sets,
                  ROTATION_M)


@pytest.mark.parametrize("delta_bs, delta_ue", [(37.0, -61.0), (180.0, 90.0)])
def test_azimuth_rotation_rotates_the_mode_phases(mode_sets, baseline_sweep,
                                                  delta_bs, delta_ue):
    # turning both ends' mean azimuths turns each mode e^{i m phi} by its
    # own phase: the seed correlation becomes D R D^H with
    # D = diag(e^{i m_j delta_bs}), and every run's objective is unchanged
    # (measured 1.1e-15 and 5.4e-15 of max|R|, objectives to 4.3e-15)
    sweep, runs = baseline_sweep
    rotated, rotated_runs = _sweep(
        _profile(BASE.mean_bs + [0.0, delta_bs],
                 BASE.mean_ue + [0.0, delta_ue]), mode_sets, ROTATION_M)
    r = sweep.r_seed
    scale = np.abs(r).max()

    def mismatch(sign):
        d = np.exp(sign * 1j * mode_sets[0].m * np.deg2rad(delta_bs))
        return np.abs(d[:, None] * r * d.conj() - rotated.r_seed).max()

    assert mismatch(1) <= 1e-13 * scale
    # the opposite convention reads 1.43 of max|R| at 37 deg; at 180 deg
    # the two signs give the same D
    if delta_bs % 180.0:
        assert mismatch(-1) > 0.1 * scale
    _assert_same_runs(runs, rotated_runs)


@pytest.mark.parametrize("polarization", ["theta", "full"])
def test_theta_mirror_keeps_the_spectrum(mode_sets, polarization):
    # reflecting both ends through the horizon maps the means (80, 97) deg
    # to (100, 83) deg and flips the sign of both theta deviations, so corr
    # is conjugated by diag(-1, 1, -1, 1).  The mode correlation is then
    # sigma_z R sigma_z, sigma_z the modes' signed map of z -> -z (measured
    # 1.1e-15 of max|R|), with the same eigenvalues (4.7e-16 and 9.3e-16
    # of lambda_0) and the same runs
    flip = np.diag([-1.0, 1.0, -1.0, 1.0])
    sweep, runs = _sweep(_profile([80.0, 0.0], [97.0, 0.0],
                                  polarization=polarization),
                         mode_sets, (3, 8))
    mirrored, mirrored_runs = _sweep(
        _profile([100.0, 0.0], [83.0, 0.0], corr=flip @ BASE.corr @ flip,
                 polarization=polarization), mode_sets, (3, 8))
    perm, sign = mode_sets[0].mirror(2)
    r = sweep.r_seed
    assert np.abs(sign[:, None] * r[np.ix_(perm, perm)] * sign
                  - mirrored.r_seed).max() <= 1e-13 * np.abs(r).max()
    lam = np.linalg.eigvalsh(r)
    lam_mirrored = np.linalg.eigvalsh(mirrored.r_seed)
    assert np.abs(lam - lam_mirrored).max() <= 1e-13 * lam[-1]
    _assert_same_runs(runs, mirrored_runs)


def test_optimal_beams_obey_the_interlacing_bound(baseline_sweep):
    # the eigenvalues of Q^H R Q interlace those of R for orthonormal Q, so
    # the optimal family's det(r_h) at M is at most the product of the top-M
    # eigenvalues of the run's r_bs (measured to 1.3e-15 above it at M = 8)
    _, runs = baseline_sweep
    for m, res in runs.items():
        det = np.linalg.det(correlation.beam_correlation(res.q_bs,
                                                         res.r_bs)).real
        bound = np.prod(np.linalg.eigvalsh(res.r_bs)[::-1][:m])
        assert det <= bound * (1.0 + 1e-12), m


@pytest.fixture(scope="module")
def field_tables(mode_sets):
    """The baseline profile and each end's `FieldTable` under each
    polarization, on the default grids."""
    profile = _profile(BASE.mean_bs, BASE.mean_ue)
    ends = dict(zip(("bs", "ue"), mode_sets))
    return profile, {
        (side, pol): FieldTable(ends[side],
                                profile.link_end(side)[0].theta_nodes, pol)
        for side in ends for pol in ("theta", "full")}


@pytest.mark.parametrize("polarization", ["theta", "full"])
@pytest.mark.parametrize("side", ["bs", "ue"])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4))
def test_harmonics_are_linear_in_the_beams(field_tables, side, polarization,
                                           seed, m):
    # a beam set's power harmonics are the sum of its beams' harmonics, and
    # the near end's weighted harmonics are linear in the far power: the
    # additivity a half-step's sum over far beams rests on (measured to
    # 5.4e-16 and 1.1e-15 of the max over 80 draws)
    profile, tables = field_tables
    table = tables[side, polarization]
    near = "ue" if side == "bs" else "bs"
    kmax = 2 * tables[near, polarization].modeset.truncation_order
    rng = np.random.default_rng(seed)
    j = table.modeset.mode_count
    qa, qb = (rng.standard_normal((j, m)) + 1j * rng.standard_normal((j, m))
              for _ in range(2))
    a, b = table.power_harmonics(qa), table.power_harmonics(qb)
    each = sum(table.power_harmonics(qa[:, k]) for k in range(m))
    assert np.abs(a - each).max() <= 1e-13 * np.abs(a).max()
    wh = profile.weighted_harmonics
    got = wh(2.0 * a + 3.0 * b, near, kmax)
    want = 2.0 * wh(a, near, kmax) + 3.0 * wh(b, near, kmax)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(got).max()
