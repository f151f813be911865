"""Physics invariants of the optimizer at full scale.

The profile's symmetries give exact answers that hold for any correct
program, so these checks do not depend on the last bits of any one
implementation.  Each runs the 4-wavelength BS and 1-wavelength UE mode sets
on the default grids through `optimizer.Sweep` and `optimizer.run`, as the
pipeline does, or through the harmonic products a half-step reads, and every
tolerance is a roundoff bound.

The codebook path has the planar array's mirrors: reflecting the profile
through the horizon (z -> -z) or through the xz plane (phi -> -phi) flips
the array's rows or columns, and maps every DFT beam to the beam of the
opposite vertical or horizontal phase slope, up to a unit factor.  These
checks run on [48, 96] / [24, 48] grids.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obpb import capacity, conventional, correlation, optimizer, profiles
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


# ---------------------------------------------------------------------------
# the codebook path under the array's mirrors
# ---------------------------------------------------------------------------

ARRAY = conventional.ArrayConfig()
CODEBOOK_GRIDS = ((48, 96), (24, 48))
# about the calibrated SNR of the reference scenario (0.0292), and one at
# which the sub-array winner (4 x 1) runs to 16 streams
CODEBOOK_SNRS = (0.03, 1.0)
# (corr flip, element order, beam order) of each mirror: the z mirror
# reverses the rows u and the vertical DFT index p -> -p mod a n_v, the y
# mirror the columns v and q -> -q mod a n_h
_ELEMENTS = np.arange(ARRAY.n_elements).reshape(ARRAY.n_v, ARRAY.n_h)
_P, _Q = np.divmod(np.arange(ARRAY.n_beams), ARRAY.beam_interval * ARRAY.n_h)
_MIRRORS = {
    "z": ((-1.0, 1.0, -1.0, 1.0), _ELEMENTS[::-1].ravel(),
          (-_P % (ARRAY.beam_interval * ARRAY.n_v))
          * ARRAY.beam_interval * ARRAY.n_h + _Q),
    "y": ((1.0, -1.0, 1.0, -1.0), _ELEMENTS[:, ::-1].ravel(),
          _P * ARRAY.beam_interval * ARRAY.n_h
          + (-_Q % (ARRAY.beam_interval * ARRAY.n_h))),
}


def _mirrored_means(mirror, mean_bs, mean_ue):
    if mirror == "z":
        return [180.0 - mean_bs[0], mean_bs[1]], [180.0 - mean_ue[0],
                                                   mean_ue[1]]
    return [mean_bs[0], -mean_bs[1]], [mean_ue[0], -mean_ue[1]]


def _element_correlation(mean_bs, mean_ue, flip=(1.0, 1.0, 1.0, 1.0)):
    f = np.diag(flip)
    profile = profiles.JointProfile(
        profiles.ProfileParams(mean_bs, mean_ue, BASE.sigma,
                               f @ BASE.corr @ f),
        *(profiles.make_grid(*g) for g in CODEBOOK_GRIDS))
    return conventional.element_correlation(profile, ARRAY)


@settings(max_examples=5, deadline=None)
@given(theta=st.tuples(st.floats(75.0, 105.0), st.floats(75.0, 105.0)),
       phi=st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)))
@example(theta=(90.0, 90.0), phi=(0.0, 0.0))
@pytest.mark.parametrize("mirror", ["z", "y"])
def test_mirrors_flip_the_element_correlation(mirror, theta, phi):
    # R' = Pi R Pi^T, Pi the array's row (z) or column (y) reversal.  The
    # other reversal is far off, so the test pins which one, unless R is
    # its own half-turn about x (both reversals at once, as for a profile
    # at boresight at both ends): then both reversals map R onto R'
    mean_bs, mean_ue = [theta[0], phi[0]], [theta[1], phi[1]]
    flip, order, _ = _MIRRORS[mirror]
    other = _MIRRORS["y" if mirror == "z" else "z"][1]
    r = _element_correlation(mean_bs, mean_ue)
    mirrored = _element_correlation(
        *_mirrored_means(mirror, mean_bs, mean_ue), flip)
    scale = np.abs(r).max()
    assert np.abs(r[np.ix_(order, order)] - mirrored).max() <= 1e-13 * scale
    off = np.abs(r[np.ix_(other, other)] - mirrored).max()
    turn = order[other]
    if np.abs(r[np.ix_(turn, turn)] - r).max() <= 1e-13 * scale:
        assert off <= 1e-13 * scale
    else:
        assert off > 1e-3 * scale


@pytest.fixture(scope="module")
def codebook_mirrors():
    """The element correlation of an off-centre profile and of its z and
    y mirrors."""
    mean_bs, mean_ue = [80.0, 20.0], [97.0, -35.0]
    return _element_correlation(mean_bs, mean_ue), {
        mirror: _element_correlation(
            *_mirrored_means(mirror, mean_bs, mean_ue), spec[0])
        for mirror, spec in _MIRRORS.items()}


def _assert_same_chain(chain, mirrored_chain, beam_order, gram, metric):
    """The mirrored chain is the mapped one up to its first difference,
    where the two candidates tie in the metric to 1e-12."""
    mapped = [int(beam_order[c]) for c in chain]
    for k, (a, b) in enumerate(zip(mapped, mirrored_chain)):
        if a != b:
            if metric == "power":
                va, vb = gram[a, a].real, gram[b, b].real
            else:
                va, vb = (np.linalg.det(gram[np.ix_(s, s)]).real
                          for s in (mirrored_chain[:k] + [a],
                                    mirrored_chain[:k + 1]))
            assert abs(va - vb) <= 1e-12 * abs(vb), (k, a, b)
            return


@pytest.mark.parametrize("snr", CODEBOOK_SNRS)
@pytest.mark.parametrize("metric", ["power", "determinant"])
@pytest.mark.parametrize("mirror", ["z", "y"])
def test_mirrors_keep_the_full_array_capacity(codebook_mirrors, mirror,
                                              metric, snr):
    # the mirrored codebook is the codebook, so the chains map onto each
    # other and the capacities agree to roundoff (measured to 1.5e-14)
    r, mirrored = codebook_mirrors
    beam_order = _MIRRORS[mirror][2]
    gram = conventional.candidate_gram(conventional.dft_codebook(ARRAY),
                                       mirrored[mirror])
    for n_ue in (4, 16, 49):
        sels = [conventional.full_array_selections(rr, ARRAY, n_ue,
                                                   (metric,))[metric]
                for rr in (r, mirrored[mirror])]
        _assert_same_chain(sels[0].chain, sels[1].chain, beam_order, gram,
                           metric)
        caps = [capacity.rank_adapt(lambda m: n_ue * sel.beam_correlation(m),
                                    n_ue, snr).total
                for sel in sels]
        assert abs(caps[1] - caps[0]) <= 1e-12 * caps[0], n_ue


@pytest.mark.parametrize("metric, snr", [
    ("power", 0.03), ("power", 1.0), ("determinant", 0.03),
    pytest.param("determinant", 1.0, marks=pytest.mark.xfail(
        strict=True, reason="the first beam ties across the 4 x 1 shape's "
        "16 groups, and the lowest index does not pick the mirror of the "
        "unmirrored chain's group"))])
@pytest.mark.parametrize("mirror", ["z", "y"])
def test_mirrors_keep_the_subarray_capacity(codebook_mirrors, mirror,
                                            metric, snr):
    # every sub-array shape's groups and local codebook map onto themselves,
    # so the winning shape and its capacity are those of the unmirrored
    # array.  Measured: to 2.2e-15, but for the determinant chains at
    # SNR 1 only to 1.4e-4 (N_UE = 16, shape 4 x 1).  Every group sees the
    # same correlation block, so the chain's first beam ties across all
    # groups, and a greedy chain that starts in another group ends elsewhere
    r, mirrored = codebook_mirrors
    for n_ue in (4, 16):
        got = [conventional.best_subarray_partition(n_ue * rr, ARRAY, n_ue,
                                                    snr, metric)
               for rr in (r, mirrored[mirror])]
        assert got[0][0] == got[1][0], n_ue
        total = got[0][2].total
        assert abs(got[1][2].total - total) <= 1e-12 * total, n_ue
