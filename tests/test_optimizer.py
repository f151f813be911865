"""Alternating eigenbeam optimizer at desk scale.

Small truncations and coarse grids keep each run in milliseconds; the heavy
full-scale monotonicity/convergence checks live with the release gates.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

import oracles
from obpb import capacity, correlation, optimizer, profiles
from obpb.modes import ModeSet


@pytest.fixture(scope="module")
def desk():
    modeset = ModeSet(truncation_order=2)
    profile = profiles.JointProfile(profiles.baseline_params(),
                                    bs_grid=profiles.make_grid(24, 48),
                                    ue_grid=profiles.make_grid(12, 24))
    return modeset, profile


def _random_psd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T


def test_config_validation():
    with pytest.raises(ValueError):
        optimizer.ObpbConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        optimizer.ObpbConfig(max_iterations=0)


def test_dominant_beams_matches_eigh():
    rng = np.random.default_rng(0)
    r = _random_psd(rng, 12)
    q, lam = optimizer.dominant_beams(r, 4)
    ref = np.linalg.eigvalsh(r)[::-1][:4]
    assert np.abs(lam - ref).max() < 1e-10 * ref[0]
    assert lam[0] >= lam[1] >= lam[2] >= lam[3]
    # beams are conjugated eigenvectors under the bilinear convention:
    # Q^T R Q^* must come out diagonal with the eigenvalues on it
    rb = correlation.beam_correlation(q, r)
    assert np.abs(rb - np.diag(lam)).max() < 1e-10 * ref[0]
    # orthonormal coefficient columns
    assert np.abs(q.conj().T @ q - np.eye(4)).max() < 1e-12


def test_dominant_beams_phase_is_pinned(monkeypatch):
    # each eigenvector v = q^* is rotated so that its product <v0, v> with
    # the fixed Krylov start v0 is real positive
    rng = np.random.default_rng(1)
    r = _random_psd(rng, 8)
    q, _ = optimizer.dominant_beams(r, 3)
    picked = optimizer._krylov_start(8).conj() @ q.conj()
    assert np.all(np.abs(picked.imag) <= 1e-15 * picked.real)
    assert picked.real.min() > 0
    # a column orthogonal to v0 falls back to its largest entry
    monkeypatch.setattr(optimizer, "_krylov_start",
                        lambda j: np.array([1.0, 0.0, 0.0]))
    vecs = np.array([[0.6, 0.0], [0.0, 0.6j], [-0.8j, 0.8j]])
    assert np.array_equal(optimizer._phase_fix(vecs),
                          [[0.6, 0.0], [0.0, 0.6], [-0.8j, 0.8]])


def test_dominant_beams_deterministic_under_degeneracy():
    # an exactly repeated eigenvalue: the tie is broken by anchor position,
    # so two calls agree entry for entry
    r = np.diag([3.0, 3.0, 1.0]).astype(complex)
    q1, lam1 = optimizer.dominant_beams(r, 2)
    q2, lam2 = optimizer.dominant_beams(r, 2)
    assert np.array_equal(q1, q2) and np.array_equal(lam1, lam2)
    assert np.allclose(lam1, [3.0, 3.0])


def test_dominant_beams_rejects_bad_m():
    r = np.eye(4, dtype=complex)
    for m in (0, 5):
        with pytest.raises(ValueError):
            optimizer.dominant_beams(r, m)


def test_optimize_side_requires_valid_side(desk):
    modeset, profile = desk
    q = np.zeros((modeset.mode_count, 1), dtype=complex)
    q[0, 0] = 1.0
    with pytest.raises(ValueError):
        oracles.optimize_side(q, profile, modeset, modeset, 1, "relay")


def test_run_rejects_oversized_m(desk):
    modeset, profile = desk
    with pytest.raises(ValueError):
        optimizer.run(optimizer.ObpbConfig(), profile, modeset, modeset,
                      modeset.mode_count + 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_run_monotone_and_converged(desk, m):
    modeset, profile = desk
    eps = 1e-3
    res = optimizer.run(optimizer.ObpbConfig(epsilon=eps), profile,
                        modeset, modeset, m)
    h = np.asarray(res.objective_history)
    assert h.size >= 1
    # each half-step maximizes its own side's objective, so the shared
    # figure of merit may wiggle below the convergence tolerance near the
    # fixed point; it must never drop by more than that tolerance
    drops = h[:-1] - h[1:]
    assert drops.max(initial=0.0) <= eps * max(h.max(), 1.0)
    assert res.converged and res.iterations <= 200
    # coefficient matrices keep orthonormal columns on both sides
    for q in (res.q_bs, res.q_ue):
        assert q.shape[1] == m
        assert np.abs(q.conj().T @ q - np.eye(m)).max() < 1e-10
    # the cached BS correlation matches a fresh evaluation against q_ue
    r_check = correlation.mode_correlation(
        modeset, profile.marginal_bs(profiles.pattern_power(
            res.q_ue, modeset, profile.ue_grid, profile.params.polarization)),
        profile.bs_grid)
    assert np.abs(res.r_bs - r_check).max() < 1e-12 * np.abs(r_check).max()


def test_seed_beam_is_the_lowest_tm_mode(desk):
    # the first half-step starts from the electrically small dipole; its
    # marginal is the donut-weighted profile, which a direct assembly of the
    # first history entry must reproduce
    modeset, profile = desk
    res = optimizer.run(optimizer.ObpbConfig(), profile, modeset, modeset,
                        1)
    from obpb.modes import flat_index
    q_seed = np.zeros((modeset.mode_count, 1), dtype=complex)
    q_seed[flat_index(2, 0, 1) - 1, 0] = 1.0
    r0 = correlation.mode_correlation(
        modeset, profile.marginal_bs(profiles.pattern_power(
            q_seed, modeset, profile.ue_grid, profile.params.polarization)),
        profile.bs_grid)
    lam0 = np.linalg.eigvalsh(r0)[-1]
    assert abs(res.objective_history[0] - lam0) < 1e-10 * lam0


def test_shared_seed_matches_independent_runs(desk):
    # a sweep over M builds the dipole-seeded BS correlation and its
    # eigenbeams once; every run handed the shared sweep must reproduce a
    # run on a fresh sweep bit for bit and leave the shared one untouched
    modeset, profile = desk
    config = optimizer.ObpbConfig()
    sweep = optimizer.Sweep(profile, modeset, modeset, 3)
    before = [a.copy() for a in (sweep.r_seed, sweep.q_seed, sweep.lam_seed)]
    for m in (1, 2, 3):
        shared = optimizer.run(config, profile, modeset, modeset, m,
                               sweep=sweep)
        fresh = optimizer.run(config, profile, modeset, modeset, m,
                              sweep=optimizer.Sweep(profile, modeset,
                                                    modeset, 3))
        assert np.array_equal(fresh.q_bs, shared.q_bs)
        assert np.array_equal(fresh.q_ue, shared.q_ue)
        assert fresh.objective_history == shared.objective_history
        assert np.array_equal(fresh.r_bs, shared.r_bs)
    after = (sweep.r_seed, sweep.q_seed, sweep.lam_seed)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_full_polarization_sweep_matches_per_m_runs():
    # under 'full' polarization the seed's eigenvalues come in degenerate
    # pairs (gaps below 1e-15 lambda_0 at odd M), where a prefix of the m_max
    # solve would pick one vector of a 2-D eigenspace by the m_max solve.
    # The sweep solves those M at M itself, so their runs are the runs
    # without a sweep bit for bit; at the other M the runs agree in every
    # phase-invariant output, and so in the rank adaptation's M_opt
    m_max = 8
    base = profiles.baseline_params()
    params = profiles.ProfileParams(base.mean_bs, base.mean_ue, base.sigma,
                                    base.corr, polarization="full")
    modes_bs, modes_ue = ModeSet(truncation_order=6), ModeSet(
        truncation_order=2)
    profile = profiles.JointProfile(params,
                                    bs_grid=profiles.make_grid(16, 32),
                                    ue_grid=profiles.make_grid(8, 16))
    config = optimizer.ObpbConfig(epsilon=1e-6)
    sweep = optimizer.Sweep(profile, modes_bs, modes_ue, m_max)
    lam = sweep.lam_seed
    degenerate = [m for m in range(1, m_max)
                  if lam[m - 1] - lam[m] <= 1e-10 * lam[0]]
    assert degenerate == [1, 3, 5, 7]
    r_h = {}, {}
    for m in range(1, m_max + 1):
        alone = optimizer.run(config, profile, modes_bs, modes_ue, m)
        swept = optimizer.run(config, profile, modes_bs, modes_ue, m,
                              sweep=sweep)
        if m in degenerate:
            assert np.array_equal(alone.q_bs, swept.q_bs)
            assert np.array_equal(alone.q_ue, swept.q_ue)
            assert alone.objective_history == swept.objective_history
        assert (alone.iterations, alone.converged) == \
            (swept.iterations, swept.converged)
        h_a = np.array(alone.objective_history)
        h_s = np.array(swept.objective_history)
        assert np.abs(h_a - h_s).max() <= 1e-12 * h_a.max()
        assert np.abs(alone.eigvals_bs - swept.eigvals_bs).max() \
            <= 1e-12 * alone.eigvals_bs[0]
        assert np.abs(alone.r_bs - swept.r_bs).max() \
            <= 1e-12 * np.abs(alone.r_bs).max()
        assert np.abs(alone.q_bs @ alone.q_bs.conj().T
                      - swept.q_bs @ swept.q_bs.conj().T).max() <= 1e-12
        for res, family in zip((alone, swept), r_h):
            family[m] = correlation.beam_correlation(res.q_bs, res.r_bs)
    for snr in (0.1, 1.0, 10.0):
        assert capacity.rank_adapt(r_h[0].get, m_max, snr).m_opt == \
            capacity.rank_adapt(r_h[1].get, m_max, snr).m_opt


def test_seed_eigenbeam_prefixes_are_the_per_m_eigenbeams():
    # a sweep solves the seed's eigenproblem once at m_max and starts the
    # run at each M from the first M eigenbeams: top-M eigenvectors are
    # nested while lambda_M > lambda_{M+1}.  On J = 96 (the Krylov path)
    # each prefix equals dominant_beams at that M, eigenvalues to 1e-13 of
    # lambda_0 and vectors, phases included, to 1e-12: the phase rule reads
    # the product with the fixed Krylov start, not a single entry
    m_max = 10
    modes_bs, modes_ue = ModeSet(truncation_order=6), ModeSet(
        truncation_order=2)
    profile = profiles.JointProfile(profiles.baseline_params(),
                                    bs_grid=profiles.make_grid(16, 32),
                                    ue_grid=profiles.make_grid(8, 16))
    sweep = optimizer.Sweep(profile, modes_bs, modes_ue, m_max)
    lam_all = np.linalg.eigvalsh(sweep.r_seed)[::-1]
    assert np.all(lam_all[:m_max] - lam_all[1:m_max + 1] > 1e-6 * lam_all[0])
    for m in range(1, m_max + 1):
        q, lam = optimizer.dominant_beams(sweep.r_seed, m)
        assert np.abs(sweep.lam_seed[:m] - lam).max() <= 1e-13 * lam[0]
        assert np.abs(sweep.q_seed[:, :m] - q).max() <= 1e-12, m


# ---------------------------------------------------------------------------
# Krylov top-M solver against dense eigh
# ---------------------------------------------------------------------------

def _prescribed(rng, vals):
    """Hermitian PSD matrix with spectrum `vals` and its eigenvectors."""
    j = vals.size
    u, _ = np.linalg.qr(rng.standard_normal((j, j))
                        + 1j * rng.standard_normal((j, j)))
    r = (u * vals) @ u.conj().T
    return 0.5 * (r + r.conj().T), u


def _assert_matches_dense(r, m):
    """Eigenvalues within 1e-12 relative and the top-M eigenspace within
    1 - cos 1e-12 of scipy.linalg.eigh; reruns bitwise identical."""
    j = r.shape[0]
    q, lam = optimizer.dominant_beams(r, m)
    q2, lam2 = optimizer.dominant_beams(r, m)
    assert np.array_equal(q, q2) and np.array_equal(lam, lam2)
    ref_vals, ref_vecs = scipy.linalg.eigh(r, subset_by_index=[j - m, j - 1])
    ref_vals = ref_vals[::-1]
    assert np.all(np.abs(lam - ref_vals) <= 1e-12 * ref_vals)
    # largest principal angle between the two spans, from its sine so that
    # 1 - cos is resolved below machine epsilon
    v = q.conj()
    sin = np.linalg.norm(v - ref_vecs @ (ref_vecs.conj().T @ v), 2)
    assert sin ** 2 / (1.0 + np.sqrt(max(1.0 - sin ** 2, 0.0))) <= 1e-12
    assert np.abs(q.conj().T @ q - np.eye(m)).max() < 1e-12


_J = st.integers(min_value=100, max_value=140)
_M = st.integers(min_value=1, max_value=12)
_SEED = st.integers(min_value=0, max_value=2 ** 31 - 1)


def _spectrum(rng, j, m):
    """Top m eigenvalues in [0.55, 1], the rest in [0.01, 0.5]."""
    vals = np.sort(rng.uniform(0.01, 0.5, j))[::-1]
    vals[:m] = np.sort(rng.uniform(0.55, 1.0, m))[::-1]
    return vals


@settings(max_examples=25, deadline=None)
@given(_J, _M, _SEED, st.floats(min_value=-6.0, max_value=np.log10(0.02)))
def test_dominant_beams_clustered_cut(j, m, seed, log_gap):
    # lambda_M / lambda_{M+1} in (1, 1.02]; below a gap of 1e-6 the top-M
    # eigenspace itself moves by more than 1e-12 under roundoff, whatever
    # the solver
    rng = np.random.default_rng(seed)
    vals = _spectrum(rng, j, m)
    vals[m] = vals[m - 1] / (1.0 + 10.0 ** log_gap)
    vals[m + 1:] = np.minimum(vals[m + 1:], 0.999 * vals[m])
    r, _ = _prescribed(rng, vals)
    _assert_matches_dense(r, m)


@settings(max_examples=25, deadline=None)
@given(_J, st.integers(min_value=2, max_value=12), _SEED,
       st.integers(min_value=2, max_value=3))
def test_dominant_beams_repeated_eigenvalue(j, m, seed, multiplicity):
    # an eigenvalue repeated exactly inside the top M
    rng = np.random.default_rng(seed)
    vals = _spectrum(rng, j, m)
    multiplicity = min(multiplicity, m)
    first = int(rng.integers(0, m - multiplicity + 1))
    vals[first:first + multiplicity] = vals[first]
    vals[:m] = np.sort(vals[:m])[::-1]
    r, _ = _prescribed(rng, vals)
    _assert_matches_dense(r, m)


@settings(max_examples=10, deadline=None)
@given(_J, _SEED)
@example(j=125, seed=157173)
def test_dominant_beams_extreme_m(j, seed):
    # m = 1 runs the Krylov solver; m = J - 2, J - 1 and J run dense eigh
    rng = np.random.default_rng(seed)
    r, _ = _prescribed(rng, np.sort(rng.uniform(0.01, 1.0, j))[::-1])
    for m in (1, j - 2, j - 1, j):
        _assert_matches_dense(r, m)


def test_dominant_beams_falls_back_to_eigh(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "forced", np.empty(0), np.empty((0, 0)))

    rng = np.random.default_rng(3)
    j, m = 120, 5
    r, _ = _prescribed(rng, _spectrum(rng, j, m))
    krylov_q, krylov_lam = optimizer.dominant_beams(r, m)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    q, lam = optimizer.dominant_beams(r, m)
    # the fallback is the dense solve, bit for bit
    vals, vecs = optimizer._order_descending(
        *scipy.linalg.eigh(r, subset_by_index=[j - m, j - 1], driver="evx"))
    assert np.array_equal(lam, vals)
    assert np.array_equal(q, optimizer._phase_fix(vecs).conj())
    assert not np.array_equal(q, krylov_q)
    assert np.abs(lam - krylov_lam).max() <= 1e-12 * lam[0]
    _assert_matches_dense(r, m)
