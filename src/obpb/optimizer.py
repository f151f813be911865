"""Alternating eigenbeam optimization in spherical-mode space.

Each side of the link keeps M beams described by mode coefficient matrices
Q.  One half-step fixes the far side, forms the near-side marginal profile
weighted by the far beams' radiated power, assembles the near-side mode
correlation matrix and replaces the near beams with the conjugated dominant
eigenvectors.  The figure of merit after every half-step is

    det( Rtilde / M ) = prod_m lambda_m / M^M,

the determinant of the power-normalized beam correlation matrix, which the
eigenvector choice maximizes over all orthonormal coefficient sets for the
current far side.

The loop starts from a single electrically-small-dipole beam at the user
side and stops once two consecutive half-step transitions (one ending at
each side) change the figure of merit by less than a relative epsilon.  The
BS mode correlation under that seed does not depend on M, so a sweep over M
builds it once (`seed_correlation`) and hands it to every `run`.

Only the M dominant eigenpairs of each correlation are read, and M is small
against the mode count, so `dominant_beams` finds them by implicitly
restarted Arnoldi (ARPACK through `scipy.sparse.linalg.eigsh`) followed by a
Rayleigh-Ritz step, and uses a dense `eigh` only where the Krylov space would
be the whole space or ARPACK does not converge.  Every solve starts the
Krylov iteration from the same fixed vector, so a solve depends on nothing
but its matrix and M.
"""

import numpy as np
import scipy.linalg

from . import correlation, profiles
from .modes import flat_index

# eigenvalues closer than this (relatively) are treated as degenerate and
# their vectors ordered by anchor-entry position, for run-to-run determinism
_DEGENERACY_TOL = 1e-10
# seed of the fixed Krylov start vector
_START_SEED = 0x0B9B


class ObpbConfig:
    """Knobs of the alternating optimization."""

    def __init__(self, epsilon=0.01, max_iterations=200):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.epsilon = float(epsilon)
        self.max_iterations = int(max_iterations)


class ObpbResult:
    """Outcome of one alternating run at fixed M."""

    def __init__(self, q_bs, q_ue, eigvals_bs, eigvals_ue, objective_history,
                 converged, iterations, r_bs=None):
        self.q_bs = q_bs
        self.q_ue = q_ue
        self.eigvals_bs = eigvals_bs
        self.eigvals_ue = eigvals_ue
        self.objective_history = objective_history
        self.converged = converged
        self.iterations = iterations
        # base-station mode correlation under the final user beams; the
        # matrix any post-hoc beam set (e.g. surface projections) is
        # evaluated against
        self.r_bs = r_bs

    @property
    def objective(self):
        return self.objective_history[-1]


def _phase_fix(vecs):
    """Rotate each column so its largest-magnitude entry is real positive."""
    anchors = np.argmax(np.abs(vecs), axis=0)
    ref = vecs[anchors, np.arange(vecs.shape[1])]
    mags = np.abs(ref)
    mags[mags == 0] = 1.0
    return vecs * (ref.conj() / mags)


def _order_descending(vals, vecs):
    """Sort eigenpairs by descending eigenvalue, breaking near-degenerate
    ties by the position of each vector's anchor entry."""
    idx = np.argsort(-vals, kind="stable")
    vals = vals[idx]
    vecs = vecs[:, idx]
    anchors = np.argmax(np.abs(vecs), axis=0)
    start = 0
    for stop in range(1, vals.size + 1):
        if stop < vals.size and abs(vals[stop] - vals[start]) <= (
                _DEGENERACY_TOL * max(abs(vals[start]), 1e-300)):
            continue
        if stop - start > 1:
            sub = start + np.argsort(anchors[start:stop], kind="stable")
            vals[start:stop] = vals[sub]
            vecs[:, start:stop] = vecs[:, sub]
        start = stop
    return vals, vecs


def _krylov_start(j):
    """Krylov start vector: a fixed unit vector that depends on nothing but
    j."""
    rng = np.random.default_rng(_START_SEED)
    v0 = rng.standard_normal(j) + 1j * rng.standard_normal(j)
    return v0 / np.linalg.norm(v0)


def _top_eigenpairs(r_sph, m):
    """The m largest eigenpairs of Hermitian r_sph, in no particular order.

    ARPACK's Ritz vectors for (nearly) repeated eigenvalues need not be
    orthogonal, so the returned pairs come from one Rayleigh-Ritz step on
    the orthonormalized Krylov answer.
    """
    # imported here, not at module load: scipy.sparse.linalg costs tens of
    # milliseconds of start-up that runs without an optimizer never use
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    j = r_sph.shape[0]
    ncv = max(2 * m + 1, m + 20)
    if ncv < j:
        try:
            _, vecs = eigsh(r_sph, k=m, which="LA", tol=0, ncv=ncv,
                            v0=_krylov_start(j))
        except ArpackNoConvergence:
            pass
        else:
            basis, _ = np.linalg.qr(vecs)
            h = basis.conj().T @ r_sph @ basis
            vals, w = scipy.linalg.eigh(0.5 * (h + h.conj().T))
            return vals, basis @ w
    return scipy.linalg.eigh(r_sph, subset_by_index=[j - m, j - 1])


def dominant_beams(r_sph, m):
    """Top-M eigenbeams of a mode correlation matrix.

    Returns (Q, lam): coefficients (J, M) with orthonormal columns and the
    eigenvalues in descending order.  Beams radiate g = q^T K, so the
    coefficient vectors are the conjugated eigenvectors; the beam-space
    correlation Q^T R Q^* then equals diag(lam).
    """
    j = r_sph.shape[0]
    if not 1 <= m <= j:
        raise ValueError("need 1 <= M <= mode count")
    vals, vecs = _order_descending(*_top_eigenpairs(r_sph, m))
    return _phase_fix(vecs).conj(), vals


def _side_correlation(q_far, profile, modes_near, modes_far, side):
    """Mode correlation of `side` under the marginal the far beams weight."""
    if side == "bs":
        marginal = profiles.marginal_profile_bs(profile, q_far, modes_far)
        grid = profile.bs_grid
    elif side == "ue":
        marginal = profiles.marginal_profile_ue(profile, q_far, modes_far)
        grid = profile.ue_grid
    else:
        raise ValueError("side is 'bs' or 'ue'")
    return correlation.mode_correlation(
        modes_near, marginal, grid, polarization=profile.params.polarization)


def optimize_side(q_far, profile, modes_near, modes_far, m, side):
    """One half-step: refresh the beams of `side` against fixed far beams.

    q_far: mode coefficients of the far side's current beams over
    modes_far; modes_near: the ModeSet of the side being refreshed.
    Returns (Q, lam) for the refreshed side.
    """
    return dominant_beams(
        _side_correlation(q_far, profile, modes_near, modes_far, side), m)


def _converged(history, epsilon):
    if len(history) < 3:
        return False
    d1 = abs(history[-1] - history[-2])
    d2 = abs(history[-2] - history[-3])
    return (d1 <= epsilon * abs(history[-2])
            and d2 <= epsilon * abs(history[-3]))


def seed_correlation(profile, modes_bs, modes_ue):
    """BS mode correlation under the single dipole seed beam at the user.

    This is the first half-step's input at every M.
    """
    q_ue = np.zeros((modes_ue.mode_count, 1), dtype=complex)
    q_ue[flat_index(2, 0, 1) - 1, 0] = 1.0
    return _side_correlation(q_ue, profile, modes_bs, modes_ue, "bs")


def run(config, profile, modes_bs, modes_ue, m, r_seed=None):
    """Alternating optimization at fixed rank M.

    The objective tracked per half-step is det(R_h/M) of the base-station
    beam correlation matrix, re-evaluated after user-side updates as well:
    the two sides' determinants coincide only when the link is dual, and a
    cross-correlated profile leaves a permanent gap between them, while the
    single objective both increases monotonically and settles.  The user
    update's effect on the objective arrives for free, since the refreshed
    BS mode correlation is needed by the next half-step anyway.

    Every marginal comes from the far beams' pattern power on the profile's
    product grids (profiles.marginal_profile_bs / _ue); no dense field
    matrix is formed.  r_seed, when given, is `seed_correlation` of the same
    profile and mode sets, shared by runs at different M; it is only read.
    Returns an ObpbResult.
    """
    if m < 1 or m > min(modes_bs.mode_count, modes_ue.mode_count):
        raise ValueError("need 1 <= M <= min mode count of the two ends")

    history = []
    converged = False
    iterations = 0
    norm = float(m) ** m
    r_bs = (r_seed if r_seed is not None
            else seed_correlation(profile, modes_bs, modes_ue))
    for iterations in range(1, config.max_iterations + 1):
        q_bs, lam_bs = dominant_beams(r_bs, m)
        history.append(float(np.prod(lam_bs)) / norm)
        if _converged(history, config.epsilon):
            converged = True
            break
        q_ue, lam_ue = optimize_side(q_bs, profile, modes_ue, modes_bs, m, "ue")
        r_bs = _side_correlation(q_ue, profile, modes_bs, modes_ue, "bs")
        r_h = correlation.beam_correlation(q_bs, r_bs)
        history.append(float(np.real(np.linalg.det(r_h))) / norm)
        if _converged(history, config.epsilon):
            converged = True
            break
    return ObpbResult(q_bs, q_ue, lam_bs, lam_ue, history, converged,
                      iterations, r_bs=r_bs)
