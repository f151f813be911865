"""Alternating eigenbeam optimization in spherical-mode space.

Each side of the link keeps M beams described by mode coefficient matrices
Q.  One half-step fixes the far side, forms the azimuth harmonics of the
near-side marginal profile weighted by the far beams' radiated power,
assembles the near-side mode correlation matrix and replaces the near beams
with the conjugated dominant eigenvectors.  The figure of merit after every
half-step is

    det( Rtilde / M ) = prod_m lambda_m / M^M,

the determinant of the power-normalized beam correlation matrix, which the
eigenvector choice maximizes over all orthonormal coefficient sets for the
current far side.

The loop starts from a single electrically-small-dipole beam at the user
side and stops once two consecutive half-step transitions (one ending at
each side) change the figure of merit by less than a relative epsilon.  The
BS mode correlation under that seed does not depend on M, and neither do its
eigenbeams: the top-M eigenvectors of a matrix are the first M of its top
m_max whenever lambda_M > lambda_{M+1}.  So a sweep over M = 1 .. m_max
builds one `Sweep`, which solves the seed's eigenproblem once at m_max, and
hands it to every `run`; the first half-step at M takes the first M seed
eigenbeams, or solves at M itself where lambda_M and lambda_{M+1} are
degenerate.  The sweep also holds each end's `FieldTable`, the phi = 0
fields that every pattern-power harmonic and mode correlation of the sweep
reads.

Only the M dominant eigenpairs of each correlation are read, and M is small
against the mode count, so `dominant_beams` finds them by implicitly
restarted Arnoldi (ARPACK through `scipy.sparse.linalg.eigsh`) followed by a
Rayleigh-Ritz step, and uses a dense `eigh` only where the Krylov space would
be the whole space or ARPACK does not converge.  Every solve starts the
Krylov iteration from the same fixed vector, so a solve depends on nothing
but its matrix and M.
"""

import numpy as np

from . import correlation
from .modes import DIPOLE_SMN, FieldTable, flat_index

# eigenvalues closer than this (relatively) are treated as degenerate: their
# vectors are ordered by anchor-entry position, for run-to-run determinism,
# and a sweep's seed eigenbeams are not cut between them (`Sweep.beams`)
_DEGENERACY_TOL = 1e-10
# seed of the fixed Krylov start vector
_START_SEED = 0x0B9B
# LAPACK driver of the dense eigh.  Bisection plus inverse iteration keeps
# the eigenvectors orthonormal to ~3e-15 on a 125 x 125 matrix at M = J,
# where the default MRRR driver ('evr') left them 1.1e-12 off
_DENSE_DRIVER = "evx"


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

    def __init__(self, q_bs, q_ue, eigvals_bs, objective_history, converged,
                 iterations, r_bs):
        self.q_bs = q_bs
        self.q_ue = q_ue
        self.eigvals_bs = eigvals_bs
        self.objective_history = objective_history
        self.converged = converged
        self.iterations = iterations
        # base-station mode correlation under the final user beams; the
        # matrix any post-hoc beam set (e.g. surface projections) is
        # evaluated against
        self.r_bs = r_bs


def _phase_fix(vecs):
    """Rotate each column v so that <v0, v> = v0^H v is real positive for
    the fixed Krylov start v0 (`_krylov_start`).

    The rule is continuous in v and depends on no single entry, so equal
    magnitudes among the entries do not let roundoff pick the phase.  Only
    a column with a product of exactly 0 is anchored on its
    largest-magnitude entry instead.
    """
    ref = _krylov_start(vecs.shape[0]).conj() @ vecs
    zero = np.flatnonzero(ref == 0)
    ref[zero] = vecs[np.argmax(np.abs(vecs[:, zero]), axis=0), zero]
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
    # imported here, not at module load: scipy.linalg and scipy.sparse.linalg
    # cost tens of megabytes and a fifth of a second of start-up that runs
    # without an optimizer never use
    import scipy.linalg
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
            vals, w = scipy.linalg.eigh(correlation.hermitian_part(h))
            return vals, basis @ w
    return scipy.linalg.eigh(r_sph, subset_by_index=[j - m, j - 1],
                             driver=_DENSE_DRIVER)


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


def _end(profile, side, modeset):
    """One link end of a profile as (side, table): its side ('bs' or 'ue';
    any other raises ValueError) and its ModeSet's `FieldTable` on the
    end's grid's theta nodes under the profile's polarization, which every
    pattern-power harmonic and mode correlation of that end reads."""
    return side, FieldTable(modeset, profile.link_end(side)[0].theta_nodes,
                            profile.params.polarization)


def _correlation(profile, q_far, near, far):
    """Mode correlation of the `near` end under the marginal profile that
    the far beams' total radiated pattern power weights; near and far are
    `_end` pairs.

    The far table gives the far power's azimuth harmonics
    (`FieldTable.power_harmonics`), the profile's closed form maps them to
    the harmonics of the near end's weighted marginal
    (`JointProfile.weighted_harmonics`), and the near table assembles the
    correlation from those (`FieldTable.correlation`): no phi grid
    enters."""
    side, table = near
    d = profile.weighted_harmonics(far[1].power_harmonics(q_far), side,
                                   2 * table.modeset.truncation_order)
    return table.correlation(d)


def _converged(history, epsilon):
    if len(history) < 3:
        return False
    d1 = abs(history[-1] - history[-2])
    d2 = abs(history[-2] - history[-3])
    return (d1 <= epsilon * abs(history[-2])
            and d2 <= epsilon * abs(history[-3]))


class Sweep:
    """What every run of a sweep over M = 1 .. m_max shares.

    Both ends' field tables, the BS mode correlation under the single
    electrically-small-dipole beam at the user (``r_seed``, the first
    half-step's input at every M) and its top m_max eigenbeams from one
    `dominant_beams` call.  Top-M eigenvectors are nested when lambda_M >
    lambda_{M+1}, so there the first M columns and eigenvalues are the
    seed's top-M eigenbeams (`beams`).
    """

    def __init__(self, profile, modes_bs, modes_ue, m_max):
        self.bs = _end(profile, "bs", modes_bs)
        self.ue = _end(profile, "ue", modes_ue)
        q_dipole = np.zeros((modes_ue.mode_count, 1), dtype=complex)
        q_dipole[flat_index(*DIPOLE_SMN) - 1, 0] = 1.0
        self.r_seed = _correlation(profile, q_dipole, self.bs, self.ue)
        self.m_max = m_max
        self.q_seed, self.lam_seed = dominant_beams(self.r_seed, m_max)

    def beams(self, m):
        """The seed's top-m eigenbeams (Q, lam), m <= m_max.

        They are the first m of the m_max solve unless lambda_m and
        lambda_{m+1} are degenerate (within _DEGENERACY_TOL of lambda_0),
        as pairs of them are under 'full' polarization: the top-m space is
        then no function of the matrix alone, and a prefix would pick its
        m-th beam by the m_max solve.  Those m get their own solve at m, the
        same as a run without a sweep.
        """
        lam = self.lam_seed
        if m < self.m_max and lam[m - 1] - lam[m] <= _DEGENERACY_TOL * lam[0]:
            return dominant_beams(self.r_seed, m)
        return self.q_seed[:, :m].copy(), lam[:m].copy()


def run(config, profile, modes_bs, modes_ue, m, sweep=None):
    """Alternating optimization at fixed rank M.

    The objective tracked per half-step is det(R_h/M) of the base-station
    beam correlation matrix, re-evaluated after user-side updates as well:
    the two sides' determinants coincide only when the link is dual, and a
    cross-correlated profile leaves a permanent gap between them, while the
    single objective settles.  It is not monotone: the BS half-step is the
    exact maximizer of the objective, but the user half-step maximizes the
    user side's determinant instead, and the reading right after it can
    drop (by 3.60e-8, 7.63e-7 and 4.72e-5 relative at M = 2, 4 and 8 on
    the baseline profile; ROADMAP item 2).  The user update's effect on the
    objective arrives for free, since the refreshed BS mode correlation is
    needed by the next half-step anyway.

    Every half-step reads the profile in azimuth harmonics (`_correlation`):
    the far beams' pattern-power harmonics map in closed form to the
    harmonics of the near end's weighted marginal, from which the near mode
    correlation is assembled.  No phi grid and no dense field matrix enters,
    and every pattern power and mode correlation reads one `FieldTable` per
    end.  sweep, when given, is a `Sweep` of the same profile and
    mode sets with m_max >= M, shared by the runs of a sweep over M: the
    first half-step takes its seed eigenbeams at M (`Sweep.beams`), so the
    seed's eigenproblem is solved once for every M with a clear eigenvalue
    gap.  Such a run differs from one without a sweep, which solves at M
    itself, only in the last bits and in each seed beam's unit phase.
    Returns an ObpbResult.
    """
    if m < 1 or m > min(modes_bs.mode_count, modes_ue.mode_count):
        raise ValueError("need 1 <= M <= min mode count of the two ends")
    if sweep is None:
        sweep = Sweep(profile, modes_bs, modes_ue, m)
    elif m > sweep.m_max:
        raise ValueError("need M <= the sweep's m_max")
    bs, ue = sweep.bs, sweep.ue

    history = []
    converged = False
    iterations = 0
    norm = float(m) ** m
    r_bs = sweep.r_seed
    q_bs, lam_bs = sweep.beams(m)
    for iterations in range(1, config.max_iterations + 1):
        if iterations > 1:
            q_bs, lam_bs = dominant_beams(r_bs, m)
        history.append(float(np.prod(lam_bs)) / norm)
        if _converged(history, config.epsilon):
            converged = True
            break
        q_ue, _ = dominant_beams(_correlation(profile, q_bs, ue, bs), m)
        r_bs = _correlation(profile, q_ue, bs, ue)
        r_h = correlation.beam_correlation(q_bs, r_bs)
        history.append(float(np.real(np.linalg.det(r_h))) / norm)
        if _converged(history, config.epsilon):
            converged = True
            break
    return ObpbResult(q_bs, q_ue, lam_bs, history, converged, iterations,
                      r_bs)
