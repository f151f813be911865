"""Correlation matrices in mode space and beam space.

The central object is the spherical-mode correlation matrix of one link end,

    R[i, j] = integral P(psi) K_i(psi) . K_j(psi)^* dpsi,

with P the marginal angular power profile of that end and K_i the far-field
pattern functions.  Under 'theta' polarization only the theta components
enter the dot product; under 'full' both.  A beam described by mode
coefficients q radiates the pattern g(psi) = q^T K(psi) (no conjugation), so
the beam-space correlation of a coefficient matrix Q is Q^T R Q^*.

Assembly uses the separation of variables of the spherical modes on the
product quadrature grid: K_j(theta, phi) = K_j(theta, 0) e^(i m_j phi).  The
azimuth integral collapses into the Fourier coefficients of the weighted
marginal, |k| <= 2N,

    D[theta, k] = sum_phi w(theta, phi) P(theta, phi) e^(i k phi).

`mode_correlation` forms them from a marginal on the grid's nodes; the
optimizer takes them from `profiles.JointProfile.weighted_harmonics`, whose
closed form is the exact phi integral.  From D, the `modes.FieldTable` of
the theta nodes (its fields at phi = 0, T) builds the rows of the modes
with azimuthal order m_a as one theta-only product per polarization
component,

    R[a, :] = T_a (D[:, m_a - m] * T^*)^T,

with the column m_a - m_j of D picked for every mode j
(`FieldTable.correlation`).  The table also owns which components a
polarization reads and how its rows are stored; this module reads neither.
The Hermitian-part rule (`hermitian_part`) lives in `modes`, beside the
mode correlation that uses it, and is re-exported here.
"""

import numpy as np

from . import modes as modes_mod
# the one Hermitian-part rule, re-exported: the beam, element and codebook
# correlations read it from here
from .modes import hermitian_part  # noqa: F401

_DB = 10.0 / np.log(10.0)

# marginal profiles are quadratures of nonnegative integrands: anything more
# negative than this (relative to the peak) indicates a caller bug
_NEGATIVE_TOL = 1e-10


def mode_correlation(modeset, marginal, grid, polarization="theta",
                     prune_tol=1e-15):
    """Spherical-mode correlation matrix for one link end, from a marginal
    on the grid's nodes.

    Parameters
    ----------
    modeset : ModeSet
    marginal : (n_nodes,) nonnegative marginal power profile on the grid
    grid : DirectionGrid carrying the quadrature weights
    polarization : 'theta' keeps only theta components, 'full' both; any
        other value raises ValueError
    prune_tol : nodes whose weighted power is at most prune_tol times the
        peak are given zero weight

    The phi sum of the weighted marginal gives its harmonics D, from which
    the `modes.FieldTable` of the grid's theta nodes assembles R
    (`FieldTable.correlation`).  Returns the (J, J) Hermitian PSD matrix.
    """
    marginal = np.asarray(marginal, dtype=float)
    peak = marginal.max() if marginal.size else 0.0
    if peak > 0 and marginal.min() < -_NEGATIVE_TOL * peak:
        raise ValueError("marginal profile has significantly negative values")
    wm = np.maximum(grid.weights * marginal, 0.0)
    wm[wm <= prune_tol * wm.max()] = 0.0
    nmax = modeset.truncation_order
    k = np.arange(-2 * nmax, 2 * nmax + 1)
    d = wm.reshape(grid.shape) @ np.exp(1j * np.outer(grid.phi_nodes, k))
    return modes_mod.FieldTable(modeset, grid.theta_nodes,
                                polarization).correlation(d)


def beam_correlation(q, r_sph):
    """Beam-space correlation Q^T R Q^* of beams with mode coefficients Q."""
    q = np.asarray(q)
    if q.ndim == 1:
        q = q[:, None]
    return hermitian_part(q.T @ r_sph @ q.conj())


def normalize_correlation(r):
    """Magnitude correlation coefficients |r_ij| / sqrt(r_ii r_jj)."""
    d = np.real(np.diag(r)).copy()
    if np.any(d <= 0):
        raise ValueError("correlation matrix has a nonpositive diagonal")
    out = np.abs(r) / np.sqrt(np.outer(d, d))
    np.fill_diagonal(out, 1.0)
    return out


def det_db(r):
    """10 log10 det(R); -inf when the determinant is not positive."""
    sign, logabs = np.linalg.slogdet(r)
    if not np.isfinite(logabs) or np.real(sign) <= 0:
        return -np.inf
    return float(_DB * logabs)


def siso_reference(profile):
    """Mean channel power of the single-dipole link under a joint profile.

    r_omni = E|h|^2 for one unit-norm lowest-mode antenna at each end;
    the SNR calibration pins this link to a prescribed mean SNR.  Each
    end's dipole power is the beam power of the lowest TM mode in the
    `modes.FieldTable` of the N = 1 mode set on that end's theta nodes,
    the table every other pattern reads; its nodal oracle (`omni_power`)
    lives in tests/oracles.py.  The dipole's power does not depend on phi,
    so one phi node gives it, it has only the harmonic k = 0, and the link
    power is the k = 0 column of the BS end's `weighted_harmonics` against
    the UE dipole's power.
    """
    dipole = modes_mod.ModeSet(truncation_order=1)
    q = np.zeros(dipole.mode_count)
    q[modes_mod.flat_index(*modes_mod.DIPOLE_SMN) - 1] = 1.0
    omni_b, omni_u = (modes_mod.FieldTable(dipole, g.theta_nodes, "full")
                      .beam_power(q, g.phi_nodes[:1])[0, :, 0]
                      for g in (profile.bs_grid, profile.ue_grid))
    d = profile.weighted_harmonics(omni_u[:, None], "bs", 0)
    return float(omni_b @ d[:, 0].real)


def calibrated_snr(reference, siso_snr_db=-12.0):
    """Transmit SNR P/Pn making the dipole-to-dipole link, of mean channel
    power `reference` (`siso_reference`), sit at siso_snr_db."""
    return 10.0 ** (siso_snr_db / 10.0) / reference
