"""Single-mode and dense oracles that only the tests call.

The library evaluates every mode at once (`modes.far_field_matrix`,
`modes.regular_wave_matrix`, `modes.FieldTable`), refreshes beams inside
`optimizer.run` and never forms a zero-padded sub-array codebook.  The
functions here are the one-at-a-time and dense forms those paths are held
to: per-mode far fields and regular waves, the dipole's nodal power, one
optimizer half-step, one DFT beam, the embedded sub-array codebook and the
two greedy chains as a stable sort and as a fresh Cholesky factor per pick.

Test modules import them as ``import oracles``; pytest puts ``tests/`` on
the import path.  Nothing under ``src/`` or ``demos/`` imports this module.
"""

import numpy as np
import scipy.linalg

from obpb.conventional import _TIE_REL, dft_codebook, subarray_groups
from obpb.modes import (DIPOLE_SMN, POLE_CLAMP, _check_smn, _mode_sign,
                        normalized_legendre, radial_factors)
from obpb.optimizer import _correlation, _end, dominant_beams


def far_field_function(s, m, n, theta, phi):
    """Far-field pattern function K_smn at directions (theta, phi).

    Returns (K_theta, K_phi) as complex arrays broadcast over the inputs.
    """
    _check_smn(s, m, n)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    P, dP = normalized_legendre(n, abs(m), theta)
    pb, dpb = P[-1], dP[-1]
    st = np.sin(np.clip(theta, POLE_CLAMP, np.pi - POLE_CLAMP))
    c = np.sqrt(2.0 / (n * (n + 1.0))) * _mode_sign(m)
    azim = np.exp(1j * m * phi)
    mps = 1j * m * pb / st
    if s == 1:
        pref = c * (-1j) ** (n + 1)
        return pref * azim * mps, pref * azim * (-dpb)
    pref = c * (-1j) ** n
    return pref * azim * dpb, pref * azim * mps


def regular_wave_function(s, m, n, r, theta, phi):
    """Regular spherical wave function F^(1)_smn at points (r, theta, phi).

    Returns (F_r, F_theta, F_phi) in spherical components.  The tangential
    part equals K_smn times the per-mode radial scalar, so the phase
    conventions match far_field_function exactly.
    """
    _check_smn(s, m, n)
    r = np.asarray(r, dtype=float)
    R1, R2, Rr = radial_factors(n, 2.0 * np.pi * r)
    Kth, Kph = far_field_function(s, m, n, theta, phi)
    if s == 1:
        zero = np.zeros(np.broadcast(r, np.asarray(theta), np.asarray(phi)).shape)
        return zero, R1[-1] * Kth, R1[-1] * Kph
    P, _ = normalized_legendre(n, abs(m), theta)
    c = np.sqrt(2.0 / (n * (n + 1.0))) * _mode_sign(m)
    pref = c * (-1j) ** n
    Fr = Rr[-1] * pref * np.exp(1j * m * np.asarray(phi)) * P[-1]
    return Fr, R2[-1] * Kth, R2[-1] * Kph


def omni_power(grid):
    """Radiated power pattern of the unit-norm lowest TM mode on a grid.

    This is the electrically small dipole reference: |K_201|^2, a
    sin^2(theta) donut carrying total power 4 pi like every mode.
    """
    kth, kph = far_field_function(*DIPOLE_SMN, grid.theta, grid.phi)
    return np.abs(kth) ** 2 + np.abs(kph) ** 2


def optimize_side(q_far, profile, modes_near, modes_far, m, side):
    """One half-step: refresh the beams of `side` against fixed far beams.

    q_far: mode coefficients of the far side's current beams over
    modes_far; modes_near: the ModeSet of the side being refreshed.
    side: 'bs' or 'ue'.  Returns (Q, lam) for the refreshed side.
    """
    far_side = "ue" if side == "bs" else "bs"
    return dominant_beams(_correlation(
        profile, q_far, _end(profile, side, modes_near),
        _end(profile, far_side, modes_far)), m)


def dft_weight(config, p, q, sub_shape=None):
    """One DFT beam (p, q), unit norm, over the full array or a sub shape."""
    n_v, n_h = sub_shape if sub_shape is not None else (config.n_v, config.n_h)
    a = config.beam_interval
    u = np.arange(n_v)[:, None]
    v = np.arange(n_h)[None, :]
    w = np.exp(-2j * np.pi * (u * (p - 1) / (a * n_v)
                              + v * (q - 1) / (a * n_h)))
    return (w / np.sqrt(n_v * n_h)).ravel()


def subarray_codebook(config, sub_shape):
    """Embedded per-group DFT beams: the dense oracle of
    `conventional.subarray_selection`.

    Returns (weights, group_of): weights (N, n_groups * a^2 N_sub) with each
    group's codebook zero-padded to full length, and the owning group index
    per column.  Total candidate count is a^2 N regardless of the shape.
    The search never forms these weights or their Gram; tests compare its
    chains with greedy chains on ``candidate_gram(weights, R)``.
    """
    groups = subarray_groups(config, sub_shape)
    local = dft_codebook(config, sub_shape)
    n = config.n_elements
    weights = np.zeros((n, len(groups) * local.shape[1]), dtype=complex)
    group_of = np.empty(len(groups) * local.shape[1], dtype=int)
    for g, idx in enumerate(groups):
        lo = g * local.shape[1]
        weights[np.ix_(idx, np.arange(lo, lo + local.shape[1]))] = local
        group_of[lo:lo + local.shape[1]] = g
    return weights, group_of


def power_chain(power, m, group_of=None):
    """The power rule's chain as a stable sort of the powers: the first m
    candidates by descending power, skipping groups already used."""
    chosen = []
    used = set()
    for c in np.argsort(-power, kind="stable"):
        if group_of is not None:
            if group_of[c] in used:
                continue
            used.add(group_of[c])
        chosen.append(int(c))
        if len(chosen) == m:
            return chosen
    raise ValueError("not enough admissible candidates for m beams")


def det_chain(diag, gram_row, m, group_of=None):
    """The determinant rule's chain, re-scoring every candidate after each
    pick from a fresh Cholesky factor and triangular solve of the whole
    chosen block.  Returns (chain, its Gram rows (m, n_candidates)).
    """
    chosen = []
    rows = []
    used = set()
    schur = diag.copy()
    for _ in range(m):
        score = schur.copy()
        if group_of is not None and used:
            score[np.isin(group_of, list(used))] = -np.inf
        if chosen:
            score[chosen] = -np.inf
        best = np.max(score)
        if not np.isfinite(best) or best <= 0:
            raise ValueError("determinant metric exhausted admissible beams")
        cands = np.flatnonzero(score >= best - _TIE_REL * abs(best))
        c = int(cands.min())
        chosen.append(c)
        rows.append(gram_row(c))
        if group_of is not None:
            used.add(group_of[c])
        gs = np.array(rows)
        l = scipy.linalg.cholesky(gs[:, chosen], lower=True)
        x = scipy.linalg.solve_triangular(l, gs, lower=True)
        schur = diag - np.sum(np.abs(x) ** 2, axis=0)
    return chosen, np.array(rows)
