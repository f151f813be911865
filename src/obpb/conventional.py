"""Conventional hybrid beamforming baselines: planar patch arrays with
linear-phase-shift (DFT) analog beams.

The base station is an N_V x N_H half-wavelength grid in the y-z plane
(vertical index along z, horizontal along y) of directive patch elements.
Analog beams come from an a-times oversampled 2-D DFT codebook,

    d_(u,v),(p,q) = exp(-j 2 pi (u-1)(p-1) / (a N_V))
                  * exp(-j 2 pi (v-1)(q-1) / (a N_H)) / sqrt(N),

either over the full array or per sub-array group (the codebook of the
group's shape, zero elsewhere).  Beams are picked greedily under the mean
received power metric or the channel-correlation determinant metric; the
element-space correlation matrix plays the role the mode-space matrix has
for the surface beams, with the identical bilinear pattern convention
g = d^T a(psi).

The user side keeps its N_UE patch elements digital, so only the summed
element power enters the base-station marginal, and the element correlation
scales linearly with N_UE without changing any selection.
"""

import numpy as np
import scipy.linalg

from . import capacity

# the ten sub-array shapes (vertical x horizontal) admitted by the search
SUBARRAY_SHAPES = ((1, 4), (2, 2), (4, 1), (1, 8), (2, 4), (4, 2), (8, 1),
                   (2, 8), (4, 4), (8, 2))

_TIE_REL = 1e-12


class ArrayConfig:
    """Planar array geometry and codebook parameters."""

    def __init__(self, n_v=8, n_h=8, spacing=0.5, beam_interval=4):
        if n_v < 1 or n_h < 1:
            raise ValueError("element counts must be positive")
        self.n_v = int(n_v)
        self.n_h = int(n_h)
        self.spacing = float(spacing)
        self.beam_interval = int(beam_interval)

    @property
    def n_elements(self):
        return self.n_v * self.n_h

    @property
    def n_beams(self):
        """Codebook size: the beam interval oversamples both array axes."""
        return self.beam_interval ** 2 * self.n_elements

    def positions(self):
        """Element centers (N, 3); x = 0, z vertical, y horizontal, centered.

        Flat order is vertical-major: element (u, v) -> row u * n_h + v.
        """
        zu = (np.arange(self.n_v) - (self.n_v - 1) / 2.0) * self.spacing
        yv = (np.arange(self.n_h) - (self.n_h - 1) / 2.0) * self.spacing
        zz, yy = np.meshgrid(zu, yv, indexing="ij")
        return np.stack([np.zeros(self.n_elements), yy.ravel(), zz.ravel()],
                        axis=1)


def element_gain_db(theta, phi):
    """Directive patch element gain [dBi], boresight +x (theta=90, phi=0).

    The standard sectored pattern: 12 dB parabolic rolloffs in both planes
    clipped at 30 dB front-to-back, 8 dBi peak.
    """
    theta = np.degrees(np.asarray(theta, dtype=float))
    phi = np.degrees(np.asarray(phi, dtype=float))
    a_v = -np.minimum(12.0 * ((theta - 90.0) / 65.0) ** 2, 30.0)
    a_h = -np.minimum(12.0 * (phi / 65.0) ** 2, 30.0)
    return 8.0 - np.minimum(-(a_v + a_h), 30.0)


def element_amplitude(theta, phi):
    """Element field amplitude (theta polarized), sqrt of the linear gain."""
    return 10.0 ** (element_gain_db(theta, phi) / 20.0)


def steering_matrix(config, theta, phi):
    """Element patterns a_n(psi) stacked as (N, n_nodes).

    a_n = element amplitude times the phase of position x_n seen from the
    far-field direction, exp(+j 2 pi r^ . x_n); beams then radiate
    g = d^T a like the mode convention.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    st = np.sin(theta)
    rhat = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])
    phase = np.exp(2j * np.pi * (config.positions() @ rhat))
    return element_amplitude(theta, phi) * phase


def dft_weight(config, p, q, sub_shape=None):
    """One DFT beam (p, q), unit norm, over the full array or a sub shape."""
    n_v, n_h = sub_shape if sub_shape is not None else (config.n_v, config.n_h)
    a = config.beam_interval
    u = np.arange(n_v)[:, None]
    v = np.arange(n_h)[None, :]
    w = np.exp(-2j * np.pi * (u * (p - 1) / (a * n_v)
                              + v * (q - 1) / (a * n_h)))
    return (w / np.sqrt(n_v * n_h)).ravel()


def dft_codebook(config, sub_shape=None):
    """All a^2 N beams as columns (N, a^2 N), q fastest: column (p-1) a n_h + (q-1)."""
    n_v, n_h = sub_shape if sub_shape is not None else (config.n_v, config.n_h)
    a = config.beam_interval
    dv = np.exp(-2j * np.pi * np.outer(np.arange(n_v), np.arange(a * n_v))
                / (a * n_v))
    dh = np.exp(-2j * np.pi * np.outer(np.arange(n_h), np.arange(a * n_h))
                / (a * n_h))
    cols = np.einsum("up,vq->uvpq", dv, dh).reshape(n_v * n_h, -1)
    return cols / np.sqrt(n_v * n_h)


def subarray_groups(config, sub_shape):
    """Element index sets of each rectangular sub-array group, row-major."""
    sv, sh = sub_shape
    if config.n_v % sv or config.n_h % sh:
        raise ValueError("sub-array shape must tile the array")
    groups = []
    for gu in range(config.n_v // sv):
        for gv in range(config.n_h // sh):
            u = gu * sv + np.arange(sv)[:, None]
            v = gv * sh + np.arange(sh)[None, :]
            groups.append((u * config.n_h + v).ravel())
    return groups


def subarray_codebook(config, sub_shape):
    """Embedded per-group DFT beams.

    Returns (weights, group_of): weights (N, n_groups * a^2 N_sub) with each
    group's codebook zero-padded to full length, and the owning group index
    per column.  Total candidate count is a^2 N regardless of the shape.
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


def element_correlation(profile, config, n_ue=1):
    """Element-space correlation of the base-station array.

    R[i, j] = N_UE * integral P_BS,marg(psi) a_i(psi) a_j(psi)^* dpsi, where
    the marginal weights the joint profile by the user elements' summed
    pattern power (their positions cancel in the power sum, so N_UE enters
    only as the prefactor and never changes a beam selection).
    """
    grid = profile.bs_grid
    ue = profile.ue_grid
    ue_power = element_amplitude(ue.theta, ue.phi) ** 2
    marginal = profile.marginal_bs(ue_power)
    a = steering_matrix(config, grid.theta, grid.phi)
    wm = np.maximum(grid.weights * marginal, 0.0)
    keep = np.flatnonzero(wm > 1e-15 * wm.max())
    block = np.ascontiguousarray(a[:, keep] * np.sqrt(wm[keep]))
    r = block @ block.conj().T
    return n_ue * 0.5 * (r + r.conj().T)


def candidate_gram(weights, r_elem):
    """Beam-space Gram G = W^T R W^* of all candidate beams (Hermitian PSD)."""
    g = weights.T @ r_elem @ weights.conj()
    return 0.5 * (g + g.conj().T)


def greedy_select_power(gram, m, group_of=None):
    """Top-m beams by mean received power diag(G), at most one per group.

    Only exact ties go to the lowest candidate index (a stable sort), so
    powers that differ in the last bits can order differently once G is
    rescaled.  The 1e-12 relative tie rule of greedy_select_det would make
    chains scale-invariant, but it moves sub_array det_db values that
    bench/reference.json pins.  Returns the indices in selection order.
    """
    power = np.real(np.diag(gram)).copy()
    order = np.argsort(-power, kind="stable")
    chosen = []
    used = set()
    for c in order:
        if group_of is not None:
            if group_of[c] in used:
                continue
            used.add(group_of[c])
        chosen.append(int(c))
        if len(chosen) == m:
            return chosen
    raise ValueError("not enough admissible candidates for m beams")


def greedy_select_det(gram, m, group_of=None):
    """Greedy determinant maximization over candidate beams.

    Each step adds the beam with the largest Schur complement against the
    current selection, det(G_{S+c}) = det(G_S) (g_cc - g_cS G_S^-1 g_Sc),
    at most one per group, lowest index on ties.
    """
    n = gram.shape[0]
    diag = np.real(np.diag(gram))
    chosen = []
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
        if group_of is not None:
            used.add(group_of[c])
        # rank-one update of all Schur complements against the new selection
        gs = gram[np.ix_(chosen, np.arange(n))]
        l = scipy.linalg.cholesky(gram[np.ix_(chosen, chosen)], lower=True)
        x = scipy.linalg.solve_triangular(l, gs, lower=True)
        schur = diag - np.sum(np.abs(x) ** 2, axis=0)
    return chosen


class ConventionalSelection:
    """A greedy chain over one codebook plus everything built from it.

    Both greedy rules are nested (the length-m selection is the prefix of
    the length-M chain), so rank adaptation slices prefixes of one chain.
    """

    def __init__(self, weights, gram, chain, group_of=None):
        self.weights = weights
        self.gram = gram
        self.chain = list(chain)
        self.group_of = group_of

    def beam_weights(self, m):
        return self.weights[:, self.chain[:m]]

    def beam_correlation(self, m):
        idx = self.chain[:m]
        return self.gram[np.ix_(idx, idx)]

    @property
    def m_max(self):
        return len(self.chain)


def _selection(weights, r_elem, m_max, metric, group_of=None):
    """Greedy chain of m_max candidate beams under the given metric."""
    gram = candidate_gram(weights, r_elem)
    select = greedy_select_power if metric == "power" else greedy_select_det
    return ConventionalSelection(weights, gram,
                                 select(gram, m_max, group_of), group_of)


def full_array_selection(r_elem, config, m_max, metric="power"):
    """Greedy chain of m_max full-array DFT beams under the given metric."""
    return _selection(dft_codebook(config), r_elem, m_max, metric)


def subarray_selection(r_elem, config, sub_shape, m_max, metric="power"):
    """Greedy chain of embedded sub-array beams, at most one per group."""
    weights, group_of = subarray_codebook(config, sub_shape)
    return _selection(weights, r_elem, m_max, metric, group_of)


def tiling_shapes(config, candidates=SUBARRAY_SHAPES):
    """The candidate sub-array shapes that tile the array, in listed order."""
    return [tuple(s) for s in candidates
            if config.n_v % s[0] == 0 and config.n_h % s[1] == 0]


def best_subarray_partition(r_elem, config, n_ue, snr,
                            candidates=SUBARRAY_SHAPES, metric="power"):
    """Pick the sub-array shape maximizing rank-adapted average capacity.

    Each candidate shape that tiles the array gets its own greedy chain up
    to min(n_groups, N_UE) streams; the shape whose best stream count yields
    the highest capacity wins (first listed wins ties).
    """
    best = None
    for shape in tiling_shapes(config, candidates):
        n_groups = config.n_elements // (shape[0] * shape[1])
        m_max = min(n_groups, int(n_ue))
        sel = subarray_selection(r_elem, config, shape, m_max, metric)
        report = capacity.rank_adapt(sel.beam_correlation, m_max, snr)
        if best is None or report.total > best[2].total * (1.0 + 1e-12):
            best = (shape, sel, report)
    if best is None:
        raise ValueError("no candidate partition tiles this array")
    return best
