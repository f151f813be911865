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
from .correlation import hermitian_part

# the ten sub-array shapes (vertical x horizontal) admitted by the search
SUBARRAY_SHAPES = ((1, 4), (2, 2), (4, 1), (1, 8), (2, 4), (4, 2), (8, 1),
                   (2, 8), (4, 4), (8, 2))

# relative tie of the det chains and of the sub-array shape search
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


def element_correlation(profile, config):
    """Element-space correlation of the base-station array for one user
    element.

    R[i, j] = integral P_BS,marg(psi) a_i(psi) a_j(psi)^* dpsi, where the
    marginal weights the joint profile by the user element's pattern power.
    N_UE user elements sum their powers (their positions cancel in the power
    sum), so the correlation for N_UE of them is N_UE * R, and that factor
    never changes a beam selection.
    """
    grid = profile.bs_grid
    ue = profile.ue_grid
    ue_power = element_amplitude(ue.theta, ue.phi) ** 2
    # the nodal marginal, the dense joint matrix's product to the last bit:
    # the greedy chains built on this correlation break ties in the last
    # bit, so it keeps the matrix's +-1 images and trapezoid phi sums
    marginal = profile.marginal_bs(ue_power)
    wm = np.maximum(grid.weights * marginal, 0.0)
    keep = np.flatnonzero(wm > 1e-15 * wm.max())
    block = steering_matrix(config, grid.theta[keep], grid.phi[keep])
    block *= np.sqrt(wm[keep])
    return hermitian_part(block @ block.conj().T)


def candidate_gram(weights, r_elem):
    """Beam-space Gram G = W^T R W^* of all candidate beams (Hermitian PSD)."""
    return hermitian_part(weights.T @ r_elem @ weights.conj())


def greedy_select_power(gram, m, group_of=None):
    """Top-m beams by mean received power diag(G), at most one per group.

    Only exact ties go to the lowest candidate index (a stable sort), so
    powers that differ in the last bits can order differently once G is
    rescaled.  The 1e-12 relative tie rule of greedy_select_det would make
    chains scale-invariant, but it moves sub_array det_db values that
    bench/reference.json pins.  Returns the indices in selection order.
    """
    return _power_chain(np.real(np.diag(gram)), m, group_of)


def _power_chain(power, m, group_of):
    """greedy_select_power on the candidates' diagonal powers alone."""
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


def greedy_select_det(gram, m, group_of=None):
    """Greedy determinant maximization over candidate beams.

    Each step adds the beam with the largest Schur complement against the
    current selection, det(G_{S+c}) = det(G_S) (g_cc - g_cS G_S^-1 g_Sc),
    at most one per group, lowest index on ties.
    """
    return _det_chain(np.real(np.diag(gram)), gram.__getitem__, m,
                      group_of)[0]


def _det_chain(diag, gram_row, m, group_of):
    """greedy_select_det reading G through its diagonal and gram_row(c),
    the Gram row of candidate c, called once per chosen beam.

    Returns (chain, rows): the chain and its Gram rows (m, n_candidates).
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
        # Schur complements of every candidate against the whole selection,
        # from a fresh Cholesky factor of the chosen block
        gs = np.array(rows)
        l = scipy.linalg.cholesky(gs[:, chosen], lower=True)
        x = scipy.linalg.solve_triangular(l, gs, lower=True)
        schur = diag - np.sum(np.abs(x) ** 2, axis=0)
    return chosen, np.array(rows)


class ConventionalSelection:
    """A greedy chain over one codebook, reduced to what rank adaptation and
    the pattern tables read: the chain's weight columns (N, m) and its Gram
    block (m, m).

    Both greedy rules are nested (the length-m selection is the prefix of
    the length-M chain), so every m is a leading slice of those two arrays;
    the codebook and its full Gram are not kept.
    """

    def __init__(self, chain, weights, gram):
        self.chain = list(chain)
        self._weights = weights
        self._gram = gram

    def beam_weights(self, m):
        return self._weights[:, :m]

    def beam_correlation(self, m):
        return self._gram[:m, :m]

    @property
    def m_max(self):
        return len(self.chain)


def full_array_selections(r_elem, config, m_max, metrics):
    """Greedy chains of m_max full-array DFT beams under each metric, all
    read from one Gram of the codebook; returns {metric: selection}."""
    weights = dft_codebook(config)
    gram = candidate_gram(weights, r_elem)
    chains = {}
    for metric in metrics:
        select = (greedy_select_power if metric == "power"
                  else greedy_select_det)
        chain = select(gram, m_max)
        chains[metric] = ConventionalSelection(
            chain, weights[:, chain], gram[np.ix_(chain, chain)])
    return chains


def subarray_selection(r_elem, config, sub_shape, m_max, metric="power"):
    """Greedy chain of embedded sub-array beams, at most one per group.

    The chain is the one greedy_select_* picks on the Gram of the embedded
    codebook, each group's local DFT beams zero-padded to the full array
    (its dense oracle, `subarray_codebook`, lives in tests/oracles.py), but
    that 1024 x 1024 Gram (8 x 8 array, beam interval 4) is never formed.
    Each embedded column is nonzero on its group only, so with L the
    shape's local codebook and X_g = L^T R[g, :] (the group's rows of
    W^T R) the Gram splits into group-pair blocks G_gh = X_g[:, h] L^*.  The power rule reads the diagonal blocks, the
    determinant rule the row blocks of the groups it picks, and the chain's
    Gram block is gathered from the same blocks.  Each entry is taken from
    a whole block product and Hermitized as 0.5 (G_gh + G_hg^H), which
    reproduces the dense Gram's entries to the last bit (a row or column
    slice product would not: it rounds differently).
    """
    groups = subarray_groups(config, sub_shape)
    local = dft_codebook(config, sub_shape)
    n_loc = local.shape[1]
    n_groups = len(groups)
    group_of = np.repeat(np.arange(n_groups), n_loc)
    panels = [local.T @ r_elem[idx, :] for idx in groups]
    local_conj = local.conj()

    def block(g, h):
        """G_gh before Hermitization, from one whole product."""
        return panels[g][:, groups[h]] @ local_conj

    def gram_row(c):
        # row b of every G_gh and column b of every G_hg; copied out, so at
        # most one block is alive at a time
        g, b = divmod(c, n_loc)
        row, col = np.empty((2, n_groups, n_loc), dtype=complex)
        for h in range(n_groups):
            row[h] = block(g, h)[b]
            col[h] = block(h, g)[:, b]
        return hermitian_part(row.ravel(), col.ravel())

    power = np.empty((n_groups, n_loc))
    for g in range(n_groups):
        power[g] = np.real(hermitian_part(np.diag(block(g, g)).copy()))
    if metric == "power":
        chain = _power_chain(power.ravel(), m_max, group_of)
        at = [divmod(c, n_loc) for c in chain]
        gram = hermitian_part(np.array([[block(g, h)[b, d] for h, d in at]
                                        for g, b in at]))
    else:
        chain, rows = _det_chain(power.ravel(), gram_row, m_max,
                                 group_of)
        gram = rows[:, chain]
    weights = np.zeros((config.n_elements, len(chain)), dtype=complex)
    for k, c in enumerate(chain):
        g, b = divmod(c, n_loc)
        weights[groups[g], k] = local[:, b]
    return ConventionalSelection(chain, weights, gram)


def tiling_shapes(config):
    """The SUBARRAY_SHAPES that tile the array, in listed order."""
    return [s for s in SUBARRAY_SHAPES
            if config.n_v % s[0] == 0 and config.n_h % s[1] == 0]


def best_subarray_partition(r_elem, config, n_ue, snr, metric="power"):
    """Pick the sub-array shape maximizing rank-adapted average capacity.

    Each of SUBARRAY_SHAPES that tiles the array gets its own greedy chain up
    to min(n_groups, N_UE) streams; the shape whose best stream count yields
    the highest capacity wins, and the first listed wins a tie within
    `_TIE_REL` of the capacity.  That is the relative tie of
    greedy_select_det's determinant too, so the manifest's
    ``conventional.tie_break_rel`` covers both tie rules.  Every chain is read
    from group-pair blocks of its shape's Gram (`subarray_selection`), so the
    search forms no N x a^2 N codebook and no a^2 N x a^2 N Gram.
    """
    best = None
    for shape in tiling_shapes(config):
        n_groups = config.n_elements // (shape[0] * shape[1])
        m_max = min(n_groups, int(n_ue))
        sel = subarray_selection(r_elem, config, shape, m_max, metric)
        report = capacity.rank_adapt(sel.beam_correlation, m_max, snr)
        if best is None or report.total > best[2].total * (1.0 + _TIE_REL):
            best = (shape, sel, report)
    if best is None:
        raise ValueError("no sub-array shape tiles this array")
    return best
