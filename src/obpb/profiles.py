"""Joint angular power profiles and quadrature grids.

The propagation environment is described by a joint density over the pair of
departure/arrival directions (theta_b, phi_b, theta_u, phi_u): a single 4-D
Gaussian with per-angle standard deviations and a correlation matrix, built
as Sigma = D P D with D = diag(sigma) in radians.  The density is taken over
the flat angle coordinates; the sin(theta) measure lives entirely in the
quadrature weights.

Azimuth is 2 pi periodic, so the Gaussian is wrapped by summing the +-1
period images of both azimuths (nine terms).  Mean azimuths are wrapped into
(-180, 180] deg, so every node's offset from the mean lies within 2 pi and
the nearest dropped +-2 image is at least 3 pi - |mu_phi| away.
`ProfileParams` rejects an end whose exp(-(3 pi - |mu_phi|)^2 / (2
sigma_phi^2)) exceeds 1e-10 of the peak (sigma_phi above ~79 deg at
mu_phi = 0); the widest benchmark profile (sigma_phi <= 50.5 deg, |mu_phi| <=
5 deg) sits at e^-56.

The normalization constant is computed numerically on the construction
grids, so the discrete integral of the joint density is exactly 1 there.

On a pair of product grids the density is never stored as a matrix.  Its
BS-UE coupling exp(-v_b^T A_bu v_u) is a product of four 1-D kernels over
the theta and phi nodes of the two ends, and the nine images are a rank-9
factor, so `JointProfile` keeps those (under 2 MB on the default grids)
and contracts them for every marginal.  The dense (n_bs, n_ue) matrix,
~680 MB on the default grids, is assembled only on request, or held by a
profile too narrow and off-centre for its factors to stay in float range.
The one product the pipeline takes with it, in the element correlation, is
streamed through cache-sized row blocks with the whole matrix's bits.
"""

import numpy as np
from scipy.linalg.blas import dgemv

from . import modes

DEG = np.pi / 180.0

# defaults: base-station side resolves a 4-wavelength aperture, user side a
# 1-wavelength aperture; both pass a <0.5% refinement check on the baseline
# profile (see tests)
BS_GRID = (96, 192)
UE_GRID = (48, 96)

# largest share of the peak a dropped +-2 azimuth image may carry
_IMAGE_CUT = 1e-10

# BS rows per block of the dense joint matrix: about 1.2 MB on the default
# grids, which stays in cache between its assembly and its product, while the
# whole 18432 x 4608 matrix is ~680 MB.  Every entry comes from its own row's
# and column's factors alone, so the block size moves no bit of the matrix.
# The streamed products of `JointProfile.dense_product_bs` match the whole
# matrix's only for a multiple of 4: OpenBLAS's gemv kernels take a matrix's
# rows in groups of 4, and a block edge inside a group rounds differently
_CHUNK_ROWS = 32

# image factors and weighted contraction operands of magnitude below this are
# set to 0.  Anything kept times a kernel entry down to ~2e-19 stays a normal
# float; smaller operands would make subnormal products, which slow each
# matrix product they enter several times over, and they sit some 290 orders
# below the profile's peak
_FLOOR = 2.0 ** -960

# largest sum of the kernels' and image factors' log maxima that the
# contractions take: a partial product then stays below e^600, which leaves
# e^109 for the sums and the input powers before a float overflows.  A
# narrower or more off-centre profile holds the dense matrix instead
_LOG_RANGE = 600.0


class DirectionGrid:
    """Product quadrature over the sphere: Gauss-Legendre in cos(theta),
    uniform (trapezoidal) in phi.

    Nodes are stored flattened in row-major (theta outer, phi inner) order;
    ``weights`` include the sin(theta) surface measure and sum to 4 pi.
    """

    def __init__(self, n_theta, n_phi):
        if n_theta < 2 or n_phi < 2:
            raise ValueError("need at least two nodes per angle")
        x, w = np.polynomial.legendre.leggauss(n_theta)
        order = np.argsort(-x)           # theta ascending
        self.theta_nodes = np.arccos(x[order])
        self.phi_nodes = -np.pi + (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
        self.shape = (n_theta, n_phi)
        self.theta = np.repeat(self.theta_nodes, n_phi)
        self.phi = np.tile(self.phi_nodes, n_theta)
        self.weights = np.repeat(w[order] * (2.0 * np.pi / n_phi), n_phi)

    @property
    def n_nodes(self):
        return self.theta.size

    def integrate(self, values):
        """Discrete surface integral of point values over the sphere."""
        return float(np.real(np.dot(self.weights, values)))


def make_grid(n_theta, n_phi):
    """Quadrature grid over the sphere (weights sum to 4 pi)."""
    return DirectionGrid(n_theta, n_phi)


class ProfileParams:
    """Parameters of the joint Gaussian profile.

    Angles in degrees: mean_bs/mean_ue are (theta, phi) pairs, sigma the four
    standard deviations in the order (theta_b, phi_b, theta_u, phi_u), corr
    the 4 x 4 correlation matrix in the same order.  Each mean phi is wrapped
    into (-180, 180]; values already there keep their bits.
    """

    def __init__(self, mean_bs, mean_ue, sigma, corr, polarization="theta"):
        self.mean_bs = np.array(mean_bs, dtype=float)
        self.mean_ue = np.array(mean_ue, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        self.corr = np.asarray(corr, dtype=float)
        if self.mean_bs.shape != (2,) or self.mean_ue.shape != (2,):
            raise ValueError("means are (theta, phi) pairs in degrees")
        if self.sigma.shape != (4,) or np.any(self.sigma <= 0):
            raise ValueError("sigma must be four positive values")
        for end, mean, sigma in (("bs", self.mean_bs, self.sigma[1]),
                                 ("ue", self.mean_ue, self.sigma[3])):
            if not -180.0 < mean[1] <= 180.0:
                mean[1] = 180.0 - (180.0 - mean[1]) % 360.0
            gap = 3.0 * np.pi - abs(mean[1]) * DEG
            if np.exp(-gap ** 2 / (2.0 * (sigma * DEG) ** 2)) > _IMAGE_CUT:
                raise ValueError(
                    f"{end} azimuth: sigma {sigma:g} deg at mean {mean[1]:g} "
                    "deg puts the dropped +-2 period images above "
                    f"{_IMAGE_CUT:g} of the peak")
        if self.corr.shape != (4, 4) or not np.allclose(self.corr, self.corr.T):
            raise ValueError("correlation matrix must be symmetric 4 x 4")
        if not np.allclose(np.diag(self.corr), 1.0):
            raise ValueError("correlation matrix needs a unit diagonal")
        if polarization not in ("theta", "full"):
            raise ValueError("polarization is 'theta' or 'full'")
        self.polarization = polarization
        np.linalg.cholesky(self.covariance())   # fail early if not PD

    def covariance(self):
        """Sigma = D P D in radians^2, order (theta_b, phi_b, theta_u, phi_u)."""
        d = np.diag(self.sigma * DEG)
        return d @ self.corr @ d

    @property
    def mean(self):
        """Stacked mean in radians, (theta_b, phi_b, theta_u, phi_u)."""
        return np.concatenate([self.mean_bs, self.mean_ue]) * DEG


def baseline_params():
    """The reference urban macro profile used throughout the examples."""
    return ProfileParams(
        mean_bs=(90.0, 0.0),
        mean_ue=(90.0, 0.0),
        sigma=(4.0, 21.0, 11.0, 48.0),
        corr=[[1.0, 0.3, 0.0, 0.2],
              [0.3, 1.0, 0.1, 0.4],
              [0.0, 0.1, 1.0, 0.0],
              [0.2, 0.4, 0.0, 1.0]],
    )


class JointProfile:
    """A joint profile discretized on a pair of direction grids, held in
    factored form.

    The unnormalized density is exp(-v_b A_bu v_u^T) (fb @ fu^T) with v the
    centered (theta, phi) offsets and A_bu the BS-UE block of the precision
    matrix.  On product grids the coupling splits into four 1-D cross
    kernels over the angle nodes, exp(-A_bu[i, j] v_b,i v_u,j) for (theta_b,
    theta_u), (theta_b, phi_u), (phi_b, theta_u) and (phi_b, phi_u); the
    nine azimuth images are the per-node factors fb (n_bs, 9) and fu (n_ue,
    9) of `_image_terms`.  Those are all the profile keeps: the marginals,
    the normalization and `correlation.siso_reference` contract them
    exactly, one real matrix product per theta row of the end the result
    lives on (about 765 M multiply-adds on the default grids), and the
    dense (n_bs, n_ue) matrix is never stored.

    Image factors and weighted operands below ``_FLOOR`` (about 1e-289)
    are set to 0, so no subnormal number enters a matrix product.

    The factors' exponents cancel only in their product.  When a profile is
    narrow and off-centre enough that the sum of their log maxima passes
    ``_LOG_RANGE`` (no benchmark profile comes within 500 of it), a
    partial product could overflow, so the profile holds the dense
    normalized matrix and takes its marginals as products with it.

    ``joint_matrix`` assembles the dense normalized matrix on each access.
    It is the oracle the tests compare against, and the pipeline never
    reads it.  `dense_product_bs` returns its product with a UE-side vector
    to the last bit from ``_CHUNK_ROWS`` rows at a time, for
    `conventional.element_correlation`, whose greedy chains break ties in
    the last bit.
    """

    def __init__(self, params, bs_grid=None, ue_grid=None):
        self.params = params
        self.bs_grid = bs_grid if bs_grid is not None else make_grid(*BS_GRID)
        self.ue_grid = ue_grid if ue_grid is not None else make_grid(*UE_GRID)
        self._precision = np.linalg.inv(params.covariance())
        mu = params.mean
        a = self._precision
        tb = self.bs_grid.theta_nodes - mu[0]
        pb = self.bs_grid.phi_nodes - mu[1]
        tu = self.ue_grid.theta_nodes - mu[2]
        pu = self.ue_grid.phi_nodes - mu[3]
        with np.errstate(over="ignore"):
            self._k_tt = np.exp(-a[0, 2] * np.outer(tb, tu))
            self._k_tp = np.exp(-a[0, 3] * np.outer(tb, pu))
            self._k_pt = np.exp(-a[1, 2] * np.outer(pb, tu))
            self._k_pp = np.exp(-a[1, 3] * np.outer(pb, pu))
            fb, fu = self._image_terms(_offsets(self.bs_grid, mu[:2]),
                                       _offsets(self.ue_grid, mu[2:]))
        # both as (image, theta, phi)
        self._fb = np.ascontiguousarray(_flush(fb).T).reshape(
            9, *self.bs_grid.shape)
        self._fu = np.ascontiguousarray(_flush(fu).T).reshape(
            9, *self.ue_grid.shape)
        self._dense = None
        factors = (self._k_tt, self._k_tp, self._k_pt, self._k_pp, fb, fu)
        if sum(max(0.0, np.log(f.max())) for f in factors) > _LOG_RANGE:
            # an overflow is reported by the finiteness check below
            with np.errstate(over="ignore", invalid="ignore"):
                self._dense, self.total_power = self._normalized_dense()
        else:
            self.total_power = float(self.bs_grid.weights
                                     @ self._contract_bs(self.ue_grid.weights))
        if not np.isfinite(self.total_power):
            raise ValueError("profile density overflows a float on these "
                             "grids: the spreads are too narrow for the "
                             "nodes' offsets from the means")
        if self.total_power <= 0:
            raise ValueError("profile has no power on the grid")

    @property
    def joint_matrix(self):
        """The dense normalized density on (every BS node) x (every UE node).

        Assembled on each access (~680 MB on the default grids) and
        normalized by its own discrete double integral, so it is the matrix
        the contractions are checked against.  A profile that holds it (see
        the class docstring) returns the held matrix.
        """
        if self._dense is not None:
            return self._dense
        return self._normalized_dense()[0]

    def _normalized_dense(self):
        """The assembled matrix divided by its double integral, and that
        integral."""
        raw = self._assemble(self.bs_grid, self.ue_grid)
        total = float(self.bs_grid.weights @ raw @ self.ue_grid.weights)
        raw *= 1.0 / total
        return raw, total

    def _image_terms(self, vb, vu):
        """Per-node image factors for the rank-9 wrapped-Gaussian expansion.

        vb, vu: centered angle offsets, shapes (nb, 2) and (nu, 2).  Returns
        (fb, fu) of shapes (nb, 9), (nu, 9) such that the wrapped unnormalized
        density is exp(-vb A_bu vu^T) * (fb @ fu^T).
        """
        A = self._precision
        Abb, Abu, Auu = A[:2, :2], A[:2, 2:], A[2:, 2:]
        period = 2.0 * np.pi
        fb = np.empty((vb.shape[0], 9))
        fu = np.empty((vu.shape[0], 9))
        qb = 0.5 * np.einsum("ni,ij,nj->n", vb, Abb, vb)
        qu = 0.5 * np.einsum("ni,ij,nj->n", vu, Auu, vu)
        col = 0
        for ab in (-1, 0, 1):
            sb = np.array([0.0, ab * period])
            for au in (-1, 0, 1):
                su = np.array([0.0, au * period])
                e = float(sb @ Abu @ su)
                fb[:, col] = np.exp(-(qb + (sb @ Abb) @ vb.T
                                      + vb @ (Abu @ su)
                                      + 0.5 * (sb @ Abb @ sb) + 0.5 * e))
                fu[:, col] = np.exp(-(qu + (su @ Auu) @ vu.T
                                      + vu @ (Abu.T @ sb)
                                      + 0.5 * (su @ Auu @ su) + 0.5 * e))
                col += 1
        return fb, fu

    def _raw_blocks(self, bs_grid, ue_grid):
        """The unnormalized density in blocks of ``_CHUNK_ROWS`` BS nodes.

        Yields (lo, hi, rows): the density on BS nodes lo:hi times every UE
        node, a fresh array per block.
        """
        mu = self.params.mean
        vb = _offsets(bs_grid, mu[:2])
        vu = _offsets(ue_grid, mu[2:])
        fb, fu = self._image_terms(vb, vu)
        Abu = self._precision[:2, 2:]
        cu = Abu @ vu.T                                    # (2, nu)
        for lo in range(0, len(vb), _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, len(vb))
            rows = vb[lo:hi] @ cu
            np.negative(rows, out=rows)
            np.exp(rows, out=rows)
            rows *= fb[lo:hi] @ fu.T
            yield lo, hi, rows

    def _assemble(self, bs_grid, ue_grid):
        out = np.empty((bs_grid.n_nodes, ue_grid.n_nodes))
        for lo, hi, rows in self._raw_blocks(bs_grid, ue_grid):
            out[lo:hi] = rows
        return out

    def dense_product_bs(self, x):
        """``joint_matrix @ x`` to the last bit, without holding the matrix.

        Two passes over the row blocks of `_raw_blocks`: the first takes the
        matrix's double integral (`_streamed_total`), the second scales each
        block by 1 / integral, as the dense matrix is scaled, and multiplies
        it by x.  A profile that holds the dense matrix (see the class
        docstring) multiplies that.
        """
        if self._dense is not None:
            return self._dense @ x
        scale = 1.0 / self._streamed_total()
        out = np.empty(self.bs_grid.n_nodes)
        for lo, hi, rows in self._raw_blocks(self.bs_grid, self.ue_grid):
            rows *= scale
            # gemv even for a 1-row block, which numpy would take as a dot
            out[lo:hi] = dgemv(1.0, rows.T, x, trans=1)
        return out

    def _streamed_total(self):
        """wb @ raw @ wu of the assembled matrix, to the last bit, from its
        row blocks: gemv adds each block's weighted rows into the running
        wb @ raw in the order one gemv over the whole matrix adds them."""
        wb = self.bs_grid.weights
        acc = np.zeros(self.ue_grid.n_nodes)
        for lo, hi, rows in self._raw_blocks(self.bs_grid, self.ue_grid):
            acc = dgemv(1.0, rows.T, wb[lo:hi], beta=1.0, y=acc,
                        overwrite_y=1)
        return float(acc @ self.ue_grid.weights)

    def _contract_bs(self, x):
        """sum_u raw[b, u] x[u] for every BS node b (raw: unnormalized)."""
        return _contract(x, self._fu, self._fb, self._k_tt, self._k_tp,
                         self._k_pt, self._k_pp)

    def _contract_ue(self, x):
        """sum_b raw[b, u] x[b] for every UE node u (raw: unnormalized)."""
        return _contract(x, self._fb, self._fu, self._k_tt.T, self._k_pt.T,
                         self._k_tp.T, self._k_pp.T)

    def density(self, psi_bs, psi_ue):
        """Pointwise joint density, normalized like ``joint_matrix``.

        psi_bs and psi_ue are (..., 2) arrays of (theta, phi) in radians,
        broadcast against each other in the leading dimensions.
        """
        psi_bs = np.asarray(psi_bs, dtype=float)
        psi_ue = np.asarray(psi_ue, dtype=float)
        shape = np.broadcast_shapes(psi_bs.shape[:-1], psi_ue.shape[:-1])
        vb = (np.broadcast_to(psi_bs, shape + (2,)).reshape(-1, 2)
              - self.params.mean[:2])
        vu = (np.broadcast_to(psi_ue, shape + (2,)).reshape(-1, 2)
              - self.params.mean[2:])
        fb, fu = self._image_terms(vb, vu)
        Abu = self._precision[:2, 2:]
        cross = np.einsum("ni,ij,nj->n", vb, Abu, vu)
        vals = np.exp(-cross) * np.sum(fb * fu, axis=1) / self.total_power
        return vals.reshape(shape)

    def marginal_bs(self, ue_power):
        """BS-side marginal profile from a UE-side angular power density.

        ue_power holds nonnegative pattern power values on the UE grid nodes;
        the result is P(psi_b) = integral ProfileDensity * ue_power dpsi_u,
        one value per BS grid node.
        """
        x = self.ue_grid.weights * ue_power
        if self._dense is not None:
            return self._dense @ x
        return self._contract_bs(x) * (1.0 / self.total_power)

    def marginal_ue(self, bs_power):
        """UE-side marginal; mirror image of marginal_bs."""
        x = self.bs_grid.weights * bs_power
        if self._dense is not None:
            return self._dense.T @ x
        return self._contract_ue(x) * (1.0 / self.total_power)


def _contract(x, f_in, f_out, k_tt, k_tp, k_pt, k_pp):
    """sum over the input end's nodes of raw * x, for every output node.

    f_in, f_out: the two ends' image factors as (image, theta, phi); k_ab:
    the cross kernel of the output end's angle a and the input end's angle
    b, as (output nodes, input nodes).  One matrix product per output theta
    row t: the (phi, phi) kernel, scaled by row t of the (theta, phi)
    kernel, times the operand x f_in laid out as (input phi, (image, input
    theta)) that every row shares; the product is weighted by the (phi,
    theta) kernel and row t of the (theta, theta) kernel and reduced over
    the input theta, then over the images against f_out.
    """
    n_t, n_p = f_in.shape[1:]
    y = _flush(f_in * np.reshape(x, (n_t, n_p))).reshape(-1, n_p).T
    out = np.empty(f_out.shape[1:])
    for t in range(len(out)):
        h = (k_pp * k_tp[t]) @ y
        s = np.einsum("pkt,pt->pk", h.reshape(-1, 9, n_t), k_pt * k_tt[t])
        out[t] = np.einsum("pk,kp->p", s, f_out[:, t])
    return out.ravel()


def _flush(a):
    """Set entries of magnitude below _FLOOR to 0, in place; returns a."""
    a[np.abs(a) < _FLOOR] = 0.0
    return a


def _offsets(grid, mean):
    """(n_nodes, 2) offsets of a grid's nodes from a (theta, phi) mean."""
    return np.stack([grid.theta - mean[0], grid.phi - mean[1]], axis=1)


def beam_power(q, table, phi_nodes, polarization="theta"):
    """Radiated power |q^T K|^2 of each beam on a theta x phi product.

    q: (J,) or (J, M) beam coefficients; table: the `modes.FieldTable` of
    their ModeSet on the product's theta nodes; phi_nodes: a 1-D angle list
    in radians.  Each mode separates as K_j(theta, phi) = K_j(theta, 0)
    e^(i m_j phi), so the beams are summed per azimuthal order on the theta
    nodes, a(theta, m) = sum_{m_j = m} q_j K_j(theta, 0), and expanded in
    azimuth as a @ e^(i m phi).  Under 'theta' polarization only the theta
    components count, under 'full' both.  Returns (M, n_theta, n_phi).
    """
    q = np.atleast_2d(np.asarray(q).T).T      # (J, M)
    nmax = table.modeset.truncation_order
    orders = np.arange(-nmax, nmax + 1)
    azim = np.exp(1j * np.outer(orders, phi_nodes))       # (2N + 1, n_phi)
    power = 0.0
    for tc in table.components(polarization):
        g = (np.einsum("jb,jt->btj", q, tc) @ table.per_order) @ azim
        power = power + np.abs(g) ** 2
    return power


def pattern_power(q, modeset, grid, polarization="theta", table=None):
    """Radiated power sum_beams |q^T K|^2 of a beam set on a product grid:
    the beam sum of `beam_power`, per node in the grid's flat order.

    table: the `modes.FieldTable` of modeset on the grid's theta nodes,
    which a caller evaluating many beam sets holds; built here when not
    given.
    """
    if table is None:
        table = modes.FieldTable(modeset, grid.theta_nodes)
    return np.sum(beam_power(q, table, grid.phi_nodes, polarization),
                  axis=0).ravel()


def profile_fields(profile, side, modeset, polarization=None):
    """Dense far-field matrices of a ModeSet on one of the profile's grids.

    Returns (K_theta, K_phi), each (J, n_nodes), with K_phi set to None
    under 'theta' polarization.  The pipeline never forms these; they are
    the dense reference that checks of pattern_power and mode_correlation
    compare against.
    """
    grid = profile.bs_grid if side == "bs" else profile.ue_grid
    pol = polarization or profile.params.polarization
    kth, kph = modes.far_field_matrix(modeset, grid.theta, grid.phi)
    if pol == "theta":
        return kth, None
    return kth, kph
