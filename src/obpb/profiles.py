"""Joint angular power profiles and quadrature grids.

The propagation environment is described by a joint density over the pair of
departure/arrival directions (theta_b, phi_b, theta_u, phi_u): a single 4-D
Gaussian with per-angle standard deviations and a correlation matrix, built
as Sigma = D P D with D = diag(sigma) in radians.  The density is taken over
the flat angle coordinates; the sin(theta) measure lives entirely in the
quadrature weights.

Azimuth is 2 pi periodic, so the Gaussian is wrapped in both azimuths.  The
optimizer reads the profile only through azimuth harmonics, and those are
exact in closed form: integrating the sum of every period image over one
period integrates the unwrapped Gaussian over the line, so at fixed theta =
(theta_b, theta_u) the 2-D Fourier coefficients in (phi_b, phi_u) are the
wrapped normal's characteristic function (Mardia & Jupp, Directional
Statistics, sec. 3.5),

    g(theta; k) = (2 pi / sqrt(det A_pp)) exp(-1/2 t^T Lambda t)
                  exp(-1/2 k^T Sigma_p k) exp(i k^T mu(theta)),

with A the precision matrix, t the theta offsets from the mean, A_pp its
phi-phi block, Lambda the Schur complement of A_pp, Sigma_p = A_pp^-1 and
mu(theta) = mu_phi - Sigma_p A_pt t the conditional mean azimuths.  No
factor grows with the offsets, so nothing can overflow.
`JointProfile.weighted_harmonics` maps the far end's pattern-power
harmonics (`modes.FieldTable.power_harmonics`) through it to the harmonics
of the near end's weighted marginal, and `total_power`, the normalization,
is its k = 0 term summed over the Gauss-Legendre theta nodes.  No azimuth
node enters: the phi integrals are exact, where a trapezoid sum over n_phi
nodes would fold the harmonics |k| >= n_phi - 2N back in, with a weight of
about exp(-sigma_phi^2 (n_phi - 2N)^2 / 2).  So `total_power` and
`JointProfile.theta_refinement` read the theta rules alone, and a profile
on grids of two phi nodes gives them to the last bit.

The nodal density (`joint_matrix` and the two marginals) sums the +-1
period images of both azimuths (nine terms).  Mean azimuths are wrapped
into (-180, 180] deg, so every node's offset from the mean lies within 2 pi
and the nearest dropped +-2 image is at least 3 pi - |mu_phi| away.
`ProfileParams` rejects an end whose exp(-(3 pi - |mu_phi|)^2 / (2
sigma_phi^2)) exceeds 1e-10 of the peak (sigma_phi above ~79 deg at
mu_phi = 0); the widest benchmark profile (sigma_phi <= 50.5 deg, |mu_phi| <=
5 deg) sits at e^-56.  The dense (n_bs, n_ue) matrix, ~680 MB on the
default grids, is normalized by its own discrete double integral and never
held: the marginals stream it through cache-sized row blocks, in numpy
products that keep the whole matrix's bits.  The codebook element
correlation reads `marginal_bs`.

A link end is named 'bs' or 'ue', and `JointProfile.link_end` is the one
map from that name to the end's (near, far) grids: any other name raises
ValueError.  `pattern_power`, like the far end's power harmonics, is read
from a `modes.FieldTable`, which alone knows how the mode fields are laid
out and which components a polarization reads.
"""

import numpy as np

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
# The streamed marginals match the whole matrix's products only for a
# multiple of 4: OpenBLAS's gemv kernels take a matrix's rows in groups of
# 4, and a block edge inside a group rounds differently.  So blocks start at
# multiples of 4, a one-row tail joins the block before it
# (`modes.row_blocks`: numpy takes a one-row product as a dot), and
# `_product_ue` adds four rows per product
_CHUNK_ROWS = 32


class DirectionGrid:
    """Product quadrature over the sphere: Gauss-Legendre in cos(theta),
    uniform (trapezoidal) in phi.

    Nodes are stored flattened in row-major (theta outer, phi inner) order;
    ``weights`` include the sin(theta) surface measure and sum to 4 pi.
    ``theta_weights`` are the Gauss-Legendre weights of the theta nodes
    alone (they sum to 2).
    """

    def __init__(self, n_theta, n_phi):
        if n_theta < 2 or n_phi < 2:
            raise ValueError("need at least two nodes per angle")
        x, w = np.polynomial.legendre.leggauss(n_theta)
        order = np.argsort(-x)           # theta ascending
        self.theta_nodes = np.arccos(x[order])
        self.theta_weights = w[order]
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
    the 4 x 4 correlation matrix in the same order, every value finite.
    Each mean phi is wrapped into (-180, 180]; values already there keep
    their bits.
    """

    def __init__(self, mean_bs, mean_ue, sigma, corr, polarization="theta"):
        self.mean_bs = np.array(mean_bs, dtype=float)
        self.mean_ue = np.array(mean_ue, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        self.corr = np.asarray(corr, dtype=float)
        if not all(np.isfinite(a).all() for a in (self.mean_bs, self.mean_ue,
                                                  self.sigma, self.corr)):
            raise ValueError("means, sigmas and correlations must be finite")
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
        self.polarization = modes.check_polarization(polarization)
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
    """A joint profile on a pair of direction grids.

    It keeps the precision matrix A of the 4-D Gaussian and its two grids,
    and reads them two ways.

    The optimizer's half-steps read `weighted_harmonics`, the closed-form
    azimuth harmonics of the module docstring on the grids' theta nodes:
    one product of a (theta_near, theta_far) kernel with the far end's
    harmonics per call, with every azimuth image summed and every phi
    integral exact.  ``total_power``, the normalization, and
    `correlation.siso_reference` come from the same form.

    The nodal marginals `marginal_bs` and `marginal_ue` are the products of
    the dense normalized matrix ``joint_matrix`` (the +-1 images, normalized
    by its own discrete double integral) to the last bit.  They assemble it
    ``_CHUNK_ROWS`` rows at a time, twice (once for the integral), and never
    hold it.  Its image factors overflow a float on a profile too narrow
    and off-centre for the grid nodes, and then they raise ValueError.
    `conventional.element_correlation`, whose greedy chains break ties in
    the last bit, reads `marginal_bs`.  ``joint_matrix`` assembles the
    whole matrix on each access; it is the oracle the tests compare
    against.
    """

    def __init__(self, params, bs_grid=None, ue_grid=None):
        self.params = params
        self.bs_grid = bs_grid if bs_grid is not None else make_grid(*BS_GRID)
        self.ue_grid = ue_grid if ue_grid is not None else make_grid(*UE_GRID)
        self._precision = np.linalg.inv(params.covariance())
        self.total_power = self._theta_total(self.bs_grid, self.ue_grid)

    def link_end(self, side):
        """Link end ``side`` as (near grid, far grid, angles): ``angles``
        lists the density's angles (theta_b, phi_b, theta_u, phi_u) = 0 ..
        3 near end first.  The one map from a link end to its grids; any
        side but 'bs' or 'ue' raises ValueError."""
        if side == "bs":
            return self.bs_grid, self.ue_grid, (0, 1, 2, 3)
        if side == "ue":
            return self.ue_grid, self.bs_grid, (2, 3, 0, 1)
        raise ValueError(f"link end is 'bs' or 'ue', not {side!r}")

    def _law(self, theta_near, theta_far, angles=(0, 1, 2, 3)):
        """The closed form's parts, near end first (``angles`` of
        `link_end`, the BS end's unless given), on lists of near and far
        theta nodes: the theta kernel (2 pi / sqrt(det A_pp)) exp(-1/2 t^T
        Lambda t) (the k = 0 harmonic), Sigma_p, the map ``shift`` of the
        conditional mean azimuths mu(theta) = mu_phi + shift t, mu_phi and
        the two offset lists t."""
        th, ph = list(angles[0::2]), list(angles[1::2])
        a, mu = self._precision, self.params.mean
        sig = np.linalg.inv(a[np.ix_(ph, ph)])
        shift = -sig @ a[np.ix_(ph, th)]
        lam = a[np.ix_(th, th)] + a[np.ix_(th, ph)] @ shift
        tn, tf = theta_near - mu[th[0]], theta_far - mu[th[1]]
        q = ((lam[0, 0] * tn ** 2)[:, None] + lam[1, 1] * tf ** 2
             + 2.0 * lam[0, 1] * np.outer(tn, tf))
        kernel = 2.0 * np.pi * np.sqrt(np.linalg.det(sig)) * np.exp(-0.5 * q)
        return kernel, sig, shift, mu[ph], tn, tf

    def _theta_total(self, bs_grid, ue_grid):
        """The density's exact double integral in phi, summed by the two
        grids' Gauss-Legendre theta rules."""
        kernel = self._law(bs_grid.theta_nodes, ue_grid.theta_nodes)[0]
        return float(bs_grid.theta_weights @ kernel @ ue_grid.theta_weights)

    def theta_refinement(self):
        """Relative change of ``total_power`` when both ends' theta rules
        take twice as many nodes: about 0 once the theta nodes resolve the
        profile, and about 1 when they miss it."""
        fine = self._theta_total(*(DirectionGrid(2 * g.shape[0], 2)
                                   for g in (self.bs_grid, self.ue_grid)))
        return abs(self.total_power - fine) / fine

    def weighted_harmonics(self, far_power, near, kmax):
        """Azimuth harmonics of the near end's weighted marginal.

        far_power: (n_theta_far, 2J + 1) azimuth harmonics of the far end's
        power on its grid's theta nodes, P(theta, phi) = sum_j
        far_power[theta, j + J] e^(i j phi), j = -J .. J
        (`modes.FieldTable.power_harmonics`); near: 'bs' or 'ue'
        (`link_end`).  Returns the (n_theta_near, 2 kmax + 1) array

            D[theta, k + kmax] = w(theta) integral P_near(theta, phi)
                                 e^(i k phi) dphi,   k = -kmax .. kmax,

        with w the near grid's Gauss-Legendre weights and P_near the near
        marginal of the density (divided by ``total_power``) weighted by P:
        the sum over phi nodes that `correlation.mode_correlation` forms, in
        its exact limit.  Each entry is sum_{theta_f, j} w_f P g(theta; k,
        j) with g the closed form of the module docstring.  The factors of
        g that depend on the far end's theta and j are applied to the
        (theta_f, j, k) operand, one real matrix product with the theta
        kernel sums over theta_f, and the sum over j takes the (theta_near,
        j) phase; no array over ~2 MB is formed on the default grids.
        """
        grid_n, grid_f, angles = self.link_end(near)
        kernel, sig, shift, mu, tn, tf = self._law(
            grid_n.theta_nodes, grid_f.theta_nodes, angles)
        j = np.arange(far_power.shape[1]) - far_power.shape[1] // 2
        k = np.arange(-kmax, kmax + 1)
        spread = np.exp(-0.5 * ((sig[1, 1] * j ** 2)[:, None] + sig[0, 0]
                                * k ** 2 + 2.0 * sig[0, 1] * np.outer(j, k)))
        x = far_power * grid_f.theta_weights[:, None] \
            * np.exp(1j * np.outer(mu[1] + shift[1, 1] * tf, j))
        y = x[:, :, None] * spread \
            * np.exp(1j * shift[0, 1] * np.outer(tf, k))[:, None, :]
        u = (kernel @ y.reshape(tf.size, -1).view(float)).view(complex)
        d = np.einsum("njk,nj->nk", u.reshape(tn.size, j.size, k.size),
                      np.exp(1j * shift[1, 0] * np.outer(tn, j)))
        d *= (grid_n.theta_weights / self.total_power)[:, None] \
            * np.exp(1j * np.outer(mu[0] + shift[0, 0] * tn, k))
        return d

    @property
    def joint_matrix(self):
        """The dense normalized density on (every BS node) x (every UE node).

        Assembled on each access (~680 MB on the default grids) and
        normalized by its own discrete double integral: the oracle the
        marginals and the harmonics are checked against.
        """
        raw = self._assemble(self.bs_grid, self.ue_grid)
        raw *= 1.0 / float(self.bs_grid.weights @ raw @ self.ue_grid.weights)
        return raw

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
        node.  Every block is written into the same two buffers, so a
        caller is done with a block when it asks for the next; fresh
        blocks would make the allocator fault in new pages for each of the
        576 blocks of the default grids, which doubled the first pass's
        time.
        """
        mu = self.params.mean
        vb = _offsets(bs_grid, mu[:2])
        vu = _offsets(ue_grid, mu[2:])
        fb, fu = self._image_terms(vb, vu)
        cu = self._precision[:2, 2:] @ vu.T                # (2, nu)
        buf = np.empty((2, min(_CHUNK_ROWS + 1, len(vb)), len(vu)))
        for lo, hi in modes.row_blocks(len(vb), _CHUNK_ROWS):
            rows, images = buf[:, :hi - lo]
            np.matmul(vb[lo:hi], cu, out=rows)
            np.negative(rows, out=rows)
            np.exp(rows, out=rows)
            rows *= np.matmul(fb[lo:hi], fu.T, out=images)
            yield lo, hi, rows

    def _assemble(self, bs_grid, ue_grid):
        out = np.empty((bs_grid.n_nodes, ue_grid.n_nodes))
        for lo, hi, rows in self._raw_blocks(bs_grid, ue_grid):
            out[lo:hi] = rows
        return out

    def _product_ue(self, x, scale=None):
        """x @ (scale * raw) over the BS rows (x @ raw without a scale), to
        the last bit of the whole matrix's product.

        One gemv over the whole matrix adds its rows, weighted by x, into
        the result four at a time, then a last two and a last one; here
        each such group is one numpy product added into the running sum.
        The result's last n % 4 entries (n UE nodes) gemv takes instead as
        whole dots over every row, and so does a product of the matrix's
        last 4 + n % 4 columns alone: those columns are kept from every
        block and multiplied once at the end.
        """
        acc = np.zeros(self.ue_grid.n_nodes)
        tail = np.empty((self.bs_grid.n_nodes, 4 + acc.size % 4))
        for lo, hi, rows in self._raw_blocks(self.bs_grid, self.ue_grid):
            if scale is not None:
                rows *= scale
            cuts = [*range(lo, hi, 4)] + [hi - 1] * (hi % 4 == 3) + [hi]
            for c, d in zip(cuts, cuts[1:]):
                acc += rows[c - lo:d - lo].T @ x[c:d]
            tail[lo:hi] = rows[:, -tail.shape[1]:]
        acc[-tail.shape[1]:] = tail.T @ x
        return acc

    def _streamed_total(self):
        """wb @ raw @ wu of the assembled matrix, to the last bit; a
        ValueError where the image factors overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(self._product_ue(self.bs_grid.weights)
                          @ self.ue_grid.weights)
        if not np.isfinite(total):
            raise ValueError("profile density overflows a float on these "
                             "grids: the spreads are too narrow for the "
                             "nodes' offsets from the means")
        return total

    def marginal_bs(self, ue_power):
        """BS-side marginal profile from a UE-side angular power density.

        ue_power holds nonnegative pattern power values on the UE grid nodes;
        the result is P(psi_b) = integral ProfileDensity * ue_power dpsi_u,
        one value per BS grid node: ``joint_matrix @ (w_u * ue_power)`` to
        the last bit, from row blocks scaled by 1 / (the matrix's double
        integral) as the dense matrix is scaled.
        """
        x = self.ue_grid.weights * ue_power
        scale = 1.0 / self._streamed_total()
        out = np.empty(self.bs_grid.n_nodes)
        for lo, hi, rows in self._raw_blocks(self.bs_grid, self.ue_grid):
            rows *= scale
            np.matmul(rows, x, out=out[lo:hi])
        return out

    def marginal_ue(self, bs_power):
        """UE-side marginal, ``joint_matrix.T @ (w_b * bs_power)`` to the
        last bit; mirror image of marginal_bs."""
        return self._product_ue(self.bs_grid.weights * bs_power,
                                1.0 / self._streamed_total())


def _offsets(grid, mean):
    """(n_nodes, 2) offsets of a grid's nodes from a (theta, phi) mean."""
    return np.stack([grid.theta - mean[0], grid.phi - mean[1]], axis=1)


def pattern_power(q, modeset, grid, polarization="theta"):
    """Radiated power sum_beams |q^T K|^2 of a beam set on a product grid,
    per node in the grid's flat order: the beam sum of
    `modes.FieldTable.beam_power` on the grid's theta nodes."""
    table = modes.FieldTable(modeset, grid.theta_nodes, polarization)
    return np.sum(table.beam_power(q, grid.phi_nodes), axis=0).ravel()


def profile_fields(profile, side, modeset, polarization=None):
    """Dense far-field matrices of a ModeSet on one link end's grid.

    side: 'bs' or 'ue' (`JointProfile.link_end`); polarization: 'theta'
    or 'full' (`modes.check_polarization`), the profile's unless given.
    Returns (K_theta, K_phi), each (J, n_nodes), with K_phi set to None
    under 'theta' polarization.  The pipeline never forms these; they are
    the dense reference that checks of pattern_power and mode_correlation
    compare against.
    """
    grid = profile.link_end(side)[0]
    pol = polarization or profile.params.polarization
    kth, kph = modes.far_field_matrix(modeset, grid.theta, grid.phi)
    return kth, (None if modes.check_polarization(pol) == "theta" else kph)
