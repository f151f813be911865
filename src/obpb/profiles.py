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

# row-block size for assembling the joint matrix; keeps the exp temporaries
# near 150 MB while the full 18432 x 4608 matrix is ~680 MB
_CHUNK_ROWS = 2048


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
        self.theta_weights = w[order]
        self.phi_nodes = -np.pi + (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
        self.phi_weight = 2.0 * np.pi / n_phi
        self.shape = (n_theta, n_phi)
        self.theta = np.repeat(self.theta_nodes, n_phi)
        self.phi = np.tile(self.phi_nodes, n_theta)
        self.weights = np.repeat(self.theta_weights * self.phi_weight, n_phi)

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
    """A joint profile discretized on a pair of direction grids.

    The heavy object is ``joint_matrix``: the normalized density evaluated on
    (every BS node) x (every UE node).  It is assembled once, in row blocks,
    through a rank-9 factorization of the azimuth wrapping: each of the nine
    image pairs contributes a separable exp() column, so only the base
    cross-term needs a full-size exp.
    """

    def __init__(self, params, bs_grid=None, ue_grid=None):
        self.params = params
        self.bs_grid = bs_grid if bs_grid is not None else make_grid(*BS_GRID)
        self.ue_grid = ue_grid if ue_grid is not None else make_grid(*UE_GRID)
        self._precision = np.linalg.inv(params.covariance())
        raw = self._assemble(self.bs_grid, self.ue_grid)
        wb = self.bs_grid.weights
        wu = self.ue_grid.weights
        self.total_power = float(wb @ raw @ wu)
        if self.total_power <= 0:
            raise ValueError("profile has no power on the grid")
        raw *= 1.0 / self.total_power
        self.joint_matrix = raw

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

    def _assemble(self, bs_grid, ue_grid):
        mu = self.params.mean
        vb = np.stack([bs_grid.theta - mu[0], bs_grid.phi - mu[1]], axis=1)
        vu = np.stack([ue_grid.theta - mu[2], ue_grid.phi - mu[3]], axis=1)
        fb, fu = self._image_terms(vb, vu)
        Abu = self._precision[:2, 2:]
        cu = Abu @ vu.T                                    # (2, nu)
        out = np.empty((vb.shape[0], vu.shape[0]))
        for lo in range(0, vb.shape[0], _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, vb.shape[0])
            cross = vb[lo:hi] @ cu
            np.negative(cross, out=cross)
            np.exp(cross, out=cross)
            cross *= fb[lo:hi] @ fu.T
            out[lo:hi] = cross
        return out

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
        return self.joint_matrix @ (self.ue_grid.weights * ue_power)

    def marginal_ue(self, bs_power):
        """UE-side marginal; mirror image of marginal_bs."""
        return self.joint_matrix.T @ (self.bs_grid.weights * bs_power)


def joint_density(profile, psi_bs, psi_ue):
    """Module-level alias for JointProfile.density."""
    return profile.density(psi_bs, psi_ue)


def beam_power(q, modeset, theta_nodes, phi_nodes, polarization="theta"):
    """Radiated power |q^T K|^2 of each beam on a theta x phi product.

    q: (J,) or (J, M) beam coefficients; the nodes are 1-D angle lists in
    radians.  Each mode separates as K_j(theta, phi) = K_j(theta, 0)
    e^(i m_j phi), so the beams are summed per azimuthal order on the theta
    nodes, a(theta, m) = sum_{m_j = m} q_j K_j(theta, 0), and expanded in
    azimuth as a @ e^(i m phi).  Under 'theta' polarization only the theta
    components count, under 'full' both.  Returns (M, n_theta, n_phi).
    """
    q = np.atleast_2d(np.asarray(q).T).T      # (J, M)
    nmax = modeset.truncation_order
    orders = np.arange(-nmax, nmax + 1)
    per_order = modeset.m[:, None] == orders              # (J, 2N + 1)
    azim = np.exp(1j * np.outer(orders, phi_nodes))       # (2N + 1, n_phi)
    t = modes.far_field_matrix(modeset, theta_nodes,
                               np.zeros_like(theta_nodes))
    power = 0.0
    for tc in (t if polarization == "full" else t[:1]):
        g = (np.einsum("jb,jt->btj", q, tc) @ per_order) @ azim
        power = power + np.abs(g) ** 2
    return power


def pattern_power(q, modeset, grid, polarization="theta"):
    """Radiated power sum_beams |q^T K|^2 of a beam set on a product grid:
    the beam sum of `beam_power`, per node in the grid's flat order."""
    return np.sum(beam_power(q, modeset, grid.theta_nodes, grid.phi_nodes,
                             polarization), axis=0).ravel()


def marginal_profile_bs(profile, q_ue, modes_ue):
    """BS marginal produced by a set of UE beams.

    q_ue: (J_ue, M) mode coefficients over modes_ue.  The UE beams' total
    radiated pattern power on the UE grid weights the joint profile.
    """
    return profile.marginal_bs(pattern_power(
        q_ue, modes_ue, profile.ue_grid, profile.params.polarization))


def marginal_profile_ue(profile, q_bs, modes_bs):
    """UE marginal produced by a set of BS beams."""
    return profile.marginal_ue(pattern_power(
        q_bs, modes_bs, profile.bs_grid, profile.params.polarization))


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
