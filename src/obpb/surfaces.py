"""Constrained antenna surfaces and beam projection.

An optimal beam pattern lives in the full spherical-mode space; a physical
aperture can only radiate patterns whose modal content is reachable from
currents on its surface.  Sampling the surface with tangential point currents
(two orthogonal polarizations per point) gives the transfer matrix

    Z[j, l] = F_j(x_l) . tau_l,

the regular spherical waves evaluated at the sample points and projected on
the tangent directions.  Columns of Z span the radiatable mode subspace, and
the semi-optimal beam is the orthogonal projection

    q_semi = P q_opt,   P = Z Z^+ = U_r U_r^H,

with U_r the left singular vectors above the rank cut.  The pipeline reads
only P, so a ProjectionOperator keeps U_r's projector and the singular
values; the currents a = Z^+ q_opt (both the least-squares and the
minimum-norm current solution) are built on request by `currents`.

Surfaces all fit inside the sphere of radius r0 that encloses the reference
square aperture: the through-center plane of side sqrt(2) r0, spherical caps
whose rim corners touch the r0 sphere, and the hemisphere of radius r0.
"""

import functools

import numpy as np

from . import modes as modes_mod


class AntennaSurface:
    """A plane or spherical-cap current surface.

    Spherical caps of radius R live on a sphere centered at (center_x, 0, 0)
    and cover |theta - pi/2| <= theta_c, |phi| <= phi_c of its local angles,
    so the cap looks down the +x boresight.  The plane is the x = 0 square of
    the given side, spanned by the y and z axes.
    """

    def __init__(self, kind, r0, side=None, radius=None, theta_c=None,
                 phi_c=None, center_x=0.0):
        if kind not in ("plane", "cap"):
            raise ValueError("kind is 'plane' or 'cap'")
        if r0 <= 0:
            raise ValueError("enclosing radius must be positive")
        self.kind = kind
        self.r0 = float(r0)
        self.side = side
        self.radius = radius
        self.theta_c = theta_c
        self.phi_c = phi_c
        self.center_x = float(center_x)

    def __repr__(self):
        if self.kind == "plane":
            return f"AntennaSurface(plane, side={self.side:.4g})"
        return (f"AntennaSurface(cap, R={self.radius:.4g}, "
                f"theta_c={self.theta_c:.4g}, phi_c={self.phi_c:.4g})")


def plane_surface(r0):
    """Largest square plate through the center of the r0 sphere (side sqrt2 r0).

    Its corners touch the enclosing sphere; a plate tangent to the sphere
    would lie outside the allowed volume.
    """
    return AntennaSurface("plane", r0, side=np.sqrt(2.0) * r0)


def cap_surface(r0, theta_c, phi_c):
    """Spherical cap with angular half-widths (theta_c, phi_c).

    The cap radius R = max{r0/(sqrt2 sin theta_c), r0/(sqrt2 sin phi_c)} and
    its center of curvature sits at +R on the x axis, so the dish is cupped
    toward the +x boresight like a reflector, with its midpoint at the origin
    and (for theta_c = phi_c) its four rim corners exactly on the r0 sphere:
    |p_corner|^2 = 2 R^2 (1 - cos theta_c cos phi_c) = r0^2.  The concave
    orientation couples far better to boresight beams than the convex one
    (projected beam correlations an order of magnitude lower).
    """
    if not (0 < theta_c <= np.pi / 2 and 0 < phi_c <= np.pi / 2):
        raise ValueError("cap half-widths must lie in (0, pi/2]")
    radius = max(r0 / (np.sqrt(2.0) * np.sin(theta_c)),
                 r0 / (np.sqrt(2.0) * np.sin(phi_c)))
    return AntennaSurface("cap", r0, radius=radius, theta_c=theta_c,
                          phi_c=phi_c, center_x=radius)


def hemisphere_surface(r0):
    """The +x half of the r0 sphere itself (R = r0, centered at the origin)."""
    return AntennaSurface("cap", r0, radius=r0, theta_c=np.pi / 2,
                          phi_c=np.pi / 2, center_x=0.0)


# the three reference shapes by scenario name, each a factory of r0
SURFACES = {
    "plane": plane_surface,
    "one_32_sphere": lambda r0: cap_surface(r0, np.pi / 8, np.pi / 8),
    "hemisphere": hemisphere_surface,
}


def named_surface(name, r0):
    """Surface factory for the three reference shapes by scenario name."""
    if name not in SURFACES:
        raise ValueError(f"unknown surface '{name}'")
    return SURFACES[name](r0)


class SurfaceSampling:
    """Point-current discretization of a surface.

    points: (P, 3) Cartesian sample positions; tangents: (P, 2, 3) orthonormal
    tangent pairs; r/theta/phi: the points in global spherical coordinates.
    """

    def __init__(self, surface, points, tangents):
        self.surface = surface
        self.points = points
        self.tangents = tangents
        self.r = np.linalg.norm(points, axis=1)
        with np.errstate(invalid="ignore"):
            self.theta = np.where(self.r > 0,
                                  np.arccos(np.clip(points[:, 2]
                                                    / np.maximum(self.r, 1e-300),
                                                    -1.0, 1.0)),
                                  0.0)
        self.phi = np.arctan2(points[:, 1], points[:, 0])

    @property
    def n_points(self):
        return self.points.shape[0]


def _local_frame(theta, phi):
    """Unit vectors (u, that, phat) of spherical angles, Cartesian rows."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    u = np.stack([st * cp, st * sp, ct], axis=-1)
    that = np.stack([ct * cp, ct * sp, -st], axis=-1)
    phat = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return u, that, phat


def _sample_count(length, density):
    """ceil(length * density), at least 1.

    The product is rounded to 9 decimals first: a side that comes out one
    ulp above a whole number of cells (sqrt2 * (a / sqrt2) for a = 1.75,
    3.5 or 7 wavelengths) must not gain a whole row of samples.
    """
    return max(1, int(np.ceil(round(length * density, 9))))


def sample_surface(surface, density=4.0):
    """Cell-centered point currents at `density` samples per wavelength.

    Planes get an n x n grid with n = ceil(side * density); caps get
    latitude bands (ceil of arc length times density) whose band populations
    follow the local circumference, keeping the cell area roughly constant.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    if surface.kind == "plane":
        n = _sample_count(surface.side, density)
        u = ((np.arange(n) + 0.5) / n - 0.5) * surface.side
        yy, zz = np.meshgrid(u, u, indexing="ij")
        pts = np.stack([np.zeros(n * n), yy.ravel(), zz.ravel()], axis=1)
        tang = np.broadcast_to(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), (n * n, 2, 3)).copy()
    else:
        R, tc, pc = surface.radius, surface.theta_c, surface.phi_c
        n_bands = _sample_count(2.0 * tc * R, density)
        th = np.pi / 2 + ((np.arange(n_bands) + 0.5) / n_bands - 0.5) * 2.0 * tc
        rows = []
        tangs = []
        # Concave dishes (center of curvature at +x) are built as their
        # convex mirror image about x = 0 and reflected afterwards.
        concave = surface.center_x > 0
        center = np.array([-abs(surface.center_x), 0.0, 0.0])
        for t in th:
            arc = 2.0 * pc * R * np.sin(t)
            n_p = _sample_count(arc, density)
            ph = ((np.arange(n_p) + 0.5) / n_p - 0.5) * 2.0 * pc
            u, that, phat = _local_frame(np.full(n_p, t), ph)
            rows.append(center + R * u)
            tangs.append(np.stack([that, phat], axis=1))
        pts = np.concatenate(rows)
        tang = np.concatenate(tangs)
        if concave:
            pts[:, 0] *= -1.0
            tang[:, :, 0] *= -1.0
    radial = np.linalg.norm(pts, axis=1)
    if radial.max() > surface.r0 * (1.0 + 1e-9):
        raise AssertionError("sampled surface escapes the enclosing sphere")
    return SurfaceSampling(surface, pts, tang)


# Singular values below RANK_RTOL * sigma_0 are treated as unradiatable.
# The threshold is deliberately near machine precision: the pseudoinverse is
# allowed to spend arbitrarily large currents on weakly-coupled modes, which
# is what makes the hemisphere reproduce the optimal beams essentially
# exactly.  Hard geometric nullities (the x = 0 plane radiates only the
# symmetric half of the modes, a rank cliff of ten orders of magnitude) are
# still cut cleanly; only the roundoff tail below the cliff is excluded.
RANK_RTOL = 1e-14


def _left_singular(z):
    """(U, sigma) of z (J x n), economy size, singular values descending.

    A wide z (n > J) is first reduced to the J x J triangular factor R of a
    QR of z^H, which has the same left singular vectors and singular values
    (Golub & Van Loan, section 5.4), so neither the long right singular
    vectors nor the QR's orthogonal factor is formed.  The QR is taken of
    z^T, a view, and R^H is read as qr(z^T).R^T: Householder QR commutes
    with conjugation to the last bit (every reflector and every update of
    the conjugated input is the conjugate of the original's, and IEEE
    negation is exact), so qr(z^T).R = conj(qr(z^H).R) without a conjugated
    copy of z.  Only the sign of zero imaginary parts differs.

    A narrow z (the plane, the 1/32-sphere) goes straight to the SVD.  Do
    not refactor that factorization: the 1/32-sphere keeps singular values
    down to 4.8e-13 sigma_0, so its projector is fixed only to ~2e-5, and
    any change of its last bits moves results pinned by the benchmark
    reference (the FOUND line on `ProjectionOperator` in CHANGES.md).
    """
    if z.shape[1] > z.shape[0]:
        z = np.linalg.qr(z.T, mode="r").T
    u, s, _ = np.linalg.svd(z, full_matrices=False)
    return u, s


class ProjectionOperator:
    """Projector onto the radiatable subspace of a transfer matrix Z (J x 2P).

    P_op = Z Z^+ restricted to the numerical rank is Hermitian and idempotent
    by construction (U_r U_r^H from the singular triplets above rtol).  The
    pseudoinverse is built from a full SVD of Z on first use only.
    """

    def __init__(self, z, rtol=RANK_RTOL):
        self.z = z
        u, s = _left_singular(z)
        self.singular_values = s
        self.rank = int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0
        self.p_op = u[:, :self.rank] @ u[:, :self.rank].conj().T

    @property
    def mode_count(self):
        return self.z.shape[0]

    @functools.cached_property
    def pinv(self):
        """Moore-Penrose pseudoinverse of Z at the kept rank (2P x J)."""
        u, s, vh = np.linalg.svd(self.z, full_matrices=False)
        r = self.rank
        return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


# Points per block of `build_z`.  A block's regular waves and Cartesian
# components are J x 128 complex arrays (1.3 MB each at J = 646), where the
# hemisphere's whole-surface arrays took 8.6 MB each, six at a time.  Every
# operation on them is elementwise per point, so the block size moves no bit
# of Z.  Each block repeats the per-order Legendre set-up, whose cost shows
# in the build time below about 128 points.
_POINT_BLOCK = 128


def build_z(modeset, sampling, rtol=RANK_RTOL):
    """Transfer matrix from surface currents to spherical modes.

    Z[j, 2p + d] is the regular wave of mode j at point p dotted with the
    point's d-th tangent direction (plain bilinear dot, no conjugation).
    Z's columns are filled ``_POINT_BLOCK`` points at a time: the regular
    waves, their Cartesian components and the tangent dots of a block are
    formed from its own points only, so no whole-surface field array is
    held next to Z.  Returns a ProjectionOperator.
    """
    n_points = sampling.n_points
    z = np.empty((modeset.mode_count, 2 * n_points), dtype=complex)
    for lo in range(0, n_points, _POINT_BLOCK):
        pts = slice(lo, min(lo + _POINT_BLOCK, n_points))
        theta, phi = sampling.theta[pts], sampling.phi[pts]
        fr, fth, fph = modes_mod.regular_wave_matrix(
            modeset, sampling.r[pts], theta, phi)
        u, that, phat = _local_frame(theta, phi)
        # Cartesian field components per (mode, point)
        fx = fr * u[:, 0] + fth * that[:, 0] + fph * phat[:, 0]
        fy = fr * u[:, 1] + fth * that[:, 1] + fph * phat[:, 1]
        fz = fr * u[:, 2] + fth * that[:, 2] + fph * phat[:, 2]
        for d in (0, 1):
            tau = sampling.tangents[pts, d, :]
            z[:, 2 * pts.start + d:2 * pts.stop:2] = (
                fx * tau[:, 0] + fy * tau[:, 1] + fz * tau[:, 2])
    return ProjectionOperator(z, rtol=rtol)


def project(op, q):
    """Project beam coefficients onto a surface's radiatable subspace.

    `op` is a ProjectionOperator or its projector matrix ``op.p_op``, which
    is all a caller that lets the operator (and its Z) go needs to keep.
    Returns q_semi = P_op q for one coefficient vector or a (J, M) matrix,
    re-normalized to unit power per column; zero projections are returned
    as-is rather than normalized (``op.p_op @ q`` is the projection before
    normalization).  P_op q equals Z Z^+ q exactly in real arithmetic, but
    evaluating it through the currents loses ~sigma_0/sigma_r digits to
    cancellation (the currents on weakly-coupled modes are huge and mostly
    cancel), while the projector form keeps re-projection idempotent to
    machine precision.
    """
    p_op = op.p_op if isinstance(op, ProjectionOperator) else op
    q_semi = p_op @ np.asarray(q, dtype=complex)
    norms = np.linalg.norm(q_semi, axis=0)
    return q_semi / np.where(norms > 0, norms, 1.0)


def currents(op, q):
    """Surface current weights a = Z^+ q of beam coefficients q.

    These are the minimum-norm currents whose radiation is the projection
    P_op q (before any normalization).
    """
    return op.pinv @ np.asarray(q, dtype=complex)
