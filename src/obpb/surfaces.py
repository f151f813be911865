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
only P's action (`project`), so a ProjectionOperator keeps what that
applies and the singular values; the currents a = Z^+ q_opt (both the
least-squares and the minimum-norm current solution) are built on request
by `currents`.

Mirror symmetry fixes P exactly where the physics does.  A reflection S
that maps the sampled currents onto themselves (each point onto a sample,
each tangent onto +-1 times that sample's tangent) maps each regular wave
onto +-1 times one other (`modes.ModeSet.mirror`), so sigma Z = Z C with
signed permutations sigma of the modes and C of the currents.  `build_z`
keeps each such reflection for which Z agrees with its mirrored copy to
roundoff, and Z splits into the reflections' joint parity classes; a Z
with no such reflection is the trivial group, one class of every mode and
every current.  One rule decides where P is exact: every class is reached
in full or not at all.  The hemisphere (y and z mirrors) reaches every
class in full, and so does any Z of full row rank, so P = I; the x = 0
plane (x, y and z mirrors) reaches every x-even class in full and no
x-odd one, so P = (I + sigma_x) / 2, with entries exactly 0, +-1/2 or 1.
Such a P is kept as its nonzero signed mode maps, P = sum_g a_g sigma_g
(one term for the identity, two for the plane), and applied as
sum_g a_g sign_g * q[perm_g]: no J x J matrix is formed unless ``p_op`` is
read.  The 1/32-sphere's classes are reached only in part (its narrow Z has
fewer columns than each class has modes); it and every other Z the rule
does not settle take one SVD of the whole Z, whose projector depends on
roundoff where the spectrum decays without a cliff, and keep that dense
U_r U_r^H.

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


def _rank(s, rtol):
    """Number of singular values above rtol * sigma_0."""
    return int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0


def _whole(z, rtol):
    """(sigma, U_r U_r^H) of z (J x n) from one SVD of the whole Z: every
    singular value, descending, and the dense projector onto the left
    singular vectors above rtol * sigma_0.

    A wide z (n > J) is first reduced to the J x J triangular factor R of
    a QR of z^H, which has the same left singular vectors and singular
    values (Golub & Van Loan, section 5.4), so neither the long right
    singular vectors nor the QR's orthogonal factor is formed.  The QR is
    taken of z^T, a view, and R^H is read as qr(z^T).R^T: Householder QR
    commutes with conjugation to the last bit (every reflector and every
    update of the conjugated input is the conjugate of the original's, and
    IEEE negation is exact), so qr(z^T).R = conj(qr(z^H).R) without a
    conjugated copy of z.  Only the sign of zero imaginary parts differs.
    The rank and the projector both come from the one SVD call.

    Do not refactor the narrow factorization: the 1/32-sphere keeps
    singular values down to 4.8e-13 sigma_0, so its projector is fixed only
    to ~2e-5, and any change of its last bits moves results pinned by the
    benchmark reference (the FOUND line on `ProjectionOperator` in
    CHANGES.md).  The plane and the hemisphere reach this function only at
    a loose rtol or without their mirrors; the class rule fixes their
    projectors otherwise.
    """
    if z.shape[1] > z.shape[0]:
        z = np.linalg.qr(z.T, mode="r").T
    u, s, _ = np.linalg.svd(z, full_matrices=False)
    r = _rank(s, rtol)
    return s, u[:, :r] @ u[:, :r].conj().T


class ProjectionOperator:
    """Projector onto the radiatable subspace of a transfer matrix Z (J x 2P).

    P_op = Z Z^+ restricted to the numerical rank r, U_r U_r^H from the left
    singular vectors above rtol, is Hermitian and idempotent by
    construction.  ``singular_values`` holds min(J, 2P) singular values of
    Z in descending order, and ``rank`` counts those above rtol * sigma_0.

    ``mirrors`` lists reflections under which Z is symmetric, as pairs of
    signed row and column maps (`surface_mirrors`); none is the trivial
    group, one class holding every mode and every current.  One rule
    decides when P_op is exact (`_by_classes`): when every parity class is
    either reached in full at the rtol * sigma_0 cut or has no columns,
    P_op is the sum of the full classes' projectors, a fixed combination
    sum_g a_g sigma_g of the mirror maps whose entries are exactly 0, +-1/2
    or 1, and no singular vector is formed: a full-rank Z without mirrors
    and the hemisphere get P_op = I, the x = 0 plane the x-even modes,
    (I + sigma_x) / 2.  ``projector`` then holds the nonzero terms
    (a_g, perm_g, sign_g), and ``p_op`` builds the dense matrix from them
    each time it is read; nothing the pipeline runs reads it.  Every other
    Z, a class that reaches some but not all of its modes (the
    1/32-sphere) or a class below full rank, takes one SVD of the whole Z
    (`_whole`), and ``projector`` holds the dense U_r U_r^H.

    The pseudoinverse is built from a full SVD of Z on first use only.
    """

    def __init__(self, z, rtol=RANK_RTOL, mirrors=()):
        self.z = z
        self.mirrors = mirrors
        self.singular_values, self.projector = (
            _by_classes(z, mirrors, rtol) or _whole(z, rtol))
        self.rank = _rank(self.singular_values, rtol)

    @property
    def mode_count(self):
        return self.z.shape[0]

    @property
    def p_op(self):
        """The projector as a dense J x J matrix."""
        if isinstance(self.projector, np.ndarray):
            return self.projector
        p_op = np.zeros((self.mode_count, self.mode_count), dtype=complex)
        diag = np.arange(self.mode_count)
        for a_g, perm, sign in self.projector:
            p_op[diag, perm] += a_g * sign
        return p_op

    @functools.cached_property
    def pinv(self):
        """Moore-Penrose pseudoinverse of Z at the kept rank (2P x J)."""
        u, s, vh = np.linalg.svd(self.z, full_matrices=False)
        r = self.rank
        return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


def _products(maps, size):
    """Every product of commuting signed maps (perm, sign) of `size`
    indices, the identity first: element g is the product of the maps
    whose bit is set in g.

    A map acts on a vector v as (sigma v)[i] = sign[i] v[perm[i]].
    """
    out = [(np.arange(size), np.ones(size))]
    for perm, sign in maps:
        out += [(p[perm], s[perm] * sign) for p, s in out]
    return out


def _class_basis(perms, signs, chars):
    """Orthonormal basis of one parity class of an index set, as
    (index, coefficient) arrays of shape (n_basis, |G|).

    perms and signs hold each group element's signed map in a column, and
    chars the class's character chi(g) = +-1.  Basis vector k is the
    normalized orbit sum sum_g coef[k, g] e_index[k, g] of one orbit's
    smallest index; an orbit belongs to the class only if each element
    that fixes its index does so with sign chi(g).
    """
    n, order = perms.shape
    coef = signs * chars
    fixed = perms == np.arange(n)[:, None]
    kept = ((perms.min(axis=1) == np.arange(n))
            & np.all(~fixed | (coef == 1.0), axis=1))
    orbit = order / fixed[kept].sum(axis=1)
    return perms[kept], coef[kept] * (np.sqrt(orbit) / order)[:, None]


def _by_classes(z, mirrors, rtol):
    """(sigma, terms) of z from its blocks in the mirrors' joint parity
    classes, or None when the classes do not fix P exactly.

    No mirrors is the trivial group: one class, every mode and every
    current, whose one block is Z itself, so a Z of full row rank gets
    P = I and any other Z without mirrors gets None.  The mirror maps
    commute, so Z, with sigma_g Z = Z C_g for every group element g, is
    block diagonal between the class bases U of rows (m / -m combinations)
    and V of columns (orbit sums of the paired currents).
    Z maps an orbit sum onto sqrt|orbit| times the class projection of its
    first column, so each class block B = U^H Z V is read from one column
    per orbit.  Each block gets one values-only factorization, a QR of its
    transpose first when it is wide.  The classes' values, and zeros for
    the classes no column reaches, are the singular values of Z.  If each
    class either has no columns or keeps all its rows at the global
    rtol * sigma_0 cut, P is the sum of the full classes' projectors,
    sum_g a_g sigma_g with a_g = sum_chi chi(g) / |G| over the full
    classes: sums of dyadic fractions of +-1, exact in floating point.
    terms lists the nonzero a_g with g's signed row map, (a_g, perm_g,
    sign_g): (1, identity) for a full-rank Z and the hemisphere, and
    (1/2, identity) and (1/2, sigma_x) for the x = 0 plane.  None is
    returned when some class is reached only in part, or is below full
    rank at the cut.
    """
    rows = _products([r for r, _ in mirrors], z.shape[0])
    cols = _products([c for _, c in mirrors], z.shape[1])
    order = len(rows)
    row_perms, row_signs = (np.stack(a, axis=1) for a in zip(*rows))
    col_perms, col_signs = (np.stack(a, axis=1) for a in zip(*cols))
    chars = [np.array([(-1.0) ** bin(g & chi).count("1")
                       for g in range(order)]) for chi in range(order)]
    bases = [(_class_basis(row_perms, row_signs, c),
              _class_basis(col_perms, col_signs, c)) for c in chars]
    if any(0 < len(ci) < len(ri) for (ri, _), (ci, _) in bases):
        return None
    values, full = [], []
    for chi, ((ri, rc), (ci, cc)) in enumerate(bases):
        if not len(ri) or not len(ci):
            continue
        # order * cc[:, 0] = sqrt|orbit| of each column orbit; the trivial
        # group's one block is Z itself, read without a copy
        b = z if order == 1 else sum(rc[:, g, None] * z[np.ix_(
            ri[:, g], ci[:, 0])] for g in range(order)) * (order * cc[:, 0])
        if b.shape[1] > b.shape[0]:
            b = np.linalg.qr(b.T, mode="r")
        values.append(np.linalg.svd(b, compute_uv=False))
        full.append(chi)
    if not values:
        return None
    s = np.sort(np.concatenate(values))[::-1]
    cut = rtol * s[0]
    if any(np.sum(v > cut) < len(bases[chi][0][0])
           for v, chi in zip(values, full)):
        return None
    s = np.concatenate([s, np.zeros(min(z.shape) - s.size)])
    a = [sum(chars[chi][g] for chi in full) / order for g in range(order)]
    return s, [(a_g, perm, sign)
               for a_g, (perm, sign) in zip(a, rows) if a_g]


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
    return ProjectionOperator(z, rtol=rtol,
                              mirrors=surface_mirrors(modeset, sampling, z))


# A reflection is kept only where Z and its mirrored copy agree to this
# fraction of max|Z|.  Z's own roundoff puts the mismatch at 4.8e-15 or
# below on the shipped surfaces, while a sample at the origin, which the
# 1/32-sphere has, breaks the z-mirror by 1.4e-7 (its theta = 0 and the
# pole and kr clamps stand in for a direction).
MIRROR_RTOL = 1e-12


def _column_mirror(sampling, axis):
    """Signed map (perm, sign) of Z's columns under the reflection that
    negates one coordinate, or None when the samples are not symmetric.

    Point p pairs with the sample q at its mirror image, found by sorting
    the points and their images on positions rounded to 1e-6 r0, and
    tangent d of q is +-1 times the mirrored tangent d of p.  Positions
    and tangents must then match to 1e-9 (relative to r0 for positions).
    Two samples in one rounding cell leave the pairing ambiguous and give
    None, so every map returned is an involution, and the maps of the
    three axes commute.
    """
    pts, tang = sampling.points, sampling.tangents
    flip = np.ones(3)
    flip[axis] = -1.0
    key = np.round(pts / (1e-6 * sampling.surface.r0))
    order = np.lexsort(key.T)
    if np.any(np.all(key[order[1:]] == key[order[:-1]], axis=1)):
        return None
    pair = np.empty(sampling.n_points, dtype=int)
    pair[np.lexsort((key * flip).T)] = order
    sign = np.sign(np.sum(tang * flip * tang[pair], axis=2))
    if (np.abs(pts * flip - pts[pair]).max() > 1e-9 * sampling.surface.r0
            or np.abs(tang[pair] - sign[:, :, None] * tang * flip).max()
            > 1e-9):
        return None
    return (2 * pair[:, None] + np.arange(2)).ravel(), sign.ravel()


def surface_mirrors(modeset, sampling, z):
    """The coordinate reflections that map a surface's Z onto itself.

    Returns a list of (row map, column map) pairs, the rows' from
    `ModeSet.mirror` and the columns' from the sample pairing, for each
    reflection under which sigma Z = Z C holds to MIRROR_RTOL * max|Z|,
    both read ``_POINT_BLOCK`` points at a time.
    """
    candidates = []
    for axis in range(3):
        cols = _column_mirror(sampling, axis)
        if cols is not None:
            candidates.append((modeset.mirror(axis), cols))
    blocks = [slice(lo, lo + 2 * _POINT_BLOCK)
              for lo in range(0, z.shape[1], 2 * _POINT_BLOCK)]
    bound = MIRROR_RTOL * max(np.abs(z[:, c]).max() for c in blocks)
    return [(rows, cols) for rows, cols in candidates
            if _mismatch(z, rows, cols, blocks) <= bound]


def _mismatch(z, rows, cols, blocks):
    """max |Z C - sigma Z| of one reflection's signed maps, formed one
    block of Z's columns at a time."""
    (rp, rs), (cp, cs) = rows, cols
    worst = 0.0
    for c in blocks:
        d = z.take(cp[c], axis=1)
        d *= cs[c]
        d -= rs[:, None] * z[rp, c]
        worst = max(worst, np.abs(d).max())
    return worst


def project(op, q):
    """Project beam coefficients onto a surface's radiatable subspace.

    `op` is a ProjectionOperator or its ``op.projector``, which is all a
    caller that lets the operator (and its Z) go needs to keep.  Returns
    q_semi = P_op q for one coefficient vector or a (J, M) matrix,
    re-normalized to unit power per column; zero projections are returned
    as-is rather than normalized (``op.p_op @ q`` is the projection before
    normalization).  A mirror-class projector is applied from its terms as
    sum_g a_g sign_g * q[perm_g]: each row of the plane's P has at most
    two nonzero entries +-1/2 (or one entry 1), whose products with q are
    exact, so the one rounding of their sum gives the dense product's bits
    (up to the sign of a zero), and the hemisphere's identity returns q.
    P_op q equals Z Z^+ q exactly in real arithmetic, but evaluating it
    through the currents loses ~sigma_0/sigma_r digits to cancellation (the
    currents on weakly-coupled modes are huge and mostly cancel), while the
    projector form keeps re-projection idempotent to machine precision.
    """
    proj = op.projector if isinstance(op, ProjectionOperator) else op
    q = np.asarray(q, dtype=complex)
    if isinstance(proj, np.ndarray):
        q_semi = proj @ q
    else:
        shape = (-1,) + (1,) * (q.ndim - 1)
        q_semi = sum((a_g * sign).reshape(shape) * q[perm]
                     for a_g, perm, sign in proj)
    norms = np.linalg.norm(q_semi, axis=0)
    return q_semi / np.where(norms > 0, norms, 1.0)


def currents(op, q):
    """Surface current weights a = Z^+ q of beam coefficients q.

    These are the minimum-norm currents whose radiation is the projection
    P_op q (before any normalization).
    """
    return op.pinv @ np.asarray(q, dtype=complex)
