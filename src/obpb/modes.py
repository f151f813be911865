"""Vector spherical mode machinery.

Modes follow the spherical near-field measurement convention (Hansen): a mode
is labelled (s, m, n) with s = 1 (TE) or 2 (TM), polar order n >= 1 and
azimuthal order m in [-n, n], and packed into a single flat index

    j = 2 (n (n + 1) + m - 1) + s,

so a truncation at polar order N keeps J = 2 N (N + 2) modes.

The far-field pattern functions are

    K_1mn = (-i)^(n+1) c_mn e^(i m phi) [ i m Pb/sin(theta) th^ - dPb/dth ph^ ]
    K_2mn = (-i)^n     c_mn e^(i m phi) [ dPb/dth th^ + i m Pb/sin(theta) ph^ ]

with c_mn = sqrt(2/(n(n+1))) (-m/|m|)^m and Pb the orthonormalized associated
Legendre function of degree n and order |m| without the Condon-Shortley phase
(integral of Pb^2 over [-1, 1] equals 1).  Under this normalization every mode
radiates the same power: integral |K_j|^2 dOmega = 4 pi.

The regular (standing-wave) functions share the angular factors.  Their
tangential part is K_smn times a per-mode radial scalar,

    s = 1:  j_n(kr)
    s = 2:  (kr j_n(kr))' / kr = j_n'(kr) + j_n(kr)/kr,

and the s = 2 modes add a radial component n(n+1)/(kr) j_n(kr) Pb r^.  All
lengths are in wavelengths, so k r = 2 pi r.

Every mode separates as K_j(theta, phi) = K_j(theta, 0) e^(i m_j phi).
`FieldTable` holds a ModeSet's fields at phi = 0 on a list of theta nodes
and owns that layer: how the rows are grouped by azimuthal order, which
field components a polarization ('theta' or 'full') reads, and the three
products the pipeline reads from them, the beams' pattern power on a
theta x phi product (`FieldTable.beam_power`), its azimuth harmonics
(`FieldTable.power_harmonics`) and the mode correlation from the azimuth
harmonics of a weighted marginal (`FieldTable.correlation`).  No other
module reads the table's layout.  `hermitian_part`, the one Hermitian-part
rule of every correlation, lives here beside the mode correlation.
"""

import numpy as np

# Polar angles are clamped away from the poles; the limit formulas for
# m Pb/sin(theta) and dPb/dtheta are reproduced to ~1e-14 at this distance
# for n <= 20.
POLE_CLAMP = 1e-7

# (s, m, n) of the lowest TM mode, the electrically small dipole: the
# optimizer's seed beam and the SNR calibration's reference antenna
DIPOLE_SMN = (2, 0, 1)


def truncation_order(r0):
    """Polar truncation order for an antenna enclosed in radius r0 (wavelengths).

    N = floor(2 pi r0 / lambda0).  The zero margin is the unique choice that
    gives J = 646 at r0 = 4/sqrt(2) and J = 48 at r0 = 1/sqrt(2); rounding up
    cannot produce either count for any constant margin.
    """
    if r0 <= 0:
        raise ValueError("enclosing radius must be positive")
    return int(np.floor(2.0 * np.pi * r0))


# ModeSet's parameter of the same name shadows truncation_order inside it
_order_for_radius = truncation_order


def mode_count_for_radius(r0):
    """Number of spherical modes J = 2 N (N + 2) kept for enclosing radius r0."""
    n = truncation_order(r0)
    return 2 * n * (n + 2)


def flat_index(s, m, n):
    """Flat mode index j = 2 (n (n + 1) + m - 1) + s."""
    _check_smn(s, m, n)
    return 2 * (n * (n + 1) + m - 1) + s


def _check_smn(s, m, n):
    if s not in (1, 2):
        raise ValueError("polarization class s must be 1 or 2")
    if n < 1:
        raise ValueError("polar order n must be >= 1")
    if abs(m) > n:
        raise ValueError("azimuthal order m must satisfy |m| <= n")


class ModeSet:
    """Truncated set of modes in flat-index order.

    Parameters
    ----------
    truncation_order : int, optional
        Polar order N; every (s, m, n) with n <= N is kept.
    enclosing_radius : float, optional
        Radius r0 in wavelengths; N is derived when not given explicitly.
    """

    def __init__(self, truncation_order=None, enclosing_radius=None):
        if truncation_order is None:
            if enclosing_radius is None:
                raise ValueError("give truncation_order or enclosing_radius")
            truncation_order = _order_for_radius(enclosing_radius)
        if truncation_order < 1:
            raise ValueError("truncation order must be >= 1")
        self.truncation_order = int(truncation_order)
        j = np.arange(1, 2 * self.truncation_order * (self.truncation_order + 2) + 1)
        self.s = 2 - (j % 2)
        t = (j - self.s) // 2 + 1
        self.n = np.sqrt(t).astype(int)
        self.m = t - self.n * (self.n + 1)

    @property
    def mode_count(self):
        return self.s.size

    def mirror(self, axis):
        """Signed mode map of the reflection S that negates one Cartesian
        coordinate (axis 0, 1, 2 for x, y, z).

        Returns (perm, sign), 0-based row indices and +-1 per mode, with
        S F_j(S x) = sign_j F_perm_j(x) for the far fields and the regular
        waves alike:

            x -> -x:  (s, m, n) -> (s, -m, n),  sign (-1)^s
            y -> -y:  (s, m, n) -> (s, -m, n),  sign (-1)^(s+m)
            z -> -z:  (s, m, n) -> (s, m, n),   sign (-1)^(s+m+n)

        Flipping m moves the flat index by -4m.  Each map is an involution.
        """
        s, m, n = self.s, self.m, self.n
        rows = np.arange(self.mode_count)
        parity = {0: s, 1: s + m, 2: s + m + n}[axis]
        sign = np.where(parity % 2, -1.0, 1.0)
        return (rows if axis == 2 else rows - 4 * m), sign


def normalized_legendre(nmax, m, theta):
    """Orthonormal associated Legendre functions and theta derivatives.

    Returns (P, dP) of shape (nmax - m + 1, len(theta)) for degrees
    n = m .. nmax at order m >= 0.  Normalization is
    integral_{-1}^{1} P_n^m(x)^2 dx = 1, without the Condon-Shortley phase.
    Stable forward recurrence in n:

        P_m^m    propto sin(theta)^m
        P_n^m    = a_n (x P_{n-1}^m - P_{n-2}^m / a_{n-1}),
        a_n      = sqrt((4n^2 - 1)/(n^2 - m^2))
        dP_n/dth = (n x P_n - b_n P_{n-1}) / sin(theta),
        b_n      = sqrt((n^2 - m^2)(2n + 1)/(2n - 1)).
    """
    if m < 0 or nmax < m:
        raise ValueError("need 0 <= m <= nmax")
    theta = np.clip(np.asarray(theta, dtype=float), POLE_CLAMP, np.pi - POLE_CLAMP)
    x = np.cos(theta)
    sx = np.sin(theta)

    # seed P_m^m by climbing the diagonal from P_0^0 = 1/sqrt(2)
    pmm = np.full_like(x, 1.0 / np.sqrt(2.0))
    for k in range(1, m + 1):
        pmm = np.sqrt((2 * k + 1) / (2.0 * k)) * sx * pmm

    rows = nmax - m + 1
    P = np.empty((rows, x.size), dtype=float)
    dP = np.empty_like(P)
    P[0] = pmm
    dP[0] = m * x * pmm / sx
    if rows > 1:
        P[1] = np.sqrt(2 * m + 3.0) * x * pmm
        n = m + 1
        b = np.sqrt((n * n - m * m) * (2 * n + 1.0) / (2 * n - 1.0))
        dP[1] = (n * x * P[1] - b * P[0]) / sx
    a_prev = None
    for i in range(2, rows):
        n = m + i
        a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        if a_prev is None:
            a_prev = np.sqrt((4.0 * (n - 1) ** 2 - 1.0) / ((n - 1) ** 2 - m * m))
        P[i] = a * (x * P[i - 1] - P[i - 2] / a_prev)
        b = np.sqrt((n * n - m * m) * (2 * n + 1.0) / (2 * n - 1.0))
        dP[i] = (n * x * P[i] - b * P[i - 1]) / sx
        a_prev = a
    return P, dP


def _mode_sign(m):
    """Hansen prefactor (-m/|m|)^m, with the m = 0 convention of 1."""
    return np.where((m > 0) & (m % 2 == 1), -1.0, 1.0)


def far_field_matrix(modes, theta, phi):
    """Stack K_smn for every mode in a ModeSet over a list of directions.

    theta and phi are 1-D arrays of equal length; returns (K_theta, K_phi),
    each of shape (J, len(theta)), rows in flat-index order.  Legendre blocks
    are shared across modes with the same |m|, which is what makes the
    J = 646 truncation affordable on large quadrature grids.
    """
    return _fields_by_order(modes, theta, phi)[:2]


def check_polarization(polarization):
    """The polarization, unless it is neither 'theta' (the theta field
    components alone) nor 'full' (both): then ValueError.  The one rule of
    every reader of a polarization."""
    if polarization not in ("theta", "full"):
        raise ValueError("polarization is 'theta' or 'full'")
    return polarization


def row_blocks(n, size):
    """(lo, hi) edges of ``size``-row blocks over n rows, each starting at
    a multiple of ``size``.  A last block of one row joins the block before
    it: numpy takes a one-row product with another BLAS kernel (a gemv
    where the other blocks' products are gemms, a dot where they are
    gemvs), which rounds differently.  The one blocking rule of every
    streamed product (`profiles`' nodal marginals, `scenario`'s element
    patterns)."""
    edges = [*range(0, n - (n > 1 and n % size == 1), size), n]
    return list(zip(edges, edges[1:]))


# side of the square tiles in which `hermitian_part` Hermitizes a matrix
# larger than one tile; no value changes a bit
_HERMITIAN_TILE = 128


def hermitian_part(g, h=None):
    """0.5 (G + H^H), in place in G; H is G itself unless given.

    The one Hermitian-part rule of every mode correlation block, beam and
    element correlation, codebook Gram and Rayleigh-Ritz matrix
    (`correlation` re-exports it).  Every Gram entry the selections read
    goes through these two operations, so an entry assembled from the
    products G_gh and G_hg of two groups equals the dense Gram's entry to
    the last bit.

    A square G larger than one tile is taken in tile pairs (A above the
    diagonal, B below), each side from its own sum, A + B^H and B + A^H,
    so no full-size G^H is formed.  Writing the lower tile as the
    conjugate transpose of the upper one would flip the sign of zero
    imaginary parts.
    """
    n = g.shape[0]
    if h is not None or g.shape != (n, n) or n <= _HERMITIAN_TILE:
        g += (g if h is None else h).conj().T
        g *= 0.5
        return g
    for i in range(0, n, _HERMITIAN_TILE):
        a = slice(i, i + _HERMITIAN_TILE)
        hermitian_part(g[a, a])
        for j in range(i + _HERMITIAN_TILE, n, _HERMITIAN_TILE):
            b = slice(j, j + _HERMITIAN_TILE)
            up = g[a, b] + g[b, a].conj().T
            lo = g[b, a] + g[a, b].conj().T
            up *= 0.5
            lo *= 0.5
            g[a, b] = up
            g[b, a] = lo
    return g


class FieldTable:
    """A ModeSet's far fields at phi = 0 on a list of theta nodes, and the
    pattern powers and mode correlations on products of those nodes with
    any phi nodes.

    Every mode separates as K_j(theta, phi) = K_j(theta, 0) e^(i m_j phi),
    so this (J, n_theta) table and the azimuthal order of each row are all
    that `beam_power`, `power_harmonics` and `correlation` read.  Nothing
    in it depends on the beams or the profile, so one table per (ModeSet,
    theta nodes, polarization) serves a whole run.

    polarization: 'theta' keeps only the theta components, which then are
    all that every product reads; 'full' keeps both and sums over them.
    Any other value raises ValueError (`check_polarization`).  The table
    stores the rows of `far_field_matrix` sorted by their order m_j (a
    stable sort, so the flat index ascends inside each order), so the rows
    of each order m = -N .. N form one contiguous block; that layout is
    private, and every product takes and returns modes in flat-index
    order.
    """

    def __init__(self, modeset, theta_nodes, polarization):
        check_polarization(polarization)
        self.modeset = modeset
        nmax = modeset.truncation_order
        fields = far_field_matrix(modeset, theta_nodes,
                                  np.zeros_like(theta_nodes))
        # the flat index and the order of each stored row, and each order's
        # block of rows as (m, first row, end)
        self._rows = np.argsort(modeset.m, kind="stable")
        self._m = modeset.m[self._rows]
        self._blocks = [(m, *np.searchsorted(self._m, [m, m + 1]))
                        for m in range(-nmax, nmax + 1)]
        self._fields = [k[self._rows]
                        for k in fields[:1 if polarization == "theta" else 2]]

    def _order_sums(self, q):
        """Per field component, the beams summed per azimuthal order,
        a(theta, m) = sum_{m_j = m} q_j K_j(theta, 0): (M, n_theta, 2N + 1)
        arrays, m = -N .. N.  Each order's rows are one block, so each is
        one small product with the same rows of q."""
        q = np.atleast_2d(np.asarray(q).T).T[self._rows]          # (J, M)
        return [np.stack([q[lo:hi].T @ k[lo:hi] for _, lo, hi in self._blocks],
                         axis=-1) for k in self._fields]

    def beam_power(self, q, phi_nodes):
        """Radiated power |q^T K|^2 of each beam on the product of the
        table's theta nodes with phi_nodes (a 1-D angle list in radians).

        q: (J,) or (J, M) beam coefficients.  The beams are summed per
        azimuthal order on the theta nodes and expanded in azimuth as
        a @ e^(i m phi).  Returns (M, n_theta, n_phi).
        """
        nmax = self.modeset.truncation_order
        azim = np.exp(1j * np.outer(np.arange(-nmax, nmax + 1), phi_nodes))
        return sum(np.abs(a @ azim) ** 2 for a in self._order_sums(q))

    def power_harmonics(self, q):
        """Azimuth harmonics of a beam set's total radiated power.

        The power sum_beams |sum_m a(theta, m) e^(i m phi)|^2 of
        `beam_power` is a trigonometric polynomial of degree 2N in phi
        with the coefficients P[theta, j + 2N] = sum_beams sum_m a(theta,
        m) a^*(theta, m - j), j = -2N .. 2N, on the table's theta nodes.
        Returns (n_theta, 4N + 1), the input of
        `profiles.JointProfile.weighted_harmonics`.
        """
        nmax = self.modeset.truncation_order
        # s[theta, m, m'] = sum_beams a(theta, m) a^*(theta, m')
        s = sum(at @ at.conj().transpose(0, 2, 1)
                for at in (a.transpose(1, 2, 0) for a in self._order_sums(q)))
        return np.stack([np.trace(s, offset=-j, axis1=1, axis2=2)
                         for j in range(-2 * nmax, 2 * nmax + 1)], axis=1)

    def correlation(self, d):
        """Spherical-mode correlation matrix from the azimuth harmonics of
        the weighted marginal.

        d: the (n_theta, 4N + 1) harmonics D[theta, k + 2N], k = -2N ..
        2N, on the table's theta nodes, from
        `correlation.mode_correlation`'s phi sum or from
        `profiles.JointProfile.weighted_harmonics`.  The rows of order m_a
        are R[a, :] = T_a (D[:, m_a - m] * T^*)^T, summed over the
        polarization's components, with T the table's fields.

        Only the blocks of rows of order m_a and columns of order m_b >=
        m_a are computed, from the stored rows at and after that block:
        about half of the matrix.  Each block below is the conjugate
        transpose of its mirror above, and each diagonal block (m_b = m_a)
        is replaced by its Hermitian part, so R comes out exactly Hermitian
        with a real diagonal.  Blocks are scattered straight into R's
        flat-index order: no other (J, J) array is formed.

        Returns the (J, J) Hermitian matrix.
        """
        nmax, rows = self.modeset.truncation_order, self._rows
        r = np.empty((rows.size,) * 2, dtype=complex)
        for m_a, lo, hi in self._blocks:
            a, above = rows[lo:hi], rows[hi:]
            cols = m_a - self._m[lo:] + 2 * nmax    # k = m_a - m_j per mode j
            block = sum(k[lo:hi] @ (d[:, cols] * k[lo:].conj().T)
                        for k in self._fields)
            r[np.ix_(a, a)] = hermitian_part(block[:, :a.size])
            r[np.ix_(a, above)] = block[:, a.size:]
            r[np.ix_(above, a)] = block[:, a.size:].conj().T
        return r


def _fields_by_order(modes, theta, phi, radial=None):
    """K_theta, K_phi and, given the rows Rr of radial_factors, F_r.

    One Legendre pass per order |m| writes every row of that order at once:
    the TE rows of m = +|m| and -|m| and the TM rows that follow them in
    flat order (j + 1).  Keep the elementwise operation order: the surface
    transfer matrices feed an SVD whose projector amplifies last-bit
    changes (K formed as K(theta, 0) e^(i m phi) moves the 1/32-sphere
    capacity by 1e-9 relative).
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    if theta.size != phi.size:
        raise ValueError("theta and phi must have the same length")
    nmax = modes.truncation_order
    s, m, n = modes.s, modes.m, modes.n
    c = np.sqrt(2.0 / (n * (n + 1.0))) * _mode_sign(m)
    phase = np.array([(-1j) ** k for k in range(nmax + 2)])[n + 2 - s]
    pref = c * phase                         # c_mn (-i)^(n+1) or c_mn (-i)^n
    azim = np.array([np.exp(1j * mm * phi) for mm in range(-nmax, nmax + 1)])
    st = np.sin(np.clip(theta, POLE_CLAMP, np.pi - POLE_CLAMP))
    Kth = np.empty((modes.mode_count, theta.size), dtype=complex)
    Kph = np.empty_like(Kth)
    Fr = None if radial is None else np.zeros(Kth.shape, dtype=complex)
    for mu in range(nmax + 1):
        P, dP = normalized_legendre(nmax, mu, theta)
        te = np.flatnonzero((s == 1) & (np.abs(m) == mu))
        tm = te + 1
        pb, dpb = P[n[te] - mu], dP[n[te] - mu]
        e = azim[m[te] + nmax]
        mps = (1j * m[te, None] / st) * pb
        Kth[te] = (pref[te, None] * e) * mps
        Kph[te] = (pref[te, None] * e) * -dpb
        Kth[tm] = (pref[tm, None] * e) * dpb
        Kph[tm] = (pref[tm, None] * e) * mps
        if Fr is not None:
            Fr[tm] = radial[n[tm] - 1] * c[tm, None] * phase[tm, None] * e * pb
    return Kth, Kph, Fr


def radial_factors(nmax, kr):
    """Radial dependence of the regular waves for n = 1 .. nmax.

    Returns (R1, R2, Rr): the s = 1 tangential factor j_n, the s = 2
    tangential factor (kr j_n)'/kr and the s = 2 radial factor
    n(n+1)/(kr) j_n, each of shape (nmax, len(kr)).
    """
    # imported here, not at module load: scipy.special costs megabytes of
    # memory and tens of milliseconds that runs without surfaces never use
    from scipy.special import spherical_jn

    kr = np.maximum(np.asarray(kr, dtype=float), 1e-9)
    ns = np.arange(1, nmax + 1)[:, None]
    jn = spherical_jn(ns, kr)
    return (jn, spherical_jn(ns, kr, derivative=True) + jn / kr,
            ns * (ns + 1) * jn / kr)


def regular_wave_matrix(modes, r, theta, phi):
    """Regular waves for every mode in a ModeSet at a list of points.

    r, theta, phi are 1-D arrays of equal length P.  Returns
    (F_r, F_theta, F_phi), each (J, P) in flat-index order.
    """
    r = np.asarray(r, dtype=float).ravel()
    R1, R2, Rr = radial_factors(modes.truncation_order, 2.0 * np.pi * r)
    Kth, Kph, Fr = _fields_by_order(modes, theta, phi, Rr)
    # tangential parts: K_smn times the per-mode radial scalar
    rad = np.stack((R1, R2))[modes.s - 1, modes.n - 1]
    Kth *= rad
    Kph *= rad
    return Fr, Kth, Kph
