"""Mode machinery against independent oracles.

The Legendre recurrences are checked against scipy.special.lpmv (with the
Condon-Shortley phase removed and the orthonormal scaling applied by hand),
the theta derivatives against central differences, and the radial factors
against an explicit derivative of kr * j_n(kr).  Everything else is
structural: index bijections, normalization, row agreement between the
batched evaluators and the single-mode oracles (`oracles`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import factorial, lpmv, spherical_jn

import oracles
from obpb import modes

FOUR_PI = 4.0 * np.pi


# ---------------------------------------------------------------------------
# index bookkeeping
# ---------------------------------------------------------------------------

def test_truncation_orders_and_counts():
    assert modes.truncation_order(4.0 / np.sqrt(2.0)) == 17
    assert modes.truncation_order(1.0 / np.sqrt(2.0)) == 4
    assert modes.mode_count_for_radius(4.0 / np.sqrt(2.0)) == 646
    assert modes.mode_count_for_radius(1.0 / np.sqrt(2.0)) == 48
    with pytest.raises(ValueError):
        modes.truncation_order(0.0)


def test_flat_index_covers_exactly_once():
    nmax = 6
    seen = sorted(modes.flat_index(s, m, n)
                  for n in range(1, nmax + 1)
                  for m in range(-n, n + 1)
                  for s in (1, 2))
    assert seen == list(range(1, 2 * nmax * (nmax + 2) + 1))


# the (s, m, n) decode of ModeSet, J = 19998 modes at N = 99
ROUND_TRIP = modes.ModeSet(truncation_order=99)


@given(st.integers(min_value=1, max_value=ROUND_TRIP.mode_count))
def test_flat_index_round_trip(j):
    ms = ROUND_TRIP
    assert modes.flat_index(ms.s[j - 1], ms.m[j - 1], ms.n[j - 1]) == j


def test_flat_index_rejects_bad_modes():
    for s, m, n in ((0, 0, 1), (3, 0, 1), (1, 2, 1), (1, 0, 0)):
        with pytest.raises(ValueError):
            modes.flat_index(s, m, n)


def test_modeset_orders_match_flat_index():
    ms = modes.ModeSet(truncation_order=5)
    for i, (s, m, n) in enumerate(zip(ms.s, ms.m, ms.n)):
        assert modes.flat_index(s, m, n) == i + 1
    assert ms.mode_count == 2 * 5 * 7 == ms.s.size


# ---------------------------------------------------------------------------
# Legendre recurrences vs scipy
# ---------------------------------------------------------------------------

def _lpmv_orthonormal(n, m, x):
    """Orthonormal P_n^m without Condon-Shortley, from scipy's convention."""
    scale = np.sqrt((2.0 * n + 1.0) / 2.0
                    * factorial(n - m) / factorial(n + m))
    return (-1.0) ** m * scale * lpmv(m, n, x)


@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
def test_normalized_legendre_against_scipy(m):
    theta = np.linspace(0.05, np.pi - 0.05, 41)
    nmax = 12
    P, _ = modes.normalized_legendre(nmax, m, theta)
    for n in range(m, nmax + 1):
        if n == 0:
            continue
        ref = _lpmv_orthonormal(n, m, np.cos(theta))
        assert np.abs(P[n - m] - ref).max() < 1e-10 * max(np.abs(ref).max(),
                                                          1.0)


@pytest.mark.parametrize("m", [0, 1, 3, 7])
def test_legendre_derivative_central_difference(m):
    theta = np.linspace(0.1, np.pi - 0.1, 31)
    h = 1e-6
    nmax = 10
    _, dP = modes.normalized_legendre(nmax, m, theta)
    Pp, _ = modes.normalized_legendre(nmax, m, theta + h)
    Pm, _ = modes.normalized_legendre(nmax, m, theta - h)
    fd = (Pp - Pm) / (2.0 * h)
    assert np.abs(dP - fd).max() < 1e-5


def test_legendre_self_normalization():
    # integral over [-1, 1] of P^2 is 1: Gauss-Legendre is exact here
    x, w = np.polynomial.legendre.leggauss(40)
    theta = np.arccos(x)
    for m in (0, 2, 4):
        P, _ = modes.normalized_legendre(8, m, theta)
        norms = (P ** 2) @ w
        assert np.abs(norms - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# far fields
# ---------------------------------------------------------------------------

def test_far_field_matrix_matches_single_mode():
    # every row at N = 5: each |m| block holds both signs and several n
    ms = modes.ModeSet(truncation_order=5)
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.1, np.pi - 0.1, 17)
    phi = rng.uniform(-np.pi, np.pi, 17)
    Kth, Kph = modes.far_field_matrix(ms, theta, phi)
    for j, (s, m, n) in enumerate(zip(ms.s, ms.m, ms.n), start=1):
        kth, kph = oracles.far_field_function(s, m, n, theta, phi)
        assert np.abs(Kth[j - 1] - kth).max() < 1e-12, (s, m, n)
        assert np.abs(Kph[j - 1] - kph).max() < 1e-12, (s, m, n)


@pytest.mark.parametrize("nmax", [2, 17])
def test_field_table_stores_order_blocks(nmax):
    # stored row i is the far_field_matrix row of flat mode _rows[i] at
    # phi = 0; each of the table's blocks holds one order, m = -N .. N in
    # turn, in ascending flat index
    ms = modes.ModeSet(truncation_order=nmax)
    theta = np.random.default_rng(nmax).uniform(0.05, np.pi - 0.05, 9)
    table = modes.FieldTable(ms, theta, "full")
    kth, kph = modes.far_field_matrix(ms, theta, np.zeros_like(theta))
    k_theta, k_phi = table._fields
    assert np.array_equal(k_theta, kth[table._rows])
    assert np.array_equal(k_phi, kph[table._rows])
    orders, starts, ends = zip(*table._blocks)
    assert orders == tuple(range(-nmax, nmax + 1))
    assert starts == (0, *ends[:-1]) and ends[-1] == ms.mode_count
    for m, lo, hi in table._blocks:
        rows = table._rows[lo:hi]
        assert np.array_equal(rows, np.flatnonzero(ms.m == m)), m
    # 'theta' stores the theta components alone
    (only,) = modes.FieldTable(ms, theta, "theta")._fields
    assert np.array_equal(only, k_theta)


@pytest.mark.parametrize("polarization", ["Full", "THETA", "phi", None, ""])
def test_field_table_rejects_unknown_polarizations(polarization):
    # 'Full' gave the theta-only correlation of mode_correlation before the
    # table owned the polarization
    ms = modes.ModeSet(truncation_order=2)
    with pytest.raises(ValueError, match="polarization is 'theta' or 'full'"):
        modes.FieldTable(ms, np.linspace(0.1, 3.0, 4), polarization)


def test_field_table_keeps_its_layout_private():
    table = modes.FieldTable(modes.ModeSet(truncation_order=2),
                             np.linspace(0.1, 3.0, 4), "full")
    for name in ("order_rows", "order_starts", "k_theta", "k_phi",
                 "components"):
        assert not hasattr(table, name), name


def test_hermitian_part_has_one_body():
    # the mode layer owns the rule; correlation re-exports the same object
    from obpb import correlation
    assert correlation.hermitian_part is modes.hermitian_part


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 127, 128, 129, 300, 1024)),
       st.sampled_from(("c", "strided", "transposed")),
       st.sampled_from(("complex", "real", "wide")),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_tiled_hermitian_part_is_the_dense_rule_bit_for_bit(n, layout, kind,
                                                            seed):
    # matrices above one tile are Hermitized in tile pairs, each side from
    # its own sum; the bytes must be those of 0.5 (G + G^H), signs of zero
    # included: exactly real inputs have +0 imaginary parts whose sum with
    # their conjugates' -0 is +0, where conj(upper)^T would write -0
    rng = np.random.default_rng(seed)
    shape = (n, n) if layout == "c" else (n + 3, 2 * n)
    base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "real":
        base = base.real + 0j
    elif kind == "wide":
        base *= 10.0 ** rng.uniform(-300.0, 300.0, shape)
    view = {"c": np.s_[:, :], "strided": np.s_[3:, ::2],
            "transposed": np.s_[3:, :n]}[layout]
    g = base[view].T if layout == "transposed" else base[view]
    want = (g + g.conj().T) * 0.5
    outside = np.ones(shape, dtype=bool)
    outside[view] = False
    kept = base[outside]
    got = modes.hermitian_part(g)
    assert got.tobytes() == want.tobytes()
    assert g.tobytes() == want.tobytes()
    # in place: what lies outside a view is untouched
    assert base[outside].tobytes() == kept.tobytes()


def test_far_field_orthogonality_small():
    ms = modes.ModeSet(truncation_order=3)
    from obpb.profiles import make_grid
    grid = make_grid(24, 48)
    Kth, Kph = modes.far_field_matrix(ms, grid.theta, grid.phi)
    gram = (Kth * grid.weights) @ Kth.conj().T \
        + (Kph * grid.weights) @ Kph.conj().T
    assert np.abs(gram - FOUR_PI * np.eye(ms.mode_count)).max() < 1e-10


def test_far_field_finite_at_poles():
    for s in (1, 2):
        kth, kph = oracles.far_field_function(s, 1, 3,
                                              np.array([0.0, np.pi]),
                                              np.array([0.3, 0.3]))
        assert np.all(np.isfinite(kth)) and np.all(np.isfinite(kph))
    # and the library's batched fields, every mode to N = 3
    kth, kph = modes.far_field_matrix(modes.ModeSet(truncation_order=3),
                                      np.array([0.0, np.pi]),
                                      np.array([0.3, 0.3]))
    assert np.all(np.isfinite(kth)) and np.all(np.isfinite(kph))


# ---------------------------------------------------------------------------
# regular waves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nmax", [12, 17])
def test_radial_factors_equal_per_order_calls(nmax):
    # one spherical_jn call broadcast over n = 1 .. N (and one for the
    # derivative) gives the bytes of one call per order
    kr = 2.0 * np.pi * np.random.default_rng(nmax).uniform(0.0, 3.0, 128)
    R1, R2, Rr = modes.radial_factors(nmax, kr)
    kr = np.maximum(kr, 1e-9)
    ns = np.arange(1, nmax + 1)[:, None]
    jn = np.stack([spherical_jn(n, kr) for n in range(1, nmax + 1)])
    jnp = np.stack([spherical_jn(n, kr, derivative=True)
                    for n in range(1, nmax + 1)])
    assert np.array_equal(R1, jn)
    assert np.array_equal(R2, jnp + jn / kr)
    assert np.array_equal(Rr, ns * (ns + 1) * jn / kr)


def test_radial_factors_against_derivative():
    kr = np.linspace(0.3, 25.0, 50)
    nmax = 9
    R1, R2, Rr = modes.radial_factors(nmax, kr)
    h = 1e-6
    for n in range(1, nmax + 1):
        assert np.abs(R1[n - 1] - spherical_jn(n, kr)).max() < 1e-14
        f = lambda x: x * spherical_jn(n, x)
        fd = (f(kr + h) - f(kr - h)) / (2.0 * h) / kr
        assert np.abs(R2[n - 1] - fd).max() < 1e-8
        assert np.abs(Rr[n - 1]
                      - n * (n + 1) * spherical_jn(n, kr) / kr).max() < 1e-14


@pytest.mark.parametrize("smn", [(1, 2, 3), (2, -1, 3), (2, 0, 4)])
def test_regular_wave_function_takes_a_scalar_radius(smn):
    # a scalar r gave radial_factors rows of one value per order n' <= n
    # where the radial component needs the order-n value alone, so F_r
    # mixed orders or failed to broadcast against theta
    theta = np.linspace(0.3, 2.8, 5)
    phi = np.linspace(-2.0, 2.0, 5)
    got = oracles.regular_wave_function(*smn, 0.7, theta, phi)
    want = oracles.regular_wave_function(*smn, np.full(5, 0.7), theta, phi)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (5,)
        assert np.array_equal(g, w)


def test_regular_wave_matrix_matches_single_mode():
    ms = modes.ModeSet(truncation_order=5)
    rng = np.random.default_rng(5)
    r = rng.uniform(0.2, 2.0, 11)
    theta = rng.uniform(0.1, np.pi - 0.1, 11)
    phi = rng.uniform(-np.pi, np.pi, 11)
    Fr, Fth, Fph = modes.regular_wave_matrix(ms, r, theta, phi)
    for j, (s, m, n) in enumerate(zip(ms.s, ms.m, ms.n), start=1):
        fr, fth, fph = oracles.regular_wave_function(s, m, n, r, theta, phi)
        assert np.abs(Fr[j - 1] - fr).max() < 1e-12, (s, m, n)
        assert np.abs(Fth[j - 1] - fth).max() < 1e-12, (s, m, n)
        assert np.abs(Fph[j - 1] - fph).max() < 1e-12, (s, m, n)


def test_te_regular_waves_have_no_radial_component():
    ms = modes.ModeSet(truncation_order=3)
    r = np.full(7, 0.8)
    theta = np.linspace(0.2, 3.0, 7)
    phi = np.linspace(-3.0, 3.0, 7)
    Fr, _, _ = modes.regular_wave_matrix(ms, r, theta, phi)
    te_rows = ms.s == 1
    assert np.abs(Fr[te_rows]).max() == 0.0


# ---------------------------------------------------------------------------
# mirror maps
# ---------------------------------------------------------------------------

def _cartesian(fr, fth, fph, theta, phi):
    """(3, J, P) Cartesian components of spherical-component fields."""
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    frame = ((st * cp, ct * cp, -sp), (st * sp, ct * sp, cp),
             (ct, -st, np.zeros_like(st)))
    return np.stack([fr * u + fth * t + fph * p for u, t, p in frame])


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_mirror_maps_the_fields_of_mirrored_points(axis):
    # S F_j(S x) = sign_j F_perm_j(x) for the regular waves, radial part
    # included, and for the far fields on the unit sphere
    ms = modes.ModeSet(truncation_order=6)
    perm, sign = ms.mirror(axis)
    assert np.array_equal(perm[perm], np.arange(ms.mode_count))
    assert np.array_equal(sign[perm], sign)
    flip = np.ones(3)
    flip[axis] = -1.0
    rng = np.random.default_rng(axis)
    x = rng.uniform(-0.8, 0.8, (40, 3))

    def fields(points, far):
        r = np.linalg.norm(points, axis=1)
        theta = np.arccos(points[:, 2] / r)
        phi = np.arctan2(points[:, 1], points[:, 0])
        if far:
            kth, kph = modes.far_field_matrix(ms, theta, phi)
            return _cartesian(0.0 * kth, kth, kph, theta, phi)
        return _cartesian(*modes.regular_wave_matrix(ms, r, theta, phi),
                          theta, phi)

    for far in (False, True):
        f = fields(x, far)
        mirrored = flip[:, None, None] * fields(x * flip, far)
        assert np.abs(mirrored - sign[:, None] * f[:, perm]).max() \
            <= 1e-13 * np.abs(f).max(), far
