"""Surface geometry and the radiatable-subspace projector.

The geometric identities pin the three reference shapes to the common
enclosing sphere: the plane is the inscribed square sheet, the 1/32-sphere
cap's corners touch the sphere, the hemisphere is half the sphere itself.
The projector checks exploit the hard symmetry of the x = 0 plane: a planar
current sheet radiates only the half of the modes that are even under the
x-reflection, so its rank must be exactly J/2.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obpb import modes, surfaces
from obpb.modes import ModeSet

R0_BS = 4.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def small_plane_op():
    modeset = ModeSet(truncation_order=3)
    samp = surfaces.sample_surface(surfaces.plane_surface(1.0 / np.sqrt(2.0)))
    return surfaces.build_z(modeset, samp)


def test_named_surface_shapes():
    plane = surfaces.named_surface("plane", R0_BS)
    assert plane.kind == "plane"
    assert abs(plane.side - np.sqrt(2.0) * R0_BS) < 1e-12
    hemi = surfaces.named_surface("hemisphere", R0_BS)
    assert hemi.kind == "cap" and hemi.center_x == 0.0
    assert hemi.radius == R0_BS
    cap = surfaces.named_surface("one_32_sphere", R0_BS)
    assert cap.kind == "cap"
    assert cap.theta_c == cap.phi_c == np.pi / 8
    with pytest.raises(ValueError):
        surfaces.named_surface("paraboloid", R0_BS)


def test_cap_corner_touches_enclosing_sphere():
    # 2 R^2 (1 - cos t_c cos p_c) = r0^2 puts the four cap corners on the
    # enclosing sphere, same as the plane's corners
    cap = surfaces.named_surface("one_32_sphere", R0_BS)
    lhs = 2.0 * cap.radius ** 2 * (1.0 - np.cos(cap.theta_c)
                                   * np.cos(cap.phi_c))
    assert abs(lhs - R0_BS ** 2) < 1e-12 * R0_BS ** 2


def test_sampling_stays_inside_sphere_and_is_concave():
    for name in ("plane", "one_32_sphere", "hemisphere"):
        samp = surfaces.sample_surface(surfaces.named_surface(name, R0_BS))
        assert samp.r.max() <= R0_BS * (1.0 + 1e-9)
        assert samp.n_points > 0
    # the 1/32 cap is a dish cupped toward +x: its deepest point touches the
    # origin and the rim bends forward, so near-axis samples sit behind the
    # overall mean
    samp = surfaces.sample_surface(
        surfaces.named_surface("one_32_sphere", R0_BS))
    x = samp.points[:, 0]
    assert x.min() >= -1e-12
    assert x.max() - x.min() > 0.2 * R0_BS
    near_axis = ((np.abs(samp.points[:, 1]) < 0.15)
                 & (np.abs(samp.points[:, 2]) < 0.15))
    assert near_axis.any()
    assert x[near_axis].mean() < x.mean()


def test_sampling_tangent_frames_are_orthonormal():
    samp = surfaces.sample_surface(
        surfaces.named_surface("one_32_sphere", R0_BS))
    t0 = samp.tangents[:, 0, :]
    t1 = samp.tangents[:, 1, :]
    assert np.abs(np.linalg.norm(t0, axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.linalg.norm(t1, axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.sum(t0 * t1, axis=1)).max() < 1e-12
    # tangents are perpendicular to the local sphere radius through the point
    center = np.array([surfaces.named_surface("one_32_sphere", R0_BS).center_x,
                       0.0, 0.0])
    radial = samp.points - center
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    assert np.abs(np.sum(t0 * radial, axis=1)).max() < 1e-12
    assert np.abs(np.sum(t1 * radial, axis=1)).max() < 1e-12


def test_sampling_density_scales_point_count():
    surf = surfaces.named_surface("one_32_sphere", R0_BS)
    n2 = surfaces.sample_surface(surf, density=2.0).n_points
    n4 = surfaces.sample_surface(surf, density=4.0).n_points
    assert 3.0 < n4 / n2 < 5.0  # area sampling: 4x points per density double
    with pytest.raises(ValueError):
        surfaces.sample_surface(surf, density=0.0)


def test_plane_rank_is_half_the_modes():
    # the x = 0 sheet cannot radiate the modes odd under x-reflection; at
    # J = 646 the numerical rank lands exactly on the symmetric half
    modeset = ModeSet(enclosing_radius=R0_BS)
    samp = surfaces.sample_surface(surfaces.plane_surface(R0_BS))
    op = surfaces.build_z(modeset, samp)
    assert op.mode_count == 646
    assert op.rank == 323
    # the cliff is sharp: a many-orders gap between the last kept singular
    # value and the first discarded one
    s = op.singular_values
    assert s[323] / s[322] < 1e-6


def test_hemisphere_reaches_full_rank():
    modeset = ModeSet(enclosing_radius=R0_BS)
    samp = surfaces.sample_surface(surfaces.hemisphere_surface(R0_BS))
    op = surfaces.build_z(modeset, samp)
    assert op.rank == modeset.mode_count
    # full rank makes the projector the identity: hemisphere currents can
    # reproduce any pattern of the enclosing sphere
    assert np.abs(op.p_op - np.eye(op.mode_count)).max() < 1e-8


def test_projector_laws_small(small_plane_op):
    p = small_plane_op.p_op
    assert np.abs(p - p.conj().T).max() < 1e-12
    assert np.abs(p @ p - p).max() < 1e-12
    assert small_plane_op.pinv.shape == (small_plane_op.z.shape[1],
                                         small_plane_op.mode_count)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_projection_never_amplifies(seed):
    # property: an orthogonal projection cannot increase the norm
    modeset = ModeSet(truncation_order=3)
    samp = surfaces.sample_surface(
        surfaces.plane_surface(1.0 / np.sqrt(2.0)))
    op = surfaces.build_z(modeset, samp)
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(modeset.mode_count) \
        + 1j * rng.standard_normal(modeset.mode_count)
    q_semi = op.p_op @ q
    assert np.linalg.norm(q_semi) <= np.linalg.norm(q) * (1.0 + 1e-12)


def test_project_shapes_and_normalization(small_plane_op):
    rng = np.random.default_rng(9)
    j = small_plane_op.mode_count
    q = rng.standard_normal((j, 3)) + 1j * rng.standard_normal((j, 3))
    q_semi = surfaces.project(small_plane_op, q)
    a = surfaces.currents(small_plane_op, q)
    assert q_semi.shape == (j, 3)
    assert a.shape == (small_plane_op.z.shape[1], 3)
    assert np.abs(np.linalg.norm(q_semi, axis=0) - 1.0).max() < 1e-12
    # q_semi is the pattern the currents a actually radiate, rescaled; the
    # two evaluation routes agree up to the conditioning of the kept triplets
    radiated = small_plane_op.z @ a
    ratio = np.linalg.norm(radiated, axis=0)
    s = small_plane_op.singular_values
    cond = s[0] / s[small_plane_op.rank - 1]
    assert np.abs(radiated / ratio - q_semi).max() < 1e-13 * cond + 1e-12

    single = surfaces.project(small_plane_op, q[:, 0])
    a1 = surfaces.currents(small_plane_op, q[:, 0])
    assert single.shape == (j,) and a1.ndim == 1
    assert np.abs(single - q_semi[:, 0]).max() < 1e-12


def test_project_zero_vector_stays_zero(small_plane_op):
    q = np.zeros(small_plane_op.mode_count, dtype=complex)
    q_semi = surfaces.project(small_plane_op, q)
    a = surfaces.currents(small_plane_op, q)
    assert np.all(q_semi == 0) and np.all(a == 0)


def test_projection_is_pop_application(small_plane_op):
    # project() is the explicit projector's image, normalized
    rng = np.random.default_rng(4)
    j = small_plane_op.mode_count
    q = rng.standard_normal(j) + 1j * rng.standard_normal(j)
    q_semi = surfaces.project(small_plane_op, q)
    ref = small_plane_op.p_op @ q
    ref /= np.linalg.norm(ref)
    assert np.abs(q_semi - ref).max() < 1e-10


def test_custom_rtol_trims_rank(small_plane_op):
    # a coarse tolerance keeps only the strongest couplings; monotone in rtol
    op_loose = surfaces.ProjectionOperator(small_plane_op.z, rtol=0.5)
    assert 1 <= op_loose.rank < small_plane_op.rank


def test_plane_sampling_ignores_one_ulp_overshoot():
    # sqrt2 * (a / sqrt2) lands one ulp above a for these sides, and a plain
    # ceil(side * density) then added a whole row and column of samples
    for aperture, n in ((1.75, 7), (3.5, 14), (7.0, 28)):
        plane = surfaces.plane_surface(aperture / np.sqrt(2.0))
        assert plane.side * 4.0 > 4.0 * aperture
        assert surfaces.sample_surface(plane).n_points == n * n
    # the 4-wavelength samplings every shipped scenario uses are unchanged
    counts = {name: surfaces.sample_surface(
        surfaces.named_surface(name, R0_BS)).n_points
        for name in ("plane", "one_32_sphere", "hemisphere")}
    assert counts == {"plane": 256, "one_32_sphere": 281, "hemisphere": 832}


@pytest.mark.parametrize("name, rank", [("plane", 323),
                                        ("one_32_sphere", 562),
                                        ("hemisphere", 646)])
def test_projector_matches_full_svd(name, rank):
    # the hemisphere's Z is wide (1664 columns) and takes the QR route; its
    # last kept singular value is 4.4e-14 sigma_0, close above the 1e-14 cut
    modeset = ModeSet(enclosing_radius=R0_BS)
    op = surfaces.build_z(modeset, surfaces.sample_surface(
        surfaces.named_surface(name, R0_BS)))
    assert op.rank == rank
    u, s, vh = np.linalg.svd(op.z, full_matrices=False)
    assert np.abs(op.singular_values - s).max() <= 1e-13 * s[0]
    p_ref = u[:, :rank] @ u[:, :rank].conj().T
    assert np.abs(op.p_op - p_ref).max() <= 1e-13
    # currents on request equal the eagerly built pseudoinverse's
    pinv = (vh[:rank].conj().T / s[:rank]) @ u[:, :rank].conj().T
    rng = np.random.default_rng(11)
    q = rng.standard_normal((modeset.mode_count, 3)) \
        + 1j * rng.standard_normal((modeset.mode_count, 3))
    assert np.array_equal(surfaces.currents(op, q), pinv @ q)


def _z_one_shot(modeset, sampling):
    """Z assembled from whole-surface field arrays in one pass (oracle)."""
    fr, fth, fph = modes.regular_wave_matrix(
        modeset, sampling.r, sampling.theta, sampling.phi)
    u, that, phat = surfaces._local_frame(sampling.theta, sampling.phi)
    fx = fr * u[:, 0] + fth * that[:, 0] + fph * phat[:, 0]
    fy = fr * u[:, 1] + fth * that[:, 1] + fph * phat[:, 1]
    fz = fr * u[:, 2] + fth * that[:, 2] + fph * phat[:, 2]
    J, P = fr.shape
    z = np.empty((J, 2 * P), dtype=complex)
    for d in (0, 1):
        tau = sampling.tangents[:, d, :]
        z[:, d::2] = fx * tau[:, 0] + fy * tau[:, 1] + fz * tau[:, 2]
    return z


def _projector_one_shot(z, rtol=surfaces.RANK_RTOL):
    """(sigma, rank, P) with a wide z reduced by a QR of its conjugate
    transpose, formed as a copy (oracle)."""
    if z.shape[1] > z.shape[0]:
        z = np.linalg.qr(z.conj().T, mode="r").conj().T
    u, s, _ = np.linalg.svd(z, full_matrices=False)
    rank = int(np.sum(s > rtol * s[0]))
    return s, rank, u[:, :rank] @ u[:, :rank].conj().T


@pytest.mark.parametrize("name", ["small_plane", "plane", "one_32_sphere",
                                  "hemisphere"])
def test_blocked_z_is_the_one_shot_z_bit_for_bit(name, monkeypatch):
    # every operation on the fields is elementwise per point, so Z does not
    # depend on the point blocks, ragged tail included; the projector built
    # from it equals the one-shot path's to the last bit
    if name == "small_plane":
        modeset = ModeSet(truncation_order=3)
        samp = surfaces.sample_surface(
            surfaces.plane_surface(1.0 / np.sqrt(2.0)))
    else:
        modeset = ModeSet(enclosing_radius=R0_BS)
        samp = surfaces.sample_surface(surfaces.named_surface(name, R0_BS))
    z_ref = _z_one_shot(modeset, samp)
    s_ref, rank_ref, p_ref = _projector_one_shot(z_ref)
    op = surfaces.build_z(modeset, samp)
    assert op.z.tobytes() == z_ref.tobytes()
    assert op.singular_values.tobytes() == s_ref.tobytes()
    assert op.rank == rank_ref
    assert op.p_op.tobytes() == p_ref.tobytes()
    monkeypatch.setattr(surfaces, "_POINT_BLOCK", 7)
    assert samp.n_points % 7
    assert surfaces.build_z(modeset, samp).z.tobytes() == z_ref.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=160),
       st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_qr_of_the_transpose_is_the_conjugate_qr(rows, extra, seed):
    # `_left_singular` reads R^H of a QR of z^H as qr(z^T).R^T, with no
    # conjugated copy of z.  It relies on this LAPACK property: Householder
    # QR of conj(A) yields conj(R) to the last bit, since each reflector and
    # each update of the conjugated input is the conjugate of the original's.
    # Only zero imaginary parts (R's real diagonal, its zero triangle) may
    # differ, in sign, and -0.0 == 0.0
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, rows + extra)) \
        + 1j * rng.standard_normal((rows, rows + extra))
    r_t = np.linalg.qr(z.T, mode="r").T
    r_h = np.linalg.qr(z.conj().T, mode="r").conj().T
    assert np.array_equal(r_t, r_h)


def test_build_z_allocation_on_the_hemisphere():
    # on the 4-wavelength hemisphere (646 x 1664 Z, 17 MB) whole-surface
    # field arrays (six of 8.6 MB) and a conjugated copy of Z for the QR
    # would take ~105 MB; blocked fields and the QR of z^T stay near 44 MB
    modeset = ModeSet(enclosing_radius=R0_BS)
    samp = surfaces.sample_surface(surfaces.hemisphere_surface(R0_BS))
    tracemalloc.start()
    try:
        surfaces.build_z(modeset, samp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
