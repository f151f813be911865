"""Quadrature grids and the joint angular profile.

The profile checks are integral identities: the grid weights carry the full
surface measure (sum 4*pi), the normalized joint density integrates to one,
and marginalization against a far-side power pattern commutes with that
normalization.  The profile keeps only its precision matrix and grids.  The
dense joint matrix, assembled on access, is the oracle the nodal marginals
equal bit for bit; the closed-form azimuth harmonics are held to a direct
trapezoid sum of the wrapped density on grids where that sum has
converged.  Desk-size grids keep everything under a second.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obpb import correlation, profiles
from obpb.modes import FieldTable, ModeSet, flat_index
from oracles import omni_power, optimize_side


@pytest.fixture(scope="module")
def desk_profile():
    return profiles.JointProfile(profiles.baseline_params(),
                                 bs_grid=profiles.make_grid(32, 64),
                                 ue_grid=profiles.make_grid(16, 32))


def test_grid_weights_sum_to_sphere():
    for nt, np_ in ((8, 16), (48, 96), (96, 192)):
        grid = profiles.make_grid(nt, np_)
        assert abs(grid.weights.sum() - 4.0 * np.pi) < 1e-10
        assert abs(grid.integrate(np.ones(grid.n_nodes)) - 4.0 * np.pi) < 1e-10
        assert grid.n_nodes == nt * np_


def test_grid_quadrature_is_spectrally_exact():
    # cos^2(theta) integrates to 4 pi / 3; e^{i phi} to zero
    grid = profiles.make_grid(12, 24)
    assert abs(grid.integrate(np.cos(grid.theta) ** 2)
               - 4.0 * np.pi / 3.0) < 1e-12
    assert abs(np.sum(grid.weights * np.exp(1j * grid.phi))) < 1e-12


def test_grid_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        profiles.make_grid(1, 16)


def test_params_validation():
    base = profiles.baseline_params()
    with pytest.raises(ValueError):
        profiles.ProfileParams(base.mean_bs, base.mean_ue,
                               (4.0, -1.0, 11.0, 48.0), base.corr)
    lopsided = np.array(base.corr)
    lopsided[0, 1] = 0.9
    with pytest.raises(ValueError):
        profiles.ProfileParams(base.mean_bs, base.mean_ue, base.sigma,
                               lopsided)
    not_pd = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0],
                       [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        profiles.ProfileParams(base.mean_bs, base.mean_ue, base.sigma,
                               not_pd)
    with pytest.raises(ValueError):
        profiles.ProfileParams(base.mean_bs, base.mean_ue, base.sigma,
                               base.corr, polarization="circular")


def test_mean_azimuth_is_wrapped():
    # 350 and -10 degrees are the same physical profile; the +-1 image sum
    # assumes the wrapped mean, and in-range means keep their bits
    base = profiles.baseline_params()
    grids = (profiles.make_grid(24, 48), profiles.make_grid(24, 48))
    joint = {}
    for phi in (350.0, -10.0):
        params = profiles.ProfileParams(base.mean_bs, (90.0, phi),
                                        base.sigma, base.corr)
        assert params.mean_ue[1] == -10.0
        joint[phi] = profiles.JointProfile(params, *grids).joint_matrix
    err = np.abs(joint[350.0] - joint[-10.0]).max()
    assert err <= 1e-13 * joint[-10.0].max()
    for phi, wrapped in ((180.0, 180.0), (-180.0, 180.0), (-190.0, 170.0),
                         (540.0, 180.0), (0.1 + 0.2, 0.1 + 0.2)):
        params = profiles.ProfileParams((90.0, phi), base.mean_ue,
                                        base.sigma, base.corr)
        assert params.mean_bs[1] == wrapped
    # the caller's array is left alone
    mean = np.array([90.0, 350.0])
    profiles.ProfileParams(mean, base.mean_ue, base.sigma, base.corr)
    assert mean[1] == 350.0


def test_params_reject_azimuth_spread_past_the_image_cut():
    # exp(-(3 pi - |mu|)^2 / (2 sigma^2)) <= 1e-10 holds up to ~79.6 deg at
    # mu = 0 and to ~75.2 deg at mu = 30 deg
    base = profiles.baseline_params()
    for mean_ue, sigma_u in (((90.0, 0.0), 79.0), ((90.0, 30.0), 75.0)):
        profiles.ProfileParams(base.mean_bs, mean_ue,
                               (4.0, 21.0, 11.0, sigma_u), base.corr)
    for mean_ue, sigma_u in (((90.0, 0.0), 80.0), ((90.0, 30.0), 76.0)):
        with pytest.raises(ValueError, match=r"ue azimuth: .*1e-10"):
            profiles.ProfileParams(base.mean_bs, mean_ue,
                                   (4.0, 21.0, 11.0, sigma_u), base.corr)
    with pytest.raises(ValueError, match=r"bs azimuth: sigma 85 deg"):
        profiles.ProfileParams(base.mean_bs, base.mean_ue,
                               (4.0, 85.0, 11.0, 48.0), base.corr)


def test_joint_density_normalized(desk_profile):
    total = desk_profile.bs_grid.weights \
        @ desk_profile.joint_matrix @ desk_profile.ue_grid.weights
    assert abs(total - 1.0) < 1e-9
    assert desk_profile.total_power > 0
    assert desk_profile.joint_matrix.min() >= 0


def test_dense_assembly_does_not_depend_on_the_row_block(desk_profile,
                                                         monkeypatch):
    # the oracle is assembled in row blocks; the block size is a memory
    # bound only and must not move a bit of the matrix
    joint = desk_profile.joint_matrix
    for rows in (7, 512, joint.shape[0]):
        monkeypatch.setattr(profiles, "_CHUNK_ROWS", rows)
        assert np.array_equal(desk_profile.joint_matrix, joint)


def test_marginals_preserve_total_power(desk_profile):
    # integrating the marginal against the weights recovers the full double
    # integral of P * u, for a flat far-side pattern u = 1 that is exactly 1
    ones_ue = np.ones(desk_profile.ue_grid.n_nodes)
    marg_bs = desk_profile.marginal_bs(ones_ue)
    assert abs(desk_profile.bs_grid.integrate(marg_bs) - 1.0) < 1e-9
    ones_bs = np.ones(desk_profile.bs_grid.n_nodes)
    marg_ue = desk_profile.marginal_ue(ones_bs)
    assert abs(desk_profile.ue_grid.integrate(marg_ue) - 1.0) < 1e-9
    assert marg_bs.min() >= 0 and marg_ue.min() >= 0


def test_pattern_power_of_single_mode(desk_profile):
    ms = ModeSet(truncation_order=2)
    q = np.zeros((ms.mode_count, 1), dtype=complex)
    q[flat_index(2, 0, 1) - 1, 0] = 1.0
    u = profiles.pattern_power(q, ms, desk_profile.bs_grid,
                               polarization="full")
    # every unit-norm mode radiates 4 pi
    assert abs(desk_profile.bs_grid.integrate(u) - 4.0 * np.pi) < 1e-8
    # and the dipole donut decays toward the poles like sin^2(theta)
    assert u.reshape(desk_profile.bs_grid.shape)[0].max() < 0.02 * u.max()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=14),
       st.integers(min_value=1, max_value=12),
       st.sampled_from(["theta", "full"]),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_order_sums_match_the_boolean_product(nmax, n_theta, m, pol, seed):
    # each order's block of the table's stored rows summed by one small
    # product, against the elementwise products summed by a product with
    # the boolean mode-to-order map, to 1e-15 of each sum's sum |q_j K_j|
    # (measured 3.9e-16 over 1500 random cases).  Stored row i is flat
    # mode _rows[i], so q and the orders are read through it
    ms = ModeSet(truncation_order=nmax)
    rng = np.random.default_rng(seed)
    table = FieldTable(ms, rng.uniform(0.05, np.pi - 0.05, n_theta), pol)
    flat_q = rng.standard_normal((ms.mode_count, m)) \
        + 1j * rng.standard_normal((ms.mode_count, m))
    q = flat_q[table._rows]
    per_order = ms.m[table._rows, None] == np.arange(-nmax, nmax + 1)
    sums = table._order_sums(flat_q)
    for a, tc in zip(sums, table._fields):
        ref = np.einsum("jb,jt->btj", q, tc) @ per_order
        scale = np.einsum("jb,jt->btj", np.abs(q), np.abs(tc)) @ per_order
        assert a.shape == ref.shape == (m, n_theta, 2 * nmax + 1)
        assert np.all(np.abs(a - ref) <= 1e-15 * scale)


def test_profile_fields_theta_polarization_drops_phi(desk_profile):
    ms = ModeSet(truncation_order=2)
    kth, kph = profiles.profile_fields(desk_profile, "ue", ms)
    assert kph is None
    assert kth.shape == (ms.mode_count, desk_profile.ue_grid.n_nodes)


@pytest.mark.parametrize("side", ["BS", "Ue", "relay", None])
def test_every_link_end_entry_point_rejects_other_names(desk_profile, side):
    # "BS" read the UE end: weighted_harmonics(x, "BS", k) equalled the
    # "ue" result on equal-theta grids, and profile_fields read the UE grid
    ms = ModeSet(truncation_order=1)
    q = np.ones((ms.mode_count, 1), dtype=complex)
    far = np.ones((desk_profile.ue_grid.shape[0], 1))
    for call in (lambda: desk_profile.link_end(side),
                 lambda: desk_profile.weighted_harmonics(far, side, 0),
                 lambda: profiles.profile_fields(desk_profile, side, ms),
                 lambda: optimize_side(q, desk_profile, ms, ms, 1, side)):
        with pytest.raises(ValueError, match="link end is 'bs' or 'ue'"):
            call()


def test_link_end_maps_each_end_to_its_grids(desk_profile):
    bs, ue = desk_profile.bs_grid, desk_profile.ue_grid
    assert desk_profile.link_end("bs")[:2] == (bs, ue)
    assert desk_profile.link_end("ue")[:2] == (ue, bs)
    ms = ModeSet(truncation_order=1)
    for side, grid in (("bs", bs), ("ue", ue)):
        kth, kph = profiles.profile_fields(desk_profile, side, ms)
        assert kph is None and kth.shape == (ms.mode_count, grid.n_nodes)


def _random_corr(rng):
    """A correlation matrix with every entry, theta-phi cross terms
    included, drawn from +-0.32: each row's off-diagonal sum stays below 1,
    so the matrix is positive definite."""
    corr = np.eye(4)
    corr[np.triu_indices(4, 1)] = rng.uniform(-0.32, 0.32, 6)
    return np.triu(corr) + np.triu(corr, 1).T


def _random_params(rng, wide, mean_phi_deg):
    lo, hi = ((12.0, 40.0, 25.0, 40.0), (20.0, 50.0, 35.0, 50.0)) if wide \
        else ((2.0, 10.0, 6.0, 20.0), (5.0, 25.0, 12.0, 40.0))
    sigma = rng.uniform(lo, hi)
    corr = _random_corr(rng)
    return profiles.ProfileParams(
        (rng.uniform(60.0, 120.0), mean_phi_deg[0]),
        (rng.uniform(60.0, 120.0), mean_phi_deg[1]), sigma, corr)


def _direct_joint(params, bs_grid, ue_grid):
    """The +-1-image wrapped density on the grids' nodes and its discrete
    double integral: the matrix `JointProfile.joint_matrix` assembles, but
    with each image's quadratic form in one exponent, which is at most 1,
    so no factor overflows however narrow the profile."""
    a = np.linalg.inv(params.covariance())
    mu = params.mean
    vb = np.stack([bs_grid.theta - mu[0], bs_grid.phi - mu[1]], axis=1)
    vu = np.stack([ue_grid.theta - mu[2], ue_grid.phi - mu[3]], axis=1)
    raw = 0.0
    for sb in (-2.0 * np.pi, 0.0, 2.0 * np.pi):
        xb = vb + (0.0, sb)
        qb = np.einsum("ni,ij,nj->n", xb, a[:2, :2], xb)
        for su in (-2.0 * np.pi, 0.0, 2.0 * np.pi):
            xu = vu + (0.0, su)
            qu = np.einsum("ni,ij,nj->n", xu, a[2:, 2:], xu)
            raw = raw + np.exp(-0.5 * (qb[:, None] + qu[None, :]
                                       + 2.0 * (xb @ a[:2, 2:]) @ xu.T))
    total = bs_grid.weights @ raw @ ue_grid.weights
    return raw / total, total


def _nodal_harmonics(grid, weighted, kmax):
    """The phi sum D[theta, k] of `correlation.mode_correlation`."""
    k = np.arange(-kmax, kmax + 1)
    return weighted.reshape(grid.shape) @ np.exp(1j * np.outer(grid.phi_nodes,
                                                               k))


def _harmonic_errors(profile, joint, rng):
    """Largest |D - D_oracle| / max |D_oracle| at the BS and the UE end,
    under random beams of N = 2 modes at the far end; D_oracle is the phi
    sum of the weighted nodal marginal joint @ (w_far * power)."""
    modeset = ModeSet(truncation_order=2)
    q = (rng.standard_normal((modeset.mode_count, 2))
         + 1j * rng.standard_normal((modeset.mode_count, 2)))
    bs, ue = profile.bs_grid, profile.ue_grid
    errs = []
    for near, far, product in (("bs", ue, lambda x: joint @ x),
                               ("ue", bs, lambda x: joint.T @ x)):
        grid = bs if near == "bs" else ue
        harm = FieldTable(modeset, far.theta_nodes,
                          "theta").power_harmonics(q)
        power = profiles.pattern_power(q, modeset, far)
        # the harmonics are those of the nodal power
        nodal = np.real(harm @ np.exp(1j * np.outer(np.arange(-4, 5),
                                                    far.phi_nodes)))
        assert np.abs(nodal.ravel() - power).max() <= 1e-13 * power.max()
        want = _nodal_harmonics(grid, grid.weights * product(
            far.weights * power), 4)
        got = profile.weighted_harmonics(harm, near, 4)
        errs.append(np.abs(got - want).max() / np.abs(want).max())
    return errs


# the profile whose image factors spanned more than the dense fallback's
# log range, and profiles centred next to +-180 deg whose nodal density
# overflows a float
_PAST_THE_LOG_RANGE = profiles.ProfileParams(
    (71.1, -174.1), (63.1, 172.0), (2.96, 14.55, 9.36, 24.95),
    [[1.0, 0.308, 0.0003, 0.279], [0.308, 1.0, -0.298, -0.231],
     [0.0003, -0.298, 1.0, -0.295], [0.279, -0.231, -0.295, 1.0]])
_NARROW_AT_PI = [profiles.ProfileParams((90.0, 178.0), (90.0, -178.0),
                                        sigma, profiles.baseline_params().corr)
                 for sigma in ((3.0, 5.0, 3.0, 5.0), (4.0, 8.0, 4.0, 8.0))]


@st.composite
def _harmonic_profiles(draw):
    """Spreads from 2 deg (theta) and 5.5 deg (phi) to 35 and 40 deg,
    cross terms, and means anywhere in (-180, 180] deg.  At sigma_phi <= 40
    deg the dropped +-2 images stay below 1e-17 of the peak, and from 5 deg
    on 112 phi nodes fold back no harmonic above 1e-15."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    phi_b, phi_u = draw(st.tuples(st.floats(-180.0, 180.0),
                                  st.floats(-180.0, 180.0)))
    sigma = rng.uniform((2.0, 5.5, 3.0, 5.5), (20.0, 40.0, 35.0, 40.0))
    return profiles.ProfileParams(
        (rng.uniform(30.0, 150.0), phi_b), (rng.uniform(30.0, 150.0), phi_u),
        sigma, _random_corr(rng))


@settings(max_examples=25, deadline=None)
@given(_harmonic_profiles())
@example(_PAST_THE_LOG_RANGE)
@example(_NARROW_AT_PI[0])
@example(_NARROW_AT_PI[1])
def test_harmonics_match_the_oracle_marginal(params):
    # on 112 phi nodes the trapezoid has converged, so the closed form's
    # exact phi integrals and the direct sum agree to roundoff at both ends
    profile = profiles.JointProfile(params, profiles.make_grid(10, 112),
                                    profiles.make_grid(6, 112))
    joint, total = _direct_joint(params, profile.bs_grid, profile.ue_grid)
    oracles = [joint]
    with np.errstate(over="ignore", invalid="ignore"):
        dense = profile.joint_matrix
    if np.isfinite(dense).all():
        # the library's oracle, where its image factors stay in float range
        oracles.append(dense)
    for oracle in oracles:
        errs = _harmonic_errors(profile, oracle, np.random.default_rng(7))
        assert max(errs) <= 1e-13
    assert abs(profile.total_power - total) <= 1e-13 * total
    omni_b = profile.bs_grid.weights * omni_power(profile.bs_grid)
    omni_u = profile.ue_grid.weights * omni_power(profile.ue_grid)
    want = omni_b @ joint @ omni_u
    assert abs(correlation.siso_reference(profile) - want) <= 1e-13 * want


def test_harmonics_do_not_depend_on_the_phi_nodes():
    # the closed form reads the theta nodes only
    rng = np.random.default_rng(4)
    params = profiles.ProfileParams((70.0, 40.0), (100.0, -120.0),
                                    (6.0, 25.0, 12.0, 40.0), _random_corr(rng))
    far = {"bs": rng.standard_normal((12, 9)) + 1j, "ue": rng.random((8, 9))}
    got = []
    for n_bs, n_ue in ((2, 2), (16, 8), (96, 48)):
        profile = profiles.JointProfile(params, profiles.make_grid(12, n_bs),
                                        profiles.make_grid(8, n_ue))
        got.append([profile.weighted_harmonics(far["ue"], "bs", 6),
                    profile.weighted_harmonics(far["bs"], "ue", 3)])
    for d in got[1:]:
        for a, b in zip(d, got[0]):
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()


def test_narrow_profile_trapezoid_converges_to_the_harmonics():
    # a 3 deg / 5 deg profile at +-178 deg: a trapezoid sum over n_phi
    # nodes folds the harmonics |k| >= n_phi - 2N back in with a weight of
    # about exp(-sigma^2 (n_phi - 2N)^2 / 2), visible at 48 / 24 phi nodes,
    # far below roundoff at 192 / 96
    errs = []
    for n_bs, n_ue in ((48, 24), (192, 96)):
        profile = profiles.JointProfile(_NARROW_AT_PI[0],
                                        profiles.make_grid(16, n_bs),
                                        profiles.make_grid(8, n_ue))
        joint, _ = _direct_joint(profile.params, profile.bs_grid,
                                 profile.ue_grid)
        errs.append(max(_harmonic_errors(profile, joint,
                                         np.random.default_rng(9))))
    assert errs[1] <= 1e-13 < 1e-6 < errs[0]


def test_theta_refinement_flags_nodes_that_miss_the_profile(baseline_profile):
    assert baseline_profile.theta_refinement() < 1e-13
    narrow = profiles.ProfileParams((90.0, 0.0), (90.0, 0.0), (0.5,) * 4,
                                    profiles.baseline_params().corr)
    profile = profiles.JointProfile(narrow, profiles.make_grid(24, 48),
                                    profiles.make_grid(24, 48))
    assert profile.theta_refinement() > 0.9


# The streamed products equal the whole matrix's products only because BLAS
# gemv accumulates into its y in column order, a fixed group of columns at a
# time (4 in OpenBLAS), whether it is called once or once per row block:
# nothing in numpy promises that, so this test is its guard.  Blocks of 1
# or 7 rows cut those groups and move last bits; 4, 8 and 32 keep them.
# BS node counts 325, 338 and 351 leave every remainder of the 4-row
# groups; 33 = 32 + 1 makes the default block size meet a one-row tail,
# which joins the block before it.  35 UE nodes leave gemv's last 3
# entries of the UE product to whole dots.
_STREAM_GRIDS = (((13, 25), (8, 16)), ((13, 26), (8, 16)), ((13, 27), (8, 16)),
                 ((3, 11), (8, 16)), ((13, 27), (5, 7)))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.booleans())
def test_streamed_product_is_the_dense_product_bit_for_bit(seed, wide):
    rng = np.random.default_rng(seed)
    params = _random_params(rng, wide, rng.uniform(-180.0, 180.0, 2))
    for bs, ue in _STREAM_GRIDS:
        profile = profiles.JointProfile(params, profiles.make_grid(*bs),
                                        profiles.make_grid(*ue))
        wb, wu = profile.bs_grid.weights, profile.ue_grid.weights
        pu = rng.random(wu.size) * (rng.random(wu.size) > 0.2)
        pb = rng.random(wb.size) * (rng.random(wb.size) > 0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = profile._assemble(profile.bs_grid, profile.ue_grid)
        if not np.isfinite(raw).all():
            # about one draw in 2000 is so narrow and off-centre that the
            # nodal density overflows a float: then it must say so
            with pytest.raises(ValueError, match="overflows a float"):
                profile.marginal_bs(pu)
            continue
        joint = profile.joint_matrix
        with pytest.MonkeyPatch.context() as mp:
            for rows in (4, 8, 32, wb.size):
                mp.setattr(profiles, "_CHUNK_ROWS", rows)
                assert profile._streamed_total() == wb @ raw @ wu
                assert np.array_equal(profile.marginal_bs(pu),
                                      joint @ (wu * pu))
                assert np.array_equal(profile.marginal_ue(pb),
                                      joint.T @ (wb * pb))


def test_marginals_are_nonnegative_exactly():
    # every factor and weight is nonnegative, so no marginal entry may be
    # negative, not even by roundoff; a narrow profile driven by power far
    # from its mean reaches 100 orders below the peak and, on the BS side,
    # underflow
    params = profiles.ProfileParams((90.0, 179.0), (90.0, -179.0),
                                    (2.0, 8.0, 5.0, 15.0),
                                    profiles.baseline_params().corr)
    profile = profiles.JointProfile(params, profiles.make_grid(32, 64),
                                    profiles.make_grid(16, 32))
    rng = np.random.default_rng(3)
    tails = []
    for grid, marginal in ((profile.ue_grid, profile.marginal_bs),
                           (profile.bs_grid, profile.marginal_ue)):
        far = (np.abs(grid.phi) < 0.5) & (np.abs(grid.theta - 0.5) < 0.3)
        for power in (far.astype(float), rng.random(grid.n_nodes),
                      np.zeros(grid.n_nodes)):
            assert marginal(power).min() >= 0.0
        out = marginal(far.astype(float))
        tails.append(out.min() < 1e-100 * out.max())
    assert all(tails)


def _held_arrays(obj):
    """Every ndarray reachable from obj through attributes and containers."""
    seen, stack, out = set(), [obj], []
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            out.append(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.extend(vars(item).values())
    return out


def test_baseline_profile_holds_no_dense_matrix(baseline_profile):
    # on the default grids the dense joint matrix has 18432 x 4608 entries
    # (~680 MB); the profile keeps only its precision matrix and grids
    n_dense = baseline_profile.bs_grid.n_nodes \
        * baseline_profile.ue_grid.n_nodes
    held = _held_arrays(baseline_profile)
    assert held and all(a.size < n_dense for a in held)
    assert sum(a.nbytes for a in held) < 0.01 * 8 * n_dense
