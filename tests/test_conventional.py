"""DFT codebooks and greedy beam selection.

The determinant-greedy oracle re-scores every admissible candidate with a
dense determinant at each step; the fast Schur-complement chain must pick
the same beam every time.  Both rules run one greedy loop, held to the
stable sort and the fresh-Cholesky chain it replaced (`tests/oracles.py`).
Selection scale-invariance (N_UE only rescales the element correlation) is
what lets the runner build each chain once.
The sub-array search reads its Gram block by block; the dense Gram of the
zero-padded codebook is its oracle, bit for bit.
"""

import itertools
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from obpb import conventional, profiles


@pytest.fixture(scope="module")
def desk_profile():
    return profiles.JointProfile(profiles.baseline_params(),
                                 bs_grid=profiles.make_grid(24, 48),
                                 ue_grid=profiles.make_grid(12, 24))


@pytest.fixture(scope="module")
def small_config():
    return conventional.ArrayConfig(n_v=4, n_h=4, spacing=0.5,
                                    beam_interval=2)


def _random_gram(rng, n_cand, rank=None):
    a = rng.standard_normal((n_cand, rank or n_cand)) \
        + 1j * rng.standard_normal((n_cand, rank or n_cand))
    return a @ a.conj().T


def test_array_config_geometry():
    cfg = conventional.ArrayConfig(n_v=8, n_h=8, spacing=0.5, beam_interval=4)
    assert cfg.n_elements == 64
    assert cfg.n_beams == 1024
    pos = cfg.positions()
    assert pos.shape == (64, 3)
    assert np.all(pos[:, 0] == 0.0)           # array in the y-z plane
    assert np.abs(pos.mean(axis=0)).max() < 1e-12   # centered
    # vertical-major flat order: first row walks the horizontal axis
    assert np.allclose(pos[1, 1] - pos[0, 1], 0.5)
    assert np.allclose(pos[1, 2], pos[0, 2])
    with pytest.raises(ValueError):
        conventional.ArrayConfig(n_v=0)


def test_element_pattern_peak_and_rolloff():
    assert conventional.element_gain_db(np.pi / 2, 0.0) == pytest.approx(8.0)
    # 65-degree half-power beamwidths: 3 dB down at +/- 32.5 degrees
    half = np.radians(32.5)
    assert conventional.element_gain_db(np.pi / 2 + half, 0.0) \
        == pytest.approx(5.0)
    assert conventional.element_gain_db(np.pi / 2, half) == pytest.approx(5.0)
    # front-to-back clip
    assert conventional.element_gain_db(np.pi / 2, np.pi) \
        == pytest.approx(8.0 - 30.0)
    amp = conventional.element_amplitude(np.pi / 2, 0.0)
    assert amp == pytest.approx(10.0 ** 0.4)


def test_steering_matrix_at_boresight(small_config):
    a = conventional.steering_matrix(small_config, np.array([np.pi / 2]),
                                     np.array([0.0]))
    # boresight is broadside: all phases align, amplitude is the element's
    assert a.shape == (16, 1)
    assert np.abs(a - 10.0 ** 0.4).max() < 1e-12


def test_dft_codebook_columns(small_config):
    cb = conventional.dft_codebook(small_config)
    assert cb.shape == (16, 64)
    assert np.abs(np.linalg.norm(cb, axis=0) - 1.0).max() < 1e-12
    # column (p, q) matches the single-beam builder, q fastest
    for p, q in ((1, 1), (2, 3), (8, 5)):
        col = (p - 1) * small_config.beam_interval * small_config.n_h \
            + (q - 1)
        w = oracles.dft_weight(small_config, p, q)
        assert np.abs(cb[:, col] - w).max() < 1e-12
    # the un-steered beam is the uniform taper
    assert np.allclose(oracles.dft_weight(small_config, 1, 1), 0.25)


def test_subarray_groups_tile_the_array(small_config):
    for shape in ((2, 2), (1, 4), (4, 1), (2, 1)):
        groups = conventional.subarray_groups(small_config, shape)
        assert len(groups) == 16 // (shape[0] * shape[1])
        flat = np.sort(np.concatenate(groups))
        assert np.array_equal(flat, np.arange(16))
    with pytest.raises(ValueError):
        conventional.subarray_groups(small_config, (3, 2))


def test_subarray_codebook_is_zero_padded(small_config):
    weights, group_of = oracles.subarray_codebook(small_config, (2, 2))
    assert weights.shape == (16, small_config.n_beams)
    assert group_of.shape == (small_config.n_beams,)
    groups = conventional.subarray_groups(small_config, (2, 2))
    for col in range(weights.shape[1]):
        support = np.flatnonzero(np.abs(weights[:, col]) > 0)
        assert np.array_equal(np.sort(support), np.sort(groups[group_of[col]]))
    assert np.abs(np.linalg.norm(weights, axis=0) - 1.0).max() < 1e-12


def test_element_correlation_streams_the_joint_matrix(baseline_profile):
    # on the default grids the dense joint matrix takes ~680 MB; its one
    # product is taken from row blocks, and the steering matrix is built
    # on the kept nodes only (4.7 MB on the baseline profile, against 19 MB
    # on the whole grid) and weighted in place
    tracemalloc.start()
    try:
        conventional.element_correlation(baseline_profile,
                                         conventional.ArrayConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_element_correlation_scales_with_n_ue(desk_profile, small_config):
    # five user elements sum their pattern powers (their position phases
    # cancel in |a_n|^2), so the correlation they produce is 5 x the one
    # element correlation; the runner applies that factor to it
    r1 = conventional.element_correlation(desk_profile, small_config)
    ue, bs = desk_profile.ue_grid, desk_profile.bs_grid
    a_ue = conventional.steering_matrix(conventional.ArrayConfig(n_v=1, n_h=5),
                                        ue.theta, ue.phi)
    wm = bs.weights * desk_profile.marginal_bs(np.sum(np.abs(a_ue) ** 2, 0))
    a = conventional.steering_matrix(small_config, bs.theta, bs.phi)
    r5 = (a * wm) @ a.conj().T
    assert np.abs(r5 - 5.0 * r1).max() < 1e-12 * np.abs(r5).max()
    assert np.abs(r1 - r1.conj().T).max() < 1e-14 * np.abs(r1).max()
    lam = np.linalg.eigvalsh(r1)
    assert lam.min() > -1e-12 * lam.max()


def test_greedy_power_orders_by_diagonal():
    gram = np.diag([3.0, 7.0, 1.0, 7.0, 5.0]).astype(complex)
    # exact tie between candidates 1 and 3: lowest index first
    assert conventional.greedy_select_power(gram, 3) == [1, 3, 4]


def test_greedy_det_matches_stepwise_brute_force():
    rng = np.random.default_rng(6)
    gram = _random_gram(rng, 10)
    m = 4
    chain = conventional.greedy_select_det(gram, m)
    chosen = []
    for step in range(m):
        scores = []
        for c in range(10):
            if c in chosen:
                scores.append(-np.inf)
                continue
            idx = chosen + [c]
            scores.append(np.linalg.det(gram[np.ix_(idx, idx)]).real)
        best = int(np.argmax(scores))
        assert chain[step] == best, f"step {step}"
        chosen.append(best)


def test_greedy_det_beats_or_equals_every_single_swap():
    # not globally optimal in general, but each greedy pick was locally
    # optimal: replacing the last pick with any unused candidate cannot help
    rng = np.random.default_rng(8)
    gram = _random_gram(rng, 8)
    chain = conventional.greedy_select_det(gram, 3)
    base = np.linalg.det(gram[np.ix_(chain, chain)]).real
    for c in range(8):
        if c in chain:
            continue
        alt = chain[:2] + [c]
        assert np.linalg.det(gram[np.ix_(alt, alt)]).real <= base * (1 + 1e-9)


def test_greedy_chains_are_nested():
    rng = np.random.default_rng(12)
    gram = _random_gram(rng, 12)
    for select in (conventional.greedy_select_power,
                   conventional.greedy_select_det):
        chain5 = select(gram, 5)
        chain3 = select(gram, 3)
        assert chain5[:3] == chain3


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_greedy_nesting_property(seed):
    rng = np.random.default_rng(seed)
    gram = _random_gram(rng, 9, rank=9)
    group_of = np.arange(9) // 3
    for select in (conventional.greedy_select_power,
                   conventional.greedy_select_det):
        full = select(gram, 3, group_of)
        assert select(gram, 2, group_of) == full[:2]
        # one beam per group at most
        assert len({group_of[c] for c in full}) == 3


def test_group_constraint_limits_depth():
    gram = np.diag(np.arange(1.0, 7.0)).astype(complex)
    group_of = np.array([0, 0, 0, 1, 1, 1])
    with pytest.raises(ValueError):
        conventional.greedy_select_power(gram, 3, group_of)


def test_det_metric_rejects_rank_exhaustion():
    # rank-1 gram: after one pick every Schur complement is zero
    v = np.array([1.0, 2.0, 3.0])[:, None].astype(complex)
    gram = v @ v.conj().T
    with pytest.raises(ValueError):
        conventional.greedy_select_det(gram, 2)


def _oracle_prefix(oracle, m):
    """The oracle's longest chain of at most m picks (chains are nested)."""
    for k in range(m, 0, -1):
        try:
            return oracle(k)
        except ValueError:
            continue
    raise AssertionError("the oracle refused its first pick")


def _determined(gram, chain, floor):
    """How many leading picks of a determinant chain have a Schur
    complement above `floor`; past the Gram's numerical rank every
    complement is roundoff, and no pick is better than another."""
    for k, c in enumerate(chain):
        s = chain[:k]
        pivot = gram[c, c].real
        if s:
            pivot -= (gram[c, s] @ np.linalg.solve(gram[np.ix_(s, s)],
                                                   gram[s, c])).real
        if pivot <= floor:
            return k
    return len(chain)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((6, 12, 24, 48)), st.sampled_from((1.0, 0.5, 0.0)),
       st.sampled_from((None, 2, 3)), st.sampled_from((1, 4, 9, 36, 49)),
       st.booleans(), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_one_chain_is_the_sort_and_the_fresh_factor_chain(
        n, rank_frac, group_size, n_ue, ties, seed):
    # random PSD Grams of full rank down to rank 1, with and without
    # groups.  With ties, the second half of the candidates repeats the
    # first in shuffled order, bit for bit (exact determinant ties), the
    # strongest candidate's copy scaled by 1 + 1e-14 (a near tie inside
    # _TIE_REL, met at the first pick, on the diagonal both chains share),
    # and every third power is drawn from three values (exact power ties).
    # Near ties past the first pick are left out: where the Schur
    # complements fall far below the diagonal, roundoff decides them, and
    # the two chains round differently.  The chain must agree with every
    # pick the oracle made, up to the Gram's numerical rank (_determined)
    rng = np.random.default_rng(seed)
    rank = max(1, int(rank_frac * n))
    x = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    gram = float(n_ue) * (x @ x.conj().T)
    if ties:
        half = n // 2
        copy = np.concatenate([np.arange(half), rng.permutation(half)])
        near = (copy == np.argmax(np.real(np.diag(gram))[:half])) & (
            np.arange(n) >= half)
        scale = np.where(near, 1.0 + 1e-14, 1.0)
        gram = scale[:, None] * gram[np.ix_(copy, copy)] * scale
    group_of = None if group_size is None else np.arange(n) // group_size
    m = int(rng.integers(1, n + 1))
    diag = np.real(np.diag(gram)).copy()

    power = diag.copy()
    if ties:
        power[::3] = float(n_ue) * rng.choice((1.0, 2.0, 3.0), (n + 2) // 3)
    chain = _oracle_prefix(
        lambda k: oracles.power_chain(power, k, group_of), m)
    assert conventional._chain(power, len(chain), group_of)[0] == chain
    if len(chain) < m:
        with pytest.raises(ValueError):
            conventional._chain(power, m, group_of)

    chain, rows = _oracle_prefix(
        lambda k: oracles.det_chain(diag, gram.__getitem__, k, group_of), m)
    d = _determined(gram, chain, 1e-9 * diag.max())
    ours, our_rows = conventional._chain(diag, d, group_of, gram.__getitem__)
    assert ours == chain[:d]
    assert our_rows.tobytes() == rows[:d].tobytes()


def test_conventional_imports_no_scipy():
    # the package's __init__ imports profiles, whose nodal marginal still
    # calls scipy's dgemv, so the module loads beneath a bare package here:
    # conventional and the modules it imports load no scipy module
    src = str(Path(conventional.__file__).parent)
    code = ("import sys, types\n"
            "pkg = types.ModuleType('obpb')\n"
            f"pkg.__path__ = [{src!r}]\n"
            "sys.modules['obpb'] = pkg\n"
            "import obpb.conventional\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_selection_chain_object(desk_profile, small_config):
    r = conventional.element_correlation(desk_profile, small_config)
    sel = conventional.full_array_selections(r, small_config, 6,
                                             ("determinant",))["determinant"]
    assert sel.m_max == 6
    assert sel.beam_weights(3).shape == (16, 3)
    rb = sel.beam_correlation(3)
    assert rb.shape == (3, 3)
    assert np.abs(rb - rb.conj().T).max() < 1e-12 * np.abs(rb).max()
    # beam correlation really is the bilinear gram of the picked columns
    w = sel.beam_weights(3)
    ref = w.T @ r @ w.conj()
    assert np.abs(rb - ref).max() < 1e-10 * np.abs(ref).max()


def test_candidate_gram_is_the_hermitian_part_bit_for_bit():
    # the Gram is Hermitized in place; the values must be those of
    # 0.5 (G + G^H) to the last bit, since greedy power chains break exact
    # ties only
    rng = np.random.default_rng(7)
    for n, b in ((16, 64), (5, 37), (1, 3)):
        w = rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
        w[:, ::7] = 0.0
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = a @ a.conj().T
        g = w.T @ r @ w.conj()
        assert (conventional.candidate_gram(w, r).tobytes()
                == (0.5 * (g + g.conj().T)).tobytes())


def test_full_array_selections_form_one_gram(desk_profile):
    # the 8 x 8 array at beam interval 4 has a 1024 x 1024 complex Gram
    # (16 MiB); its Hermitian part is taken in tiles, so the chains to the
    # reference scenario's deepest N_UE allocate one Gram and the codebook
    # beside it (1.22 Grams), where a whole G^H took a second Gram (2.07)
    config = conventional.ArrayConfig()
    r = conventional.element_correlation(desk_profile, config)
    tracemalloc.start()
    try:
        conventional.full_array_selections(r, config, 49,
                                           ("power", "determinant"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * config.n_beams ** 2 * 16


def test_selection_keeps_only_the_chain(desk_profile, small_config):
    # a selection holds the chain's columns and Gram block, nothing the size
    # of the codebook, and its prefixes are the dense Gram's blocks bit for bit
    r = conventional.element_correlation(desk_profile, small_config)
    n_beams = small_config.n_beams
    cases = [(conventional.dft_codebook(small_config),
              lambda metric: conventional.full_array_selections(
                  r, small_config, 6, (metric,))[metric])]
    for shape in ((2, 2), (1, 4)):
        cases.append((oracles.subarray_codebook(small_config, shape)[0],
                      lambda metric, shape=shape:
                      conventional.subarray_selection(
                          r, small_config, shape, 4, metric)))
    for weights, select in cases:
        gram = conventional.candidate_gram(weights, r)
        for metric in ("power", "determinant"):
            sel = select(metric)
            held = [v for v in vars(sel).values() if isinstance(v, np.ndarray)]
            assert held and all(n_beams not in v.shape for v in held)
            for m in range(1, sel.m_max + 1):
                idx = sel.chain[:m]
                assert np.array_equal(sel.beam_correlation(m),
                                      gram[np.ix_(idx, idx)])
                assert np.array_equal(sel.beam_weights(m), weights[:, idx])


def test_selection_is_scale_invariant(desk_profile, small_config):
    # scaling R by N_UE must not change any greedy choice
    r = conventional.element_correlation(desk_profile, small_config)
    for metric in ("power", "determinant"):
        a = conventional.full_array_selections(r, small_config, 5,
                                               (metric,))[metric]
        b = conventional.full_array_selections(9.0 * r, small_config, 5,
                                               (metric,))[metric]
        assert a.chain == b.chain


def test_best_subarray_partition(desk_profile, small_config):
    r = conventional.element_correlation(desk_profile, small_config)
    shapes = conventional.tiling_shapes(small_config)
    shape, sel, report = conventional.best_subarray_partition(
        4.0 * r, small_config, 4, snr=0.03)
    assert shape in shapes
    assert sel.m_max == min(16 // (shape[0] * shape[1]), 4)
    assert report.m_opt <= sel.m_max
    # the winner's capacity is the max over the candidates
    totals = []
    for cand in shapes:
        m_max = min(16 // (cand[0] * cand[1]), 4)
        s = conventional.subarray_selection(4.0 * r, small_config, cand,
                                            m_max, "power")
        from obpb import capacity
        totals.append(capacity.rank_adapt(s.beam_correlation, m_max,
                                          0.03).total)
    assert report.total == pytest.approx(max(totals))
    three = conventional.ArrayConfig(n_v=3, n_h=3, beam_interval=2)
    with pytest.raises(ValueError):
        conventional.best_subarray_partition(
            conventional.element_correlation(desk_profile, three), three, 4,
            0.03)


def test_partition_search_skips_shapes_that_do_not_tile(desk_profile,
                                                        small_config):
    # four of the ten shapes cannot tile a 4 x 4 array; the search must pass
    # over them instead of failing, so the shape list works for any array
    # size, and an array no shape tiles is an error
    r = conventional.element_correlation(desk_profile, small_config)
    tiling = conventional.tiling_shapes(small_config)
    assert tiling == [(1, 4), (2, 2), (4, 1), (2, 4), (4, 2), (4, 4)]
    shape, _, _ = conventional.best_subarray_partition(
        r, small_config, 4, snr=0.03)
    assert shape in tiling
    three = conventional.ArrayConfig(n_v=3, n_h=3, beam_interval=2)
    with pytest.raises(ValueError, match="no sub-array shape tiles"):
        conventional.best_subarray_partition(
            conventional.element_correlation(desk_profile, three), three, 4,
            snr=0.03)


# (n_v, n_h, beam_interval) of the arrays the block search is checked on
BLOCK_ARRAYS = ((4, 4, 2), (4, 8, 3), (8, 8, 4), (8, 8, 1))


def _assert_block_search_is_the_dense_search(r, config, n_ue):
    # every tiling shape and both metrics: subarray_selection against the
    # greedy rules on the dense Gram of the zero-padded codebook
    for shape in conventional.tiling_shapes(config):
        weights, group_of = oracles.subarray_codebook(config, shape)
        gram = conventional.candidate_gram(weights, r)
        m = min(config.n_elements // (shape[0] * shape[1]), n_ue)
        for metric, select in (("power", conventional.greedy_select_power),
                               ("determinant",
                                conventional.greedy_select_det)):
            try:
                chain = select(gram, m, group_of)
            except ValueError:
                with pytest.raises(ValueError):
                    conventional.subarray_selection(r, config, shape, m,
                                                    metric)
                continue
            sel = conventional.subarray_selection(r, config, shape, m, metric)
            assert sel.chain == chain, (shape, metric)
            assert (sel.beam_weights(m).tobytes()
                    == weights[:, chain].tobytes()), (shape, metric)
            assert (sel.beam_correlation(m).tobytes()
                    == gram[np.ix_(chain, chain)].tobytes()), (shape, metric)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(BLOCK_ARRAYS), st.sampled_from((1.0, 0.5, 0.0)),
       st.sampled_from((1, 4, 9, 36, 49)),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_subarray_search_is_the_dense_gram_search_bit_for_bit(
        array, rank_frac, n_ue, seed):
    # random PSD correlations, full rank down to rank 1, at the scales the
    # runner applies; the det rule may exhaust a low-rank R, and then both
    # searches must refuse
    n_v, n_h, interval = array
    config = conventional.ArrayConfig(n_v=n_v, n_h=n_h,
                                      beam_interval=interval)
    n = config.n_elements
    rank = max(1, int(rank_frac * n))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    _assert_block_search_is_the_dense_search(
        float(n_ue) * (x @ x.conj().T), config, n_ue)


def test_subarray_search_matches_the_dense_gram_on_near_ties(desk_profile):
    # the element correlation of the 8 x 8 array: for every tiling shape,
    # 4 to 64 of the 1024 candidates lie within 1e-12 of the largest power,
    # so the power chains order by the last bits of the Gram diagonal
    config = conventional.ArrayConfig()
    r = conventional.element_correlation(desk_profile, config)
    for n_ue in (4, 49):
        _assert_block_search_is_the_dense_search(float(n_ue) * r, config,
                                                 n_ue)


def test_partition_search_forms_no_dense_gram(desk_profile, monkeypatch):
    # the 8 x 8 search builds no 1024 x 1024 Gram (16 MB), which the dense
    # search allocated at least twice per shape
    config = conventional.ArrayConfig()
    r = conventional.element_correlation(desk_profile, config)
    calls = []
    monkeypatch.setattr(conventional, "candidate_gram",
                        lambda *args: calls.append(args))
    for metric in ("power", "determinant"):
        tracemalloc.start()
        try:
            conventional.best_subarray_partition(16.0 * r, config, 16, 0.03,
                                                 metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 16 * 2 ** 20 / 4, metric
