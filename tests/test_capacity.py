"""Equal-power-split capacity and rank adaptation, on hand-checkable inputs."""

import numpy as np
import pytest

from obpb import capacity


def test_average_capacity_hand_value():
    r = np.diag([3.0, 1.0]).astype(complex)
    # snr/M = 1: log2(4) + log2(2) = 3 bits
    report = capacity.rank_adapt(lambda m: r[:m, :m], 2, 2.0)
    assert report.per_m[2] == pytest.approx(3.0)


def test_average_capacity_single_stream():
    assert capacity.rank_adapt(lambda m: np.array([[7.0]]), 1, 1.0).total \
        == pytest.approx(3.0)


def test_roundoff_eigenvalues_are_clamped():
    r = np.diag([1.0, -1e-15]).astype(complex)
    # the tiny negative eigenvalue is roundoff residue, treated as rank loss
    c = capacity.rank_adapt(lambda m: r[:m, :m], 2, 2.0).per_m[2]
    assert c == pytest.approx(1.0)  # log2(1 + 1) from the surviving stream


def test_average_capacity_input_checks():
    def adapt(r, snr=1.0):
        # r at M = 2; M = 1 reads its leading entry
        return capacity.rank_adapt(lambda m: r if m == 2 else r[:1, :1],
                                   2, snr)
    with pytest.raises(ValueError, match="positive semidefinite"):
        adapt(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError, match="Hermitian"):
        adapt(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="snr must be positive"):
        adapt(np.eye(2), 0.0)
    with pytest.raises(ValueError, match="returned dimension 3"):
        adapt(np.eye(3))
    with pytest.raises(ValueError, match="square"):
        adapt(np.ones((2, 3)))


def test_rank_adapt_prefers_more_streams_when_power_is_free():
    # identical per-stream eigenvalues: total m log2(1 + snr lam / m) grows
    # with m for this lam/snr, so the sweep must ride to the cap
    fam = lambda m: np.diag([10.0] * m).astype(complex)
    report = capacity.rank_adapt(fam, 5, 1.0)
    assert report.m_opt == 5
    assert report.total == pytest.approx(5 * np.log2(1.0 + 2.0))
    assert sorted(report.per_m) == [1, 2, 3, 4, 5]
    assert report.per_m[5] == report.total


def test_rank_adapt_stops_when_split_hurts():
    # one strong eigenvalue, the rest zero: splitting power is pure loss
    fam = lambda m: np.diag([100.0] + [0.0] * (m - 1)).astype(complex)
    report = capacity.rank_adapt(fam, 4, 1.0)
    assert report.m_opt == 1
    assert report.per_m[4] < report.per_m[1]


def test_rank_adapt_tie_goes_to_fewer_streams():
    fam = lambda m: np.zeros((m, m), dtype=complex)
    report = capacity.rank_adapt(fam, 3, 1.0)
    assert report.m_opt == 1
    assert report.total == 0.0


def test_rank_adapt_validates_family():
    with pytest.raises(ValueError):
        capacity.rank_adapt(lambda m: np.eye(m), 0, 1.0)
    with pytest.raises(ValueError):
        capacity.rank_adapt(lambda m: np.eye(m + 1), 2, 1.0)


def test_report_per_stream_and_dict_round_trip():
    fam = lambda m: np.diag([8.0, 4.0, 2.0][:m]).astype(complex)
    report = capacity.rank_adapt(fam, 3, 1.0)
    lam = [pair[0] for pair in report.per_stream]
    assert lam == sorted(lam, reverse=True)
    assert report.total == pytest.approx(sum(c for _, c in report.per_stream))
    d = report.as_dict()
    assert d["m_opt"] == report.m_opt
    assert set(d["per_m"]) == {"1", "2", "3"}
    assert d["snr_calibration"] == 1.0
