"""Average-capacity reporting and rank adaptation.

Transmit power is split equally over the M streams and the average capacity
is evaluated on the beam-space correlation matrix R_h of the selected beam
set,

    C = sum_m log2(1 + snr / M * lambda_m(R_h)),

with no waterfilling.  Eigenvalues below 1e-12 of the largest are clamped
to zero (the roundoff residue of a rank-deficient selection), and input
that is not square, Hermitian and positive semidefinite is rejected.
`rank_adapt` is the one place the sum is formed: it re-selects the beam set
for every candidate stream count (the correlation matrix family is a
function of M) and returns the count maximizing the total, preferring
fewer streams on ties; the total at a single M is its ``per_m[M]``.
"""

from dataclasses import dataclass

import numpy as np

_CLAMP_REL = 1e-12
_TIE_REL = 1e-12


def _eigenvalues_checked(r_h):
    r_h = np.asarray(r_h)
    if r_h.ndim != 2 or r_h.shape[0] != r_h.shape[1]:
        raise ValueError("correlation matrix must be square")
    scale = max(1.0, float(np.abs(r_h).max()))
    if not np.allclose(r_h, r_h.conj().T, atol=1e-10 * scale):
        raise ValueError("correlation matrix must be Hermitian")
    lam = np.linalg.eigvalsh(r_h)[::-1]
    if lam[0] < 0 or lam[-1] < -_CLAMP_REL * max(lam[0], 1.0):
        raise ValueError("correlation matrix is not positive semidefinite")
    return np.where(lam < _CLAMP_REL * lam[0], 0.0, lam)


@dataclass
class CapacityReport:
    """Rank-adaptation outcome at the winning stream count.

    per_stream pairs (eigenvalue, capacity share), eigenvalues descending;
    total is their sum; per_m keeps the whole sweep for reporting.
    """

    per_stream: list
    total: float
    m_opt: int
    snr_calibration: float
    per_m: dict

    def as_dict(self):
        return {
            "per_stream": [[lam, c] for lam, c in self.per_stream],
            "total": self.total,
            "m_opt": self.m_opt,
            "snr_calibration": self.snr_calibration,
            "per_m": {str(m): c for m, c in self.per_m.items()},
        }


def rank_adapt(r_family, m_max, snr):
    """Maximize average capacity over stream counts 1..m_max.

    r_family maps a stream count M to the beam-space correlation matrix of
    that count's own beam selection (top-M eigenpatterns, first M greedy
    picks, ...).  Ties within 1e-12 relative go to the smaller count.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if snr <= 0:
        raise ValueError("snr must be positive")
    per_m = {}
    best = None
    for m in range(1, int(m_max) + 1):
        lam = _eigenvalues_checked(r_family(m))
        if lam.size != m:
            raise ValueError("r_family(%d) returned dimension %d" % (m, lam.size))
        shares = np.log2(1.0 + snr / m * lam)
        total = float(shares.sum())
        per_m[m] = total
        if best is None or total > best[0] + _TIE_REL * max(abs(best[0]), 1.0):
            best = (total, m, list(zip(lam.tolist(), shares.tolist())))
    total, m_opt, per_stream = best
    return CapacityReport(per_stream=per_stream, total=total, m_opt=m_opt,
                          snr_calibration=float(snr), per_m=per_m)
