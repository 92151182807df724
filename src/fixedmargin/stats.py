"""Matrix statistics and trace diagnostics.

Two matrix summaries are registered for chain tracing: the diagonal
divergence of a square matrix (mean |i - j| over its 1-cells, normalized by
the dimension) and the C-score of row-pair segregation.  Trace diagnostics
are the initial-positive-sequence effective sample size and a Tukey-Hanning
spectral Monte Carlo standard error, kept in-package so runs reproduce
bit-for-bit without depending on an external estimator's defaults.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matrices import BinaryMatrix


@dataclass(frozen=True)
class StatisticValue:
    """A named scalar computed from one matrix."""

    name: str
    value: float


@dataclass(frozen=True)
class StatisticDef:
    name: str
    func: Callable[[BinaryMatrix], float]
    square_only: bool = False


@dataclass(frozen=True)
class DiagnosticReport:
    """ESS and MCSE of one trace, with the autocovariance truncation lag.

    `ess_capped` notes that the raw estimate exceeded the trace length and
    was clipped to it; `zero_variance` that the trace was constant (both
    estimates are then 0).
    """

    ess: float
    mcse: float
    n: int
    truncation_lag: int
    ess_capped: bool = False
    zero_variance: bool = False


def diagonal_divergence(matrix: BinaryMatrix) -> float:
    """Mean distance of the 1-cells from the diagonal, scaled to [0, (n-1)/n].

    Defined for square matrices with at least one 1.  Zero means all mass on
    the diagonal; larger values mean mass pushed toward the corners.
    """
    if matrix.m != matrix.n:
        raise ValueError("diagonal divergence is defined for square matrices only")
    rows, cols = np.nonzero(matrix.entries)
    if rows.size == 0:
        raise ValueError("diagonal divergence is undefined for an all-zero matrix")
    return int(np.abs(rows - cols).sum()) / (rows.size * matrix.n)


def c_score(matrix: BinaryMatrix) -> float:
    """Mean checkerboard segregation over row pairs.

    For rows i < j with sums r_i, r_j sharing S_ij columns, averages
    (r_i - S_ij) * (r_j - S_ij) over all pairs, scaled by 2 / (m (m - 1)).
    Identical rows contribute 0; disjoint rows contribute r_i * r_j.
    """
    m = matrix.m
    if m < 2:
        raise ValueError("the C-score needs at least two rows")
    # a float64 product runs on BLAS and is exact: every count is an integer
    # no larger than n < 2**53
    ent = matrix.entries.astype(np.float64)
    shared = (ent @ ent.T).astype(np.int64)
    r = matrix.row_sums
    # summed over all (i, j) the terms come to (sum r)^2 - 2 r.(S 1) + |S|_F^2;
    # the diagonal ones, (r_i - S_ii)^2, are 0, so that is twice the i < j sum
    total = int(r.sum()) ** 2 - 2 * int(r @ shared.sum(axis=1)) + int(np.vdot(shared, shared))
    return total / (m * (m - 1))


STATISTICS: dict[str, StatisticDef] = {
    "diag-divergence": StatisticDef("diag-divergence", diagonal_divergence, square_only=True),
    "c-score": StatisticDef("c-score", c_score),
}


def get_statistic(name: str) -> StatisticDef:
    try:
        return STATISTICS[name]
    except KeyError:
        known = ", ".join(sorted(STATISTICS))
        raise ValueError(f"unknown statistic {name!r}; known statistics: {known}") from None


def evaluate_statistic(name: str, matrix: BinaryMatrix) -> StatisticValue:
    return StatisticValue(name, get_statistic(name).func(matrix))


def _autocovariances(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased (1/n) autocovariances for lags 0..max_lag via FFT."""
    n = x.size
    centered = x - x.mean()
    f = np.fft.rfft(centered, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[: max_lag + 1] / n
    return acov.real


def ess(values) -> float:
    """Effective sample size by the initial-positive-sequence rule.

    Sums autocorrelations in even-odd pairs, stopping at the first
    nonpositive pair sum, and returns n / (1 + 2 * sum of correlations).
    Anticorrelated traces can push the raw estimate above n; the result is
    capped at n.  A constant trace returns 0.  Needs at least 10 values.
    """
    return _ess_details(values)[0]


def _ess_details(values) -> tuple[float, int, bool, bool]:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a 1-D trace")
    n = x.size
    if n < 10:
        raise ValueError(f"need at least 10 values for an ESS estimate, got {n}")
    if np.ptp(x) == 0:
        return 0.0, 0, False, True
    acov = _autocovariances(x, n - 1)
    rho = acov / acov[0]
    pair_total = 0.0
    t = 0
    while 2 * t + 1 < n:
        gamma = rho[2 * t] + rho[2 * t + 1]
        if gamma <= 0.0:
            break
        pair_total += gamma
        t += 1
    tau = 2.0 * pair_total - 1.0
    raw = n / tau if tau > 0 else np.inf
    truncation_lag = max(2 * t - 1, 0)
    if raw > n:
        return float(n), truncation_lag, True, False
    return float(raw), truncation_lag, False, False


def mcse_tukey_hanning(values) -> float:
    """Monte Carlo standard error from a Tukey-Hanning lag window.

    Spectral variance at frequency zero with window (1 + cos(pi k / b)) / 2,
    bandwidth b = floor(sqrt(n)); the MCSE is sqrt(variance / n).  A constant
    trace returns 0.  Needs at least 100 values.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a 1-D trace")
    n = x.size
    if n < 100:
        raise ValueError(f"need at least 100 values for an MCSE estimate, got {n}")
    if np.ptp(x) == 0:
        return 0.0
    b = int(np.sqrt(n))
    acov = _autocovariances(x, b)
    lags = np.arange(1, b + 1)
    window = 0.5 * (1.0 + np.cos(np.pi * lags / b))
    variance = acov[0] + 2.0 * float(window @ acov[1 : b + 1])
    return float(np.sqrt(max(variance, 0.0) / n))


def diagnose(values) -> DiagnosticReport:
    """ESS and MCSE of one trace in a single report (needs >= 100 values)."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 100:
        raise ValueError(f"need a 1-D trace of at least 100 values, got {x.shape}")
    ess_value, lag, capped, constant = _ess_details(x)
    return DiagnosticReport(
        ess=ess_value,
        mcse=mcse_tukey_hanning(x),
        n=int(x.size),
        truncation_lag=lag,
        ess_capped=capped,
        zero_variance=constant,
    )


def empirical_p_value(observed: float, null_values, tail: str = "upper") -> float:
    """Add-one empirical p-value of `observed` against sampled null values.

    Upper tail counts null values >= observed, lower tail <= observed; the
    estimate is (1 + count) / (1 + n), never exactly zero.
    """
    null = np.asarray(null_values, dtype=np.float64)
    if null.ndim != 1 or null.size == 0:
        raise ValueError("need a non-empty 1-D array of null values")
    if tail == "upper":
        count = int((null >= observed).sum())
    elif tail == "lower":
        count = int((null <= observed).sum())
    else:
        raise ValueError(f"tail must be 'upper' or 'lower', got {tail!r}")
    return (1 + count) / (1 + null.size)
