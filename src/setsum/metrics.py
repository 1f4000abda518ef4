"""Evaluation statistics for prediction/ground-truth pairings.

The agreement metric is ICC(2,1): two-way random effects, absolute agreement,
single measurement (Shrout & Fleiss / McGraw & Wong naming).  Absolute
agreement penalizes systematic bias between the two columns, which is the
strict reading when predictions are compared against reference scores.

``williams_test`` compares two dependent correlations sharing one variable
(Williams 1959, in the form popularized by Steiger 1980):

    t = (r12 - r13) * sqrt( (n-1)(1 + r23) /
                            ( 2K(n-1)/(n-3) + rbar^2 (1 - r23)^3 ) )
    K = 1 - r12^2 - r13^2 - r23^2 + 2 r12 r13 r23,  rbar = (r12 + r13) / 2

with a two-sided p-value from Student's t on n-3 degrees of freedom.

Statistics that are undefined for the given input (degenerate variance,
non-positive K) are reported as ``None``, never as a silent NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricsReport",
    "mse",
    "mae",
    "icc",
    "williams_test",
    "student_t_sf",
    "evaluate_pairs",
]


def _as_series(truth, prediction) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(truth, dtype=np.float64)
    p = np.asarray(prediction, dtype=np.float64)
    if t.ndim != 1 or p.ndim != 1:
        raise ValueError("paired series must be one-dimensional")
    if t.shape != p.shape:
        raise ValueError(f"series lengths differ: {t.shape[0]} vs {p.shape[0]}")
    if t.shape[0] < 2:
        raise ValueError("paired series needs at least 2 entries")
    if not (np.isfinite(t).all() and np.isfinite(p).all()):
        raise ValueError("paired series must be finite")
    return t, p


def mse(truth, prediction) -> float:
    """Mean squared difference."""
    t, p = _as_series(truth, prediction)
    return float(np.mean((p - t) ** 2))


def mae(truth, prediction) -> float:
    """Mean absolute difference."""
    t, p = _as_series(truth, prediction)
    return float(np.mean(np.abs(p - t)))


def icc(truth, prediction) -> float | None:
    """ICC(2,1) over the n-by-2 table (truth, prediction).

    From the two-way ANOVA mean squares with k = 2 raters:

        (MS_rows - MS_err) / (MS_rows + MS_err + (2/n)(MS_cols - MS_err))

    Returns ``None`` when the table is degenerate (no between-target
    variance to apportion, or a zero denominator).
    """
    t, p = _as_series(truth, prediction)
    n = t.shape[0]
    if n < 3:
        raise ValueError(f"icc needs at least 3 paired values, got {n}")
    table = np.column_stack([t, p])
    k = 2
    grand = table.mean()
    row_means = table.mean(axis=1)
    col_means = table.mean(axis=0)
    ss_rows = k * np.sum((row_means - grand) ** 2)
    ss_cols = n * np.sum((col_means - grand) ** 2)
    ss_err = np.sum((table - row_means[:, None] - col_means[None, :] + grand) ** 2)
    ms_rows = ss_rows / (n - 1)
    ms_cols = ss_cols / (k - 1)
    ms_err = ss_err / ((n - 1) * (k - 1))
    denom = ms_rows + ms_err + (k / n) * (ms_cols - ms_err)
    if ss_rows == 0.0 or denom <= 0.0:
        return None
    return float((ms_rows - ms_err) / denom)


def student_t_sf(x: float, df: int) -> float:
    """Upper tail P(T > x) of Student's t distribution with ``df`` degrees of
    freedom, taken as the lower tail at -x from ``scipy.special.stdtr`` (what
    ``scipy.stats.t.sf`` computes) rather than as 1 - CDF, which cancels to 0
    once the CDF rounds to 1."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    from scipy.special import stdtr  # imported here: scipy.special adds ~27 MB to every process
    return float(stdtr(df, -x))


def williams_test(r12: float, r13: float, r23: float, n: int) -> tuple[float, float] | None:
    """Williams' t for H0: rho12 = rho13 with variable 1 shared by both.

    Returns ``(t, two-sided p)`` with n-3 degrees of freedom, or ``None``
    when the correlation triple is degenerate (K <= 0 or a non-positive
    variance term).
    """
    for label, r in (("r12", r12), ("r13", r13), ("r23", r23)):
        if not -1.0 <= r <= 1.0:
            raise ValueError(f"{label} must be in [-1, 1], got {r}")
    if n < 4:
        raise ValueError(f"williams_test needs n >= 4, got {n}")
    k_det = 1.0 - r12 * r12 - r13 * r13 - r23 * r23 + 2.0 * r12 * r13 * r23
    if k_det <= 0.0:
        return None
    rbar = 0.5 * (r12 + r13)
    denom = 2.0 * k_det * (n - 1) / (n - 3) + rbar * rbar * (1.0 - r23) ** 3
    if denom <= 0.0:
        return None
    if r12 == r13:
        return 0.0, 1.0
    t = (r12 - r13) * math.sqrt((n - 1) * (1.0 + r23) / denom)
    p = 2.0 * student_t_sf(abs(t), n - 3)
    return t, p


@dataclass(frozen=True)
class MetricsReport:
    """MSE, MAE, and ICC for one prediction/ground-truth pairing."""

    mse: float
    mae: float
    icc: float | None
    n: int

    def __str__(self) -> str:
        icc_s = "NA" if self.icc is None else f"{self.icc:.6f}"
        return f"n={self.n} mse={self.mse:.6f} mae={self.mae:.6f} icc={icc_s}"


def evaluate_pairs(truth, prediction) -> MetricsReport:
    """Full metrics report; ICC is ``None`` when fewer than 3 pairs."""
    t, p = _as_series(truth, prediction)
    report_icc = icc(t, p) if t.shape[0] >= 3 else None
    return MetricsReport(mse=mse(t, p), mae=mae(t, p), icc=report_icc, n=t.shape[0])
