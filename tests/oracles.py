"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way (explicit
loops, direct formula transliteration) and never calls into the package's
own compute paths.
"""

from __future__ import annotations

import math

import numpy as np


def conv_loop(x: np.ndarray, kernel: np.ndarray, padding: int = 0) -> np.ndarray:
    """Direct stride-1 cross-correlation of one (channels, *spatial) image,
    any spatial rank, one (output channel, input channel, kernel offset) at a
    time: the shifted window times that kernel value is added to every output
    position at once, so each position sums its products in the order of a
    scalar loop over channels and then offsets."""
    d = kernel.ndim - 2
    xp = np.pad(x, [(0, 0)] + [(padding, padding)] * d)
    kext = kernel.shape[2:]
    out_ext = tuple(xp.shape[1 + i] - kext[i] + 1 for i in range(d))
    out = np.zeros((kernel.shape[0],) + out_ext)
    for o in range(kernel.shape[0]):
        for c in range(x.shape[0]):
            for off in np.ndindex(*kext):
                window = xp[(c,) + tuple(slice(off[i], off[i] + out_ext[i]) for i in range(d))]
                out[o] += window * kernel[(o, c) + off]
    return out


def fc_loop(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Dot products written out one multiply at a time."""
    out = np.zeros(weights.shape[0])
    for o in range(weights.shape[0]):
        acc = 0.0
        for i in range(weights.shape[1]):
            acc += weights[o, i] * x[i]
        out[o] = acc
    return out


def finite_difference(f, arrays: dict[str, np.ndarray], h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences of the scalar ``f()`` w.r.t. every element.

    ``f`` must read the (temporarily perturbed) arrays each call.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat, gf = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads[name] = g
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray,
                   floor: float = 1e-4) -> np.ndarray:
    """|a - n| / max(|a|, |n|, floor); the floor keeps near-zero gradients
    from turning finite-difference roundoff (~1e-10 absolute) into spurious
    relative blowups."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def icc_two_way_table(truth, prediction) -> float:
    """ICC(2,1) from an explicitly tabulated two-way ANOVA, loop arithmetic."""
    n = len(truth)
    k = 2
    table = [[float(truth[i]), float(prediction[i])] for i in range(n)]
    grand = sum(sum(row) for row in table) / (n * k)
    row_means = [sum(row) / k for row in table]
    col_means = [sum(table[i][j] for i in range(n)) / n for j in range(k)]
    ss_rows = k * sum((rm - grand) ** 2 for rm in row_means)
    ss_cols = n * sum((cm - grand) ** 2 for cm in col_means)
    ss_err = 0.0
    for i in range(n):
        for j in range(k):
            ss_err += (table[i][j] - row_means[i] - col_means[j] + grand) ** 2
    ms_rows = ss_rows / (n - 1)
    ms_cols = ss_cols / (k - 1)
    ms_err = ss_err / ((n - 1) * (k - 1))
    return (ms_rows - ms_err) / (ms_rows + ms_err + (k / n) * (ms_cols - ms_err))


def williams_t_direct(r12: float, r13: float, r23: float, n: int) -> float:
    """Williams' t transliterated term by term from its printed form."""
    det = 1.0 - r12 ** 2 - r13 ** 2 - r23 ** 2 + 2.0 * r12 * r13 * r23
    rbar = (r12 + r13) / 2.0
    num = (n - 1) * (1.0 + r23)
    den = 2.0 * det * (n - 1) / (n - 3) + rbar ** 2 * (1.0 - r23) ** 3
    return (r12 - r13) * math.sqrt(num / den)


def t_sf_reference(x: float, df: int) -> float:
    """High-precision Student-t upper tail P(T > x) through mpmath's
    regularized incomplete beta."""
    import mpmath

    mpmath.mp.dps = 40
    xm = mpmath.mpf(x)
    dfm = mpmath.mpf(df)
    tail = mpmath.betainc(dfm / 2, mpmath.mpf(1) / 2, 0, dfm / (dfm + xm ** 2),
                          regularized=True) / 2
    return float(tail) if x >= 0 else float(1 - tail)


def correlation_triple(rng: np.random.Generator, n_obs: int = 40) -> tuple[float, float, float]:
    """A consistent (r12, r13, r23) triple from actual random data, so the
    correlation matrix is positive definite and Williams' K stays positive."""
    data = rng.normal(size=(3, n_obs)) + 0.5 * rng.normal(size=(1, n_obs))
    c = np.corrcoef(data)
    return float(c[0, 1]), float(c[0, 2]), float(c[1, 2])
