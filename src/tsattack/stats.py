"""Paired Wilcoxon signed-rank test with an exact small-sample null.

For n retained pairs the statistic is W+, the sum of mid-ranks of |d| over
positive differences d = a - b.  Zero differences are dropped.  For n <= 20
the p-value is exact under the sign-flip null: mid-ranks are fixed and each
sign is independently +/-, so the null distribution of W+ is the
distribution of a random subset sum of the ranks.  Doubling the ranks makes
them integers (mid-ranks are multiples of 1/2), and a subset-sum convolution
counts all 2^n sign patterns without enumerating them.  For n > 20 a normal
approximation with tie correction and continuity correction is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

SIDEDNESS = ("two-sided", "greater", "less")


@dataclass(frozen=True)
class WilcoxonResult:
    p_value: float
    statistic: float
    n: int
    method: str
    degenerate: bool = False


def _exact_tail_counts(doubled_ranks: np.ndarray, w2: int):
    """Counts of sign patterns with 2*W+ >= w2 and <= w2 via subset-sum DP."""
    total_sum = int(doubled_ranks.sum())
    counts = np.zeros(total_sum + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled_ranks:
        r = int(r)
        counts[r:] += counts[:total_sum + 1 - r].copy()
    return int(counts[w2:].sum()), int(counts[:w2 + 1].sum())


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_signed_rank(a, b, sidedness: str = "two-sided",
                         method: str = "auto") -> WilcoxonResult:
    """Paired signed-rank test of a vs b.

    sidedness: "greater" tests whether a tends to exceed b, "less" the
    reverse, "two-sided" (default) either.
    method: "exact", "normal", or "auto" (exact for n <= 20).

    All-zero differences give p = 1.0 with the degenerate flag; fewer than 5
    nonzero differences, or a NaN or infinite entry, is an error.
    """
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}, got {sidedness!r}")
    if method not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown method {method!r}")
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    for name, values in (("a", a), ("b", b)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} contains non-finite entries")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(p_value=1.0, statistic=0.0, n=0,
                              method="degenerate", degenerate=True)
    if n < 5:
        raise ValueError(f"need at least 5 nonzero differences, got {n}")

    ranks = rankdata(np.abs(d), method="average")
    w_plus = float(ranks[d > 0].sum())

    if method == "exact" or (method == "auto" and n <= 20):
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        w2 = int(round(2.0 * w_plus))
        tail_ge, tail_le = _exact_tail_counts(doubled, w2)
        total = 2 ** n
        if sidedness == "greater":
            p = tail_ge / total
        elif sidedness == "less":
            p = tail_le / total
        else:
            p = min(1.0, 2.0 * min(tail_ge, tail_le) / total)
        return WilcoxonResult(p_value=p, statistic=w_plus, n=n, method="exact")

    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    variance -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
    sd = math.sqrt(variance)
    if sidedness == "greater":
        p = _normal_sf((w_plus - mean - 0.5) / sd)
    elif sidedness == "less":
        p = _normal_sf((mean - w_plus - 0.5) / sd)
    else:
        z = max(abs(w_plus - mean) - 0.5, 0.0) / sd
        p = min(1.0, 2.0 * _normal_sf(z))
    return WilcoxonResult(p_value=p, statistic=w_plus, n=n, method="normal")
