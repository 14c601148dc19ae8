"""Self-contained statistics kernel.

Pearson correlation with a two-tailed p-value, the Student t survival
function (via the regularized incomplete beta function), the Mann-Whitney U
test (exact by enumeration for small samples, normal approximation
otherwise), and ordinary least squares. Everything here is pure Python on
top of ``math``; no statistics library is pulled in, so results are easy to
audit against independent oracles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Sequence

__all__ = [
    "CorrelationResult",
    "UTestResult",
    "TrendLine",
    "pearson",
    "t_sf",
    "mann_whitney_u",
    "ols",
    "midranks",
    "p_stars",
    "EXACT_U_LIMIT",
]

# Continued-fraction evaluation of the incomplete beta function.
_BETACF_TOL = 1e-12
_BETACF_MAX_ITER = 500
_TINY = 1e-300

# Full enumeration of C(n_a + n_b, n_a) group labelings is used up to this
# pooled size; C(12, 6) = 924 labelings is the worst case.
EXACT_U_LIMIT = 12


@dataclass(frozen=True)
class CorrelationResult:
    """Pearson r with its t statistic and two-tailed p-value."""

    r: float
    n: int
    t_stat: float
    p_two_tailed: float


@dataclass(frozen=True)
class UTestResult:
    """Mann-Whitney U result; ``u`` is min(u1, u2) and u1 + u2 = n_a * n_b."""

    u: float
    p_two_tailed: float
    method: str  # "exact" | "normal-approximation"
    u1: float
    u2: float


@dataclass(frozen=True)
class TrendLine:
    """Least-squares line: slope in score units per x unit."""

    slope: float
    intercept: float
    n_points: int


def _betacf(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for I_x(a, b).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the fraction directly where it converges fast, else the symmetry
    # I_x(a, b) = 1 - I_{1-x}(b, a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: int) -> float:
    """One-sided survival function P(T > t) of Student's t with df degrees.

    Two-tailed p-values follow as 2 * t_sf(abs(t), df), clamped to [0, 1].
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if t < 0.0:
        return 1.0 - t_sf(-t, df)
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return 0.5 * _betainc_reg(0.5 * df, 0.5, x)


def _spread(values: Sequence[float], n: int) -> tuple[Sequence[float], float, float]:
    """The sample, its mean and its sum of squared deviations. A sample whose
    squares sum below the least normal float, though it is not constant, is
    first scaled by an exact power of two, which leaves r unchanged."""
    mean = math.fsum(values) / n
    squares = math.fsum((v - mean) ** 2 for v in values)
    if squares < sys.float_info.min and (largest := max(abs(v - mean) for v in values)):
        return _spread([math.ldexp(v, -math.frexp(largest)[1]) for v in values], n)
    return values, mean, squares


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Product-moment correlation with two-tailed significance.

    The p-value comes from t = r * sqrt((n - 2) / (1 - r^2)) against the t
    distribution with n - 2 degrees of freedom. Requires n >= 3 and both
    variables finite and non-constant.
    """
    n = len(x)
    if len(y) != n:
        raise ValueError(f"sample length mismatch: {n} vs {len(y)}")
    if n < 3:
        raise ValueError(f"pearson requires at least 3 paired samples, got {n}")
    try:
        x, mean_x, sxx = _spread(x, n)
        y, mean_y, syy = _spread(y, n)
    except OverflowError:  # finite samples whose mean or sum of squares overflows
        raise ValueError("correlation undefined: a mean or sum is not finite") from None
    if not (math.isfinite(sxx) and math.isfinite(syy)):  # a nan or infinity in a sample
        raise ValueError("correlation undefined: a sample value is not finite")
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined: at least one variable is constant")
    sxy = math.fsum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    product = sxx * syy
    if sys.float_info.min <= product <= sys.float_info.max:
        r = sxy / math.sqrt(product)
    else:  # the product under- or overflows
        r = sxy / (math.sqrt(sxx) * math.sqrt(syy))
    r = max(-1.0, min(1.0, r))
    df = n - 2
    denom = 1.0 - r * r
    if denom <= 0.0:
        t_stat = math.copysign(math.inf, r)
        p = 0.0
    else:
        t_stat = r * math.sqrt(df / denom)
        p = min(1.0, 2.0 * t_sf(abs(t_stat), df))
    return CorrelationResult(r=r, n=n, t_stat=t_stat, p_two_tailed=p)


def midranks(values: Sequence[float]) -> list[float]:
    """Ranks starting at 1; tied values share the mean of their ranks."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    pos = 0
    for _, group in groupby(order, key=lambda i: values[i]):
        idx = list(group)
        rank = pos + (len(idx) + 1) / 2.0
        for i in idx:
            ranks[i] = rank
        pos += len(idx)
    return ranks


def _exact_u_p(ranks: Sequence[float], n_a: int, u_obs: float) -> float:
    # Two-tailed p by full enumeration of group labelings: the fraction of
    # labelings at least as far from the null mean n_a*n_b/2 as observed.
    # Ranks are multiples of 0.5, so all arithmetic below is exact in floats.
    n = len(ranks)
    mu = n_a * (n - n_a) / 2.0
    dev = abs(u_obs - mu)
    base = n_a * (n_a + 1) / 2.0
    extreme = 0
    total = 0
    for idx in combinations(range(n), n_a):
        u = sum(ranks[i] for i in idx) - base
        if abs(u - mu) >= dev:
            extreme += 1
        total += 1
    return extreme / total


def _normal_approx_u_p(ranks: Sequence[float], n_a: int, n_b: int, u1: float) -> float:
    n = n_a + n_b
    tie_sum = 0
    for _, group in groupby(sorted(ranks)):
        t = len(list(group))
        tie_sum += t**3 - t
    var = (n_a * n_b / 12.0) * ((n + 1) - tie_sum / (n * (n - 1)))
    if var <= 0.0:
        return 1.0  # every pooled value identical
    big_u = max(u1, n_a * n_b - u1)
    z = (big_u - n_a * n_b / 2.0 - 0.5) / math.sqrt(var)  # continuity correction
    z = max(z, 0.0)
    return min(1.0, 2.0 * 0.5 * math.erfc(z / math.sqrt(2.0)))


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> UTestResult:
    """Two-tailed Mann-Whitney U test with mid-rank tie handling.

    Exact p by enumeration of all C(n_a + n_b, n_a) labelings when the pooled
    size is at most EXACT_U_LIMIT; otherwise the normal approximation with
    tie and continuity corrections.
    """
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")
    ranks = midranks(list(a) + list(b))
    rank_sum_a = math.fsum(ranks[:n_a])
    u1 = rank_sum_a - n_a * (n_a + 1) / 2.0
    u2 = n_a * n_b - u1
    if n_a + n_b <= EXACT_U_LIMIT:
        p = _exact_u_p(ranks, n_a, u1)
        method = "exact"
    else:
        p = _normal_approx_u_p(ranks, n_a, n_b, u1)
        method = "normal-approximation"
    return UTestResult(u=min(u1, u2), p_two_tailed=p, method=method, u1=u1, u2=u2)


def ols(x: Sequence[float], y: Sequence[float]) -> TrendLine:
    """Least-squares line of best fit through (x, y) pairs."""
    n = len(x)
    if len(y) != n:
        raise ValueError(f"sample length mismatch: {n} vs {len(y)}")
    if n < 2:
        raise ValueError(f"ols requires at least 2 points, got {n}")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    sxx = math.fsum((xi - mean_x) ** 2 for xi in x)
    if sxx == 0.0:
        raise ValueError("ols undefined: x is constant")
    if min(y) == max(y):  # flat whatever the x gaps; the rounded means need not say so
        return TrendLine(slope=0.0, intercept=y[0], n_points=n)
    sxy = math.fsum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    slope = sxy / sxx
    return TrendLine(slope=slope, intercept=mean_y - slope * mean_x, n_points=n)


def p_stars(p: float | None) -> str:
    """Significance markers used in the report tables: * p<.05, ** p<.01."""
    if p is None:
        return ""
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""
