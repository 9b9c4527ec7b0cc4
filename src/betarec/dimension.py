"""Dimension values for prescribed recurrence exponents.

Closed forms: the set of points with asymptotic exponent r and uniform
exponent r_hat has Hausdorff dimension (r - (1+r) r_hat) / ((1+r)(r - r_hat))
inside the admissible region r_hat <= r/(1+r); prescribing only the uniform
exponent gives ((1 - r_hat)/(1 + r_hat))^2, attained at r = 2 r_hat/(1-r_hat).

The combinatorial route: for a construction plan, mass over cylinder-length
ratios converge to the closed form, computable exactly from the plan's
sequences and counts.  Box counting is provided as a loose empirical
cross-check only; it converges far too slowly to gate anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .cantor import CantorPlan
from .expansion import BetaContext
from .numerics import _as_fraction
from .recurrence import OrbitView, _digit_dtype


def is_countable_pair(r_hat, r) -> bool:
    """True when the exponent pair can only be realised on a countable set."""
    if r_hat == math.inf:
        return True
    r_hat = _as_fraction(r_hat)
    if r == math.inf:
        return r_hat > 1  # the limit of the boundary r / (1 + r)
    r = _as_fraction(r)
    return r_hat > r / (1 + r)


def dim_prescribed(r_hat, r) -> float:
    """Dimension of the set with both recurrence exponents prescribed.

    Zero in the countable regime (r_hat = infinity included) and at
    r = infinity; the formula value (r - (1+r) r_hat) / ((1+r)(r - r_hat))
    otherwise.
    """
    if r == math.inf or r_hat == math.inf:
        return 0.0
    r_hat = _as_fraction(r_hat)
    r = _as_fraction(r)
    if r_hat < 0 or r <= 0:
        raise ValueError("need r > 0 and r_hat >= 0")
    if r_hat > r / (1 + r):
        return 0.0
    value = (r - (1 + r) * r_hat) / ((1 + r) * (r - r_hat))
    return float(value)


def dim_uniform(r_hat) -> float:
    """Dimension of the set with prescribed uniform exponent r_hat."""
    if r_hat == math.inf:
        return 0.0
    r_hat = _as_fraction(r_hat)
    if r_hat < 0:
        raise ValueError("r_hat must be non-negative")
    if r_hat > 1:
        return 0.0
    return float(((1 - r_hat) / (1 + r_hat)) ** 2)


def maximizer(r_hat) -> float:
    """The asymptotic exponent maximising the pair dimension at fixed r_hat.

    Returns 2 r_hat / (1 - r_hat); infinity at r_hat = 1 (the dimension
    degenerates to zero there from both sides).
    """
    if r_hat == math.inf:
        raise ValueError("r_hat must be finite")
    r_hat = _as_fraction(r_hat)
    if not (0 <= r_hat <= 1):
        raise ValueError("r_hat must lie in [0, 1]")
    if r_hat == 1:
        return math.inf
    return float(2 * r_hat / (1 - r_hat))


# ---------------------------------------------------------------------------
# plan-based local dimension
# ---------------------------------------------------------------------------


@dataclass
class DimReport:
    """Exact finite-k dimension data for one construction plan.

    series_values[k-1] = sum_(j<k) (n_(j+1) - m_j) / m_k, the combinatorial
    series whose limit is the closed-form value.  mu_log_ratios[k-1] brackets
    log(mass)/log(length) for level-k cylinders using the two-sided cylinder
    length bounds; its limit carries the (1 - delta) defect of the plan.
    """

    formula_value: float
    series_values: list[Fraction]
    mu_log_ratios: list[tuple[float, float]]

    def to_json_dict(self) -> dict:
        return {
            "formula_value": self.formula_value,
            "series_values": [str(v) for v in self.series_values],
            "series_floats": [float(v) for v in self.series_values],
            "mu_log_ratios": [[a, b] for a, b in self.mu_log_ratios],
        }


def local_dimension_series(plan: CantorPlan, k_max: int) -> DimReport:
    """Exact series and mass/length log-ratios for the first k_max levels."""
    if k_max < 1 or k_max > plan.levels:
        raise ValueError("k_max out of range for this plan")
    series: list[Fraction] = []
    for k in range(1, k_max + 1):
        total = sum(plan.n_seq[j + 1] - plan.m_seq[j] for j in range(k - 1))
        series.append(Fraction(total, plan.m_seq[k - 1]))
    pool = plan.pool_for(plan.seed_word).size
    d1 = plan.d1_size()
    log_beta = math.log(plan.ctx.beta_float())
    ratios: list[tuple[float, float]] = []
    log_mass = math.log(d1)
    for k in range(1, k_max + 1):
        if k >= 2:
            log_mass += plan.t_seq[k - 2] * math.log(pool)
        m_k = plan.m_seq[k - 1]
        lo = log_mass / ((m_k + plan.N) * log_beta)
        hi = log_mass / (m_k * log_beta)
        ratios.append((lo, hi))
    return DimReport(
        formula_value=dim_prescribed(plan.r_hat, plan.r),
        series_values=series,
        mu_log_ratios=ratios,
    )


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------


@dataclass
class BoxCount:
    slope: float
    ci: tuple[float, float]
    counts: list[int] = field(repr=False, default_factory=list)
    n_range: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "ci": list(self.ci),
            "n_range": list(self.n_range),
            "counts": self.counts,
        }


def _prefix_ranks(digits: np.ndarray, depths: list[int]) -> np.ndarray:
    """ids[j, i]: the rank of point i's depths[j]-prefix among the distinct
    depths[j]-prefixes, in lexicographic order.

    One lexsort of the digit rows; sorted neighbours share a prefix of
    length n exactly when their common-prefix length is at least n, so a
    new rank starts wherever that length falls below n.
    """
    order = np.lexsort(digits.T[::-1])
    rows = digits[order]
    differ = rows[1:] != rows[:-1]
    common = np.where(differ.any(axis=1), differ.argmax(axis=1), digits.shape[1])
    ids = np.empty((len(depths), len(order)), dtype=np.int32)
    ids[:, order[0]] = 0
    for j, n in enumerate(depths):
        ids[j, order[1:]] = np.cumsum(common < n)
    return ids


def boxcount(points: Iterable[OrbitView], ctx: BetaContext,
             n_range: Iterable[int], bootstrap: int = 200,
             seed: int = 0) -> BoxCount:
    """Least-squares slope of log(#distinct n-prefixes) against n log(beta).

    The digit prefixes of the points are the order-n cylinder labels, so the
    count is the number of occupied cylinders.  The prefixes are sorted once
    and each point gets its prefix rank at every depth, so a count is the
    number of distinct ranks.  n_range needs two distinct depths, all at
    least 1; points may be any iterable of views, each at least max(n_range)
    digits deep.  Advisory only: convergence is slow.

    ``ci`` is the 2.5 and 97.5 percentiles of ``bootstrap`` resampled slopes
    (seeded by ``seed``; 0 gives (slope, slope)).  A resample repeats points,
    so it occupies fewer cylinders than the sample and its counts are biased
    low, the more so at the deep end where most cylinders hold one point: the
    interval is not a confidence interval for the slope and need not contain
    it (the README's ``dim boxcount`` prints slope 0.2230 with CI
    [0.2211, 0.2223]).
    """
    depths = sorted(set(int(n) for n in n_range))
    if len(depths) < 2:
        raise ValueError(f"n_range needs at least two distinct depths, got {depths}")
    if depths[0] < 1:
        raise ValueError(f"depths must be at least 1, got {depths[0]}")
    if bootstrap < 0:
        raise ValueError(f"bootstrap must be non-negative, got {bootstrap}")
    need = depths[-1]
    views = list(points)
    digits = np.empty((len(views), need), dtype=_digit_dtype(ctx))
    for i, v in enumerate(views):
        if v.ensure(need) < need:
            raise ValueError("insufficient digit depth for box counting")
        digits[i] = v._digit_array()[:need]
    if not views:
        raise ValueError("no points to box-count: the point set is empty")
    ids = _prefix_ranks(digits, depths)
    log_beta = math.log(ctx.beta_float())
    xs = np.array([n * log_beta for n in depths])
    a = np.vstack([xs, np.ones_like(xs)]).T

    def slope_of(counts: list[int]) -> float:
        coef, *_ = np.linalg.lstsq(a, np.log(np.array(counts, dtype=float)), rcond=None)
        return float(coef[0])

    counts = [int(row.max()) + 1 for row in ids]
    slope = slope_of(counts)
    rng = np.random.default_rng(seed)
    boots = []
    for _ in range(bootstrap):
        idx = rng.integers(0, len(views), size=len(views))
        boots.append(slope_of([np.count_nonzero(np.bincount(row[idx])) for row in ids]))
    lo, hi = (float(np.percentile(boots, 2.5)),
              float(np.percentile(boots, 97.5))) if boots else (slope, slope)
    return BoxCount(slope=slope, ci=(lo, hi), counts=counts, n_range=tuple(depths))
