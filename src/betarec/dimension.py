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
from typing import Optional, Sequence

import numpy as np

from .cantor import CantorPlan
from .expansion import BetaContext
from .numerics import _as_fraction
from .recurrence import OrbitView


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
    boxcount_slope: Optional[float] = None
    boxcount_ci: Optional[tuple[float, float]] = None

    def to_json_dict(self) -> dict:
        return {
            "formula_value": self.formula_value,
            "series_values": [str(v) for v in self.series_values],
            "series_floats": [float(v) for v in self.series_values],
            "mu_log_ratios": [[a, b] for a, b in self.mu_log_ratios],
            "boxcount_slope": self.boxcount_slope,
            "boxcount_ci": list(self.boxcount_ci) if self.boxcount_ci else None,
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


def boxcount(points: Sequence[OrbitView], ctx: BetaContext,
             n_range: Sequence[int], bootstrap: int = 200,
             seed: int = 0) -> BoxCount:
    """Least-squares slope of log(#distinct n-prefixes) against n log(beta).

    The digit prefixes of the points are the order-n cylinder labels, so the
    count is the number of occupied cylinders.  A bootstrap over points gives
    the confidence interval.  Advisory only: convergence is slow.
    """
    n_range = sorted(set(int(n) for n in n_range))
    if not n_range or n_range[0] < 1:
        raise ValueError("n_range must contain positive depths")
    need = n_range[-1]
    prefixes = []
    for v in points:
        if v.ensure(need) < need:
            raise ValueError("insufficient digit depth for box counting")
        prefixes.append(tuple(v.digits(need)))
    if not prefixes:
        raise ValueError("no points to box-count: the point set is empty")
    log_beta = math.log(ctx.beta_float())
    xs = np.array([n * log_beta for n in n_range])

    def slope_of(sample: list[tuple[int, ...]]) -> tuple[float, list[int]]:
        counts = [len({p[:n] for p in sample}) for n in n_range]
        ys = np.log(np.array(counts, dtype=float))
        a = np.vstack([xs, np.ones_like(xs)]).T
        coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
        return float(coef[0]), counts

    slope, counts = slope_of(prefixes)
    rng = np.random.default_rng(seed)
    boots = []
    for _ in range(bootstrap):
        idx = rng.integers(0, len(prefixes), size=len(prefixes))
        boots.append(slope_of([prefixes[i] for i in idx])[0])
    lo, hi = (float(np.percentile(boots, 2.5)),
              float(np.percentile(boots, 97.5))) if boots else (slope, slope)
    return BoxCount(slope=slope, ci=(lo, hi), counts=counts,
                    n_range=tuple(n_range))
