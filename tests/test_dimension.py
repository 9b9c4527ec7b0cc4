import math
import random
from fractions import Fraction

import pytest

from betarec.cantor import build_plan, plan_sequences
from betarec.dimension import (
    boxcount,
    dim_prescribed,
    dim_uniform,
    is_countable_pair,
    local_dimension_series,
    maximizer,
)
from betarec.expansion import BetaContext
from betarec.recurrence import OrbitView


class TestFormulas:
    def test_pair_example(self):
        assert abs(dim_prescribed(Fraction(1, 3), 2) - 0.2) < 1e-15

    def test_pair_at_zero_uniform(self):
        for r in (0.5, 1, 2, 5):
            assert abs(dim_prescribed(0, r) - 1 / (1 + r)) < 1e-12

    def test_pair_vanishes_on_boundary(self):
        assert dim_prescribed(Fraction(1, 3), Fraction(1, 2)) == 0.0
        assert dim_prescribed(0.25, math.inf) == 0.0

    def test_countable_regime(self):
        assert is_countable_pair(0.6, 1)
        assert dim_prescribed(0.6, 1) == 0.0
        assert not is_countable_pair(0.5, 1)

    def test_countable_regime_at_infinity(self):
        # at r = inf the boundary r / (1 + r) is 1; r_hat = inf is countable
        assert is_countable_pair(2, math.inf)
        assert not is_countable_pair(1, math.inf)
        assert is_countable_pair(math.inf, 1)
        assert is_countable_pair(math.inf, math.inf)
        assert dim_prescribed(math.inf, 1) == 0.0

    def test_uniform(self):
        assert dim_uniform(0) == 1.0
        assert dim_uniform(1) == 0.0
        assert abs(dim_uniform(Fraction(1, 3)) - 0.25) < 1e-15
        assert dim_uniform(1.5) == 0.0

    def test_maximizer_identity(self):
        assert abs(maximizer(Fraction(1, 3)) - 1) < 1e-15
        assert abs(dim_prescribed(Fraction(1, 3), 1) - 0.25) < 1e-15
        for i in range(1, 100):
            rh = Fraction(i, 100)
            rstar = Fraction(2 * rh, 1 - rh) if rh != 1 else math.inf
            assert abs(dim_prescribed(rh, rstar) - dim_uniform(rh)) < 1e-12

    def test_maximizer_is_argmax(self):
        rh = Fraction(3, 10)
        rstar = maximizer(rh)
        best = dim_prescribed(rh, rstar)
        for r in [rstar * s for s in (0.6, 0.8, 1.2, 1.6, 2.5)]:
            if is_countable_pair(rh, r):
                continue
            assert dim_prescribed(rh, r) <= best + 1e-12

    def test_monotone_in_uniform_exponent(self):
        r = 1.5
        values = [dim_prescribed(Fraction(i, 100), r)
                  for i in range(0, 61)]  # up to r/(1+r) = 0.6
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestSeries:
    def test_geometric_closed_form(self):
        # plain geometric scales: gaps 3*5^j against m_k = 2*5^k give 3/8
        n, m = plan_sequences("0.2", "1", 20)
        k = 20
        total = sum(n[j + 1] - m[j] for j in range(k - 1))
        value = Fraction(total, m[k - 1])
        assert abs(value - Fraction(3, 8)) < Fraction(1, 10**6)

    def test_plan_report(self):
        ctx = BetaContext.from_value("2.5")
        plan = build_plan(ctx, "0.2", "1", delta="0.5", K=6, seed=1)
        report = local_dimension_series(plan, 6)
        assert abs(report.formula_value - 0.375) < 1e-15
        assert abs(float(report.series_values[-1]) - 0.375) < 2e-3
        lo, hi = report.mu_log_ratios[-1]
        assert lo <= hi
        # the mass/length ratio limit carries the (1 - delta) defect
        assert lo > (1 - float(plan.delta)) * 0.375 - 0.1
        assert hi < 0.375 + 0.1

    def test_sequence_ratio_limits(self):
        n, m = plan_sequences("0.2", "1", 16)
        k = 15
        assert abs(n[k] / m[k] - 0.5) < 1e-3          # 1/(1+r)
        assert abs(m[k] / m[k - 1] - 5.0) < 1e-3      # r/r_hat


class TestBoxcount:
    def test_uniform_points_have_dimension_one(self):
        ctx = BetaContext.from_value(2)
        rng = random.Random(6)
        pts = [OrbitView.from_digits(ctx, [rng.randint(0, 1) for _ in range(40)])
               for _ in range(1500)]
        res = boxcount(pts, ctx, range(2, 9), bootstrap=50, seed=1)
        assert abs(res.slope - 1.0) < 0.05

    def test_single_point_slope_zero(self):
        ctx = BetaContext.from_value(2)
        pts = [OrbitView.from_digits(ctx, [1, 0] * 20)]
        res = boxcount(pts, ctx, range(2, 9), bootstrap=10, seed=1)
        assert abs(res.slope) < 1e-9

    def test_insufficient_depth(self):
        ctx = BetaContext.from_value(2)
        pts = [OrbitView.from_digits(ctx, [1, 0, 1])]
        with pytest.raises(ValueError):
            boxcount(pts, ctx, range(2, 9))

    def test_empty_point_set(self):
        with pytest.raises(ValueError, match="point set is empty"):
            boxcount([], BetaContext.from_value(2), range(2, 9))

    def test_range_and_bootstrap_checks(self):
        ctx = BetaContext.from_value(2)
        pts = [OrbitView.from_digits(ctx, [1, 0] * 5)]
        with pytest.raises(ValueError, match=r"two distinct depths, got \[4\]"):
            boxcount(pts, ctx, [4, 4])
        with pytest.raises(ValueError, match=r"two distinct depths, got \[\]"):
            boxcount(pts, ctx, range(5, 3))
        with pytest.raises(ValueError, match="depths must be at least 1, got 0"):
            boxcount(pts, ctx, range(0, 4))
        with pytest.raises(ValueError, match="bootstrap must be non-negative, got -1"):
            boxcount(pts, ctx, range(2, 5), bootstrap=-1)

    def test_any_iterable_of_views(self):
        ctx = BetaContext.from_value(2)
        rows = [[1, 0, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 1]]
        listed = boxcount([OrbitView.from_digits(ctx, r) for r in rows], ctx, range(1, 7))
        drawn = boxcount((OrbitView.from_digits(ctx, r) for r in rows), ctx, iter(range(1, 7)))
        assert drawn == listed
        assert listed.counts == [2, 3, 3, 3, 3, 3]
