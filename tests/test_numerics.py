import random
from fractions import Fraction

import pytest

from betarec.numerics import (
    BoundedReal,
    IndeterminateSignError,
    NoBracketError,
    bisect_root_bounds,
)


def golden_ratio_oracle(digits=40):
    """(1 + sqrt(5)) / 2 via integer square root, independent of bisection."""
    scale = 10 ** digits
    s = Fraction(__import__("math").isqrt(5 * scale * scale), scale)
    # s <= sqrt(5) < s + 1/scale
    return (1 + s) / 2, (1 + s + Fraction(1, scale)) / 2


def newton_cubic_oracle(iters=80):
    """Root of x^3 - x^2 - 1 by Newton iteration on exact rationals."""
    x = Fraction(3, 2)
    for _ in range(iters):
        f = x**3 - x**2 - 1
        df = 3 * x**2 - 2 * x
        x = x - f / df
        x = x.limit_denominator(10**80)
    return x


class TestBoundedReal:
    def test_add_exact(self):
        r = BoundedReal.exact(1) + BoundedReal.exact(1)
        assert r.center == 2 and r.radius == 0

    def test_sub_same_interval_doubles_radius(self):
        x = BoundedReal(Fraction(1), Fraction(1, 8))
        r = x - x
        assert r.center == 0 and r.radius == Fraction(1, 4)

    def test_mul_encloses_corner_products(self):
        a = BoundedReal(Fraction(2), Fraction(1, 10))
        b = BoundedReal(Fraction(3), Fraction(1, 10))
        r = a * b
        for fa in (a.lo, a.hi):
            for fb in (b.lo, b.hi):
                assert r.contains(fa * fb)
        # the spec's coarse bound 6 +- 0.51 must contain our tighter interval
        assert Fraction(6) - Fraction(51, 100) <= r.lo
        assert r.hi <= Fraction(6) + Fraction(51, 100)

    def test_div_by_zero_straddling_interval(self):
        with pytest.raises(IndeterminateSignError):
            BoundedReal.exact(1) / BoundedReal(Fraction(0), Fraction(1))

    def test_shrink_contains_original(self):
        x = BoundedReal(Fraction(1, 3), Fraction(1, 7))
        y = x.shrink(32)
        assert y.lo <= x.lo and x.hi <= y.hi
        assert y.hi - y.lo <= (x.hi - x.lo) + Fraction(2, 1 << 32)

    def test_powi(self):
        x = BoundedReal.exact(Fraction(5, 2))
        assert x.powi(3).center == Fraction(125, 8)
        assert x.powi(-2).center == Fraction(4, 25)

    def test_enclosure_random_rationals(self):
        # exact values drawn inside the operand intervals stay inside the result
        rng = random.Random(20240811)
        ops = 0
        while ops < 10_000:
            ac = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            bc = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            ar = Fraction(rng.randint(0, 30), rng.randint(20, 50))
            br = Fraction(rng.randint(0, 30), rng.randint(20, 50))
            a = BoundedReal(ac, ar)
            b = BoundedReal(bc, br)
            ta = a.lo + (a.hi - a.lo) * Fraction(rng.randint(0, 16), 16)
            tb = b.lo + (b.hi - b.lo) * Fraction(rng.randint(0, 16), 16)
            assert (a + b).contains(ta + tb)
            assert (a - b).contains(ta - tb)
            assert (a * b).contains(ta * tb)
            ops += 3
            if b.lo > 0 or b.hi < 0:
                assert (a / b).contains(ta / tb)
                ops += 1
            k = rng.randint(-6, 9)
            if k >= 0 or a.lo > 0 or a.hi < 0:
                assert a.powi(k).contains(ta ** k)
            else:
                with pytest.raises(IndeterminateSignError):
                    a.powi(k)
            ops += 1


class TestBisect:
    def test_golden_ratio(self):
        tol = Fraction(1, 10**14)
        blo, bhi = bisect_root_bounds(lambda x: x * x - x - 1, 1, 2, tol)
        lo, hi = golden_ratio_oracle()
        assert bhi - blo <= 2 * tol
        assert blo <= hi and lo <= bhi  # the bracket meets the oracle's

    def test_cubic(self):
        tol = Fraction(1, 10**14)
        blo, bhi = bisect_root_bounds(lambda x: x**3 - x**2 - 1, 1, 2, tol)
        oracle = newton_cubic_oracle()
        assert bhi - blo <= 2 * tol
        assert blo - Fraction(1, 10**12) < oracle < bhi + Fraction(1, 10**12)
        assert abs(float(blo) - 1.4655712318767682) < 1e-12

    def test_linear(self):
        tol = Fraction(1, 10**12)
        blo, bhi = bisect_root_bounds(lambda x: x - 1, Fraction(1, 2), 2, tol)
        assert blo <= 1 <= bhi and bhi - blo <= 2 * tol

    def test_no_bracket(self):
        with pytest.raises(NoBracketError):
            bisect_root_bounds(lambda x: x * x + 1, 0, 1, Fraction(1, 100))

    def test_residual_bound(self):
        # |f| <= f'(2) * 2 * tol across the bracket, for increasing f on [1, 2]
        tol = Fraction(1, 10**10)
        f = lambda x: x**3 - x**2 - 1
        blo, bhi = bisect_root_bounds(f, 1, 2, tol)
        assert f(blo) <= 0 <= f(bhi)
        dmax = 3 * Fraction(2) ** 2 - 2 * Fraction(2)
        assert max(abs(f(blo)), abs(f(bhi))) <= dmax * 2 * tol
