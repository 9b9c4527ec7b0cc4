import random
from fractions import Fraction

import pytest

from betarec.numerics import (
    BoundedReal,
    IndeterminateSignError,
    NoBracketError,
    Ordering,
    bisect_root,
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

    def test_compare(self):
        assert BoundedReal.exact(0).compare(BoundedReal.exact(1)) is Ordering.LESS
        a = BoundedReal(Fraction(1), Fraction(1, 2))
        b = BoundedReal(Fraction(6, 5), Fraction(1, 2))
        assert a.compare(b) is Ordering.INDETERMINATE
        lo = BoundedReal.exact(Fraction(1, 32))
        hi = BoundedReal.exact(Fraction(1, 16))
        assert lo.compare(hi) is Ordering.LESS
        assert hi.compare(lo) is Ordering.GREATER

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
        root = bisect_root(lambda x: x * x - x - 1, 1, 2, tol)
        lo, hi = golden_ratio_oracle()
        assert lo - 2 * tol <= root <= hi + 2 * tol

    def test_cubic(self):
        tol = Fraction(1, 10**14)
        root = bisect_root(lambda x: x**3 - x**2 - 1, 1, 2, tol)
        oracle = newton_cubic_oracle()
        assert abs(root - oracle) < Fraction(1, 10**12)
        assert abs(float(root) - 1.4655712318767682) < 1e-12

    def test_linear(self):
        root = bisect_root(lambda x: x - 1, Fraction(1, 2), 2, Fraction(1, 10**12))
        assert abs(root - 1) <= Fraction(1, 10**12)

    def test_no_bracket(self):
        with pytest.raises(NoBracketError):
            bisect_root(lambda x: x * x + 1, 0, 1, Fraction(1, 100))

    def test_residual_bound(self):
        # |f(root)| <= f'(hi) * 2 * tol for increasing f
        tol = Fraction(1, 10**10)
        f = lambda x: x**3 - x**2 - 1
        root = bisect_root(f, 1, 2, tol)
        dmax = 3 * Fraction(2) ** 2 - 2 * Fraction(2)
        assert abs(f(root)) <= dmax * 2 * tol
