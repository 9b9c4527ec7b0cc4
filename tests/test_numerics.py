import random
from fractions import Fraction

import pytest

from betarec.numerics import BoundedReal, IndeterminateSignError


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

