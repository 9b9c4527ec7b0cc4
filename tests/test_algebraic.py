import re
import time
from fractions import Fraction

import pytest

from betarec.algebraic import (
    PRECISION_CAP_BITS,
    PrecisionError,
    ReduciblePolynomialError,
    RootBracket,
    floor_element,
    scaled_value,
)
from betarec.expansion import BetaContext


def golden_bracket():
    return RootBracket((-1, -1, 1), Fraction(1), Fraction(2))


def test_interval_that_leaves_the_bracket_keeps_power_bounds():
    root = golden_bracket()
    built = []
    for _ in range(2):
        root.interval(96)
        built.append(root.power_bounds(64))
    assert built[1] is built[0]  # built once, then served from the cache


def test_power_bounds_kept_after_finer_reads():
    root = golden_bracket()
    coarse = root.power_bounds(32)
    root.interval(96)
    root.power_bounds(1024)
    assert root.power_bounds(32) is coarse
    assert coarse == golden_bracket().power_bounds(32)
    assert root == golden_bracket() and "_bounds" not in repr(root)


def test_bounds_are_the_first_bisection_step_at_each_width():
    root = golden_bracket()
    for bits in (400, 64, 0, 1, 192, 65):
        lo, hi = root.bounds(bits)
        # bisection of [1, 2] halves the width exactly, so the first bracket
        # narrow enough has width exactly 2**-bits
        assert hi - lo == Fraction(1, 1 << bits)
        assert (scaled_value(root.poly, lo.numerator, lo.denominator) < 0
                < scaled_value(root.poly, hi.numerator, hi.denominator))
        assert (lo, hi) == golden_bracket().bounds(bits)
    assert (root.lo, root.hi) == (1, 2)


def test_escalating_floor_leaves_coarser_reads_alone():
    # F(301) - F(300) phi = psi**300, positive and about 2**-208, so its floor
    # (0) needs more than 384 bits of phi
    fib = [0, 1]
    while len(fib) < 302:
        fib.append(fib[-1] + fib[-2])
    root = golden_bracket()
    at_192 = root.bounds(192), root.power_bounds(192)
    assert floor_element([fib[301], -fib[300]], 1, root, 192) == 0
    assert 768 in root._bounds
    assert root.bounds(192) is at_192[0] and root.power_bounds(192) is at_192[1]


def fibonacci_pair(n):
    """(F(n), F(n + 1)) by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = fibonacci_pair(n >> 1)
    c, d = a * (2 * b - a), a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


def test_floor_escalates_to_the_cap_and_raises_past_it():
    # F(n+1) - F(n) phi = psi**n with psi = -1/phi: for even n a positive
    # value near 2**(-0.694 n) beside coefficients of 0.694 n bits, so its
    # floor needs about 1.39 n bits of phi: 55,540 for n = 40,000 and
    # 138,850, past the cap, for n = 100,000
    root = golden_bracket()
    f_n, f_next = fibonacci_pair(40_000)
    assert floor_element([f_next, -f_n], 1, root, 192) == 0
    assert max(root._bounds) == PRECISION_CAP_BITS
    f_n, f_next = fibonacci_pair(100_000)
    with pytest.raises(PrecisionError):
        floor_element([f_next, -f_n], 1, root, 192)


def test_degenerate_brackets():
    assert RootBracket((-4, 0, 1), Fraction(2), Fraction(3)).bounds(64) == (2, 2)
    root = RootBracket((-4, 0, 1), Fraction(1), Fraction(3))
    assert root.bounds(8) == (2, 2)  # the first midpoint is the root
    assert root.bounds(16) == (2, 2)  # resumed from the degenerate bracket
    assert (root.lo, root.hi) == (1, 3)


def test_reducible_polynomials_raise_a_typed_error():
    # (x^2 - x - 1)(x - 5) on [1, 2] and (x - 2)(x + 1) on [3/2, 3]: the
    # expansion of 1 meets an element equal to an integer, which the
    # coefficient test misses; the floor finds the shared factor at once
    assert issubclass(ReduciblePolynomialError, ValueError)
    for poly, lo, hi in (((5, 4, -6, 1), 1, 2), ((-2, -1, 1), Fraction(3, 2), 3)):
        bracket = RootBracket(poly, Fraction(lo), Fraction(hi))
        start = time.perf_counter()
        with pytest.raises(ReduciblePolynomialError, match=re.escape(str(poly))):
            BetaContext(bracket)
        assert time.perf_counter() - start < 0.05
        assert max(bracket._bounds) <= 192  # no precision was doubled


def test_a_shared_factor_without_the_root_is_no_equality():
    # (x + 1)(x^2 - x - 1) on [1, 2] and 3 + (beta + 1)(F(61) - F(60) beta),
    # 3 + (phi + 1) psi**60 with psi = -1/phi: the bracket straddles 3 at 64
    # bits, and the element minus 3 shares x + 1 with the polynomial, but
    # that factor's root -1 is outside the bracket, so the floor goes on
    root = RootBracket((-1, -2, 0, 1), Fraction(1), Fraction(2))
    f_n, f_next = fibonacci_pair(60)
    vec = [3 + f_next, f_next - f_n, -f_n]
    assert floor_element(vec, 1, root, 64) == 3
    assert max(root._bounds) > 64
