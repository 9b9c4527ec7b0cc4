"""Exact arithmetic helpers for bases that are roots of monic integer polynomials.

A base given as a root of a monic integer polynomial admits exact orbit
computation: points of the orbit are elements of Q(beta), stored as integer
coefficient vectors over a shared denominator in the basis 1, beta, ...,
beta^(d-1).

The root is held by a ``RootBracket`` that never changes: an enclosure of the
root at a precision of ``bits`` is the first bracket of width <= 2**-bits that
bisection of the isolating bracket reaches, so it depends only on the
polynomial, the isolating bracket and ``bits``, never on what was read before.
It is computed directly, as a grid cell that two exact sign tests certify.

``floor_element`` is the one certified decision over such elements.  It
evaluates the element on the root's enclosure, doubling the precision until
the floor is certain; the only time no enclosure can decide is when the
value is exactly an integer, and that case is decided exactly by a
coefficient test (``ReduciblePolynomialError`` when it finds the polynomial
reducible).  Digits, signs (floor < 0) and comparisons with 1 (floor 0, or
floor 1 with a zero remainder) all reduce to it.  Past
``PRECISION_CAP_BITS`` it raises ``PrecisionError``.

Everything here is internal plumbing for the exact elements of Q(beta) in
``expansion``, which every other layer uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .numerics import BoundedReal

PRECISION_CAP_BITS = 1 << 16


class PrecisionError(ArithmeticError):
    """Raised when a certified floor is still undecided at the precision cap."""


class ReduciblePolynomialError(ValueError):
    """Raised when a base's polynomial turns out reducible over Q."""


def _gcd(p: tuple[int, ...], q: list[int]) -> list[Fraction]:
    """A greatest common divisor over Q of the polynomials p and q
    (coefficients constant term first, q not zero), by Euclid's algorithm."""
    a, b = list(map(Fraction, p)), list(map(Fraction, q))
    while any(b):
        while not b[-1]:
            b.pop()
        while len(a) >= len(b):  # a <- a mod b
            f = a.pop() / b[-1]
            for i, c in enumerate(b[:-1], len(a) - len(b) + 1):
                a[i] -= f * c
        a, b = b, a
    return a


def _divide_monic(p: tuple[int, ...], m: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
    """The quotient of p by the monic m (coefficients constant term first,
    len(p) >= len(m)), in integers, and whether m divides p exactly."""
    rem = list(p)
    top = len(m) - 1
    quot = [0] * (len(p) - top)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + top]
        if c:
            for j, mj in enumerate(m):
                rem[i + j] -= c * mj
    return tuple(quot), not any(rem[:top])


@functools.cache
def _cyclotomic(k: int) -> tuple[int, ...]:
    """Phi_k: x^k - 1 divided by Phi_d for every proper divisor d of k."""
    poly = (-1,) + (0,) * (k - 1) + (1,)
    for d in range(1, k):
        if k % d == 0:
            poly = _divide_monic(poly, _cyclotomic(d))[0]
    return poly


def _totient_at_most(n: int) -> list[int]:
    """Every k with Euler's phi(k) <= n.  A prime p divides such a k only
    if p - 1 <= n, and phi(p^a) = p^(a-1) (p - 1) is multiplicative, so
    these k are the products of powers of such primes with phi <= n."""
    primes = [p for p in range(2, n + 2) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    found = [1]

    def grow(k: int, phi: int, i: int) -> None:
        for j in range(i, len(primes)):
            kp, fp = k * primes[j], phi * (primes[j] - 1)
            if fp > n:
                return  # the primes increase, and so does p - 1
            while fp <= n:
                found.append(kp)
                grow(kp, fp, j + 1)
                kp, fp = kp * primes[j], fp * primes[j]
    grow(1, 1, 0)
    return sorted(found)


def strip_cyclotomic(poly: tuple[int, ...]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """poly divided by every cyclotomic polynomial that divides it, as often
    as it does, and the factors divided out, in order.

    poly is monic, constant term first.  Phi_k has degree phi(k), so only
    the k with phi(k) at most the degree of poly are tried.
    """
    removed = []
    for k in _totient_at_most(len(poly) - 1):
        phi = _cyclotomic(k)
        while len(phi) <= len(poly):
            quot, exact = _divide_monic(poly, phi)
            if not exact:
                break
            poly = quot
            removed.append(phi)
    return poly, removed


def scaled_value(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """den**d * sum(coeffs[i] * (num/den)**i) for d = len(coeffs) - 1, exact;
    for den > 0 it has the sign of the polynomial at num/den."""
    acc, scale = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc


def _newton(poly: tuple[int, ...], x: Fraction, bits: int) -> Fraction:
    """Newton's method for a root of poly from x, to about 2**-bits with no
    guarantee.  On integers at scale 2**p the step x - p(x)/p'(x) is
    X - (2**(p*d) p(x)) // (2**(p*(d-1)) p'(x)); p starts at 64 and grows
    to about twice the bits that a step leaves settled."""
    slope_poly = tuple(i * c for i, c in enumerate(poly))[1:]
    p = 64
    x = (x * (1 << p)).__floor__()
    for _ in range(4 * bits.bit_length() + 64):
        slope = scaled_value(slope_poly, x, 1 << p)
        if slope == 0:
            break
        step = scaled_value(poly, x, 1 << p) // slope
        x -= step
        settled = 2 * (p - abs(step).bit_length()) - 8
        if settled > p:
            if p >= bits:
                break
            x, p = x << (min(settled, bits) - p), min(settled, bits)
    return Fraction(x, 1 << p)


def multiply_by_root(vec: list[int], poly: tuple[int, ...]) -> list[int]:
    """Multiply an element (integer coefficient vector) by the root of poly.

    poly must be monic: poly[-1] == 1, degree d = len(poly) - 1, and vec has
    length d.  Uses x**d = -(poly[0] + ... + poly[d-1] x**(d-1)).
    """
    d = len(poly) - 1
    top = vec[d - 1]
    out = [0] * d
    for i in range(d - 1, 0, -1):
        out[i] = vec[i - 1] - top * poly[i]
    out[0] = -top * poly[0]
    return out


@dataclass
class RootBracket:
    """An isolating rational bracket [lo, hi] for the unique root of poly inside it.

    poly must be irreducible over Q, the minimal polynomial of its root:
    the exact decisions on elements read their coefficients, which are
    unique only then.  A reducible poly, such as (x^2 - x - 1)(x - 5) on
    [1, 2], is found when an element that equals an integer first reaches
    ``floor_element``, which raises ``ReduciblePolynomialError``.

    The endpoints carry opposite signs of poly, or are both the root, and
    never change after construction.  ``bounds(bits)`` is the bisection of
    [lo, hi] to width 2**-bits; the bisection sequence is unique, so every
    enclosure and power bound read from it is a function of bits alone.
    """

    poly: tuple[int, ...]
    lo: Fraction
    hi: Fraction
    _bounds: dict = field(default_factory=dict, repr=False, compare=False)
    _pow_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.poly[-1] != 1:
            raise ValueError("polynomial must be monic")
        slo = scaled_value(self.poly, self.lo.numerator, self.lo.denominator)
        shi = scaled_value(self.poly, self.hi.numerator, self.hi.denominator)
        if slo == 0:
            self.hi = self.lo
        elif shi == 0:
            self.lo = self.hi
        elif (slo > 0) == (shi > 0):
            raise ValueError("endpoints do not bracket a root")

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        """The first bracket of width <= 2**-bits in the bisection of [lo, hi].

        For w = hi - lo and the least k with w/2**k <= 2**-bits, that is the
        cell [lo + j*w/2**k, lo + (j+1)*w/2**k] of the root, or (root, root)
        when bisection meets the root as a grid point.  Past 64 bits Newton's
        method from the 64-bit bracket guesses j and the strict signs of poly
        at the cell's ends certify it; else a search over j with the same
        exact signs, galloping from the guess, then halving, finds the cell.
        """
        cached = self._bounds.get(bits)
        if cached is None:
            cached = self._bounds[bits] = self._cell(bits)
        return cached

    def _cell(self, bits: int) -> tuple[Fraction, Fraction]:
        lo, hi = self.lo, self.hi
        width = hi - lo
        k = (-(-(width.numerator << bits) // width.denominator) - 1).bit_length()
        if lo == hi or k == 0:  # degenerate, or already narrow enough
            return lo, hi
        # grid point m is (start + m * cell) / den; poly(left) ~ lo, poly(right) ~ hi
        den = lo.denominator * width.denominator << k
        start, cell = lo.numerator * width.denominator << k, lo.denominator * width.numerator
        increasing = scaled_value(self.poly, hi.numerator, hi.denominator) > 0
        left, right, m, step = 0, 1 << k, 0, 0  # step 0: halve from the start
        if bits > 64:
            x = _newton(self.poly, self.bounds(64)[0], bits + 8)
            m, step = ((x - lo) * (1 << k) / width).__floor__(), 1
        while right - left > 1:
            if not left < m < right:
                m, step = (left + right) >> 1, 0
            value = scaled_value(self.poly, start + m * cell, den)
            if value == 0:
                return Fraction(start + m * cell, den), Fraction(start + m * cell, den)
            if (value > 0) == increasing:
                right, m = m, m - step
            else:
                left, m = m, m + step
            step *= 2
        return Fraction(start + left * cell, den), Fraction(start + right * cell, den)

    def interval(self, bits: int) -> BoundedReal:
        return BoundedReal.from_endpoints(*self.bounds(bits))

    def power_bounds(self, bits: int) -> list[tuple[int, int]]:
        """Integer bounds [lo, hi] at scale 2**bits for root**0 .. root**(d-1),
        read from ``bounds(bits)``.

        Assumes the root is positive (every base here exceeds 1).
        """
        cached = self._pow_cache.get(bits)
        if cached is not None:
            return cached
        plo, phi = self.bounds(bits)
        scale = 1 << bits
        out = [(scale, scale)]
        flo, fhi = Fraction(1), Fraction(1)
        for _ in range(1, self.degree):
            flo *= plo
            fhi *= phi
            out.append(((flo * scale).__floor__(), -((-fhi * scale).__floor__())))
        self._pow_cache[bits] = out
        return out


def floor_element(
    vec: list[int],
    den: int,
    root: RootBracket,
    bits: int,
) -> int:
    """Floor of (sum vec[i] * root**i) / den, decided with certainty.

    Doubles the precision from bits up to PRECISION_CAP_BITS; if the value
    sits exactly on an integer the coefficient test decides it, otherwise
    the bracket eventually separates the value from the boundary.  When the
    test fails on an integer that the bracket straddles, but the element
    minus it and root.poly share a factor with the root in root's bracket,
    the value is that integer and root.poly is reducible:
    ReduciblePolynomialError.  A shared factor without that root is no
    equality.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    while True:
        pows = root.power_bounds(bits)
        num_lo = 0
        num_hi = 0
        for c, (plo, phi) in zip(vec, pows):
            if c >= 0:
                num_lo += c * plo
                num_hi += c * phi
            else:
                num_lo += c * phi
                num_hi += c * plo
        d_scaled = den << bits
        f_lo = num_lo // d_scaled
        f_hi = num_hi // d_scaled
        if f_lo == f_hi:
            return f_lo
        if f_hi - f_lo == 1:
            # value may be exactly the integer f_hi
            probe = list(vec)
            probe[0] -= f_hi * den
            if all(c == 0 for c in probe):
                return f_hi
            g = _gcd(root.poly, probe)  # does a factor with the root divide probe?
            ends = [sum(c * x**i for i, c in enumerate(g)) for x in (root.lo, root.hi)]
            if len(g) > 1 and ends[0] * ends[1] <= 0:
                raise ReduciblePolynomialError(f"polynomial {root.poly} is reducible over Q")
        if bits >= PRECISION_CAP_BITS:
            raise PrecisionError(
                f"floor undecided between {f_lo} and {f_hi} at {bits} bits"
            )
        bits = min(2 * bits, PRECISION_CAP_BITS)
