"""Exact arithmetic helpers for bases that are roots of monic integer polynomials.

A base given as a root of a monic integer polynomial admits exact orbit
computation: points of the orbit are elements of Q(beta), stored as integer
coefficient vectors over a shared denominator in the basis 1, beta, ...,
beta^(d-1).

The root is held by a ``RootBracket`` that never changes: an enclosure of
the root at a precision of ``bits`` is the first bracket of width
<= 2**-bits that bisection of the isolating bracket reaches, so it depends
only on the polynomial, the isolating bracket and ``bits``, never on what
was read before.

``floor_element`` is the one certified decision over such elements.  It
evaluates the element on the root's enclosure, doubling the precision until
the floor is certain; the only time no enclosure can decide is when the
value is exactly an integer, and that case is decided exactly by a
coefficient test.  Digits, signs (floor < 0) and comparisons with 1 (floor 0,
or floor 1 with a zero remainder) all reduce to it.  Past
``PRECISION_CAP_BITS`` it raises ``PrecisionError``.

Everything here is internal plumbing for the exact elements of Q(beta) in
``expansion``, which every other layer uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .numerics import BoundedReal, bisect_root_bounds

PRECISION_CAP_BITS = 1 << 16


class PrecisionError(ArithmeticError):
    """Raised when a certified floor is still undecided at the precision cap."""


def poly_eval(coeffs: tuple[int, ...], x: Fraction) -> Fraction:
    """Evaluate sum(coeffs[i] * x**i) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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

    The endpoints carry opposite signs of poly, or are both the root, and
    never change after construction.  ``bounds(bits)`` bisects [lo, hi] to
    width 2**-bits; the bisection sequence is unique, so every enclosure and
    power bound read from it is a function of bits alone.
    """

    poly: tuple[int, ...]
    lo: Fraction
    hi: Fraction
    _bounds: dict = field(default_factory=dict, repr=False, compare=False)
    _pow_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.poly[-1] != 1:
            raise ValueError("polynomial must be monic")
        slo = poly_eval(self.poly, self.lo)
        shi = poly_eval(self.poly, self.hi)
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

        Bisection resumes from the bracket of the largest memoized bits
        below this one, which lies earlier on the same sequence.
        """
        cached = self._bounds.get(bits)
        if cached is None:
            width = Fraction(1, 1 << bits)
            coarser = max((b for b in self._bounds if b < bits), default=None)
            lo, hi = self._bounds.get(coarser, (self.lo, self.hi))
            if hi - lo > width:  # else already narrow enough, or degenerate
                lo, hi = bisect_root_bounds(
                    lambda x: poly_eval(self.poly, x), lo, hi, width / 2)
            cached = self._bounds[bits] = (lo, hi)
        return cached

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
    the bracket eventually separates the value from the boundary.
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
        if bits >= PRECISION_CAP_BITS:
            raise PrecisionError(
                f"floor undecided between {f_lo} and {f_hi} at {bits} bits"
            )
        bits = min(2 * bits, PRECISION_CAP_BITS)
