"""Exact arithmetic helpers for bases that are roots of monic integer polynomials.

A base given as a root of a monic integer polynomial admits exact orbit
computation: points of the orbit are elements of Q(beta), stored as integer
coefficient vectors over a shared denominator in the basis 1, beta, ...,
beta^(d-1).

``floor_element`` is the one certified decision over such elements.  It
evaluates the element on a rational bracket of the root, doubling the
precision until the floor is certain; the only time no bracket can decide is
when the value is exactly an integer, and that case is decided exactly by a
coefficient test.  Digits, signs (floor < 0) and comparisons with 1 (floor 0,
or floor 1 with a zero remainder) all reduce to it.  Past
``PRECISION_CAP_BITS`` it raises ``PrecisionError``.

Everything here is internal plumbing for the expansion, recurrence and
construction layers.
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
    """An isolating rational bracket for the unique root of poly inside it.

    The bracket endpoints carry opposite signs of poly; refinement bisects,
    so all derived enclosures shrink deterministically.
    """

    poly: tuple[int, ...]
    lo: Fraction
    hi: Fraction
    _pow_cache: dict = field(default_factory=dict, repr=False)

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

    def refine_to(self, width: Fraction) -> None:
        if self.hi - self.lo <= width:
            return  # the bracket stays put, and so do the cached power bounds
        self.lo, self.hi = bisect_root_bounds(
            lambda x: poly_eval(self.poly, x), self.lo, self.hi, width / 2)
        self._pow_cache.clear()

    def interval(self, bits: int) -> BoundedReal:
        self.refine_to(Fraction(1, 1 << bits))
        return BoundedReal.from_endpoints(self.lo, self.hi)

    def power_bounds(self, bits: int) -> list[tuple[int, int]]:
        """Integer bounds [lo, hi] at scale 2**bits for root**0 .. root**(d-1).

        Assumes the root is positive (every base here exceeds 1).
        """
        cached = self._pow_cache.get(bits)
        if cached is not None:
            return cached
        self.refine_to(Fraction(1, 1 << bits))
        scale = 1 << bits
        out = [(scale, scale)]
        plo, phi = self.lo, self.hi
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
