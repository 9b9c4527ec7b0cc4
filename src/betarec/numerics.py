"""Error-tracked real arithmetic over exact rationals.

Values are represented as ``BoundedReal`` intervals (center plus absolute
error radius) with exact rational endpoints, so every operation encloses the
true image of its operand intervals with no hidden rounding.  Denominator
growth is controlled explicitly with :meth:`BoundedReal.shrink`, which rounds
outward to a dyadic grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class IndeterminateSignError(ArithmeticError):
    """Division by an interval whose sign is not determined."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)  # accepts "3/2" and exact decimal strings
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    if isinstance(x, float):
        # floats are binary-exact; callers wanting decimal intent should pass str
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class BoundedReal:
    """A real number known to lie in [center - radius, center + radius].

    All arithmetic is outward-safe: the interval of the result contains every
    value op(a, b) with a, b drawn from the operand intervals.  Centers and
    radii are exact rationals, so the only widening ever introduced is the
    explicit one performed by :meth:`shrink`.
    """

    center: Fraction
    radius: Fraction = Fraction(0)

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be non-negative")

    # -- construction ------------------------------------------------------

    @classmethod
    def exact(cls, value) -> "BoundedReal":
        return cls(_as_fraction(value), Fraction(0))

    @classmethod
    def from_endpoints(cls, lo, hi) -> "BoundedReal":
        lo = _as_fraction(lo)
        hi = _as_fraction(hi)
        if hi < lo:
            raise ValueError("endpoints out of order")
        half = (hi - lo) / 2
        return cls(lo + half, half)

    # -- views --------------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return self.center - self.radius

    @property
    def hi(self) -> Fraction:
        return self.center + self.radius

    @property
    def is_exact(self) -> bool:
        return self.radius == 0

    def contains(self, value) -> bool:
        v = _as_fraction(value)
        return self.lo <= v <= self.hi

    def __float__(self) -> float:
        return float(self.center)

    def __repr__(self) -> str:
        if self.radius == 0:
            return f"BoundedReal({float(self.center)!r})"
        return f"BoundedReal({float(self.center)!r} ± {float(self.radius)!r})"

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "BoundedReal":
        if isinstance(other, BoundedReal):
            return other
        return BoundedReal.exact(other)

    def __add__(self, other) -> "BoundedReal":
        o = self._coerce(other)
        return BoundedReal(self.center + o.center, self.radius + o.radius)

    __radd__ = __add__

    def __neg__(self) -> "BoundedReal":
        return BoundedReal(-self.center, self.radius)

    def __sub__(self, other) -> "BoundedReal":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "BoundedReal":
        o = self._coerce(other)
        corners = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ]
        return BoundedReal.from_endpoints(min(corners), max(corners))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BoundedReal":
        o = self._coerce(other)
        if o.lo <= 0 <= o.hi:
            raise IndeterminateSignError("indeterminate sign")
        corners = [
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        ]
        return BoundedReal.from_endpoints(min(corners), max(corners))

    def powi(self, k: int) -> "BoundedReal":
        """Integer power in closed form (k may be negative).

        The image of [lo, hi] under x**k runs between lo**k and hi**k, except
        that an even power of an interval straddling 0 reaches down to 0.
        """
        if k == 0:
            return BoundedReal.exact(1)
        if k < 0:
            return BoundedReal.exact(1) / self.powi(-k)
        a, b = self.lo ** k, self.hi ** k
        lo = 0 if k % 2 == 0 and self.lo < 0 < self.hi else min(a, b)
        return BoundedReal.from_endpoints(lo, max(a, b))

    def shrink(self, bits: int) -> "BoundedReal":
        """Round outward to denominators 2**bits, bounding representation size.

        The returned interval contains this one; its width grows by at most
        2**(1 - bits).
        """
        scale = 1 << bits
        lo = Fraction((self.lo * scale).__floor__(), scale)
        hi = Fraction(-((-self.hi * scale).__floor__()), scale)
        return BoundedReal.from_endpoints(lo, hi)
