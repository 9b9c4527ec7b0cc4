"""Greedy beta-expansions and the expansion of 1.

A ``BetaContext`` holds one base beta > 1 together with the digit machinery
every other layer consumes: the digits of the infinite expansion of 1
(rewritten to its periodic form when the expansion of 1 terminates, i.e. for
simple Parry bases), the digit alphabet bound, and exact orbit engines.

Bases are exact objects: either a rational number or the root of a monic
integer polynomial in an isolating bracket.  This keeps digit extraction
decidable; a purely numeric fallback with precision escalation exists for
points supplied as intervals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Union

from .algebraic import (
    PRECISION_CAP_BITS,
    PrecisionError,
    RootBracket,
    floor_element,
    multiply_by_root,
    poly_eval,
)
from .numerics import BoundedReal, _as_fraction

Word = tuple[int, ...]

DEFAULT_PRECISION_BITS = 192


class DigitIndeterminateError(ArithmeticError):
    """A digit could not be decided at the precision cap."""


def word_from_text(text: str) -> Word:
    """Parse a comma-separated digit string like ``"1,0,2"`` (or ``"102"``)."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return tuple(int(ch) for ch in text)


def word_text(w: Word) -> str:
    return ",".join(str(d) for d in w)


# ---------------------------------------------------------------------------
# exact orbit engines
# ---------------------------------------------------------------------------


class _RationalOrbit:
    """Digit stream of T(y) = beta*y mod 1 for rational beta = p/q, exact.

    The remainder after k steps is a_k / (den0 * q**k); powers of two in the
    denominator are tracked separately so the common dyadic case runs on
    shifts alone.
    """

    def __init__(self, p: int, q: int, num: int, den: int):
        self.p = p
        self.q2 = (q & -q).bit_length() - 1
        self.q_odd = q >> self.q2
        e2 = (den & -den).bit_length() - 1
        self.e2 = e2
        self.odd = den >> e2
        self.a = num

    def next_digit(self) -> int:
        t = (self.p * self.a) >> (self.e2 + self.q2)
        odd = self.odd * self.q_odd
        digit = t // odd if odd > 1 else t
        self.e2 += self.q2
        self.odd = odd
        self.a = self.p * self.a - ((digit * odd) << self.e2)
        return digit

    def remainder_is_zero(self) -> bool:
        return self.a == 0


class _AlgebraicOrbit:
    """Digit stream of the beta-orbit for an algebraic base, exact.

    The remainder is an element of Q(beta) stored as an integer coefficient
    vector over a fixed denominator; floors are certified against the root
    bracket with escalation.
    """

    def __init__(self, root: RootBracket, num: int, den: int, bits: int):
        self.root = root
        self.vec = [0] * root.degree
        self.vec[0] = num
        self.den = den
        self.bits = bits

    def next_digit(self) -> int:
        self.vec = multiply_by_root(self.vec, self.root.poly)
        digit = floor_element(self.vec, self.den, self.root, self.bits)
        self.vec[0] -= digit * self.den
        return digit

    def remainder_is_zero(self) -> bool:
        return all(c == 0 for c in self.vec)


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


class BetaContext:
    """A base beta > 1 with cached digits of the expansion of 1.

    Issued digit prefixes never change: the cache is append-only.
    """

    def __init__(
        self,
        exact: Union[Fraction, RootBracket],
        precision_bits: int = DEFAULT_PRECISION_BITS,
        _star_period: Optional[Word] = None,
    ):
        self.exact = exact
        self.precision_bits = max(64, precision_bits)
        self._one_digits: list[int] = []
        self._one_stream = None
        self._one_terminated: Optional[int] = None
        self._star_period: Optional[Word] = _star_period
        if isinstance(exact, Fraction):
            if exact <= 1:
                raise ValueError("beta must exceed 1")
            self.alphabet_max = -((-exact.numerator) // exact.denominator) - 1
        else:
            if exact.hi <= 1:
                raise ValueError("beta must exceed 1")
            if exact.degree < 2:
                raise ValueError("degree-1 bases should be constructed as rationals")
            vec = [0] * exact.degree
            vec[1] = 1
            fl = floor_element(vec, 1, exact, self.precision_bits)
            # ceil(beta) - 1 equals floor(beta) unless beta is that integer exactly
            is_int = exact.lo <= fl <= exact.hi and poly_eval(exact.poly, Fraction(fl)) == 0
            self.alphabet_max = fl - 1 if is_int else fl
        if _star_period is not None:
            self._one_terminated = len(_star_period)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_value(cls, value, precision_bits: int = DEFAULT_PRECISION_BITS) -> "BetaContext":
        return cls(_as_fraction(value), precision_bits)

    @classmethod
    def from_root(cls, poly: Iterable[int], lo, hi,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> "BetaContext":
        bracket = RootBracket(tuple(int(c) for c in poly), _as_fraction(lo), _as_fraction(hi))
        return cls(bracket, precision_bits)

    @classmethod
    def golden(cls, precision_bits: int = DEFAULT_PRECISION_BITS) -> "BetaContext":
        return cls.from_root((-1, -1, 1), 1, 2, precision_bits)

    @classmethod
    def named(cls, name: str, precision_bits: int = DEFAULT_PRECISION_BITS) -> "BetaContext":
        key = name.strip().lower()
        if key in ("golden", "phi"):
            return cls.golden(precision_bits)
        return cls.from_value(name, precision_bits)

    # -- numeric views -------------------------------------------------------

    def beta_bounds(self, bits: Optional[int] = None) -> BoundedReal:
        bits = bits or self.precision_bits
        if isinstance(self.exact, Fraction):
            return BoundedReal.exact(self.exact)
        return self.exact.interval(bits)

    @property
    def beta_fraction(self) -> Optional[Fraction]:
        return self.exact if isinstance(self.exact, Fraction) else None

    def beta_float(self) -> float:
        return float(self.beta_bounds(64).center)

    def describe(self) -> str:
        if isinstance(self.exact, Fraction):
            return str(self.exact)
        return f"root of {self.exact.poly} near {float(self.exact.interval(64).center):.12f}"

    # -- expansion of 1 ------------------------------------------------------

    def _orbit_of_one(self):
        if isinstance(self.exact, Fraction):
            return _RationalOrbit(self.exact.numerator, self.exact.denominator, 1, 1)
        return _AlgebraicOrbit(self.exact, 1, 1, self.precision_bits)

    def _extend_one_digits(self, n: int) -> None:
        if self._one_terminated is not None:
            return
        if self._one_stream is None:
            self._one_stream = self._orbit_of_one()
        while len(self._one_digits) < n:
            self._one_digits.append(self._one_stream.next_digit())
            if self._one_stream.remainder_is_zero():
                self._one_terminated = len(self._one_digits)
                digits = self._one_digits
                if digits[-1] == 0:
                    raise AssertionError("terminating expansion must end in a nonzero digit")
                self._star_period = tuple(digits[:-1]) + (digits[-1] - 1,)
                return

    def detect_simple_parry(self, depth: int) -> Optional[int]:
        """Return m when the expansion of 1 terminates at step m <= depth.

        A None answer is inconclusive for larger depths, not a proof.
        """
        if self._star_period is not None and self._one_terminated is not None:
            m = self._one_terminated
            return m if m <= depth else None
        try:
            self._extend_one_digits(depth)
        except PrecisionError as exc:
            raise DigitIndeterminateError("inconclusive at available precision") from exc
        m = self._one_terminated
        return m if (m is not None and m <= depth) else None

    @property
    def simple_parry(self) -> Optional[int]:
        return self._one_terminated

    def eps_star(self, n: int) -> Word:
        """First n digits of the infinite expansion of 1 (periodic rewrite applied)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if self._star_period is None:
            self._extend_one_digits(n)
        if self._star_period is not None:
            period = self._star_period
            reps = -(-n // len(period)) if n else 0
            return (period * reps)[:n]
        return tuple(self._one_digits[:n])

    def eps_star_digit(self, i: int) -> int:
        """Digit i (0-based) of the infinite expansion of 1."""
        if self._star_period is not None:
            period = self._star_period
            return period[i % len(period)]
        if i >= len(self._one_digits):
            self._extend_one_digits(max(i + 1, 2 * len(self._one_digits), 64))
            if self._star_period is not None:
                return self.eps_star_digit(i)
        return self._one_digits[i]


# ---------------------------------------------------------------------------
# expansion / evaluation operations
# ---------------------------------------------------------------------------


def orbit_digit_stream(ctx: BetaContext, x: Fraction):
    """Exact digit stream engine for a rational point x in [0, 1)."""
    if not (0 <= x < 1):
        raise ValueError("x must lie in [0, 1)")
    if isinstance(ctx.exact, Fraction):
        return _RationalOrbit(ctx.exact.numerator, ctx.exact.denominator,
                              x.numerator, x.denominator)
    return _AlgebraicOrbit(ctx.exact, x.numerator, x.denominator, ctx.precision_bits)


def beta_expand(x, ctx: BetaContext, n: int) -> Word:
    """First n digits of the greedy expansion of x in base beta.

    Exact rational x (or an exact BoundedReal) uses the exact engine.  A
    genuine interval x is expanded with interval arithmetic and precision
    escalation; an undecidable digit raises DigitIndeterminateError.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if isinstance(x, BoundedReal) and not x.is_exact:
        return _beta_expand_interval(x, ctx, n)
    if isinstance(x, BoundedReal):
        x = x.center
    x = _as_fraction(x)
    stream = orbit_digit_stream(ctx, x)
    return tuple(stream.next_digit() for _ in range(n))


def _beta_expand_interval(x: BoundedReal, ctx: BetaContext, n: int) -> Word:
    if not (0 <= x.lo and x.hi < 1):
        raise ValueError("x interval must lie within [0, 1)")
    beta_hi = float(ctx.beta_bounds(64).hi)
    # depth-n digit decisions need resolution well below beta^-n
    bits = max(ctx.precision_bits, int(n * math.log2(beta_hi)) + 64)
    while True:
        digits = []
        beta = ctx.beta_bounds(bits)
        y = x
        ok = True
        for k in range(n):
            t = beta * y
            flo = t.lo.__floor__()
            fhi = t.hi.__floor__()
            if flo != fhi:
                ok = False
                break
            digits.append(flo)
            y = (t - flo).shrink(bits + 64)
        if ok:
            return tuple(digits)
        if bits >= PRECISION_CAP_BITS:
            raise DigitIndeterminateError(f"digit indeterminate at step {k + 1}")
        bits = min(2 * bits, PRECISION_CAP_BITS)


def _word_numerator(w: Word, p: int, q: int) -> tuple[int, int, int]:
    """Return (t, p**len, q**len) with sum(w_i q^i p^(n-i)) = t, by splitting.

    Balanced recursion keeps the big-integer multiplications near the top,
    where subquadratic multiplication pays off.
    """
    n = len(w)
    if n <= 32:
        t = 0
        qi = 1
        for d in w:
            qi *= q
            t = t * p + d * qi
        return t, p ** n, qi
    half = n // 2
    t1, pl1, ql1 = _word_numerator(w[:half], p, q)
    t2, pl2, ql2 = _word_numerator(w[half:], p, q)
    return t1 * pl2 + ql1 * t2, pl1 * pl2, ql1 * ql2


def word_value_fraction(w: Word, beta: Fraction) -> Fraction:
    """Exact value sum(w_i beta^-i) for rational beta."""
    p, q = beta.numerator, beta.denominator
    t, pl, _ = _word_numerator(w, p, q)
    return Fraction(t, pl)


def word_sum_bounds(w: Word, ctx: BetaContext, bits: Optional[int] = None) -> BoundedReal:
    """Enclosure of the finite sum sum(w_i beta^-i), with no tail allowance."""
    if isinstance(ctx.exact, Fraction):
        return BoundedReal.exact(word_value_fraction(w, ctx.exact))
    bits = bits or ctx.precision_bits
    beta = ctx.beta_bounds(bits)
    binv = BoundedReal.exact(1) / beta
    acc = BoundedReal.exact(0)
    for d in reversed(w):
        acc = ((acc + d) * binv).shrink(bits + 64)
    return acc


def beta_power_bounds(ctx: BetaContext, k: int, bits: Optional[int] = None) -> BoundedReal:
    """Enclosure of beta**k for integer k (negative k allowed)."""
    if isinstance(ctx.exact, Fraction):
        return BoundedReal.exact(ctx.exact ** k)
    return ctx.beta_bounds(bits or ctx.precision_bits).powi(k)


def evaluate_word(w: Word, ctx: BetaContext, bits: Optional[int] = None) -> BoundedReal:
    """Enclosure of the set of points whose expansion starts with w.

    The interval is [S, S + beta^-n] where S is the finite sum; the upper
    padding covers every admissible tail.
    """
    s = word_sum_bounds(w, ctx, bits)
    tail = beta_power_bounds(ctx, -len(w), bits)
    return BoundedReal.from_endpoints(s.lo, s.hi + tail.hi)


def approximate_beta(ctx: BetaContext, N: int) -> BetaContext:
    """Base whose expansion of 1 is the length-N truncation of this one's.

    The new base is the unique root above 1 of x^N = sum(e_i x^(N-i)) where
    (e_1, ..., e_N) is the truncated digit sequence; its infinite expansion
    of 1 is (e_1, ..., e_N - 1) repeated, which is installed directly.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    prefix = ctx.eps_star(N)
    if prefix[N - 1] == 0:
        raise ValueError("invalid truncation index")
    if sum(prefix) < 2:
        raise ValueError("truncation too short")
    poly = [0] * (N + 1)
    poly[N] = 1
    for i, e in enumerate(prefix, start=1):
        poly[N - i] = -e
    poly = tuple(poly)
    hi = ctx.beta_bounds(64).hi
    if poly_eval(poly, hi) <= 0:
        hi = hi + 1
    # integer roots are the only rational roots a monic polynomial can have
    for k in range(2, int(hi) + 2):
        if poly_eval(poly, Fraction(k)) == 0:
            return BetaContext(Fraction(k), ctx.precision_bits,
                               _star_period=prefix[:-1] + (prefix[-1] - 1,))
    bracket = RootBracket(poly, Fraction(1), hi)
    bracket.refine_to(Fraction(1, 1 << ctx.precision_bits))
    return BetaContext(bracket, ctx.precision_bits,
                       _star_period=prefix[:-1] + (prefix[-1] - 1,))


def eps_star(ctx: BetaContext, n: int) -> Word:
    """Module-level alias for BetaContext.eps_star."""
    return ctx.eps_star(n)


def detect_simple_parry(ctx: BetaContext, depth: int) -> Optional[int]:
    """Module-level alias for BetaContext.detect_simple_parry."""
    return ctx.detect_simple_parry(depth)
