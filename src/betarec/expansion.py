"""Greedy beta-expansions and the expansion of 1.

A ``BetaContext`` holds one base beta > 1 together with the digit machinery
every other layer consumes: the digits of the infinite expansion of 1
(rewritten to its periodic form when the expansion of 1 terminates, i.e. for
simple Parry bases), and the digit alphabet bound.

Bases are exact objects: either a rational number or the root of a monic
integer polynomial in an isolating bracket.  Every orbit, difference and
certified comparison in the library runs on one exact element type of
Q(beta), updated in place (``BetaContext._element``): integers num/den for a
rational base, an integer coefficient vector over a denominator for an
algebraic one.  Digits and signs are therefore decided exactly, and a point
supplied as an interval is expanded from its two exact endpoints.

Every enclosure and float of an algebraic beta is read at the context
precision (``RootBracket.bounds(precision_bits)``), so it depends only on
the base and that precision.  A certified floor that needs more bits reads
a finer enclosure of its own and changes nothing read later.

Long orbit streams on an algebraic base (``extend``) are run in floats first
and certified as they go.  The exact state x is converted to a float v with
a bound err >= |x - v|, and then ``w = beta_f v; d = floor(w); v = w - d``
runs for up to B steps, with dbeta >= |beta_f - beta| and u = 2**-53:

    err <- err (beta_f + dbeta) + dbeta |v| + 2u (|w| + 1),

which bounds |beta x - w| (u |w| for the product's rounding; the rest covers
the rounding of the bound itself while err < 1/2).  A digit is taken only
when w lies more than err from both floor(w) and floor(w) + 1, so it is the
exact greedy digit.  B is the largest block <= 32 with beta_f**B < 2**24,
which keeps err far below 1/2 over a block.  After m <= B float digits
d_1 .. d_m the exact state is rebuilt in one step,

    vec <- sum_i c_i [beta**(m+i)] - den sum_j d_j [beta**(m-j)],

from the integer vectors [beta**k] of the base; where a margin fails, that
one digit is taken by the certified floor.

A block first takes its digits t at a time from the base's word table.
The admissible words w_0 < ... < w_(N-1) of length t, in lexicographic
order, have greedy cylinders [S(w_j), S(w_(j+1))) that tile [0, 1), with
S(w) = sum_i w_i beta**-i and S(w_N) = 1 (Parry, Acta Math. Acad. Sci.
Hung. 11, 1960), so the next t digits of x are w_j exactly when
S(w_j) <= x < S(w_(j+1)).  The table holds L_j, the float nearest to an
integer left end at scale 2**128 that lies within t (amax + 1) units of
S(w_j), so |L_j - S(w_j)| <= u + 2**-90, and L_N = 1.0.  A step takes
j = bisect_right(L, v) - 1 and accepts w_j only when e = err + eps lies
below both v - L_j and L_(j+1) - v; eps = 4u covers |L_j - S(w_j)| and
the rounding of the two differences and of e, so S(w_j) < x < S(w_(j+1)).
With a = v - L_j as rounded, P the float nearest beta**t and
dP >= |P - beta**t| + 3u (P + dP), the step sets

    v <- a P,  err <- e (P + dP) + dP a + 4u,

which bounds |beta**t (x - S(w_j)) - v|: beta**t |x - S(w_j) - a| is at
most (P + dP)(e + u a), the product is off by |P - beta**t| a plus its
rounding u P a, and 4u covers the rounding of the bound itself while
err < 1/2.  A step whose margin fails hands the rest of the block to the
per-digit loop above, and the floor is taken only where that loop fails.
t is the largest length <= B with at most 2**12 admissible words, counted
over the follower automaton's rows (2,584 words of length 16 for the
golden ratio, 2 steps per block); a block runs floor(B / t) steps, then
its last B mod t digits one at a time.  The resync takes each word from
its integer vector [sum_i w_i beta**(t-1-i)], placed by the word's slot,
instead of from its t digits.  On a Pisot base the state's
coefficients stay bounded (Schmidt, "On periodic expansions of Pisot numbers
and Salem numbers", Bull. LMS 12, 1980), so almost every digit is decided
in floats; states too large for a float (over 900 bits) take the exact
per-digit path, which is where the coefficients of a non-Pisot base end up.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from operator import getitem, mul
from typing import Iterable, Optional, Union

from .algebraic import (
    PrecisionError,
    RootBracket,
    floor_element,
    multiply_by_root,
)
from .numerics import BoundedReal, _as_fraction

Word = tuple[int, ...]

DEFAULT_PRECISION_BITS = 192


class DigitIndeterminateError(ArithmeticError):
    """A digit is not shared by every point of an interval input, or could
    not be decided at the precision cap."""


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
# exact elements of Q(beta)
# ---------------------------------------------------------------------------


def _scaled_log2(n: int) -> float:
    """log2 of a positive integer, accurate for any size."""
    bl = n.bit_length()
    if bl <= 53:
        return math.log2(n)
    return math.log2(n >> (bl - 53)) + (bl - 53)


class _RationalElement:
    """An exact x = num/den for a rational base beta = p/q, updated in place.

    ``push(c)`` sets x <- beta x + c and ``next_digit`` takes the greedy digit
    floor(beta x), leaving beta x minus it; both multiply den by q, so after
    k steps den is the starting denominator times q**k.
    """

    __slots__ = ("p", "q", "num", "den")

    def __init__(self, p: int, q: int, num: int, den: int):
        self.p, self.q, self.num, self.den = p, q, num, den

    def push(self, c: int) -> None:
        self.den *= self.q
        self.num = self.p * self.num + c * self.den

    def next_digit(self) -> int:
        self.den *= self.q
        digit, self.num = divmod(self.p * self.num, self.den)
        return digit

    def extend(self, out: list[int], k: int) -> None:
        """Append the next k greedy digits to out, as k ``next_digit`` calls would."""
        p, q, num, den = self.p, self.q, self.num, self.den
        append = out.append
        for _ in range(k):
            den *= q
            digit, num = divmod(p * num, den)
            append(digit)
        self.num, self.den = num, den

    def add(self, other: "_RationalElement") -> None:
        self.num = self.num * other.den + other.num * self.den
        self.den *= other.den

    def sub(self, other: "_RationalElement") -> None:
        self.num = self.num * other.den - other.num * self.den
        self.den *= other.den

    def sign(self) -> int:
        return (self.num > 0) - (self.num < 0)

    def is_zero(self) -> bool:
        return self.num == 0

    def log2_abs(self) -> Optional[float]:
        """log2 |x|, or None when x = 0."""
        if self.num == 0:
            return None
        return _scaled_log2(abs(self.num)) - _scaled_log2(self.den)


_UNIT = 2.0 ** -53  # unit roundoff of a float64
_FLOAT_BITS = 900  # states with a coefficient past this stay exact
_TABLE_WORDS = 1 << 12  # the most admissible words a word table holds
_WORD_EPS = 4.0 * _UNIT  # eps of the word steps (see the module notes)
_WORD_SLACK = 4.0 * _UNIT  # the rounding of a word step's bound
_LEFT_BITS = 128  # scale of the integer left ends the table's floats round from


def _compact(values: list[int]):
    """values as an array of 8-byte integers, or as they are past 64 bits."""
    try:
        return array("q", values)
    except OverflowError:
        return values


def _word_lists(rows: list, t: int, steps: list[int],
                basis: list[list[int]]) -> tuple[list[int], list[int], list[list[int]]]:
    """The admissible words of length t in lexicographic order, as base-256
    integers (a table has at most 2**12 words of length 2, so amax < 64),
    with their left ends at scale 2**_LEFT_BITS and the coefficient lists
    of their vectors [sum w_i beta**(t-1-i)].

    rows[s] lists the (digit, next state) pairs allowed from state s, and
    steps[i] is the scaled beta**-(i + 1).  suf[s] holds the words of
    length n read from state s, as the last n digits of a length-t word:
    digit d from s, then those of length n - 1 from its successor.  A
    word's state after i digits is at most i, which bounds the states kept.
    """
    degree = len(basis[0])
    suf = [([0], [0], [[0]] * degree)] * min(len(rows), t + 1)
    for n in range(1, t + 1):
        step, power, place = steps[t - n], basis[n - 1], 1 << (8 * (n - 1))
        new = []
        for state in range(min(len(rows), t - n + 1)):
            words, lefts, cols = [], [], [[] for _ in range(degree)]
            for d, nxt in rows[state]:
                tail_words, tail_lefts, tail_cols = suf[nxt]
                if d:
                    shift = d * place
                    words += [x + shift for x in tail_words]
                    shift = d * step
                    lefts += [x + shift for x in tail_lefts]
                else:
                    words += tail_words
                    lefts += tail_lefts
                for col, prev, c in zip(cols, tail_cols, power):
                    if d and c:
                        shift = d * c
                        col += [x + shift for x in prev]
                    else:
                        col += prev
            new.append((words, lefts, cols))
        suf = new
    return suf[0]


class _FloatRun:
    """The float digit filter of one algebraic base (see the module notes).

    ``beta_f`` and ``dbeta`` come from ``BetaContext.beta_float_bound``;
    ``block`` is B.  ``state_cols[m][k]`` and ``digit_cols[k]`` hold the
    k-th coefficients of [beta**(m+i)] over i < degree and of [beta**j] over
    j < B, the sums of the resync.  The word table holds the admissible
    words of length ``word_len`` = t in lexicographic order as ``bytes``,
    their left ends L as floats (``lefts``, with 1.0 appended), their
    integer vectors [sum w_i beta**(t-1-i)] times [beta**(t i)] for each
    word slot i < B / t of a block (``word_cols[k][i][j]`` is coefficient
    k for word j), and ``_step``, what a word step reads: the left ends,
    the words, their number, P, P + dP and dP.  t = 0 when there is no
    table.
    """

    __slots__ = ("beta_f", "beta_up", "dbeta", "block", "powers", "power_errs",
                 "state_cols", "digit_cols", "word_len", "words", "lefts",
                 "word_cols", "_step")

    def __init__(self, ctx: "BetaContext", block: int):
        beta_f, dbeta = ctx.beta_float_bound()
        poly = ctx.exact.poly
        degree = len(poly) - 1
        self.beta_f, self.dbeta, self.block = beta_f, dbeta, block
        self.beta_up = beta_f + dbeta
        self.powers = [1.0]
        for _ in range(1, degree):
            self.powers.append(self.powers[-1] * beta_f)
        # |beta**i - beta_f**i| <= i dbeta (beta_f + dbeta)**(i-1)
        self.power_errs = [i * dbeta * self.beta_up ** (i - 1) if i else 0.0
                           for i in range(degree)]
        basis = [[1] + [0] * (degree - 1)]
        for _ in range(1, block + degree):
            basis.append(multiply_by_root(basis[-1], poly))
        self.state_cols = [list(zip(*basis[m : m + degree])) for m in range(block + 1)]
        self.digit_cols = list(zip(*basis[:block]))
        self.word_len, self.words, self.lefts, self.word_cols = 0, [], [1.0], []
        self._build_word_table(ctx, basis)

    @staticmethod
    def block_for(ctx: "BetaContext") -> int:
        """B for ctx's algebraic base, or 0 when floats cannot hold its
        states (beta at least 2**24, or powers out of range)."""
        beta_f, _ = ctx.beta_float_bound()
        degree = ctx.exact.degree
        if math.log2(beta_f) * (degree - 1) + math.log2(degree) > 100:
            return 0
        block = 0
        while block < 32 and beta_f ** (block + 1) < 2.0**24:
            block += 1
        return block

    def _build_word_table(self, ctx: "BetaContext", basis: list[list[int]]) -> None:
        """The word table: t is the largest length <= B with at most
        ``_TABLE_WORDS`` admissible words, counted over the follower
        automaton's rows before any word is built; no table when t < 2.
        Row s reads e_s alone (``symbolic.FollowerAutomaton``), and a word of
        length <= B reaches states up to B, so B + 1 digits of 1 give them."""
        digits = ctx.eps_star(self.block + 1)
        m = ctx.simple_parry
        rows = [[(d, 0) for d in range(e)] + [(e, (s + 1) % m if m else s + 1)]
                for s, e in enumerate(digits[:m])]
        counts, t = [1] + [0] * (len(rows) - 1), 0
        for n in range(1, self.block + 1):
            nxt = [0] * len(rows)
            for state, c in enumerate(counts):
                if c:
                    for _, s in rows[state]:
                        nxt[s] += c
            if sum(nxt) > _TABLE_WORDS:
                break
            counts, t = nxt, n
        if t < 2:
            return
        lo, hi = ctx.exact.bounds(ctx.precision_bits)
        p, q = hi.numerator, hi.denominator
        # steps[i] = floor(2**_LEFT_BITS / hi**(i + 1)), within t (amax + 1)
        # units of 2**_LEFT_BITS beta**-(i + 1) over a whole word
        steps = [(q**i << _LEFT_BITS) // p**i for i in range(1, t + 1)]
        degree = len(basis[0])
        words, lefts, vecs = _word_lists(rows, t, steps, basis)
        self.words = words = [w.to_bytes(t, "big") for w in words]
        scale = 2.0 ** -_LEFT_BITS
        self.lefts = [float(x) * scale for x in lefts] + [1.0]
        del lefts
        # slot 0 holds the vectors, slot i their products with [beta**(t i)],
        # whose coefficient k is sum_q a_q [beta**(t i + q)]_k
        self.word_cols = [[_compact(a)] for a in vecs]
        vecs = [slots[0] for slots in self.word_cols]  # and the lists go
        for slot in range(1, self.block // t):
            for k in range(degree):
                col = [0] * len(words)
                for q, a in enumerate(vecs):
                    c = basis[t * slot + q][k]
                    if c:
                        col = [x + c * y for x, y in zip(col, a)]
                self.word_cols[k].append(_compact(col))
        # P is the float nearest lo**t, and dP >= |P - beta**t| + 3u (P + dP)
        power_lo = lo**t
        power = float(power_lo)
        dp = 5.0 * _UNIT * power + 2.0 * float(hi**t - power_lo)
        self._step = (self.lefts, words, len(words), power, power + dp, dp)
        self.word_len = t

    def word_steps(self, v: float, err: float, n: int, out: list[int],
                   words: list[int]) -> tuple[float, float]:
        """Up to n word steps from (v, err) with |x - v| <= err, stopping at
        the first whose margin fails (see the module notes).  Each step
        appends its word's digits to out and its index to words; the
        returned (v, err) bound the state after them."""
        lefts, table, last, power, power_up, dp = self._step
        for _ in range(n):
            j = bisect_right(lefts, v, 0, last) - 1
            a = v - lefts[j]
            e = err + _WORD_EPS
            if not (e < a and e < lefts[j + 1] - v):
                break
            words.append(j)
            out.extend(table[j])
            v = a * power
            err = e * power_up + dp * a + _WORD_SLACK
        return v, err

    def resync(self, vec: list[int], den: int, words: list[int],
               digits: list[int]) -> list[int]:
        """The exact state after the greedy digits of the table words
        ``words`` (indices, in order) and then ``digits``, at most B in all,
        from vec/den.  The words' digit sum W, read at their end, takes word
        s from column slot len(words) - 1 - s; the m digits' sum is then
        [beta**r] W plus that of the r digits."""
        back = words[::-1]  # slot i holds the word i places from the end
        r = len(digits)
        m = self.word_len * len(words) + r
        if not r:
            return [sum(map(mul, vec, scol)) - den * sum(map(getitem, slots, back))
                    for scol, slots in zip(self.state_cols[m], self.word_cols)]
        w = [sum(map(getitem, slots, back)) for slots in self.word_cols]
        rev = digits[::-1]
        return [sum(map(mul, vec, scol))
                - den * (sum(map(mul, w, wcol)) + sum(map(mul, rev, dcol)))
                for scol, wcol, dcol in zip(self.state_cols[m], self.state_cols[r],
                                            self.digit_cols)]


class _AlgebraicElement:
    """An exact x = (sum vec[i] beta**i) / den for a root beta of a monic
    integer polynomial, updated in place; the same interface as
    ``_RationalElement``.

    Floors and signs are certified by ``floor_element`` against the root
    bracket, starting at ``bits``.  ``extend`` decides digits in floats
    first, a table word of t digits per step where the margins allow and
    then one digit per step under the running bound err <- err (beta_f +
    dbeta) + dbeta |v| + 2u (|w| + 1), and rebuilds vec once per block of
    B digits from the integer vectors of the words and of the powers of
    beta; a digit whose margin fails, and every digit of a state past 900
    bits, goes through ``floor_element``.
    The state 0 is fixed, so its digits are zeros with no floor taken.
    """

    __slots__ = ("ctx", "root", "vec", "den", "bits")

    def __init__(self, ctx: "BetaContext", num: int, den: int):
        self.ctx = ctx
        self.root = ctx.exact
        self.vec = [num] + [0] * (self.root.degree - 1)
        self.den = den
        self.bits = ctx.precision_bits

    def push(self, c: int) -> None:
        self.vec = multiply_by_root(self.vec, self.root.poly)
        self.vec[0] += c * self.den

    def next_digit(self) -> int:
        self.vec = multiply_by_root(self.vec, self.root.poly)
        digit = floor_element(self.vec, self.den, self.root, self.bits)
        self.vec[0] -= digit * self.den
        return digit

    def extend(self, out: list[int], k: int) -> None:
        """Append the next k greedy digits to out, as k ``next_digit`` calls would."""
        run = self.ctx._float_run
        append = out.append
        den = self.den  # no step changes it
        if den.bit_length() > _FLOAT_BITS:
            run = None
        if run is not None:
            block, t = run.block, run.word_len
            powers, power_errs, den_f = run.powers, run.power_errs, float(den)
            rounding = (4 * len(self.vec) + 4) * _UNIT
            beta_f, beta_up, dbeta = run.beta_f, run.beta_up, run.dbeta
            two_u = 2.0 * _UNIT
        while k > 0:
            vec = self.vec
            top = max(map(abs, vec))
            if not top:  # every digit of 0 would fail its margin
                out.extend([0] * k)
                return
            if run is None or top.bit_length() > _FLOAT_BITS:
                for _ in range(k):
                    append(self.next_digit())
                return
            # (v, err) with |x - v| <= err: with A = sum |c_i| beta_f**i, the
            # conversions, products, sums and the division round by at most
            # (4 degree + 4) u A / den in all, and the powers of beta_f differ
            # from those of beta by power_errs; err is twice that total
            acc = size = perr = 0.0
            for c, pw, pe in zip(vec, powers, power_errs):
                cf = float(c)
                acc += cf * pw
                cf = abs(cf)
                size += cf * pw
                perr += cf * pe
            # x >= 0, so a negative v moves to 0 with the same bound
            v, err = max(acc / den_f, 0.0), 2.0 * (perr + rounding * size) / den_f
            m = min(block, k)
            words = []
            if t:
                v, err = run.word_steps(v, err, m // t, out, words)
            first = len(out)
            for _ in range(m - t * len(words)):
                # v >= 0 throughout, so w >= 0 and int() is the floor
                w = beta_f * v
                d = int(w)
                f = w - d  # exact
                err = err * beta_up + dbeta * v + two_u * (w + 1.0)
                if not err < f < 1.0 - err:
                    break
                append(d)
                v = f
            r = len(out) - first
            taken = t * len(words) + r
            if taken:
                self.vec = run.resync(vec, den, words, out[first:] if r else ())
                k -= taken
            if taken < m:
                append(self.next_digit())
                k -= 1

    def add(self, other: "_AlgebraicElement") -> None:
        self.vec = [a * other.den + b * self.den for a, b in zip(self.vec, other.vec)]
        self.den *= other.den

    def sub(self, other: "_AlgebraicElement") -> None:
        self.vec = [a * other.den - b * self.den for a, b in zip(self.vec, other.vec)]
        self.den *= other.den

    def sign(self) -> int:
        if self.is_zero():
            return 0
        return -1 if floor_element(self.vec, self.den, self.root, self.bits) < 0 else 1

    def is_zero(self) -> bool:
        return not any(self.vec)

    def log2_abs(self) -> Optional[float]:
        """log2 |x| to about 50 bits, or None when x = 0 (or cancels in floats).

        The coefficients' top 53 bits are combined with float powers of
        ``BetaContext.beta_float()``.
        """
        beta_f = self.ctx.beta_float()
        shift = max(c.bit_length() for c in self.vec) - 52
        total = 0.0
        pf = 1.0
        for c in self.vec:
            cf = float(c >> shift) if shift > 0 else float(c)
            total += cf * pf
            pf *= beta_f
        if total == 0.0:
            return None
        return math.log2(abs(total)) + max(shift, 0) - _scaled_log2(self.den)


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
    ):
        self.exact = exact
        self._precision_bits = max(64, precision_bits)
        self._one_digits: list[int] = []
        self._star_period: Optional[Word] = None
        # cylinder geometry per (follower state, refine, n), see symbolic.cylinder
        self._cylinder_tails: dict[tuple[int, int, int], object] = {}
        if isinstance(exact, RootBracket) and exact.degree < 2:
            raise ValueError("degree-1 bases should be constructed as rationals")
        bounds = self.beta_bounds()
        if bounds.hi <= 1:
            raise ValueError("beta must exceed 1")
        beta_f = float(bounds.center)
        exact_f = Fraction(beta_f)
        self._float_view = (beta_f, 2.0 * float(max(exact_f - bounds.lo, bounds.hi - exact_f)))
        # every digit of 1 comes from this one stream; the first fixes the
        # alphabet: ceil(beta) - 1 is floor(beta), unless beta is that integer
        self._one = self._element(1)
        self._extend_one_digits(1)
        top = self._one_digits[0]
        self.alphabet_max = top - 1 if self.simple_parry == 1 else top
        if isinstance(exact, RootBracket):
            # the float run's word table reads B + 1 digits of 1; reading
            # them here keeps their certified floors out of the first orbit's
            self._extend_one_digits(_FloatRun.block_for(self) + 1)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_value(cls, value, precision_bits: int = DEFAULT_PRECISION_BITS) -> "BetaContext":
        return cls(_as_fraction(value), precision_bits)

    @classmethod
    def from_root(cls, poly: Iterable[int], lo, hi,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> "BetaContext":
        """The root in [lo, hi] of the monic integer polynomial with
        coefficients poly, constant term first.  poly must be irreducible
        (see ``RootBracket``): a reducible one, such as x^2 - x - 2 on
        [3/2, 3], raises ``PrecisionError`` while the expansion of 1 is read."""
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
        """An enclosure of beta: exact for a rational base, else the root's
        ``bounds`` at bits or the context precision, whichever is finer."""
        if isinstance(self.exact, Fraction):
            return BoundedReal.exact(self.exact)
        return self.exact.interval(max(bits or 0, self.precision_bits))

    @property
    def precision_bits(self) -> int:
        """The working precision, fixed when the context is built: the float
        view of beta is taken at it then, and enclosures read it on each
        call, so it is read-only.  Build a new context for another one."""
        return self._precision_bits

    @property
    def beta_fraction(self) -> Optional[Fraction]:
        return self.exact if isinstance(self.exact, Fraction) else None

    def beta_float(self) -> float:
        return self._float_view[0]

    def beta_float_bound(self) -> tuple[float, float]:
        """(beta_f, dbeta): the float of the center of ``beta_bounds()`` and a
        bound dbeta >= |beta_f - beta|, twice the larger distance from beta_f
        to an end of that enclosure.  Both are taken once, when the context
        is built."""
        return self._float_view

    def describe(self) -> str:
        if isinstance(self.exact, Fraction):
            return str(self.exact)
        return f"root of {self.exact.poly} near {self.beta_float():.12f}"

    # -- expansion of 1 ------------------------------------------------------

    def _element(self, x) -> Union[_RationalElement, _AlgebraicElement]:
        """x (an int or a Fraction) as an exact element of Q(beta).

        Every orbit, difference and certified comparison runs on these
        elements; this is where the kind of base picks their arithmetic.
        """
        if isinstance(self.exact, Fraction):
            return _RationalElement(self.exact.numerator, self.exact.denominator,
                                    x.numerator, x.denominator)
        return _AlgebraicElement(self, x.numerator, x.denominator)

    @cached_property
    def _float_run(self) -> Optional[_FloatRun]:
        """The float digit filter of an algebraic base, built on first use."""
        if isinstance(self.exact, Fraction):
            return None
        block = _FloatRun.block_for(self)
        return _FloatRun(self, block) if block else None

    def _extend_one_digits(self, n: int) -> None:
        while self._star_period is None and len(self._one_digits) < n:
            self._one_digits.append(self._one.next_digit())
            if self._one.is_zero():
                digits = self._one_digits
                if digits[-1] == 0:
                    raise AssertionError("terminating expansion must end in a nonzero digit")
                self._star_period = tuple(digits[:-1]) + (digits[-1] - 1,)

    def detect_simple_parry(self, depth: int) -> Optional[int]:
        """Return m when the expansion of 1 terminates at step m <= depth.

        A None answer is inconclusive for larger depths, not a proof.
        """
        try:
            self._extend_one_digits(depth)
        except PrecisionError as exc:
            raise DigitIndeterminateError("inconclusive at available precision") from exc
        m = self.simple_parry
        return m if (m is not None and m <= depth) else None

    @property
    def simple_parry(self) -> Optional[int]:
        """m when the expansion of 1 is known to end at digit m, else None."""
        return None if self._star_period is None else len(self._star_period)

    def eps_star(self, n: int) -> Word:
        """First n digits of the infinite expansion of 1 (periodic rewrite applied)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        self._extend_one_digits(n)
        if self._star_period is not None:
            period = self._star_period
            reps = -(-n // len(period)) if n else 0
            return (period * reps)[:n]
        return tuple(self._one_digits[:n])


# ---------------------------------------------------------------------------
# expansion / evaluation operations
# ---------------------------------------------------------------------------


def orbit_digit_stream(ctx: BetaContext, x: Fraction):
    """x in [0, 1) as an exact element whose ``next_digit`` runs its greedy digits."""
    if not (0 <= x < 1):
        raise ValueError("x must lie in [0, 1)")
    return ctx._element(x)


def beta_expand(x, ctx: BetaContext, n: int) -> Word:
    """First n digits of the greedy expansion of x in base beta.

    A rational x (or an exact BoundedReal) is expanded exactly.  For a
    genuine interval x the answer is the digits that every point of it
    shares.  Greedy expansion is monotone in x (Parry, Acta Math. Acad. Sci.
    Hung. 11, 1960), so those are the common prefix of the exact expansions
    of the two endpoints, with no precision involved.  The first step where
    the endpoints' digits differ raises DigitIndeterminateError naming it.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if isinstance(x, BoundedReal) and not x.is_exact:
        lo, hi = orbit_digit_stream(ctx, x.lo), orbit_digit_stream(ctx, x.hi)
        lo_digits: list[int] = []
        hi_digits: list[int] = []
        chunk = 16  # doubles, so an early difference costs little
        while len(lo_digits) < n:
            start = len(lo_digits)
            k = min(chunk, n - start)
            lo.extend(lo_digits, k)
            hi.extend(hi_digits, k)
            for i in range(start, start + k):
                if lo_digits[i] != hi_digits[i]:
                    raise DigitIndeterminateError(f"digit indeterminate at step {i + 1}")
            chunk *= 2
        return tuple(lo_digits)
    if isinstance(x, BoundedReal):
        x = x.center
    digits: list[int] = []
    orbit_digit_stream(ctx, _as_fraction(x)).extend(digits, n)
    return tuple(digits)


def _sign_minus_power(ctx: BetaContext, x, k: int, unit: int = 1) -> int:
    """sign(x - unit * beta**k) for an element x, unit = +-1 and any integer k.

    For k < 0 both sides are multiplied by beta**-k instead, so no power of
    beta is ever inverted.  x is consumed.
    """
    if k >= 0:
        power = ctx._element(unit)
        for _ in range(k):
            power.push(0)
        x.sub(power)
    else:
        for _ in range(-k):
            x.push(0)
        x.sub(ctx._element(unit))
    return x.sign()


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


def _horner_ends(w: Word, ctx: BetaContext, lo: int = 0, hi: int = 0) -> tuple[int, int]:
    """Integer endpoints at scale 2**(bits + 64) of the Horner enclosure of
    sum(w_i beta^-i) + beta^-len(w) x, x in [lo, hi] at that scale, for an
    algebraic base.

    Started from (0, 0) this is ``word_sum_bounds``; started from the
    endpoints of a tail's sum it continues that sum, since Horner reads the
    tail's digits first.  A step takes floor((lo + d) * r) and
    ceil((hi + d) * r), where r is the end of [Q/P, q/p], the inverse of the
    root's enclosure [p/q, P/Q] at the context precision bits, that the
    interval product picks by sign.
    """
    bits = ctx.precision_bits
    beta_lo, beta_hi = ctx.exact.bounds(bits)
    p, q = beta_lo.numerator, beta_lo.denominator
    P, Q = beta_hi.numerator, beta_hi.denominator
    shift = bits + 64
    for d in reversed(w):
        a = lo + (d << shift)
        b = hi + (d << shift)
        lo = (a * Q) // P if a >= 0 else (a * q) // p
        hi = -((-b * q) // p) if b >= 0 else -((-b * Q) // P)
    return lo, hi


def _scaled_interval(lo: int, hi: int, den: int) -> BoundedReal:
    """[lo/den, hi/den], with one Fraction each for the center and radius;
    equal to ``BoundedReal.from_endpoints(Fraction(lo, den), Fraction(hi, den))``."""
    return BoundedReal(Fraction(lo + hi, 2 * den), Fraction(hi - lo, 2 * den))


def word_sum_bounds(w: Word, ctx: BetaContext) -> BoundedReal:
    """Enclosure of the finite sum sum(w_i beta^-i), with no tail allowance.

    For an algebraic base this is Horner's rule acc = (acc + d) / beta over
    the root's enclosure at the context precision bits, rounded outward
    after every digit to the grid 2**-(bits + 64).  It runs on the integer
    endpoints at that scale (``_horner_ends``), which replays
    ``BoundedReal`` interval arithmetic with ``shrink`` exactly, with no
    Fraction per digit.
    """
    if isinstance(ctx.exact, Fraction):
        return BoundedReal.exact(word_value_fraction(w, ctx.exact))
    lo, hi = _horner_ends(w, ctx)
    return _scaled_interval(lo, hi, 1 << (ctx.precision_bits + 64))


def beta_power_bounds(ctx: BetaContext, k: int) -> tuple[Fraction, Fraction]:
    """Endpoints (lo, hi) of an enclosure of beta**k, k any integer.

    For an algebraic base they are the endpoints of the root's enclosure at
    the context precision raised to k, so (1/hi**|k|, 1/lo**|k|) when k < 0.  Callers read the one end they need.
    """
    if isinstance(ctx.exact, Fraction):
        v = ctx.exact ** k
        return v, v
    lo, hi = ctx.exact.bounds(ctx.precision_bits)
    if k < 0:
        return hi ** k, lo ** k
    return lo ** k, hi ** k


def evaluate_word(w: Word, ctx: BetaContext) -> BoundedReal:
    """Enclosure of the set of points whose expansion starts with w.

    The interval is [S, S + beta^-n] where S is the finite sum; the upper
    padding covers every admissible tail.
    """
    s = word_sum_bounds(w, ctx)
    _, tail_hi = beta_power_bounds(ctx, -len(w))
    return BoundedReal.from_endpoints(s.lo, s.hi + tail_hi)


def approximate_beta(ctx: BetaContext, N: int) -> BetaContext:
    """Base whose expansion of 1 is the length-N truncation of this one's.

    The new base is the unique root above 1 of x^N = sum(e_i x^(N-i)) where
    (e_1, ..., e_N) is the truncated digit sequence.  By Parry (Acta Math.
    Acad. Sci. Hung. 11, 1960) that truncation is its expansion of 1, which
    the new context reads itself.  The root is the integer e_1 at N = 1 and
    never an integer k for N >= 2: e_N >= 1 forces e_1 <= k - 1, and as
    every e_i <= e_1, sum_(i>=2) e_i k**-i <= (k - 1) sum_(i=2..N) k**-i
    < 1/k <= 1 - e_1/k, against 1 = sum e_i k**-i.  So for N >= 2 the
    root is irrational, as a rational root of a monic integer polynomial
    is an integer; it lies in [1, hi] for the upper end hi of this base's
    enclosure, as beta_N <= beta <= hi, and is not hi, so the polynomial is
    positive at hi.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    prefix = ctx.eps_star(N)
    if prefix[N - 1] == 0:
        raise ValueError("invalid truncation index")
    if sum(prefix) < 2:
        raise ValueError("truncation too short")
    if N == 1:
        return BetaContext(Fraction(prefix[0]), ctx.precision_bits)
    poly = [0] * (N + 1)
    poly[N] = 1
    for i, e in enumerate(prefix, start=1):
        poly[N - i] = -e
    poly = tuple(poly)
    return BetaContext(RootBracket(poly, Fraction(1), ctx.beta_bounds().hi),
                       ctx.precision_bits)


def eps_star(ctx: BetaContext, n: int) -> Word:
    """Module-level alias for BetaContext.eps_star."""
    return ctx.eps_star(n)


def detect_simple_parry(ctx: BetaContext, depth: int) -> Optional[int]:
    """Module-level alias for BetaContext.detect_simple_parry."""
    return ctx.detect_simple_parry(depth)
