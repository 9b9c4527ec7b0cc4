"""The exact elements of Q(beta), orbit digits, word sums and root brackets
against their reference loops.

The decision oracles are the loops that the exact elements of Q(beta)
replaced: an interval sign test (``oracle_common.oracle_element_sign``),
and for interval inputs to ``beta_expand`` the interval Horner loop that
doubled its precision up to the cap.  Both decide exactly, so agreement
must be exact too.  The element operations themselves are checked against
Fraction coefficient vectors.

The word-sum oracles are the ``BoundedReal`` loops that the integer kernels
replaced: Horner with a dyadic ``shrink`` per digit, and ``powi`` on the
base's interval.  The kernels replay them exactly, so centers, radii and
endpoints must be equal.

The digit-stream oracle is the per-digit ``next_digit`` loop that
``extend`` replaced, with a certified floor for every digit; the digits and
the exact state left behind must be equal, whether ``extend`` took them by
word steps, by float steps or by the exact path.  The bound of every word
step must hold exactly.

The root-bracket oracle is the Fraction bisection of the isolating bracket
that the grid-cell computation of ``RootBracket.bounds`` replaced: Newton's
method proposes the cell and exact integer signs certify it.  Brackets,
degenerate ones included, must be equal.

The truncation-polynomial oracles take cyclotomic polynomials from their
roots of unity and decide divisibility by a float resultant; the factors
``strip_cyclotomic`` divides out of a Parry polynomial must multiply back
to it, and none may divide the quotient.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betarec import algebraic, expansion, recurrence
from betarec.algebraic import PRECISION_CAP_BITS, RootBracket, multiply_by_root
from betarec.expansion import (
    DEFAULT_PRECISION_BITS,
    BetaContext,
    DigitIndeterminateError,
    approximate_beta,
    beta_expand,
    beta_power_bounds,
    orbit_digit_stream,
    word_sum_bounds,
    word_value_fraction,
)
from betarec.numerics import BoundedReal
from betarec.recurrence import OrbitView
from betarec.symbolic import count_admissible, enumerate_admissible
from oracle_common import CUBIC, oracle_element_sign


def oracle_beta_expand_interval(x, ctx, n):
    """Interval Horner over the base's bracket, doubling the precision until
    every digit is decided or the cap is reached."""
    if not (0 <= x.lo and x.hi < 1):
        raise ValueError("x interval must lie within [0, 1)")
    beta_hi = float(ctx.beta_bounds(64).hi)
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


def oracle_powi(x, k):
    """Integer power by repeated interval squaring (k may be negative)."""
    if k == 0:
        return BoundedReal.exact(1)
    if k < 0:
        return BoundedReal.exact(1) / oracle_powi(x, -k)
    acc = BoundedReal.exact(1)
    base = x
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc


def oracle_word_sum_bounds(w, ctx, after=None):
    """Horner over BoundedReal with an outward dyadic shrink after each digit.
    Given ``after``, the sum S(v) of digits that follow w, the pass runs on
    from it and returns S(w + v) as the pass over w + v would."""
    if ctx.beta_fraction is not None:
        value = word_value_fraction(w, ctx.beta_fraction)
        if after is not None:
            value += after.lo * ctx.beta_fraction ** -len(w)
        return BoundedReal.exact(value)
    bits = ctx.precision_bits
    binv = BoundedReal.exact(1) / ctx.beta_bounds(bits)
    acc = BoundedReal.exact(0) if after is None else after
    for d in reversed(w):
        acc = ((acc + d) * binv).shrink(bits + 64)
    return acc


def oracle_beta_power_bounds(ctx, k):
    if ctx.beta_fraction is not None:
        return ctx.beta_fraction ** k, ctx.beta_fraction ** k
    iv = ctx.beta_bounds(ctx.precision_bits).powi(k)
    return iv.lo, iv.hi


def element_bases():
    return {"2.5": BetaContext.from_value("2.5"), "7/5": BetaContext.from_value("7/5"),
            "3": BetaContext.from_value(3), "golden": BetaContext.golden(),
            "x^3-x-1": BetaContext.from_root(CUBIC, 1, 2)}


class FractionElement:
    """An element of Q(beta) as Fraction coefficients of 1, beta, beta^2, ...
    (one coefficient for a rational base), with signs by ``oracle_element_sign``."""

    def __init__(self, ctx, x):
        self.ctx = ctx
        degree = 1 if ctx.beta_fraction is not None else ctx.exact.degree
        self.vec = [Fraction(x)] + [Fraction(0)] * (degree - 1)

    def times_beta(self):
        if self.ctx.beta_fraction is not None:
            self.vec = [self.vec[0] * self.ctx.beta_fraction]
        else:
            self.vec = multiply_by_root(self.vec, self.ctx.exact.poly)

    def sign(self, minus=0):
        """The sign of the value minus an integer."""
        vec = [self.vec[0] - minus] + self.vec[1:]
        if self.ctx.beta_fraction is not None:
            return (vec[0] > 0) - (vec[0] < 0)
        den = math.lcm(*(c.denominator for c in vec))
        return oracle_element_sign([int(c * den) for c in vec], self.ctx.exact)

    def value(self):
        beta = self.ctx.beta_bounds(256).center
        return sum(c * beta**i for i, c in enumerate(self.vec))

    def matches(self, element):
        if self.ctx.beta_fraction is not None:
            return Fraction(element.num, element.den) == self.vec[0]
        return [Fraction(c, element.den) for c in element.vec] == self.vec


fractions_in_unit = st.builds(Fraction, st.integers(0, 999), st.integers(1000, 5000))


BITS_GRID = (None, 64, 100, 192, 300)


def at_bits(ctx, bits):
    """A fresh context for ctx's base at working precision bits (None: the
    default), sharing its root bracket; the constructor clamps bits to at
    least 64."""
    return BetaContext(ctx.exact, bits or DEFAULT_PRECISION_BITS)


def kernel_bases():
    """Fresh contexts: golden, x^3 - x - 1 and two truncated bases.

    Each call builds new root brackets, so two calls share no cached
    enclosure.
    """
    golden = BetaContext.golden()
    return [golden, BetaContext.from_root(CUBIC, 1, 2),
            approximate_beta(BetaContext.from_value("2.5"), 5),
            approximate_beta(golden, 3)]


def random_words(rng, amax, count):
    words = [()]
    for _ in range(count):
        n = rng.choice((1, 2, 5, 13, 40, 64))
        words.append(tuple(rng.randint(-2, amax + 1) for _ in range(n)))
    return words


class TestElements:
    bases = element_bases()

    @settings(max_examples=80)
    @given(st.data())
    def test_operations_against_fractions(self, data):
        ctx = self.bases[data.draw(st.sampled_from(sorted(self.bases)))]
        x = data.draw(fractions_in_unit)
        element, ref = ctx._element(x), FractionElement(ctx, x)
        ops = st.tuples(st.sampled_from(("push", "next_digit", "add", "sub")),
                        st.integers(-3, 3), fractions_in_unit)
        for op, c, y in data.draw(st.lists(ops, max_size=12)):
            if op == "push":
                element.push(c)
                ref.times_beta()
                ref.vec[0] += c
            elif op == "next_digit":
                digit = element.next_digit()
                ref.times_beta()
                assert ref.sign(digit) >= 0 and ref.sign(digit + 1) < 0
                ref.vec[0] -= digit
            else:
                # y + c beta, an element off the rationals for an algebraic base
                other, other_ref = ctx._element(y), FractionElement(ctx, y)
                other.push(0)
                other_ref.times_beta()
                other.add(ctx._element(Fraction(c)))
                other_ref.vec[0] += c
                getattr(element, op)(other)
                sign = 1 if op == "add" else -1
                ref.vec = [a + sign * b for a, b in zip(ref.vec, other_ref.vec)]
            assert ref.matches(element), op
            assert element.sign() == ref.sign()
            assert element.is_zero() == (ref.sign() == 0)
            log2 = element.log2_abs()
            if ref.sign() == 0:
                assert log2 is None
            else:
                assert abs(log2 - math.log2(abs(ref.value()))) < 1e-6


class TestIntervalExpansion:
    def test_indeterminate_interval_raises_at_once(self):
        x = BoundedReal.from_endpoints(Fraction(1, 3), Fraction(1, 2))
        for ctx in (BetaContext.golden(), BetaContext.from_root(CUBIC, 1, 2)):
            lo, hi = beta_expand(x.lo, ctx, 12), beta_expand(x.hi, ctx, 12)
            first = next(k for k in range(12) if lo[k] != hi[k])
            start = time.perf_counter()
            with pytest.raises(DigitIndeterminateError) as info:
                beta_expand(x, ctx, 12)
            assert time.perf_counter() - start < 1.0
            assert str(info.value) == f"digit indeterminate at step {first + 1}"
            # the endpoints are exact, so no digit read beta past the precision
            assert max(ctx.exact._bounds) <= ctx.precision_bits
            assert beta_expand(x, ctx, first) == lo[:first]

    def test_determinate_intervals_match_the_escalation_loop(self):
        rng = random.Random(91)
        for name in ("2.5", "7/5", "golden"):
            ctx = element_bases()[name]
            for _ in range(25):
                lo = Fraction(rng.getrandbits(40), 1 << 40)
                width = Fraction(rng.randrange(1, 1 << 20), 1 << 40)
                hi = min(lo + width, 1 - Fraction(1, 1 << 40))
                shared = 0
                while shared < 16 and beta_expand(lo, ctx, shared + 1) == \
                        beta_expand(hi, ctx, shared + 1):
                    shared += 1
                x = BoundedReal.from_endpoints(lo, hi)
                n = rng.randint(0, shared)
                assert beta_expand(x, ctx, n) == oracle_beta_expand_interval(x, ctx, n), \
                    (name, lo, hi, n)
                if shared < 16:
                    with pytest.raises(DigitIndeterminateError, match=f"step {shared + 1}$"):
                        beta_expand(x, ctx, shared + 1)

    def test_long_shared_prefixes_raise_at_the_first_difference(self):
        # endpoints 2**-k apart share about k log_beta(2) digits, so the first
        # difference falls inside the later, doubled chunks of both extends
        rng = random.Random(92)
        for name in ("2.5", "golden", "x^3-x-1"):
            ctx = element_bases()[name]
            for k in (70, 150, 330, 700):
                lo = Fraction(rng.getrandbits(k + 20), 1 << (k + 20))
                hi = lo + Fraction(1, 1 << k)
                n = 3 * k  # log_beta(2) < 2.5 on these bases
                a, b = beta_expand(lo, ctx, n), beta_expand(hi, ctx, n)
                first = next(i for i in range(n) if a[i] != b[i])
                x = BoundedReal.from_endpoints(lo, hi)
                with pytest.raises(DigitIndeterminateError) as info:
                    beta_expand(x, ctx, n)
                assert str(info.value) == f"digit indeterminate at step {first + 1}"
                assert beta_expand(x, ctx, first) == a[:first]


class TestWordSums:
    shared_bases = kernel_bases()

    def test_word_sums_and_powers_on_random_cases(self):
        # the library and the oracle each run on their own contexts
        rng = random.Random(71)
        for ours, ref in zip(kernel_bases(), kernel_bases()):
            assert ours.exact.poly == ref.exact.poly
            for w in random_words(rng, ours.alphabet_max, 30):
                bits = rng.choice(BITS_GRID)
                assert word_sum_bounds(w, at_bits(ours, bits)) == \
                    oracle_word_sum_bounds(w, at_bits(ref, bits)), (w, bits)
                k = rng.randrange(-80, 80)
                bits = rng.choice(BITS_GRID)
                assert beta_power_bounds(at_bits(ours, bits), k) == \
                    oracle_beta_power_bounds(at_bits(ref, bits), k), (k, bits)
                assert (ours.exact.lo, ours.exact.hi) == (ref.exact.lo, ref.exact.hi)

    @settings(max_examples=60)
    @given(st.data())
    def test_word_sums_on_drawn_words(self, data):
        ctx = data.draw(st.sampled_from(self.shared_bases))
        digits = st.integers(-2, ctx.alphabet_max + 1)
        w = tuple(data.draw(st.lists(digits, max_size=64)))
        ctx = at_bits(ctx, data.draw(st.sampled_from(BITS_GRID)))
        assert word_sum_bounds(w, ctx) == oracle_word_sum_bounds(w, ctx)

    def test_rational_base(self):
        ctx = BetaContext.from_value("2.5")
        rng = random.Random(73)
        for w in random_words(rng, ctx.alphabet_max, 20):
            assert word_sum_bounds(w, ctx) == oracle_word_sum_bounds(w, ctx)
        for k in range(-80, 80, 7):
            assert beta_power_bounds(ctx, k) == oracle_beta_power_bounds(ctx, k)

    def test_powi_matches_repeated_squaring(self):
        rng = random.Random(52)
        for _ in range(2000):
            lo = Fraction(rng.randint(-300, 300), rng.randint(1, 30))
            x = BoundedReal.from_endpoints(lo, lo + Fraction(rng.randint(0, 40), 20))
            k = rng.randint(0, 9)
            got, ref = x.powi(k), oracle_powi(x, k)
            if x.lo < 0 < x.hi:
                # straddling 0: still an enclosure, and never looser
                assert ref.lo <= got.lo <= got.hi <= ref.hi
            else:
                assert got == ref


# ---------------------------------------------------------------------------
# orbit digit streams
# ---------------------------------------------------------------------------


def oracle_digit_stream(element, n):
    """The per-digit loop that ``extend`` replaced: n ``next_digit`` calls."""
    return [element.next_digit() for _ in range(n)]


def stream_bases():
    return {"golden": BetaContext.golden(), "x^3-x-1": BetaContext.from_root(CUBIC, 1, 2),
            "x^2-3x+1": BetaContext.from_root((1, -3, 1), 2, 3),
            "x^2-5x+5": BetaContext.from_root((5, -5, 1), 3, 4)}


def element_state(element):
    if hasattr(element, "vec"):
        return list(element.vec), element.den
    return element.num, element.den


def inverse_power(ctx, k):
    """beta**-k as an element, for a base whose polynomial ends in +-1."""
    poly = ctx.exact.poly
    assert abs(poly[0]) == 1
    element = ctx._element(Fraction(1))
    for _ in range(k):
        # x / beta = c_0 / beta + sum c_i beta**(i-1), and
        # 1 / beta = -(poly[1] + poly[2] beta + ... + beta**(d-1)) / poly[0]
        c0, rest = element.vec[0], element.vec[1:] + [0]
        element.vec = [r - c0 * poly[0] * poly[i + 1] for i, r in enumerate(rest)]
    return element


def count_floors(monkeypatch):
    """Record every certified floor the exact elements take."""
    calls = []
    inner = expansion.floor_element

    def counted(*args):
        calls.append(args[1])
        return inner(*args)
    monkeypatch.setattr(expansion, "floor_element", counted)
    return calls


def oracle_float_start(run, vec, den):
    """(v, err) with |x - v| <= err for x = (sum vec[i] beta**i) / den, as
    the float run's block start computed it before it moved into ``extend``."""
    acc = size = perr = 0.0
    for c, pw, pe in zip(vec, run.powers, run.power_errs):
        cf = float(c)
        acc += cf * pw
        cf = abs(cf)
        size += cf * pw
        perr += cf * pe
    bound = perr + (4 * len(vec) + 4) * 2.0**-53 * size
    return max(acc / float(den), 0.0), 2.0 * bound / float(den)


def table_bases():
    bases = stream_bases()
    bases["golden N=3"] = approximate_beta(bases["golden"], 3)
    return bases


def element_within(element, v, err):
    """Whether |x - v| <= err for the element's exact x, decided exactly."""
    for end, sign in ((Fraction(v) - Fraction(err), 1), (Fraction(v) + Fraction(err), -1)):
        diff = list(element.vec)
        diff[0] -= element.den * end
        if oracle_element_sign(diff, element.root) * sign < 0:
            return False
    return True


class TestDigitStreams:
    def test_word_steps_match_the_per_digit_loop(self):
        rng = random.Random(107)
        for name, ctx in table_bases().items():
            run = ctx._float_run
            t, block = run.word_len, run.block
            for n in (t - 1, t, t + 1, block - 1, block, block + 1, 2 * block + t + 3, 4000):
                x = Fraction(rng.getrandbits(64), 1 << 64)
                ours, ref = orbit_digit_stream(ctx, x), orbit_digit_stream(ctx, x)
                out = []
                ours.extend(out, n)
                assert out == oracle_digit_stream(ref, n), (name, x, n)
                assert element_state(ours) == element_state(ref), (name, x, n)
                pieces, got = orbit_digit_stream(ctx, x), []
                while len(got) < n:
                    pieces.extend(got, min(rng.randrange(0, 2 * block + t), n - len(got)))
                assert got == out, (name, x, n)
                assert element_state(pieces) == element_state(ours), (name, x, n)

    def test_word_table_is_the_admissible_words(self):
        bases = table_bases()
        # B = 7 and its expansion of 1 ends at 12, past the B + 1 digits the table reads
        bases["19/2 N=12"] = approximate_beta(BetaContext.from_value("19/2"), 12)
        sizes = {name: (ctx._float_run.word_len, len(ctx._float_run.words))
                 for name, ctx in bases.items()}
        assert sizes == {"golden": (16, 2584), "x^3-x-1": (28, 4085), "x^2-3x+1": (8, 2584),
                         "x^2-5x+5": (6, 2566), "golden N=3": (21, 4023),
                         "19/2 N=12": (3, 903)}
        assert bases["19/2 N=12"]._float_run.block == 7
        bound = Fraction(1, 2**53) + Fraction(1, 2**90)
        for name, ctx in bases.items():
            run = ctx._float_run
            t = run.word_len
            # the longest length up to B with at most 2**12 words
            assert t == run.block or count_admissible(ctx, t + 1) > 1 << 12, name
            words = [tuple(w) for w in run.words]
            assert words == list(enumerate_admissible(ctx, t)), name
            lefts = run.lefts
            assert lefts[0] == 0.0 and lefts[-1] == 1.0 and len(lefts) == len(words) + 1
            assert all(a < b for a, b in zip(lefts, lefts[1:])), name
            for w, left in zip(words, lefts):
                s = word_sum_bounds(w, ctx)
                assert s.lo - bound <= Fraction(left) <= s.hi + bound, (name, w)

    def test_word_step_bounds_the_exact_state(self):
        rng = random.Random(108)
        for name, ctx in table_bases().items():
            run = ctx._float_run
            for _ in range(6):
                exact = orbit_digit_stream(ctx, Fraction(rng.getrandbits(64), 1 << 64))
                v, err = oracle_float_start(run, exact.vec, exact.den)
                out, words = [], []
                # no resync: err grows by beta**t a step until a margin fails
                while True:
                    taken = len(words)
                    v, err = run.word_steps(v, err, 1, out, words)
                    if len(words) == taken:
                        break
                    assert oracle_digit_stream(exact, run.word_len) == list(run.words[words[-1]])
                    assert element_within(exact, v, err), (name, len(words))
                assert len(words) >= 2, name

    def test_random_points_match_the_per_digit_loop(self):
        rng = random.Random(101)
        cases = []
        for name, ctx in stream_bases().items():
            block = ctx._float_run.block
            for i in range(8):
                x = (Fraction(rng.getrandbits(64), 1 << 64) if i % 2
                     else Fraction(rng.randrange(1, 997), 997))
                n = rng.choice((1, block - 1, block, block + 1, 3 * block + 5, 700))
                cases.append((name, ctx, x, n))
        # a denominator past 900 bits: every digit takes the exact path
        cases.append(("golden", stream_bases()["golden"], Fraction(3, 1 << 1001), 700))
        for name, ctx, x, n in cases:
            ours, ref = orbit_digit_stream(ctx, x), orbit_digit_stream(ctx, x)
            out = [7]
            ours.extend(out, n)
            assert out[1:] == oracle_digit_stream(ref, n), (name, x, n)
            assert element_state(ours) == element_state(ref), (name, x, n)

    def test_blocks_per_base(self):
        blocks = {name: ctx._float_run.block for name, ctx in stream_bases().items()}
        assert blocks == {"golden": 32, "x^3-x-1": 32, "x^2-3x+1": 17, "x^2-5x+5": 12}
        # beta near 2**25: no block keeps beta_f**B below 2**24, so every digit is exact
        huge = BetaContext.from_root((-(1 << 50), -1, 1), 1 << 25, (1 << 25) + 1)
        assert huge._float_run is None
        # beta near 100: B = 3, but the 10,101 admissible words of length 2
        # are too many for a word table, so the float run takes one digit a step
        wide = BetaContext.from_root((-1, -100, 1), 100, 101)
        run = wide._float_run
        assert (run.block, run.word_len, wide.alphabet_max) == (3, 0, 100)
        x = Fraction(2**64 - 59, 2**64)
        for ctx in (huge, wide):
            ours, ref = orbit_digit_stream(ctx, x), orbit_digit_stream(ctx, x)
            out = []
            ours.extend(out, 40)
            assert out == oracle_digit_stream(ref, 40)
            assert element_state(ours) == element_state(ref)

    def test_pieces_match_one_call(self):
        rng = random.Random(102)
        for ctx in stream_bases().values():
            x = Fraction(rng.getrandbits(64), 1 << 64)
            whole, pieces = orbit_digit_stream(ctx, x), orbit_digit_stream(ctx, x)
            out = []
            while len(out) < 400:
                pieces.extend(out, rng.randrange(0, 45))
            ref = []
            whole.extend(ref, len(out))
            assert out == ref
            assert element_state(pieces) == element_state(whole)

    def test_boundary_starts_take_the_certified_floor(self, monkeypatch):
        bases = stream_bases()
        calls = count_floors(monkeypatch)
        for name, ctx in bases.items():
            # x = 0 is fixed: its digits are all 0, with no floor to take
            ours, ref = orbit_digit_stream(ctx, Fraction(0)), orbit_digit_stream(ctx, Fraction(0))
            out = []
            del calls[:]
            ours.extend(out, 70)
            assert not calls
            assert out == oracle_digit_stream(ref, 70) == [0] * 70
            assert element_state(ours) == element_state(ref)
            if abs(ctx.exact.poly[0]) != 1:
                continue
            # beta**-k: digit k lands exactly on 1, inside or at the end of a
            # block, and only the floor can take it.  Its coefficients grow
            # with k, but the cubic's stay small, so the float run takes
            # every other digit there, as it does for small k on every base.
            for k in (1, 2, 5, 9, 31, 32, 33, 40):
                ours, ref = inverse_power(ctx, k), inverse_power(ctx, k)
                out = []
                del calls[:]
                ours.extend(out, 80)
                floors = len(calls)
                assert out == oracle_digit_stream(ref, 80) == [0] * (k - 1) + [1] + [0] * (80 - k)
                assert element_state(ours) == element_state(ref)
                assert floors >= 1, (name, k)
                if name == "x^3-x-1" or k <= 9:
                    assert floors == 1, (name, k)

    def test_construction_reads_each_digit_of_1_once(self, monkeypatch):
        # the first digit of 1 fixes the alphabet and the float run's word
        # table reads B + 1 digits, all from one stream that stops where the
        # expansion ends: golden at 2, x^3-x-1 at 5; B = 17 and 12 otherwise
        calls = count_floors(monkeypatch)
        floors = {}
        for name, build in (("golden", BetaContext.golden),
                            ("x^3-x-1", lambda: BetaContext.from_root(CUBIC, 1, 2)),
                            ("x^2-3x+1", lambda: BetaContext.from_root((1, -3, 1), 2, 3)),
                            ("x^2-5x+5", lambda: BetaContext.from_root((5, -5, 1), 3, 4))):
            del calls[:]
            build()
            floors[name] = len(calls)
        assert floors == {"golden": 2, "x^3-x-1": 5, "x^2-3x+1": 18, "x^2-5x+5": 13}

    def test_pisot_points_rarely_need_the_floor(self, monkeypatch):
        bases = stream_bases()
        calls = count_floors(monkeypatch)
        rng = random.Random(103)
        for name in ("golden", "x^3-x-1", "x^2-3x+1"):
            del calls[:]
            for _ in range(5):
                out = []
                orbit_digit_stream(bases[name], Fraction(rng.getrandbits(64), 1 << 64)).extend(out, 4000)
            assert len(calls) < 200, name  # 1 % of 20,000 digits

    def test_non_pisot_base_takes_the_exact_path(self, monkeypatch):
        ctx = stream_bases()["x^2-5x+5"]  # roots 3.618 and 1.382
        assert not recurrence._is_pisot(ctx.exact.poly)
        x = Fraction(12345, 65536)
        ours, ref = orbit_digit_stream(ctx, x), orbit_digit_stream(ctx, x)
        out = []
        ours.extend(out, 2500)
        assert out == oracle_digit_stream(ref, 2500)
        assert element_state(ours) == element_state(ref)
        assert max(c.bit_length() for c in ours.vec) > 900
        calls = count_floors(monkeypatch)
        ours.extend(out, 50)
        assert len(calls) == 50
        assert out[2500:] == oracle_digit_stream(ref, 50)
        assert element_state(ours) == element_state(ref)

    def test_rational_bases_match_the_per_digit_loop(self):
        rng = random.Random(104)
        for name in ("2.5", "7/5", "3"):
            ctx = element_bases()[name]
            for _ in range(6):
                x = Fraction(rng.randrange(0, 10**6), 10**6 + rng.randrange(1, 999))
                ours, ref = orbit_digit_stream(ctx, x), orbit_digit_stream(ctx, x)
                out = []
                ours.extend(out, 300)
                assert out == oracle_digit_stream(ref, 300)
                assert element_state(ours) == element_state(ref)

    def test_beta_expand_matches_orbit_views(self):
        rng = random.Random(106)
        bases = stream_bases()
        for ctx in (bases["golden"], bases["x^3-x-1"], element_bases()["2.5"]):
            for n in (0, 1, 31, 33, 2000):
                x = Fraction(rng.getrandbits(64), 1 << 64)
                view = OrbitView.from_point(ctx, x)
                view.ensure(n)
                assert list(beta_expand(x, ctx, n)) == view.digits(n)
                assert list(beta_expand(BoundedReal.exact(x), ctx, n)) == view.digits(n)

    def test_chained_ensure_calls(self):
        rng = random.Random(105)
        for ctx in list(stream_bases().values()) + [element_bases()["2.5"]]:
            x = Fraction(rng.getrandbits(64), 1 << 64)
            view, ref = OrbitView.from_point(ctx, x), orbit_digit_stream(ctx, x)
            digits = []
            for n in (1, 300, 513, 513, 1200, 2000):
                depth = view.ensure(n)
                assert depth >= n
                digits += oracle_digit_stream(ref, depth - len(digits))
                assert view.digits(depth) == digits
                assert element_state(view._stream) == element_state(ref)


# ---------------------------------------------------------------------------
# root brackets
# ---------------------------------------------------------------------------


class NoBracketError(ValueError):
    """Bisection endpoints do not bracket a sign change."""


def poly_eval(coeffs, x):
    """Evaluate sum(coeffs[i] * x**i) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def bisect_root_bounds(f, lo, hi, tol):
    """Bracket the root of a continuous, strictly monotone f by bisection.

    f is evaluated at exact rational points and only its sign is used.
    Returns the final bracket [lo, hi], with hi - lo <= 2*tol, or (r, r)
    once a midpoint r is a root.  Raises NoBracketError when f(lo) and f(hi)
    have the same sign.
    """
    lo, hi, tol = Fraction(lo), Fraction(hi), Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if hi <= lo:
        raise ValueError("empty bracket")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if (flo > 0) == (fhi > 0):
        raise NoBracketError("no bracketed root")
    increasing = fhi > 0
    while hi - lo > 2 * tol:
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == increasing:
            hi = mid
        else:
            lo = mid
    return lo, hi


def oracle_brackets(poly, lo, hi, bits_list):
    """{bits: the first bracket of width <= 2**-bits that bisection of
    [lo, hi] reaches}.

    Each bisection resumes from the bracket of the bits before it, which
    lies earlier on the same sequence of halvings, so one pass serves every
    bits in the list.
    """
    out = {}
    lo, hi = Fraction(lo), Fraction(hi)
    for bits in sorted(bits_list):
        width = Fraction(1, 1 << bits)
        if hi - lo > width:
            lo, hi = bisect_root_bounds(lambda x: poly_eval(poly, x), lo, hi, width / 2)
        out[bits] = (lo, hi)
    return out


def golden_ratio_oracle(digits=40):
    """(1 + sqrt(5)) / 2 via integer square root, independent of bisection."""
    scale = 10 ** digits
    s = Fraction(math.isqrt(5 * scale * scale), scale)
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


def truncation_brackets():
    """(poly, lo, hi) of every valid truncation N <= 14 of 2.5, the golden
    ratio and the root of x^3 - x - 1, N >= 2 (N = 1 is an integer base)."""
    out = []
    for ctx in (BetaContext.from_value("2.5"), BetaContext.golden(),
                BetaContext.from_root((-1, -1, 0, 1), 1, 2)):
        for n in range(2, 15):
            try:
                root = approximate_beta(ctx, n).exact
            except ValueError:  # e_n = 0: not a valid truncation index
                continue
            out.append((root.poly, root.lo, root.hi))
    return out


ROOT_BRACKETS = [
    ((-1, -1, 1), 1, 2),
    ((-1, -1, 0, 1), 1, 2),
    ((1, -3, 1), 2, 3),
    ((1, -1, -1, -1, 1), Fraction(17, 10), Fraction(7, 4)),  # a Salem number
]


# x^5 - 2 (100 x - 1)^2: two roots about 1.4e-7 apart, near 1/100; the
# bracket holds the upper one only
CLOSE_ROOTS = ((-2, 400, -20000, 0, 0, 1), Fraction(1, 100), Fraction(1, 50))


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


def assert_first_bisection_bracket(poly, lo, hi, bits):
    """bounds(bits) is the cell of the least dyadic grid on [lo, hi] that is
    fine enough, with strict signs of poly at its ends, those of lo and hi."""
    lo, hi = Fraction(lo), Fraction(hi)
    blo, bhi = RootBracket(poly, lo, hi).bounds(bits)
    cells = (hi - lo) / (bhi - blo)
    assert cells == 1 << (cells.numerator.bit_length() - 1)
    assert (hi - lo) / cells <= Fraction(1, 1 << bits) < (hi - lo) / (cells / 2)
    assert ((blo - lo) / (bhi - blo)).denominator == 1
    assert poly_eval(poly, blo) * poly_eval(poly, lo) > 0
    assert poly_eval(poly, bhi) * poly_eval(poly, hi) > 0


class TestRootBrackets:
    def test_brackets_are_the_bisection_brackets(self):
        # the Fraction oracle takes about 20 s to reach 2048 bits on every
        # truncation, so past 600 bits only the fixed brackets run it; the
        # truncations are checked against the definition there instead
        truncations = truncation_brackets()
        assert len(truncations) == 7 + 6 + 2
        for poly, lo, hi in ROOT_BRACKETS + [CLOSE_ROOTS] + truncations:
            bits_list = list(range(1, 601))
            if (poly, lo, hi) not in truncations:
                bits_list += [1000, 2048]
            ours = RootBracket(poly, Fraction(lo), Fraction(hi))
            ref = oracle_brackets(poly, lo, hi, bits_list)
            for bits in bits_list:
                assert ours.bounds(bits) == ref[bits], (poly, lo, hi, bits)
        for poly, lo, hi in truncations:
            for bits in (1000, 2048):
                assert_first_bisection_bracket(poly, lo, hi, bits)

    @pytest.mark.parametrize("bits", [4096, 16384, 65536])
    def test_definition_at_high_precision(self, bits):
        for poly, lo, hi in ROOT_BRACKETS:
            assert_first_bisection_bracket(poly, lo, hi, bits)

    def test_roots_on_the_grid(self):
        # x^2 - 1 on [0, 4]: the second midpoint is the root; x - 3 on
        # [0, 8]: the third
        for poly, hi, root in (((-1, 0, 1), 4, 1), ((-3, 1), 8, 3)):
            ours = RootBracket(poly, Fraction(0), Fraction(hi))
            ref = oracle_brackets(poly, 0, hi, range(0, 65))
            for bits in range(0, 65):
                assert ours.bounds(bits) == ref[bits] == (root, root)

    def test_a_poor_start_runs_the_search(self, monkeypatch):
        poly, lo, hi = CLOSE_ROOTS
        ref = oracle_brackets(poly, lo, hi, [64, 192, 600])
        root = ref[600][0]
        lower_root = Fraction(1, 100) - Fraction(7071, 10**11)  # outside [lo, hi]
        signs = []
        value = algebraic.scaled_value
        monkeypatch.setattr(algebraic, "scaled_value",
                            lambda *args: signs.append(args) or value(*args))
        for start in (root - Fraction(1, 1 << 40), root + Fraction(1, 1 << 150),
                      (lo + hi) / 2, lo, lower_root):
            monkeypatch.setattr(algebraic, "_newton", lambda *args: start)
            for bits in (192, 600):
                ours = RootBracket(poly, lo, hi)
                assert ours.bounds(64) == ref[64]  # where Newton would start
                del signs[:]
                assert ours.bounds(bits) == ref[bits], (start, bits)
                # one sign for the direction, and more than the two that a
                # good guess needs
                assert len(signs) > 3, (start, bits)


# ---------------------------------------------------------------------------
# truncation polynomials
# ---------------------------------------------------------------------------


def oracle_totients(limit):
    """[phi(0), ..., phi(limit)] by a sieve: phi(m) = m prod (1 - 1/p)."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # no smaller prime divides p
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def primitive_roots_of_unity(k):
    return np.exp(2j * np.pi * np.array([j for j in range(k) if math.gcd(j, k) == 1]) / k)


def oracle_cyclotomic(k):
    """Phi_k, constant term first, as the rounded product of x - zeta over
    the primitive k-th roots of unity zeta."""
    coeffs = np.poly(primitive_roots_of_unity(k)).real[::-1]
    rounded = np.rint(coeffs)
    assert np.abs(coeffs - rounded).max() < 1e-6
    return tuple(int(c) for c in rounded)


def oracle_no_common_root(poly, k):
    """Whether Phi_k does not divide poly, an integer polynomial of degree
    at most 40 with coefficients below 10.  The product of |poly| over the
    primitive k-th roots of unity is |Res(Phi_k, poly)|, an integer, so at
    least 1 when they share no root; when they do, Phi_k divides poly and
    every factor is 0.  Float rounding moves each factor by far less than
    1e-9, so a product of at least 1/2 decides."""
    values = np.polyval(np.array(poly[::-1], dtype=float), primitive_roots_of_unity(k))
    return float(np.prod(np.abs(values))) >= 0.5


def parry_polynomial(ctx, N):
    """x^N - sum e_i x^(N-i) over the first N digits of 1, constant term first."""
    return tuple(-e for e in reversed(ctx.eps_star(N))) + (1,)


def poly_product(*polys):
    out = (1,)
    for p in polys:
        acc = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                acc[i + j] += a * b
        out = tuple(acc)
    return out


def truncation_bases():
    return {"2.5": BetaContext.from_value("2.5"), "7/5": BetaContext.from_value("7/5"),
            "10/3": BetaContext.from_value("10/3"), "9/5": BetaContext.from_value("9/5"),
            "37/10": BetaContext.from_value("37/10"), "golden": BetaContext.golden(),
            "x^3-x-1": BetaContext.from_root(CUBIC, 1, 2)}


# the valid truncations N <= 40 of the bases above whose Parry polynomial
# carries a cyclotomic factor
REDUCIBLE_TRUNCATIONS = {
    "2.5": (14, 20, 22, 24, 30), "7/5": (11, 28), "10/3": (6,),
    "9/5": (4, 13, 21, 24, 27, 35, 37), "x^3-x-1": (31,),
}


class TestTruncationPolynomials:
    def test_cyclotomic_factors_are_divided_out(self):
        # phi(k) >= sqrt(k/2), so every k with phi(k) <= 40 is below 3,200
        phi = oracle_totients(2 * 40**2)
        cyclotomic = {k: oracle_cyclotomic(k) for k in range(1, len(phi)) if phi[k] <= 40}
        reducible = {}
        for name, ctx in truncation_bases().items():
            digits = ctx.eps_star(40)
            for N in range(2, 41):
                if digits[N - 1] == 0:
                    continue
                parry = parry_polynomial(ctx, N)
                quotient, removed = algebraic.strip_cyclotomic(parry)
                assert poly_product(quotient, *removed) == parry, (name, N)
                assert all(f in cyclotomic.values() for f in removed), (name, N)
                for k in cyclotomic:
                    if phi[k] <= N:
                        assert oracle_no_common_root(quotient, k), (name, N, k)
                if removed:
                    reducible.setdefault(name, []).append(N)
        assert {name: tuple(ns) for name, ns in reducible.items()} == REDUCIBLE_TRUNCATIONS

    def test_reducible_truncations_keep_their_brackets_and_digits(self):
        # the root, its brackets and the digits of 1 are those the Parry
        # polynomial gives, and by Parry the digits are the periodic
        # (e_1, ..., e_(N-1), e_N - 1)
        bases = truncation_bases()
        for name, ns in REDUCIBLE_TRUNCATIONS.items():
            ctx = bases[name]
            for N in ns:
                parry = parry_polynomial(ctx, N)
                ours = approximate_beta(ctx, N)
                ref = BetaContext(RootBracket(parry, Fraction(1), ctx.beta_bounds().hi))
                assert len(ours.exact.poly) < len(parry)
                for bits in (192, 1000):
                    assert ours.exact.bounds(bits) == ref.exact.bounds(bits), (name, N)
                period = ctx.eps_star(N)[:-1] + (ctx.eps_star(N)[-1] - 1,)
                assert ours.eps_star(2000) == ref.eps_star(2000) == (period * 2000)[:2000]
