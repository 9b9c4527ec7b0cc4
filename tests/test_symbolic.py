import random
from fractions import Fraction

import pytest

from betarec.expansion import BetaContext, approximate_beta, beta_expand
from betarec.symbolic import (
    count_admissible,
    cylinder,
    enumerate_admissible,
    full_window_check,
    is_admissible,
    is_full,
    lex_compare,
    max_nonfull_run,
)
from oracles_symbolic import is_admissible_naive


@pytest.fixture(scope="module")
def phi():
    return BetaContext.golden()


@pytest.fixture(scope="module")
def base25():
    return BetaContext.from_value("2.5")


def random_word(rng, length, amax):
    return tuple(rng.randint(0, amax) for _ in range(length))


class TestLex:
    def test_basic(self):
        assert lex_compare((1, 0), (1, 1)) == -1
        assert lex_compare((1, 0), (1, 0)) == 0
        assert lex_compare((2, 0, 0), (1, 9, 9)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lex_compare((1,), (1, 0))


class TestAdmissible:
    def test_golden_forbidden_factor(self, phi):
        assert not is_admissible((1, 1), phi)
        assert is_admissible((1, 0, 1, 0, 1), phi)

    def test_full_shift(self):
        ctx = BetaContext.from_value(2)
        rng = random.Random(5)
        for _ in range(50):
            assert is_admissible(random_word(rng, 10, 1), ctx)

    def test_automaton_equals_naive(self, phi, base25):
        rng = random.Random(77)
        for ctx in (phi, BetaContext.from_value("1.8"), base25,
                    BetaContext.from_value("3.7")):
            for _ in range(400):
                w = random_word(rng, rng.randint(1, 24), ctx.alphabet_max)
                assert is_admissible(w, ctx) == is_admissible_naive(w, ctx)

    def test_expansion_closure(self, base25, phi):
        rng = random.Random(13)
        for ctx in (base25, phi):
            for _ in range(60):
                x = Fraction(rng.getrandbits(40), 1 << 40)
                assert is_admissible(beta_expand(x, ctx, 20), ctx)

    def test_admissible_for_simple_parry_from_truncation(self, phi):
        # the cubic base: expansion of 1 is periodic (1,0,0)
        b3 = approximate_beta(phi, 3)
        assert is_admissible((1, 0, 0, 1, 0), b3)
        assert not is_admissible((1, 0, 1), b3)


class TestCounting:
    def test_binary(self):
        assert count_admissible(BetaContext.from_value(2), 10) == 1024

    def test_fibonacci(self, phi):
        fib = [2, 3, 5, 8, 13, 21]
        for n, expected in enumerate(fib, start=1):
            assert count_admissible(phi, n) == expected

    def test_renyi_bounds(self, base25):
        beta = Fraction(5, 2)
        v = count_admissible(base25, 8)
        assert beta**8 <= v <= beta**9 / (beta - 1)

    def test_count_matches_enumeration(self, base25, phi):
        for ctx in (phi, base25, BetaContext.from_value("3.7")):
            for n in (1, 2, 3, 5):
                assert count_admissible(ctx, n) == sum(1 for _ in enumerate_admissible(ctx, n))


class TestEnumerate:
    def test_golden_two(self, phi):
        assert list(enumerate_admissible(phi, 2)) == [(0, 0), (0, 1), (1, 0)]

    def test_binary_two(self):
        ctx = BetaContext.from_value(2)
        assert list(enumerate_admissible(ctx, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_golden_three_no_adjacent_ones(self, phi):
        words = list(enumerate_admissible(phi, 3))
        assert len(words) == 5
        for w in words:
            assert all(not (a == b == 1) for a, b in zip(w, w[1:]))
        assert words == sorted(words)

    def test_negative_lengths_are_rejected(self, phi):
        for call in (count_admissible, max_nonfull_run,
                     lambda ctx, n: list(enumerate_admissible(ctx, n))):
            with pytest.raises(ValueError, match="n must be non-negative"):
                call(phi, -1)


class TestFull:
    def test_golden_singletons(self, phi):
        assert is_full((0,), phi)
        assert not is_full((1,), phi)

    def test_golden_period_word_is_full(self, phi):
        # cylinder of (1,0) is [phi^-1, 1), of length exactly phi^-2
        assert is_full((1, 0), phi)
        c = cylinder((1, 0), phi, refine=40)
        assert abs(float(c.length.center) - 0.3819660112501051) < 1e-8

    def test_binary_all_full(self):
        ctx = BetaContext.from_value(2)
        for w in enumerate_admissible(ctx, 4):
            assert is_full(w, ctx)

    def test_inadmissible_raises(self, phi):
        with pytest.raises(ValueError):
            is_full((1, 1), phi)

    def test_concatenation_oracle(self, phi, base25):
        # full <=> every admissible continuation keeps the word admissible
        for ctx, n, m in ((phi, 4, 6), (base25, 3, 4)):
            tails = list(enumerate_admissible(ctx, m))
            for w in enumerate_admissible(ctx, n):
                closed = all(is_admissible(w + t, ctx) for t in tails)
                assert closed == is_full(w, ctx)

    def test_length_oracle(self, base25):
        # full <=> cylinder length equals beta^-n within the refinement slack
        beta = Fraction(5, 2)
        for w in enumerate_admissible(base25, 4):
            c = cylinder(w, base25, refine=30)
            target = beta**-4
            matches = c.length.lo <= target <= c.length.hi
            assert matches == c.full == is_full(w, base25)


class TestCylinder:
    def test_golden_one(self, phi):
        c = cylinder((1,), phi, refine=40)
        assert abs(float(c.left.center) - 0.6180339887498949) < 1e-12
        assert abs(float(c.length.center) - 0.3819660112501051) < 1e-8
        assert not c.full

    def test_binary_one_zero(self):
        ctx = BetaContext.from_value(2)
        c = cylinder((1, 0), ctx)
        assert c.left.center == Fraction(1, 2)
        assert c.length.contains(Fraction(1, 4))
        assert c.full

    def test_golden_zero(self, phi):
        c = cylinder((0,), phi, refine=40)
        assert float(c.left.center) == 0
        assert abs(float(c.length.center) - 0.6180339887498949) < 1e-8
        assert c.full

    def test_negative_refine_is_rejected(self, phi, base25):
        for ctx in (phi, base25):
            with pytest.raises(ValueError, match="refine"):
                cylinder((1, 0), ctx, refine=-1)

    def test_list_words_on_both_kinds_of_base(self, phi, base25):
        # OrbitView.digits returns lists; the word is kept as a tuple
        for ctx, w in ((phi, [1, 0]), (base25, [2, 0, 1])):
            c = cylinder(w, ctx, refine=40)
            assert c == cylinder(tuple(w), ctx, refine=40)
            assert c.word == tuple(w)

    def test_partition(self, base25):
        # order-n cylinders tile [0, 1) in lexicographic order
        n, refine = 5, 30
        beta = Fraction(5, 2)
        cs = [cylinder(w, base25, refine) for w in enumerate_admissible(base25, n)]
        total_lo = sum(c.length.lo for c in cs)
        total_hi = sum(c.length.hi for c in cs)
        assert total_lo <= 1 <= total_hi
        assert total_hi - total_lo <= len(cs) * beta ** -(n + refine)
        for a, b in zip(cs, cs[1:]):
            assert a.left.center < b.left.center
            assert a.left.center + a.length.lo <= b.left.center + Fraction(1, 10**6)

    def test_eq_in_bounds_for_truncated_base_words(self, base25):
        # beta^-(n+N) <= |I_n(w, beta)| <= beta^-n for w admissible in the
        # truncated base
        N = 5
        bN = approximate_beta(base25, N)
        beta = Fraction(5, 2)
        for n in (3, 6):
            for w in enumerate_admissible(bN, n):
                c = cylinder(w, base25, refine=40)
                assert c.length.hi >= beta ** -(n + N)
                assert c.length.lo <= beta ** -n


class TestWindows:
    def test_binary_trivial(self):
        ctx = BetaContext.from_value(2)
        run, count = max_nonfull_run(ctx, 6)
        assert run == 0 and count == 64

    def test_golden_windows(self, phi):
        for n in range(1, 13):
            assert full_window_check(phi, n)

    def test_base25_windows(self, base25):
        for n in range(1, 11):
            assert full_window_check(base25, n)

    def test_run_matches_enumeration(self, base25, phi):
        for ctx in (phi, base25, BetaContext.from_value("3.7")):
            for n in (2, 4, 6):
                flags = [is_full(w, ctx) for w in enumerate_admissible(ctx, n)]
                best = cur = 0
                for f in flags:
                    cur = 0 if f else cur + 1
                    best = max(best, cur)
                run, count = max_nonfull_run(ctx, n)
                assert count == len(flags)
                assert run == best


class TestNestedBases:
    def test_truncated_base_words_admissible_in_parent(self, base25, phi):
        for parent, N in ((base25, 5), (phi, 3)):
            child = approximate_beta(parent, N)
            for n in (4, 8):
                for w in enumerate_admissible(child, n):
                    assert is_admissible(w, parent)

    def test_padding_with_zeros_is_full(self, base25):
        N = 4
        child = approximate_beta(base25, N)
        for n in (2, 4):
            for w in enumerate_admissible(child, n):
                assert is_full(w + (0,) * N, base25)
