import random
from fractions import Fraction

import pytest

from betarec.expansion import (
    BetaContext,
    approximate_beta,
    beta_expand,
    evaluate_word,
    word_from_text,
    word_value_fraction,
)
from betarec.numerics import BoundedReal


GOLDEN_INV_SQ = Fraction("0.3819660112501052")  # just above 2 - phi


@pytest.fixture(scope="module")
def phi():
    return BetaContext.golden()


@pytest.fixture(scope="module")
def base25():
    return BetaContext.from_value("2.5")


class TestContext:
    def test_alphabets(self, phi, base25):
        assert BetaContext.from_value(2).alphabet_max == 1
        assert phi.alphabet_max == 1
        assert base25.alphabet_max == 2
        assert BetaContext.from_value("3.7").alphabet_max == 3

    def test_eps_star_integer_base(self):
        ctx = BetaContext.from_value(2)
        assert ctx.eps_star(4) == (1, 1, 1, 1)
        assert ctx.detect_simple_parry(10) == 1

    def test_eps_star_golden(self, phi):
        assert phi.detect_simple_parry(10) == 2
        assert phi.eps_star(6) == (1, 0, 1, 0, 1, 0)

    def test_eps_star_non_parry(self, base25):
        assert base25.detect_simple_parry(50) is None
        digits = base25.eps_star(60)
        assert digits[:4] == (2, 1, 0, 1)
        # identity: sum of digits * beta^-i equals 1 up to the tail bound
        value = word_value_fraction(digits, Fraction(5, 2))
        beta = Fraction(5, 2)
        tail = beta ** -60 * beta / (beta - 1)
        assert 0 <= 1 - value <= tail

    def test_eps_star_self_admissible(self, base25, phi):
        # every shifted suffix is lexicographically <= the prefix
        for ctx in (base25, phi, BetaContext.from_value("1.8")):
            star = ctx.eps_star(220)
            for j in range(1, 200):
                length = 200 - j
                assert star[j:j + length] <= star[:length]


class TestExpand:
    def test_binary_half(self):
        ctx = BetaContext.from_value(2)
        assert beta_expand(Fraction(1, 2), ctx, 3) == (1, 0, 0)

    def test_zero_fixed_point(self, base25):
        assert beta_expand(Fraction(0), base25, 5) == (0, 0, 0, 0, 0)

    def test_golden_inverse_square(self, phi):
        assert beta_expand(GOLDEN_INV_SQ, phi, 4) == (0, 1, 0, 0)

    def test_interval_input(self, base25):
        x = BoundedReal(Fraction(1, 3), Fraction(1, 10**20))
        assert beta_expand(x, base25, 8) == beta_expand(Fraction(1, 3), base25, 8)

    def test_interval_input_rejects_outside_unit(self, base25):
        with pytest.raises(ValueError):
            beta_expand(BoundedReal(Fraction(2), Fraction(1, 4)), base25, 3)

    def test_round_trip_random(self, phi, base25):
        rng = random.Random(11)
        bases = [phi, BetaContext.from_value("1.8"), BetaContext.from_value(2),
                 base25, BetaContext.from_value("3.3")]
        for ctx in bases:
            beta_hi = ctx.beta_bounds(64).hi
            for _ in range(200):
                x = Fraction(rng.getrandbits(50), 1 << 50)
                for n in (7, 23, 40):
                    w = beta_expand(x, ctx, n)
                    assert all(0 <= d <= ctx.alphabet_max for d in w)
                    v = evaluate_word(w, ctx)
                    assert v.lo - beta_hi ** -n <= x <= v.hi + beta_hi ** -n


class TestEvaluate:
    def test_binary_prefix(self):
        ctx = BetaContext.from_value(2)
        v = evaluate_word((1, 0, 0), ctx)
        assert v.lo == Fraction(1, 2) and v.hi == Fraction(5, 8)

    def test_empty_word(self, base25):
        v = evaluate_word((), base25)
        assert v.lo == 0 and v.hi == 1

    def test_golden_digit_two(self, phi):
        v = evaluate_word((0, 1), phi)
        # lower endpoint is phi^-2 = 2 - phi, the tail allowance is phi^-2 again
        assert abs(float(v.lo) - 0.3819660112501051) < 1e-13
        assert abs(float(v.hi) - 2 * 0.3819660112501051) < 1e-12


class TestApproximateBeta:
    def test_golden_truncation_is_cubic_root(self, phi):
        b3 = approximate_beta(phi, 3)
        assert b3.eps_star(6) == (1, 0, 0, 1, 0, 0)
        got = b3.beta_bounds(80)
        assert abs(float(got.center) - 1.4655712318767682) < 1e-12

    def test_base_two_n1_fails(self):
        with pytest.raises(ValueError, match="truncation too short"):
            approximate_beta(BetaContext.from_value(2), 1)

    def test_base_two_n2_is_golden(self):
        b2 = approximate_beta(BetaContext.from_value(2), 2)
        assert abs(float(b2.beta_bounds(80).center) - 1.618033988749895) < 1e-12
        assert b2.eps_star(4) == (1, 0, 1, 0)

    def test_invalid_truncation_index(self, phi):
        with pytest.raises(ValueError, match="invalid truncation index"):
            approximate_beta(phi, 2)  # eps_star(phi) = 1,0,1,0 has a zero there

    def test_integer_root_from_25(self, base25):
        b1 = approximate_beta(base25, 1)
        assert b1.beta_fraction == 2

    def test_monotone_lex_below_parent(self, base25):
        for N in (3, 4, 6):
            if base25.eps_star(N)[N - 1] == 0:
                continue
            bn = approximate_beta(base25, N)
            a = bn.eps_star(2 * N + 4)
            b = base25.eps_star(2 * N + 4)
            assert a < b  # strict lexicographic order at the first difference

    def test_convergence_to_parent(self, base25):
        beta = Fraction(5, 2)
        prev = Fraction(1)
        for N in (5, 10, 20, 40):
            digits = base25.eps_star(N)
            if digits[N - 1] == 0:
                N += 1  # pick a valid index nearby
                digits = base25.eps_star(N)
                if digits[N - 1] == 0:
                    continue
            bn = approximate_beta(base25, N)
            mid = bn.beta_bounds(200).center
            assert prev < mid < beta
            assert beta - mid < 10 * beta ** -N
            prev = mid


def test_word_helpers():
    assert word_from_text("1,0,2") == (1, 0, 2)
    assert word_from_text("102") == (1, 0, 2)
    assert word_from_text("") == ()

