import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from betarec import recurrence
from betarec.expansion import BetaContext, beta_expand, word_value_fraction
from betarec.recurrence import (
    FormViolationError,
    OrbitView,
    PeriodicPointError,
    PrefixForm,
    classify_prefix,
    compare_distance_power,
    digit_period,
    estimate_r,
    estimate_r_hat,
    extract_returns,
    neg_log_distance,
    recurrence_distance,
    verify_bracketing,
    z_array,
)


def orbit_point_fraction(view, n):
    """T^n x as a Fraction, from T^n x = beta^n (x - value of the first n digits)."""
    beta = view.ctx.beta_fraction
    return (view.point_fraction() - word_value_fraction(tuple(view.digits(n)), beta)) * beta**n


@pytest.fixture(scope="module")
def two():
    return BetaContext.from_value(2)


@pytest.fixture(scope="module")
def base25():
    return BetaContext.from_value("2.5")


def test_z_array():
    assert z_array([1, 0, 1, 0, 1]).tolist() == [5, 0, 3, 0, 1]
    assert z_array([0, 0, 0]).tolist() == [3, 2, 1]


class TestDistance:
    def test_fixed_point_zero(self, base25):
        v = OrbitView.from_point(base25, Fraction(0))
        for n in (1, 3, 7):
            d = recurrence_distance(v, n)
            assert d.center == 0 and d.radius == 0

    def test_period_two_point(self, two):
        v = OrbitView.from_point(two, Fraction(1, 3))
        assert recurrence_distance(v, 2).center == 0
        assert recurrence_distance(v, 1).center == Fraction(1, 3)

    def test_periodic_point_stops_at_the_scan_cap(self, two):
        # the match at 2 never ends, so the view doubles up to the cap and
        # no further: 3,000 digits reach 1,536,000, then 2^21, not 3,072,000
        v = OrbitView.from_point(two, Fraction(1, 3))
        v.ensure(3000)
        assert neg_log_distance(v, 2).censored
        assert v.depth == recurrence._SCAN_CAP == 1 << 21

    def test_compare_distance_power(self, two):
        v = OrbitView.from_point(two, Fraction(1, 3))
        assert compare_distance_power(v, 1, 1) == -1  # 1/3 < 1/2
        assert compare_distance_power(v, 1, 2) == 1   # 1/3 > 1/4
        w = OrbitView.from_point(two, Fraction(1, 4))
        # |T(1/4) - 1/4| = 1/4 exactly
        assert compare_distance_power(w, 1, 2) == 0

    def test_compare_algebraic(self):
        phi = BetaContext.golden()
        v = OrbitView.from_point(phi, Fraction(1, 3))
        d = recurrence_distance(v, 2)
        lam = neg_log_distance(v, 2)
        s = math.floor(lam.lo)
        assert compare_distance_power(v, 2, s + 1) >= 0
        assert compare_distance_power(v, 2, max(s - 1, 0)) <= 0

    def test_neg_log_matches_exact(self, base25):
        rng = random.Random(3)
        beta = Fraction(5, 2)
        for _ in range(25):
            x = Fraction(rng.getrandbits(48), 1 << 48)
            v = OrbitView.from_point(base25, x)
            for n in (1, 2, 5, 11):
                lam = neg_log_distance(v, n)
                if lam.censored:
                    continue
                dist = recurrence_distance(v, n).center
                if dist == 0:
                    continue
                exact = -math.log(float(dist)) / math.log(2.5)
                assert lam.lo - 1e-6 <= exact <= lam.hi + 1e-6

    def test_bounds_hold_on_a_salem_base(self):
        # not Pisot, so the float log2 of the partial sum inside
        # neg_log_distance is checked against the exact comparison in Q(beta)
        # one power outside each end of the interval
        salem = BetaContext.from_root((1, -1, -1, -1, 1), Fraction(17, 10), Fraction(7, 4))
        rng = random.Random(3)
        checked = 0
        for _ in range(3):
            v = OrbitView.from_point(salem, Fraction(rng.getrandbits(60), (1 << 61) - 1))
            for n in range(1, 150):
                lam = neg_log_distance(v, n)
                if lam.censored:
                    continue
                assert compare_distance_power(v, n, math.ceil(lam.lo) - 1) < 0, n
                assert compare_distance_power(v, n, math.floor(lam.hi) + 1) > 0, n
                checked += 1
        assert checked > 400


class TestShiftIdentity:
    def test_digits_of_image_are_shifted_stream(self, base25, two):
        # re-expanding the exact value of T^n x reproduces the shifted stream
        rng = random.Random(9)
        for ctx in (two, base25):
            for _ in range(20):
                x = Fraction(rng.getrandbits(40), 1 << 40)
                v = OrbitView.from_point(ctx, x)
                n = rng.randint(1, 12)
                head = v.digits(n + 15)
                tnx = orbit_point_fraction(v, n)
                again = beta_expand(tnx, ctx, 15)
                assert tuple(again) == tuple(head[n:n + 15])


class TestProfiles:
    def test_designed_sparse_returns(self, two):
        digits = [1, 0, 0, 0, 0, 1] + [0] * 24 + [1] + [0] * 40 + [1, 1, 0, 1] * 30
        v = OrbitView.from_digits(two, digits)
        prof = extract_returns(v, 2, monotone=False, search_limit=40)
        assert prof.n_seq[0] == 5
        for k in range(len(prof.n_seq)):
            assert verify_bracketing(v, prof, k)
            assert prof.t_seq[k] <= prof.m_seq[k] + 1

    def test_search_limit_below_one_is_a_typed_error(self, base25):
        for limit in (0, -5):
            v = OrbitView.from_point(base25, Fraction(7137, 10000))
            with pytest.raises(ValueError, match="search_limit must be at least 1"):
                extract_returns(v, 3, search_limit=limit)

    def test_fewer_than_two_digits_is_a_typed_error(self, base25):
        for digits in ([], [1]):
            v = OrbitView.from_digits(base25, digits)
            with pytest.raises(ValueError, match="^insufficient digit depth$"):
                extract_returns(v, 3)

    def test_periodic_raises(self, two):
        v = OrbitView.from_point(two, Fraction(1, 3))
        with pytest.raises(PeriodicPointError):
            extract_returns(v, 3)

    def test_monotone_gaps_non_decreasing(self, base25):
        rng = random.Random(21)
        for _ in range(10):
            x = Fraction(rng.getrandbits(60), 1 << 60)
            v = OrbitView.from_point(base25, x)
            prof = extract_returns(v, 4, monotone=True, search_limit=3000)
            gaps = prof.gaps()
            assert gaps == sorted(gaps)
            for k in range(len(prof.n_seq)):
                assert verify_bracketing(v, prof, k)

    def test_carry_form_classification(self, two):
        # prefix: (1,0,0,1) then the return block (1,0), a raised digit, zeros
        digits = [1, 0, 0, 1] + [1, 0, 1] + [0] * 30 + [1, 0, 1, 1, 0, 0, 1] * 8
        v = OrbitView.from_digits(two, digits)
        prof = extract_returns(v, 3, monotone=False, search_limit=20)
        k = prof.n_seq.index(4)
        assert prof.t_seq[k] == 6
        form = classify_prefix(v, k, prof)
        assert form is PrefixForm.CARRY

    def test_overlap_form_on_early_return(self, two):
        digits = [1, 1, 0, 1, 1, 0, 0] + [1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1] * 6
        v = OrbitView.from_digits(two, digits)
        prof = extract_returns(v, 1, monotone=False, search_limit=10)
        n = prof.n_seq[0]
        assert n == 1
        if prof.t_seq[0] >= prof.m_seq[0]:
            assert classify_prefix(v, 0, prof) is PrefixForm.OVERLAP

    def test_classification_total_on_random_points(self, base25):
        rng = random.Random(31)
        for _ in range(12):
            x = Fraction(rng.getrandbits(64), 1 << 64)
            v = OrbitView.from_point(base25, x)
            prof = extract_returns(v, 4, monotone=True, search_limit=4000)
            for k in range(len(prof.n_seq)):
                classify_prefix(v, k, prof)  # must not raise FormViolationError


class TestEstimates:
    def test_periodic_sentinel(self, two):
        v = OrbitView.from_point(two, Fraction(1, 3))
        assert estimate_r(v, 100).value == math.inf
        assert estimate_r_hat(v, 100).value == math.inf

    def test_sparse_design_has_zero_rate(self, two):
        # returns at quadratically growing gaps: depth of each return stays
        # bounded by the next gap, so the asymptotic rate collapses
        digits = []
        k = 1
        while len(digits) < 3000:
            digits += [1] + [0] * k
            k += 2
        v = OrbitView.from_digits(two, digits[:3000])
        est = estimate_r(v, 800)
        assert est.value < 0.2

    def test_exponent_order_random(self, base25):
        rng = random.Random(17)
        for _ in range(8):
            x = Fraction(rng.getrandbits(60), 1 << 60)
            v = OrbitView.from_point(base25, x)
            r = estimate_r(v, 400)
            rh = estimate_r_hat(v, 400)
            assert rh.value <= r.value + 1e-12

    def test_random_uniform_rate_is_small(self, base25):
        rng = random.Random(23)
        small = 0
        for _ in range(12):
            x = Fraction(rng.getrandbits(70), 1 << 70)
            v = OrbitView.from_point(base25, x)
            if estimate_r_hat(v, 500).value <= 0.08:
                small += 1
        assert small >= 10

    def test_estimates_hold_the_series_and_one_block(self, base25):
        # tracemalloc traces numpy's buffers; beside the stream and its
        # Z-array, built first, the estimates hold the series (8 bytes a
        # position) and one block of working arrays
        n_max = 1 << 19
        digits = np.random.default_rng(5).integers(0, 3, n_max + 1024).tolist()
        v = OrbitView.from_digits(base25, digits)
        v.z_values()
        tracemalloc.start()
        try:
            r, rh = estimate_r(v, n_max), estimate_r_hat(v, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.lam.nbytes == 8 * n_max and math.isfinite(rh.value)
        assert peak < r.lam.nbytes + (4 << 20)


def test_estimates_on_short_fixed_stream(two):
    # shallow digit-backed views must censor, not crash, when the scan
    # window runs past the supplied depth
    digits = [1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1,
              0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 1]
    v = OrbitView.from_digits(two, digits)
    est = estimate_r(v, 15)
    assert est.value >= 0
    est2 = estimate_r_hat(v, 15)
    assert est2.value <= est.value + 1e-12


def test_digit_period(two):
    v = OrbitView.from_digits(two, [1, 0, 1, 1, 0, 1, 1, 0, 1] * 4)
    assert digit_period(v) == 3
    w = OrbitView.from_digits(two, [1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1])
    assert digit_period(w) is None


def test_from_digits_checks_the_alphabet(base25):
    assert OrbitView.from_digits(base25, []).depth == 0
    assert OrbitView.from_digits(base25, (0, 2, 1)).digits(3) == [0, 2, 1]
    for bad in ([0, 3, 1], [2, -1], [0, 300], [-300, 1], [2**70],
                [1.5, 0, 2], ["1"], [0, "1"], [0.0, 1]):
        with pytest.raises(ValueError, match="alphabet"):
            OrbitView.from_digits(base25, bad)
    # an alphabet too wide for int8 digits
    wide = BetaContext.from_value("200.5")
    assert wide.alphabet_max == 200
    for bad in ([0, 201], [300], [-300], [2**70]):
        with pytest.raises(ValueError, match="alphabet"):
            OrbitView.from_digits(wide, bad)
    rng = random.Random(2)
    digits = [200, 0, 150] + [rng.randrange(201) for _ in range(600)]
    v = OrbitView.from_digits(wide, digits)
    assert v.digits(3) == [200, 0, 150]
    est = estimate_r_hat(v, 100)
    assert 0 <= est.value < math.inf and len(est.neg_log) == 100


def test_digit_views_agree_whatever_holds_their_digits(base25):
    # a list, a tuple and numpy arrays of either width make the same view:
    # its readers see Python ints, so no numpy scalar meets exact arithmetic
    word = list(beta_expand(Fraction(7137, 10000), base25, 400))

    def reads(v):
        assert all(type(v.digit(i)) is int for i in range(0, 400, 7))
        prof = extract_returns(v, 40, monotone=False, search_limit=300)
        return ([compare_distance_power(v, n, s) for n in range(1, 300, 3) for s in range(40)],
                [neg_log_distance(v, n) for n in (1, 7, 50, 200, 320)],
                [recurrence_distance(v, n) for n in (1, 7, 50, 200, 320)],
                prof, [verify_bracketing(v, prof, k) for k in range(len(prof))])

    want = reads(OrbitView.from_digits(base25, word))
    assert len(want[3]) == 40 and all(want[4])
    for seq in (tuple(word), np.array(word, dtype=np.int8), np.array(word, dtype=np.int64)):
        assert reads(OrbitView.from_digits(base25, seq)) == want, type(seq)


def test_arrays_handed_out_survive_growth(base25):
    # a point view grows into a new array; one taken before stays as it was
    v = OrbitView.from_point(base25, Fraction(7137, 10000))
    v.ensure(300)
    arr, z = v._digit_array(), v.z_values()
    before = arr.copy()
    assert v.ensure(5000) >= 5000 and v._digit_array() is not arr
    assert np.array_equal(arr, before) and z.shape == arr.shape
    assert np.array_equal(v._digit_array()[: arr.shape[0]], before)
    assert v.digits(300) == before.tolist() and v.z_values().shape[0] == v.depth
