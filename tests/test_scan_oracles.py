"""The vectorised recurrence scans and the certified Q(beta) decisions
against their reference loops.

Each scan oracle below is the straightforward per-position loop that the
library replaced with numpy expressions.  The arithmetic is the same (the same
IEEE operations in the same order, exact max/min), so agreement must be exact.
Oracles and library each get their own view of the same stream, because
both keep caches on the view.

The decision oracles are the escalation loops that ``floor_element`` replaced:
an interval sign test, an orbit replay for ``compare_distance_power``, and an
interval power loop for ``_power_at_least``.  All of them decide exactly, so
agreement must be exact too.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from betarec import recurrence
from betarec.algebraic import multiply_by_root
from betarec.cantor import _power_at_least, build_plan, sample_point
from betarec.expansion import BetaContext, orbit_digit_stream
from betarec.numerics import BoundedReal
from betarec.recurrence import (
    OrbitView,
    compare_distance_power,
    digit_period,
    estimate_r,
    estimate_r_hat,
    neg_log_distance,
    z_array,
)


# ---------------------------------------------------------------------------
# scalar oracles
# ---------------------------------------------------------------------------


def oracle_z_array(seq):
    n = len(seq)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    l = r = 0
    for i in range(1, n):
        zi = min(r - i, z[i - l]) if i < r else 0
        while i + zi < n and seq[zi] == seq[i + zi]:
            zi += 1
        z[i] = zi
        if i + zi > r:
            l, r = i, i + zi
    return z


def oracle_z(view, n):
    cache = view.__dict__.get("_oracle_z")
    if cache is None or cache[0] != view.depth:
        cache = view._oracle_z = (view.depth, oracle_z_array(view._digits))
    return cache[1][n]


def oracle_digit_period(view, scan_depth=None):
    d = view.ensure(scan_depth or view.depth or 512)
    if scan_depth is not None:
        d = min(d, scan_depth)
    for p in range(1, d // 2 + 1):
        if oracle_z(view, p) >= d - p:
            return p
    return None


def oracle_check_periodic(view, n_max):
    view.ensure(2 * n_max)
    p = oracle_digit_period(view, view.depth)
    if p is None:
        return False
    if view._stream is not None:
        view.ensure(4 * view.depth)
        return oracle_digit_period(view, view.depth) is not None
    return True


def oracle_lambda_series(view, n_max, scan_steps=48):
    cache = view.__dict__.get("_oracle_lambda")
    if cache is not None and cache[0] == n_max:
        return cache[1], cache[2]
    probe = 0
    while True:
        depth = view.ensure(max(n_max + 256, 2 * view.depth if probe else 0))
        zs = [oracle_z(view, n) for n in range(1, n_max + 1)]
        need = max(n + 1 + z + scan_steps for n, z in zip(range(1, n_max + 1), zs))
        if need <= depth or view._stream is None or depth >= 1 << 21:
            break
        probe += 1
        view.ensure(need)
    depth = view.depth
    d = np.asarray(view._digits, dtype=np.int64)
    n_arr = np.arange(1, n_max + 1)
    j_arr = np.asarray(zs, dtype=np.int64)
    beta_f = view.ctx.beta_float()
    amax = max(view.ctx.alphabet_max, 1)
    tail = amax / (beta_f - 1.0)
    s = np.zeros(n_max, dtype=np.float64)
    max_abs = np.zeros(n_max, dtype=np.float64)
    bad = np.zeros(n_max, dtype=bool)
    for i in range(scan_steps):
        ia = n_arr + j_arr + i
        ib = j_arr + i
        bad |= (ia >= depth) | (ib >= depth)
        ia = np.minimum(ia, depth - 1)
        ib = np.minimum(ib, depth - 1)
        s = s * beta_f + (d[ia] - d[ib])
        np.maximum(max_abs, np.abs(s), out=max_abs)
    abs_s = np.abs(s)
    ok = (~bad) & (abs_s > (1 << 20) * tail) & (max_abs < (1 << 20) * abs_s)
    lam = np.full(n_max, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam[ok] = j_arr[ok] + scan_steps - np.log(abs_s[ok]) / math.log(beta_f)
    censored = 0
    for idx in np.nonzero(~ok)[0]:
        lb = neg_log_distance(view, int(idx) + 1)
        if lb.censored:
            censored += 1
        else:
            lam[idx] = (lb.lo + lb.hi) / 2.0
    out = lam.tolist()
    view._oracle_lambda = (n_max, out, censored)
    return out, censored


def oracle_estimate_r(view, n_max):
    if oracle_check_periodic(view, n_max):
        return math.inf, [], 0
    series, censored = oracle_lambda_series(view, n_max)
    best = 0.0
    for n in range(n_max // 2, n_max + 1):
        lam = series[n - 1]
        if not math.isnan(lam):
            best = max(best, lam / n)
    return best, series, censored


def oracle_estimate_r_hat(view, n_max):
    if oracle_check_periodic(view, n_max):
        return math.inf, [], 0
    series, censored = oracle_lambda_series(view, n_max)
    running = 0.0
    value = math.inf
    for n in range(1, n_max + 1):
        lam = series[n - 1]
        if not math.isnan(lam):
            running = max(running, lam)
        if n >= n_max // 2:
            value = min(value, running / n)
    return value, series, censored


def oracle_element_sign(vec, root, bits=128):
    if all(c == 0 for c in vec):
        return 0
    while True:
        pows = root.power_bounds(bits)
        lo = hi = 0
        for c, (plo, phi) in zip(vec, pows):
            if c >= 0:
                lo += c * plo
                hi += c * phi
            else:
                lo += c * phi
                hi += c * plo
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
        if bits > 1 << 16:
            raise ArithmeticError("sign undecidable; polynomial may be reducible")


def oracle_compare_distance_power(view, n, s):
    """Sign of |T^n x - x| - beta^-s, replaying the exact orbit n steps."""
    x = view.point_fraction()
    stream = orbit_digit_stream(view.ctx, x)
    for _ in range(n):
        stream.next_digit()
    root = view.ctx.exact
    vec = list(stream.vec)
    vec[0] -= x.numerator  # the stream keeps the same denominator as x
    sign = oracle_element_sign(vec, root)
    if sign == 0:
        return -1
    if sign < 0:
        vec = [-c for c in vec]
    for _ in range(s):
        vec = multiply_by_root(vec, root.poly)
    vec[0] -= x.denominator
    return oracle_element_sign(vec, root)


def oracle_power_at_least(value, ctx, exponent):
    """value >= beta**exponent by interval powers at doubling precision."""
    if value <= 0:
        return False
    lhs = value ** exponent.denominator
    bits = 128
    while True:
        iv = ctx.beta_bounds(bits).powi(exponent.numerator)
        if lhs >= iv.hi:
            return True
        if lhs < iv.lo:
            return False
        bits *= 2
        if bits > 1 << 14:
            raise ArithmeticError("feasibility comparison undecidable")


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


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def same_floats(a, b):
    """Bit-for-bit equality of two float lists, nan matching nan."""
    def same(x, y):
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1, x) == math.copysign(1, y)
    return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))


def assert_estimates_agree(make_view, n_max):
    """estimate_r then estimate_r_hat, on a fresh view for each side."""
    ours, ref = make_view(), make_view()
    r, rh = estimate_r(ours, n_max), estimate_r_hat(ours, n_max)
    r_ref = oracle_estimate_r(ref, n_max)
    rh_ref = oracle_estimate_r_hat(ref, n_max)
    for est, (value, series, censored) in ((r, r_ref), (rh, rh_ref)):
        assert est.value == value
        assert math.copysign(1, est.value) == math.copysign(1, value)
        assert same_floats(est.neg_log, series)
        assert est.censored == censored
    assert ours.depth == ref.depth
    return r, rh


def random_digits(rng, amax, n):
    return [rng.randrange(amax + 1) for _ in range(n)]


@pytest.fixture(scope="module")
def two():
    return BetaContext.from_value(2)


@pytest.fixture(scope="module")
def base25():
    return BetaContext.from_value("2.5")


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestZArray:
    def test_random_and_repetitive_streams(self):
        rng = random.Random(3)
        for trial in range(60):
            n = rng.randrange(0, 400)
            amax = rng.choice((1, 2, 4))
            seq = random_digits(rng, amax, n)
            if trial % 3 == 0 and n:
                seq = (seq[: rng.randrange(1, 8)] * n)[:n]  # long self-repeats
            assert z_array(seq) == oracle_z_array(seq)

    def test_view_holds_one_int64_array(self, base25):
        v = OrbitView.from_digits(base25, [2, 0, 1, 2, 0, 1, 2, 0])
        z = v.z_values()
        assert isinstance(z, np.ndarray) and z.dtype == np.int64
        assert z.tolist() == oracle_z_array(v._digits)
        assert v.z(3) == 5 and type(v.z(3)) is int
        assert v.z_values() is z  # kept, not rebuilt


class TestDigitPeriod:
    def test_random_streams(self, two, base25):
        rng = random.Random(11)
        for ctx in (two, base25):
            for _ in range(40):
                digits = random_digits(rng, ctx.alphabet_max, rng.randrange(2, 300))
                v = OrbitView.from_digits(ctx, digits)
                assert digit_period(v) == oracle_digit_period(v)

    def test_periodic_streams(self, base25):
        rng = random.Random(12)
        for _ in range(40):
            block = random_digits(rng, 2, rng.randrange(1, 9))
            digits = (block * 100)[: rng.randrange(len(block) * 2, len(block) * 100)]
            v = OrbitView.from_digits(base25, digits)
            p = digit_period(v)
            assert p is not None and p == oracle_digit_period(v)

    def test_depth_below_two(self, two):
        for digits in ([], [1]):
            v = OrbitView.from_digits(two, digits)
            assert digit_period(v) is None
            assert oracle_digit_period(v) is None

    def test_scan_depth_below_depth(self, base25):
        rng = random.Random(13)
        for _ in range(30):
            block = random_digits(rng, 2, rng.randrange(1, 6))
            head = block * rng.randrange(2, 20)
            digits = head + random_digits(rng, 2, rng.randrange(1, 100))
            v = OrbitView.from_digits(base25, digits)
            for scan in (1, 2, 3, len(head), len(head) + 1, len(digits) - 1):
                assert digit_period(v, scan) == oracle_digit_period(v, scan)

    def test_point_backed_view(self, two):
        for x in (Fraction(1, 3), Fraction(5, 7), Fraction(123456789, 1 << 40)):
            v = OrbitView.from_point(two, x)
            w = OrbitView.from_point(two, x)
            assert digit_period(v) == oracle_digit_period(w)
            assert v.depth == w.depth


class TestEstimates:
    def test_random_digit_streams(self, base25):
        rng = random.Random(21)
        for _ in range(6):
            digits = random_digits(rng, 2, 3000)
            assert_estimates_agree(lambda: OrbitView.from_digits(base25, digits), 1000)

    def test_random_points(self, base25):
        rng = random.Random(22)
        for _ in range(4):
            x = Fraction(rng.getrandbits(60), 1 << 60)
            assert_estimates_agree(lambda: OrbitView.from_point(base25, x), 400)

    def test_periodic_digit_stream(self, base25):
        digits = [2, 0, 1] * 400
        r, rh = assert_estimates_agree(lambda: OrbitView.from_digits(base25, digits), 300)
        assert r.value == rh.value == math.inf

    def test_censored_positions(self, two):
        # the scan window runs past the supplied depth near the end
        digits = [1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1,
                  0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 1]
        r, _ = assert_estimates_agree(lambda: OrbitView.from_digits(two, digits), 30)
        assert r.censored > 0 and any(math.isnan(v) for v in r.neg_log)

    def test_stream_ending_inside_the_scan_window(self, base25):
        # positions near n_max read past the stream and go to the exact path
        rng = random.Random(24)
        for extra in (5, 30, 47, 48, 60):
            digits = random_digits(rng, 2, 1000 + extra)
            assert_estimates_agree(lambda: OrbitView.from_digits(base25, digits), 1000)

    def test_negative_lambda_entries(self, base25):
        # long runs of 0 then of 2 (not admissible, but in the alphabet) put
        # T^n x far above x, so some midpoints of -log|T^n x - x| fall below 0
        rng = random.Random(41)
        digits = []
        while len(digits) < 1500:
            digits += [0] * rng.randrange(40, 80) + [2] * rng.randrange(40, 80)
        r, _ = assert_estimates_agree(lambda: OrbitView.from_digits(base25, digits[:1500]),
                                      1000)
        assert any(v < 0 for v in r.neg_log)

    def test_stream_too_short_for_n_max(self, two):
        digits = [1, 0, 0, 1, 1, 0, 1, 0, 0, 0]
        with pytest.raises(IndexError):
            estimate_r(OrbitView.from_digits(two, digits), 10)
        with pytest.raises(IndexError):
            oracle_estimate_r(OrbitView.from_digits(two, digits), 10)

    def test_construction_point(self, base25):
        # a shallower cut of the recovery target (0, 1/2): deep self-repeats
        plan = build_plan(base25, 0, Fraction(1, 2), delta="0.5", K=6, seed=23)
        digits = sample_point(plan, 400, plan.m_seq[4] + 200).digits(plan.m_seq[4] + 200)
        r, rh = assert_estimates_agree(lambda: OrbitView.from_digits(base25, digits),
                                       plan.n_seq[4])
        assert abs(r.value - 0.5) < 0.1 and abs(rh.value) < 0.1


class TestPeriodicityVerdict:
    def count_calls(self, monkeypatch):
        calls = []
        inner = recurrence.digit_period

        def counted(view, scan_depth=None):
            calls.append(view.depth)
            return inner(view, scan_depth)
        monkeypatch.setattr(recurrence, "digit_period", counted)
        return calls

    def test_point_view_extends_and_rechecks_twice(self, two, monkeypatch):
        calls = self.count_calls(monkeypatch)
        v = OrbitView.from_point(two, Fraction(1, 3))
        w = OrbitView.from_point(two, Fraction(1, 3))
        assert estimate_r(v, 100).value == math.inf
        assert estimate_r_hat(v, 100).value == math.inf
        assert oracle_check_periodic(w, 100) and oracle_check_periodic(w, 100)
        # each estimate scans, extends, and scans again
        assert len(calls) == 4
        assert v.depth == w.depth

    def test_digit_view_checked_once(self, base25, monkeypatch):
        calls = self.count_calls(monkeypatch)
        rng = random.Random(31)
        v = OrbitView.from_digits(base25, random_digits(rng, 2, 2000))
        estimate_r(v, 500)
        estimate_r_hat(v, 500)
        assert len(calls) == 1


def algebraic_bases():
    return (BetaContext.golden(), BetaContext.from_root((-1, -1, 0, 1), 1, 2))


class TestCertifiedDecisions:
    def test_compare_distance_power_on_point_views(self):
        rng = random.Random(51)
        for ctx in algebraic_bases():
            for _ in range(6):
                x = Fraction(rng.randrange(1, 10**6), 10**6 + rng.randrange(1, 999))
                view = OrbitView.from_point(ctx, x)
                ref = OrbitView.from_point(ctx, x)
                for n in (1, 2, 5, 17, 60):
                    lam = neg_log_distance(view, n)
                    centre = math.floor(lam.lo)
                    for s in range(max(centre - 2, 0), centre + 3):
                        assert compare_distance_power(view, n, s) == \
                            oracle_compare_distance_power(ref, n, s), (x, n, s)

    def test_periodic_point_is_below_every_power(self):
        # 1/2 is a fixed point of T^3 in the golden base: the distance is 0
        ctx = BetaContext.golden()
        view = OrbitView.from_point(ctx, Fraction(1, 2))
        for s in (0, 1, 7):
            assert compare_distance_power(view, 3, s) == -1
            assert oracle_compare_distance_power(view, 3, s) == -1

    def test_power_at_least_grid(self):
        sqrt2 = BetaContext.from_root((-2, 0, 1), 1, 2)
        exponents = [Fraction(a, b) for a in range(-5, 9) for b in (1, 2, 3)]
        for ctx in algebraic_bases() + (sqrt2,):
            for value in [Fraction(k, 8) for k in range(1, 60, 3)]:
                for exponent in exponents:
                    lhs = value ** exponent.denominator
                    a = exponent.numerator
                    if ctx is sqrt2 and a % 2 == 0 and lhs == Fraction(2) ** (a // 2):
                        continue  # an exact equality the oracle cannot settle
                    assert _power_at_least(value, ctx, exponent) == \
                        oracle_power_at_least(value, ctx, exponent), (value, exponent)

    def test_power_at_least_settles_exact_equality(self):
        sqrt2 = BetaContext.from_root((-2, 0, 1), 1, 2)
        start = time.perf_counter()
        assert _power_at_least(Fraction(2), sqrt2, Fraction(2)) is True
        assert _power_at_least(Fraction(4), sqrt2, Fraction(8, 2)) is True
        assert _power_at_least(Fraction(1, 2), sqrt2, Fraction(-2)) is True
        assert _power_at_least(Fraction(2), sqrt2, Fraction(3)) is False
        assert time.perf_counter() - start < 0.5

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
