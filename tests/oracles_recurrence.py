"""The vectorised recurrence scans and the certified distance decisions
against their reference loops.

Each scan oracle below is the straightforward per-position loop that the
library replaced with numpy expressions.  The arithmetic is the same (the same
IEEE operations in the same order, exact max/min), so agreement must be exact.
Oracles and library each get their own view of the same stream, because
both keep caches on the view.

The decision oracles are an orbit replay for ``compare_distance_power`` on
algebraic bases, with signs from the interval sign test
(``oracle_common.oracle_element_sign``), and a Fraction orbit value on
rational ones.  Both decide exactly, so agreement must be exact too.

The return oracles are the loop that certifies every first-digit recurrence
one by one with ``_depth_from_lambda``, and the Fraction comparison of a
digit view's left endpoint that the integer comparison replaced.  Profiles,
the digits a view ends up holding, and comparison signs must be equal.

The difference-scan oracle is the loop over all positions at once that
advanced its index arrays in place, which the blocked scan over digit
windows replaced; s and the running maximum must be equal bit for bit.
With its running error bound it is also the Horner filter that the return
depths' dot products replaced (``oracle_horner_gaps``): the dot products
must settle every return time it settles, to the same gap, and their error
bound must hold against exact sums in Q(beta).
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betarec import recurrence
from betarec.algebraic import multiply_by_root
from betarec.cantor import build_plan, sample_point
from betarec.expansion import (
    BetaContext,
    approximate_beta,
    beta_power_bounds,
    orbit_digit_stream,
    word_value_fraction,
)
from betarec.numerics import BoundedReal
from betarec.recurrence import (
    OrbitView,
    PeriodicPointError,
    ReturnProfile,
    compare_distance_power,
    digit_period,
    estimate_r,
    estimate_r_hat,
    extract_returns,
    neg_log_distance,
    recurrence_distance,
    z_array,
)
from oracle_common import CUBIC, algebraic_bases, oracle_element_sign, outcome


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


def oracle_digit_period(view):
    d = view.depth
    for p in range(1, d // 2 + 1):
        if oracle_z(view, p) >= d - p:
            return p
    return None


def oracle_check_periodic(view, n_max):
    view.ensure(2 * n_max)
    p = oracle_digit_period(view)
    if p is None:
        return False
    if view._stream is not None:
        view.ensure(4 * view.depth)
        return oracle_digit_period(view) is not None
    return True


def oracle_lambda_series(view, n_max, scan_steps=48):
    cache = view.__dict__.get("_oracle_lambda")
    if cache is not None and cache[0] == n_max:
        return cache[1], cache[2]
    # ask for the last digit the scan reads until the view holds it, reaches
    # the cap or stops growing
    depth = view.ensure(n_max + 256)
    while True:
        zs = [oracle_z(view, n) for n in range(1, n_max + 1)]
        need = max(n + 1 + z + scan_steps for n, z in zip(range(1, n_max + 1), zs))
        if need <= depth or depth >= 1 << 21:
            break
        grown = view.ensure(need)
        if grown == depth:
            break
        depth = grown
    # zero-padded past the stream; a position that reads the padding is bad
    d = np.zeros(depth + scan_steps, dtype=np.int64)
    d[:depth] = view._digits
    n_arr = np.arange(1, n_max + 1)
    j_arr = np.asarray(zs, dtype=np.int64)
    beta_f = view.ctx.beta_float()
    amax = max(view.ctx.alphabet_max, 1)
    tail = amax / (beta_f - 1.0)
    bad = n_arr + j_arr + scan_steps > depth
    s, max_abs, _ = oracle_difference_scan(d, beta_f, n_arr + j_arr, j_arr,
                                           scan_steps=scan_steps)
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


def oracle_difference_scan(d, beta_f, ia, ib, dbeta=None, scan_steps=48):
    """The difference scan over all positions at once, advancing copies of
    ia and ib by one each step."""
    ia, ib = ia.copy(), ib.copy()
    s = np.zeros(ia.shape[0], dtype=np.float64)
    max_abs = np.zeros(ia.shape[0], dtype=np.float64)
    err = None if dbeta is None else np.zeros_like(s)
    unit = 2.0**-53
    if err is not None:
        beta_up = (beta_f + 2.0 * dbeta) * (1.0 + 4.0 * unit)
        grow = dbeta + 4.0 * unit * beta_f
    for _ in range(scan_steps):
        if err is not None:
            err *= beta_up
            err += grow * np.abs(s)
        s *= beta_f
        s += d[ia] - d[ib]
        if err is not None:
            err += 4.0 * unit * np.abs(s)
        np.maximum(max_abs, np.abs(s), out=max_abs)
        ia += 1
        ib += 1
    return s, max_abs, err


def oracle_horner_gaps(view, ns):
    """``recurrence._batch_gaps`` as a running Horner scan with its error
    bound: -1 where it settles nothing."""
    gaps = np.full(ns.shape[0], -1, dtype=np.int64)
    ctx = view.ctx
    if ctx.beta_fraction is None and not recurrence._is_pisot(ctx.exact.poly):
        return gaps
    depth = view.depth
    j = view.z_values()[ns]
    sel = np.flatnonzero((ns + 64 <= depth) & (ns + j + 48 <= depth))
    j = j[sel]
    beta_f, dbeta = ctx.beta_float_bound()
    s, _, err = oracle_difference_scan(view._digit_array(), beta_f, ns[sel] + j, j,
                                       dbeta=dbeta)
    tail = max(ctx.alphabet_max, 1) / (beta_f - 1.0)
    abs_s = np.abs(s)
    low = abs_s - err - tail
    stops = low > (1.0 + 1e-9) * 2.0**24 * tail * beta_f
    lb = math.log(beta_f)
    slack = 1e-9 - 2.0 * math.log1p(-(2.0**-24)) / lb
    top = j[stops] + 48
    lam_lo = top - np.log(abs_s[stops] + err[stops] + tail) / lb - slack
    lam_hi = top - np.log(low[stops]) / lb + slack
    g = np.ceil(lam_lo) - 1
    same = g == np.ceil(lam_hi) - 1
    gaps[sel[stops][same]] = g[same]
    return gaps


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
    # |D| beta^s against 1, or |D| against beta^-s when s < 0
    power = [x.denominator] + [0] * (root.degree - 1)
    for _ in range(abs(s)):
        if s > 0:
            vec = multiply_by_root(vec, root.poly)
        else:
            power = multiply_by_root(power, root.poly)
    return oracle_element_sign([a - b for a, b in zip(vec, power)], root)


def oracle_extract_returns(view, K, monotone=True, search_limit=None):
    """Certify every first-digit recurrence in order, one position at a time."""
    depth = view.ensure(search_limit or max(view.depth, 4096))
    limit = min(search_limit or depth, depth)
    if recurrence._check_periodic(view, max(64, limit // 2)):
        raise PeriodicPointError("periodic point")
    first = view.digit(0)
    n_seq, m_seq, t_seq = [], [], []
    best_gap = -1
    n = 0
    truncated = False
    while len(n_seq) < K:
        n += 1
        if n >= limit:
            truncated = True
            break
        if view.digit(n) != first:
            continue
        gap, censored = recurrence._depth_from_lambda(view, n)
        if censored:
            truncated = True
            break
        if monotone and gap <= best_gap:
            continue
        best_gap = gap
        n_seq.append(n)
        m_seq.append(n + gap)
        t_seq.append(n + view.z(n))
    return ReturnProfile(n_seq, m_seq, t_seq, monotone, truncated)


def orbit_point_fraction(view, n):
    """T^n x as a Fraction, from T^n x = beta^n (x - value of the first n digits)."""
    beta = view.ctx.beta_fraction
    return (view.point_fraction() - word_value_fraction(tuple(view.digits(n)), beta)) * beta**n


def oracle_compare_left_endpoint(view, n, s):
    """Sign of |T^n x - x| - beta^-s on the exact Fraction of the view's point
    (the left endpoint, for a digit view)."""
    dist = abs(orbit_point_fraction(view, n) - view.point_fraction())
    target = view.ctx.beta_fraction ** -s
    return (dist > target) - (dist < target)


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
            assert z_array(seq).tolist() == oracle_z_array(seq)

    @staticmethod
    def assert_matches_oracle(seq):
        for arr in (seq, np.array(seq, dtype=np.int8)):
            z = z_array(arr)
            assert z.dtype == np.int64
            assert z.tolist() == oracle_z_array(seq)

    def test_long_periodic_streams(self):
        # a match that runs to the end of the stream settles every later
        # position at once
        self.assert_matches_oracle([0] * 100_000)
        rng = random.Random(5)
        for p in range(1, 10):
            block = random_digits(rng, 2, p)
            self.assert_matches_oracle((block * (20_000 // p + 1))[:20_000 + p // 2])

    def test_long_structured_streams(self):
        fib, prev = [0, 1], [0]
        while len(fib) < 50_000:
            fib, prev = fib + prev, fib
        self.assert_matches_oracle(fib[:50_000])
        self.assert_matches_oracle(([0] * 9 + [1]) * 5_000)
        # the match at 1 stops one digit before the end
        self.assert_matches_oracle([0] * 50_000 + [1])
        self.assert_matches_oracle(([2, 0, 1] * 10_000)[:-1] + [2])

    def test_full_depth_construction_point(self, base25):
        plan = build_plan(base25, "0.2", "1", delta="0.5", K=5, seed=7)
        k = plan.levels - 1
        depth = plan.m_seq[k] + plan.t_seq[k] * plan.M
        self.assert_matches_oracle(sample_point(plan, 3, depth).digits(depth))

    def test_lengths_zero_and_one(self):
        for seq in ([], [0], [2]):
            self.assert_matches_oracle(seq)

    def test_view_holds_one_int64_array(self, base25):
        v = OrbitView.from_digits(base25, [2, 0, 1, 2, 0, 1, 2, 0])
        z = v.z_values()
        assert isinstance(z, np.ndarray) and z.dtype == np.int64
        assert z.tolist() == oracle_z_array(v._digits)
        assert v.z(3) == 5 and type(v.z(3)) is int
        assert v.z_values() is z  # kept, not rebuilt


@st.composite
def z_streams(draw):
    """Digit streams over {0, 1} or {0, 1, 2} at the window's edge lengths
    (K + W = 72) or any length below 400: random, all zeros, periodic, with
    the prefix copied to positions near the end, where the window runs past
    the stream, or with prefix pieces of up to 150 digits copied anywhere,
    so that a match past the window can end before later survivors."""
    digit = st.integers(0, draw(st.sampled_from((1, 2))))
    n = draw(st.one_of(st.sampled_from((0, 1, 8, 71, 72, 73)), st.integers(0, 400)))
    kind = draw(st.sampled_from(("random", "zeros", "periodic", "near end", "copies")))
    if kind == "zeros":
        seq = [0] * n
    elif kind == "periodic":
        block = draw(st.lists(digit, min_size=1, max_size=80))
        seq = (block * (n // len(block) + 1))[:n]
    else:
        seq = draw(st.lists(digit, min_size=n, max_size=n))
    if kind == "near end" and n > 1:
        for at in draw(st.lists(st.integers(max(n - 80, 1), n - 1), max_size=4)):
            seq[at:] = seq[: n - at]
    if kind == "copies" and n > 1:
        for at, length in draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(1, 150)),
                                        max_size=6)):
            piece = seq[: min(length, n - at)]
            seq[at : at + len(piece)] = piece
    return seq


class TestZWindow:
    """The batched window read, a block of ``_Z_GATHER`` positions at a
    time, against the per-position loop."""

    @staticmethod
    def assert_matches_oracle(seq, gather):
        want = oracle_z_array(seq)
        with mock.patch.object(recurrence, "_Z_GATHER", gather):
            for arr in (seq, np.array(seq, dtype=np.int8), np.array(seq, dtype=np.int64)):
                z = z_array(arr)
                assert z.dtype == np.int64
                assert z.tolist() == want

    @settings(max_examples=300)
    @given(z_streams(), st.sampled_from((1, 2, 3, 4, 1024)))
    def test_drawn_streams(self, seq, gather):
        # gathers of 1 to 4 positions split the survivors into many blocks
        self.assert_matches_oracle(seq, gather)

    @pytest.mark.parametrize("n", [0, 1, 8, 71, 72, 73])
    def test_window_edge_lengths(self, n):
        rng = random.Random(n)
        for seq in ([0] * n, [1] * n, ([0, 1] * n)[:n], random_digits(rng, 2, n)):
            self.assert_matches_oracle(seq, 1024)

    def test_a_box_that_ends_inside_a_block(self):
        # 300 matches 100 digits, past the window, and its box ends before
        # the settled survivors 420 and 430 read in the same block
        rng = random.Random(19)
        seq = random_digits(rng, 1, 500)
        for at, length in ((300, 100), (420, 9), (430, 20)):
            seq[at : at + length] = seq[:length]
        for gather in (*range(1, 9), 1024):
            self.assert_matches_oracle(seq, gather)

    def test_survivors_in_several_blocks(self):
        # a binary stream of this length leaves about 1,200 survivors
        rng = random.Random(17)
        seq = random_digits(rng, 1, 300_000)
        assert z_array(np.array(seq, dtype=np.int8)).tolist() == oracle_z_array(seq)
        block = random_digits(rng, 1, 23)
        seq = (block * (300_000 // 23 + 1))[:300_000]
        for at in rng.sample(range(300_000), 50):
            seq[at] ^= 1
        assert z_array(np.array(seq, dtype=np.int64)).tolist() == oracle_z_array(seq)


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
        # a periodic head, then noise: views of the stream cut at each depth
        rng = random.Random(13)
        for _ in range(30):
            block = random_digits(rng, 2, rng.randrange(1, 6))
            head = block * rng.randrange(2, 20)
            digits = head + random_digits(rng, 2, rng.randrange(1, 100))
            for scan in (1, 2, 3, len(head), len(head) + 1, len(digits) - 1):
                v = OrbitView.from_digits(base25, digits[:scan])
                assert digit_period(v) == oracle_digit_period(v)

    def test_point_backed_view(self, two):
        # digit_period reads the digits the view holds and extends nothing
        for x, period in ((Fraction(1, 3), 2), (Fraction(5, 7), 3),
                          (Fraction(123456789, 1 << 40), None)):
            v = OrbitView.from_point(two, x)
            w = OrbitView.from_point(two, x)
            assert digit_period(v) is None and v.depth == 0
            v.ensure(512)
            w.ensure(512)
            assert digit_period(v) == oracle_digit_period(w) == period
            assert v.depth == w.depth == 512


class TestEstimates:
    def test_random_digit_streams(self, base25):
        rng = random.Random(21)
        for _ in range(6):
            digits = random_digits(rng, 2, 3000)
            assert_estimates_agree(lambda: OrbitView.from_digits(base25, digits), 1000)

    def test_random_points(self, two, base25):
        rng = random.Random(22)
        for _ in range(4):
            x = Fraction(rng.getrandbits(60), 1 << 60)
            assert_estimates_agree(lambda: OrbitView.from_point(base25, x), 400)
        # base 2: the match at n = 3 runs 557 digits, so the series needs
        # 612 digits, past the 600 that the periodicity check reads; one
        # request for them doubles the view once, to 1,200
        x = word_value_fraction(((1, 0, 0) * 187)[:560] + (0, 1) * 20 + (1,), Fraction(2))
        views = []

        def make_view():
            views.append(OrbitView.from_point(two, x))
            return views[-1]
        assert_estimates_agree(make_view, 300)
        assert views[0].depth == 1200

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


class TestDifferenceScan:
    @staticmethod
    def same_bits(a, b):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_blocks_match_the_whole_array_loop(self):
        # zero-padded digits as _lambda_series lays them out: positions
        # n + z(n) read up to the padding, and some match runs are long
        chunk = recurrence._SCAN_CHUNK
        rng = np.random.default_rng(131)
        for value in ("2.5", "7/5"):
            ctx = BetaContext.from_value(value)
            beta_f = ctx.beta_float()
            for n in (0, 1, chunk - 1, chunk, chunk + 1, 50_003):
                depth = 2 * n + 100
                d = np.zeros(depth + 49, dtype=np.int8)
                d[:depth] = rng.integers(0, ctx.alphabet_max + 1, depth)
                j = rng.integers(0, 40, n)
                j[::97] = rng.integers(0, n + 1, j[::97].shape[0])
                ia = np.minimum(np.arange(1, n + 1) + j, depth - 1)
                ours = recurrence._difference_scan(d, beta_f, ia, j)
                ref = oracle_difference_scan(d, beta_f, ia, j)
                for got, want in zip(ours, ref[:2]):
                    assert self.same_bits(got, want), (value, n)
                assert ours[0].shape == (n,)

    def test_index_arrays_are_left_alone(self):
        d = np.arange(200, dtype=np.int8) % 3
        ia, ib = np.arange(10, 60), np.arange(50)
        j = ib.copy()
        j.flags.writeable = False  # z_values() slices are read-only
        recurrence._difference_scan(d, 2.5, ia, j)
        assert (ia == np.arange(10, 60)).all() and (j == ib).all()

    def test_no_positions_on_a_stream_shorter_than_the_scan(self):
        empty = np.zeros(0, dtype=np.int64)
        s, max_abs = recurrence._difference_scan(np.zeros(10, dtype=np.int8), 2.5,
                                                 empty, empty)
        assert s.shape == max_abs.shape == (0,)
        # extract_returns batches its return times through the dot products,
        # which build no window view on a view shorter than one window
        ctx = BetaContext.from_value("2.5")
        view = OrbitView.from_digits(ctx, [1, 0, 1, 1, 0, 1, 2, 0, 1, 0])
        with mock.patch.object(recurrence, "sliding_window_view", side_effect=AssertionError):
            assert (recurrence._batch_gaps(view, np.array([2, 3, 5])) == -1).all()


class TestPeriodicityVerdict:
    def count_calls(self, monkeypatch):
        calls = []
        inner = recurrence.digit_period

        def counted(view):
            calls.append(view.depth)
            return inner(view)
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
                    for s in range(min(centre - 2, -2), centre + 3):
                        assert compare_distance_power(view, n, s) == \
                            oracle_compare_distance_power(ref, n, s), (x, n, s)

    def test_rational_point_views_match_fractions(self):
        rng = random.Random(53)
        cases = []
        for name in ("2.5", "7/5", "3"):
            points = [Fraction(rng.randrange(1, 10**6), 10**6 + rng.randrange(1, 999))
                      for _ in range(5)]
            cases += [(name, x) for x in points + [Fraction(1, 2)]]  # 1/2 is fixed in base 3
        # base 2: T^2 x matches x for 398 digits, past the 256 that a view
        # first holds, so neg_log_distance extends the view to 512 digits
        x = word_value_fraction((0, 1) * 200 + (1, 1, 0, 1), Fraction(2))
        view = OrbitView.from_point(BetaContext.from_value(2), x)
        assert view.ensure(2 + 64) == 256
        assert (neg_log_distance(view, 2).match_len, view.depth) == (398, 512)
        cases.append(("2", x))
        for name, x in cases:
            ctx = BetaContext.from_value(name)
            view, ref = OrbitView.from_point(ctx, x), OrbitView.from_point(ctx, x)
            for n in (1, 2, 5, 17, 60):
                dist = abs(orbit_point_fraction(ref, n) - ref.point_fraction())
                assert recurrence_distance(view, n) == BoundedReal.exact(dist)
                g = math.ceil(neg_log_distance(view, n).lo) - 1 if dist else 0
                for s in range(-2, g + 4):
                    assert compare_distance_power(view, n, s) == \
                        oracle_compare_left_endpoint(ref, n, s), (name, x, n, s)

    def test_periodic_point_is_below_every_power(self):
        # 1/2 is a fixed point of T^3 in the golden base: the distance is 0
        ctx = BetaContext.golden()
        view = OrbitView.from_point(ctx, Fraction(1, 2))
        for s in (0, 1, 7):
            assert compare_distance_power(view, 3, s) == -1
            assert oracle_compare_distance_power(view, 3, s) == -1


def return_bases():
    return {"2.5": BetaContext.from_value("2.5"), "golden": BetaContext.golden(),
            "x^3-x-1": BetaContext.from_root(CUBIC, 1, 2),
            "7/5": BetaContext.from_value("7/5"), "3": BetaContext.from_value(3)}


def return_streams(ctx, rng, depths):
    """Digit lists of each depth: the expansion of a random point, and a
    random prefix that recurs further on with one digit changed now and
    then, which makes deep returns."""
    free = OrbitView.from_point(ctx, Fraction(rng.getrandbits(64), 1 << 64))
    free = free.digits(2 * max(depths))
    streams = []
    for depth in depths:
        start = rng.randrange(depth)
        streams.append(free[start : start + depth])
        head = free[start : start + rng.randrange(8, 40)]
        word = list(head)
        while len(word) < depth:
            block = list(head[: rng.randrange(1, len(head) + 1)])
            if rng.random() < 0.7:
                block[rng.randrange(len(block))] = rng.randrange(ctx.alphabet_max + 1)
            cut = rng.randrange(len(free) - 30)
            word += block + free[cut : cut + rng.randrange(30)]
        streams.append(word[:depth])
    return streams


def first_digit_returns(view):
    arr = view._digit_array()
    return np.flatnonzero(arr[1:] == arr[0]) + 1


def count_calls(monkeypatch, name):
    calls = []
    inner = getattr(recurrence, name)

    def counted(*args):
        calls.append(args[1])
        return inner(*args)
    monkeypatch.setattr(recurrence, name, counted)
    return calls


class TestReturnKernels:
    def per_position_gaps(self, view, ns):
        out = []
        for n in ns:
            gap, censored = recurrence._depth_from_lambda(view, n)
            out.append((n, None if censored else gap))
        return out

    def test_every_return_gap_matches_the_per_position_routine(self):
        rng = random.Random(81)
        for name, ctx in return_bases().items():
            makers = [lambda d=d: OrbitView.from_digits(ctx, d)
                      for d in return_streams(ctx, rng, (150, 600))]
            x = Fraction(rng.getrandbits(64), 1 << 64)
            makers.append(lambda: OrbitView.from_point(ctx, x))
            for make in makers:
                view, ref = make(), make()
                view.ensure(600)
                ref.ensure(600)
                ns = first_digit_returns(view).tolist()
                assert outcome(lambda: list(recurrence._return_gaps(view, np.array(ns)))) \
                    == outcome(lambda: self.per_position_gaps(ref, ns)), name
                assert view.depth == ref.depth

    def test_a_truncation_on_its_minimal_polynomial_is_batched(self):
        # beta_4 of 9/5 is a Pisot root of a cubic; its Parry polynomial
        # carries x + 1, whose root on the unit circle kept the filter off
        ctx = approximate_beta(BetaContext.from_value("9/5"), 4)
        assert ctx.exact.poly == (-1, 1, -2, 1) and recurrence._is_pisot(ctx.exact.poly)
        rng = random.Random(84)
        settled = 0
        for d in return_streams(ctx, rng, (300, 600)):
            view, ref = OrbitView.from_digits(ctx, d), OrbitView.from_digits(ctx, d)
            ns = first_digit_returns(view)
            settled += int((recurrence._batch_gaps(view, ns) >= 0).sum())
            assert list(recurrence._return_gaps(view, ns)) == \
                self.per_position_gaps(ref, ns.tolist())
        assert settled > 0

    def test_settled_positions_need_no_exact_step(self, monkeypatch):
        # a settled position is one the per-position routine answers alike,
        # with no exact comparison and no new digits
        compares = count_calls(monkeypatch, "compare_distance_power")
        rng = random.Random(82)
        settled = total = 0
        for name, ctx in return_bases().items():
            views = [(OrbitView.from_digits(ctx, d), OrbitView.from_digits(ctx, d))
                     for d in return_streams(ctx, rng, (200, 800))]
            x = Fraction(rng.getrandbits(64), 1 << 64)
            views.append((OrbitView.from_point(ctx, x), OrbitView.from_point(ctx, x)))
            for view, ref in views:
                view.ensure(700)
                ref.ensure(700)
                ns = first_digit_returns(view)
                gaps = recurrence._batch_gaps(view, ns)
                for n, gap in zip(ns.tolist(), gaps.tolist()):
                    if gap >= 0:
                        depth, seen = ref.depth, len(compares)
                        assert recurrence._depth_from_lambda(ref, n) == (gap, False), (name, n)
                        assert (ref.depth, len(compares)) == (depth, seen)
                if name in ("2.5", "golden", "3"):
                    settled += int((gaps >= 0).sum())
                    total += ns.size
                else:
                    # beta^48 stays below 2^24 times the tail bound, so the
                    # per-position routine needs more than 48 digits
                    assert not (gaps >= 0).any()
        assert settled > 0.75 * total

    def test_scan_error_bound_holds(self):
        # also with beta_f 1e-9 from beta and dbeta = 2e-9, which then carries
        # most of err: the bound holds for any dbeta >= |beta - beta_f|
        rng = random.Random(88)
        for value, off in itertools.product(("7/5", "2.5", "10/3", "3"), (0.0, 1e-9)):
            ctx = BetaContext.from_value(value)
            beta = ctx.beta_fraction
            if off:
                ctx.beta_float_bound = lambda b=float(beta) + off, e=2 * off: (b, e)
            d = np.array(random_digits(rng, ctx.alphabet_max, 400), dtype=np.int8)
            ia, ib = np.array(rng.sample(range(300), 60)), np.array(rng.sample(range(300), 60))
            s, err = recurrence._dot_scan(ctx, d, ia, ib)
            for a, b, got, bound in zip(ia.tolist(), ib.tolist(), s.tolist(), err.tolist()):
                exact = Fraction(0)
                for i in range(48):
                    exact = exact * beta + int(d[a + i]) - int(d[b + i])
                assert abs(exact - Fraction(got)) <= Fraction(bound), (value, off, a, b)

    def test_scan_error_bound_holds_on_algebraic_bases(self):
        # S as an exact element of Z[beta], enclosed on the root's 512-bit bracket
        rng = random.Random(89)
        for name in ("golden", "x^3-x-1"):
            ctx = return_bases()[name]
            poly = ctx.exact.poly
            lo, hi = ctx.exact.bounds(512)
            d = np.array(random_digits(rng, ctx.alphabet_max, 400), dtype=np.int8)
            ia, ib = np.array(rng.sample(range(300), 60)), np.array(rng.sample(range(300), 60))
            s, err = recurrence._dot_scan(ctx, d, ia, ib)
            for a, b, got, bound in zip(ia.tolist(), ib.tolist(), s.tolist(), err.tolist()):
                vec = [0] * ctx.exact.degree
                for i in range(48):
                    vec = multiply_by_root(vec, poly)
                    vec[0] += int(d[a + i]) - int(d[b + i])
                # each term is monotone in x > 0, so its ends bound it
                low = sum(min(c * lo**k, c * hi**k) for k, c in enumerate(vec))
                high = sum(max(c * lo**k, c * hi**k) for k, c in enumerate(vec))
                worst = max(abs(low - Fraction(got)), abs(high - Fraction(got)))
                assert worst <= Fraction(bound), (name, a, b)

    def test_weights_are_the_powers_and_their_bounds_rounded_up(self):
        gamma = Fraction(48, 2**53 - 48)
        for name, ctx in return_bases().items():
            empty = np.zeros(0, dtype=np.int64)
            recurrence._dot_scan(ctx, np.zeros(48, dtype=np.int8), empty, empty)  # makes them
            P, D = ctx._scan_weights
            beta_f, dbeta = map(Fraction, ctx.beta_float_bound())
            for i, (p, d) in enumerate(zip(P.tolist(), D.tolist())):
                power = beta_f ** (47 - i)
                assert p == float(power), (name, i)
                e = (beta_f + dbeta) ** (47 - i) - power + abs(power - Fraction(p))
                bound = (e + gamma * Fraction(p)) * (1 + 2 * gamma)
                assert bound <= Fraction(d) <= bound * (1 + Fraction(1, 2**51)), (name, i)

    def test_dot_products_settle_what_the_horner_scan_settles(self):
        # the inputs of test_every_return_gap_matches_the_per_position_routine
        # and test_settled_positions_need_no_exact_step
        settled = 0
        for seed, depths in ((81, (150, 600)), (82, (200, 800))):
            rng = random.Random(seed)
            for name, ctx in return_bases().items():
                views = [OrbitView.from_digits(ctx, d) for d in return_streams(ctx, rng, depths)]
                views.append(OrbitView.from_point(ctx, Fraction(rng.getrandbits(64), 1 << 64)))
                for view in views:
                    view.ensure(700)
                    ns = first_digit_returns(view)
                    gaps, horner = recurrence._batch_gaps(view, ns), oracle_horner_gaps(view, ns)
                    kept = horner >= 0
                    assert (gaps[kept] == horner[kept]).all(), name
                    settled += int(kept.sum())
        assert settled > 1000

    def test_blocks_do_not_change_the_gaps(self, monkeypatch):
        rng = random.Random(90)
        cases = []
        for name in ("2.5", "golden", "3"):
            ctx = return_bases()[name]
            for digits in return_streams(ctx, rng, (300, 900)):
                view = OrbitView.from_digits(ctx, digits)
                cases.append((view, first_digit_returns(view)))
        want = [recurrence._batch_gaps(view, ns) for view, ns in cases]
        assert sum(int((g >= 0).sum()) for g in want) > 100
        monkeypatch.setattr(recurrence, "_SCAN_CHUNK", 7)
        for (view, ns), gaps in zip(cases, want):
            assert (recurrence._batch_gaps(view, ns) == gaps).all()

    def test_lambda_near_an_integer_is_left_to_the_exact_step(self, monkeypatch):
        # base 2, difference digits 1, 0^(a-1), 1 past the match: lambda sits
        # log2(1 + 2^-a) below an integer, inside neg_log_distance's own
        # interval for some a, and those positions must not be settled
        compares = count_calls(monkeypatch, "compare_distance_power")
        two, rng = BetaContext.from_value(2), random.Random(87)
        straddles = 0
        for a in range(16, 48):
            for noisy in range(6):
                d = [1] + [0] * 399
                d[200] = d[230] = d[230 + a] = 1
                for k in itertools.chain(range(31 + a, 200), range(231 + a, 400)):
                    d[k] = int(noisy > 0 and rng.random() < 0.3)
                view, ref = OrbitView.from_digits(two, d), OrbitView.from_digits(two, d)
                gap = recurrence._batch_gaps(view, np.array([200]))[0]
                seen = len(compares)
                got = recurrence._depth_from_lambda(ref, 200)
                straddles += len(compares) > seen
                if gap >= 0:
                    assert (got, len(compares)) == ((gap, False), seen), (a, noisy)
        assert straddles > 0

    @pytest.mark.parametrize("monotone", [True, False])
    def test_profiles_match_the_per_position_loop(self, monotone, monkeypatch):
        per_position = count_calls(monkeypatch, "neg_log_distance")
        rng = random.Random(83 + monotone)
        fallbacks = 0
        for name, ctx in return_bases().items():
            cases = []
            for digits in return_streams(ctx, rng, (120, 400)):
                depth = len(digits)
                for limit in (None, depth - rng.randrange(1, 64), depth // 2):
                    cases.append((lambda d=digits: OrbitView.from_digits(ctx, d), limit))
            x = Fraction(rng.getrandbits(64), 1 << 64)
            for limit in (None, 600, 300 - rng.randrange(1, 64)):
                cases.append((lambda: OrbitView.from_point(ctx, x), limit))
            for make, limit in cases:
                view, ref = make(), make()
                K = 6 if monotone else (60 if view._stream else 10_000)
                seen = len(per_position)
                got = outcome(lambda: extract_returns(view, K, monotone, limit))
                fallbacks += len(per_position) - seen
                assert got == outcome(lambda: oracle_extract_returns(ref, K, monotone, limit)), \
                    (name, limit)
                assert view.depth == ref.depth, (name, limit)
        assert fallbacks > 0

    def test_digit_view_comparisons_match_fractions(self):
        rng = random.Random(85)
        for name in ("2.5", "7/5", "3"):
            ctx = return_bases()[name]
            for digits in return_streams(ctx, rng, (60, 300)):
                view, ref = OrbitView.from_digits(ctx, digits), OrbitView.from_digits(ctx, digits)
                ns = first_digit_returns(view).tolist()[:25] + [len(digits) - 1, len(digits) + 2]
                for n in ns:
                    g = math.ceil(neg_log_distance(view, n).lo) - 1 if n < len(digits) else 0
                    for s in range(g - 5, g + 6):
                        assert compare_distance_power(view, n, s) == \
                            oracle_compare_left_endpoint(ref, n, s), (name, n, s)

    def test_exact_ties_on_every_short_word(self):
        # comparisons that read to the end of the word are settled exactly
        ties = 0
        for value, length in (("2", 6), ("3", 4), ("2.5", 4), ("7/5", 6)):
            ctx = BetaContext.from_value(value)
            for w in itertools.product(range(ctx.alphabet_max + 1), repeat=length):
                view = OrbitView.from_digits(ctx, w)
                for n in range(1, length + 1):
                    for s in range(-1, length + 3):
                        sign = compare_distance_power(view, n, s)
                        assert sign == oracle_compare_left_endpoint(view, n, s), (value, w, n, s)
                        ties += sign == 0
        assert ties > 0
        # |T(1/4) - 1/4| = 1/4 exactly, as in the point-view test
        assert compare_distance_power(OrbitView.from_digits(BetaContext.from_value(2), [0, 1]),
                                      1, 2) == 0

    def test_algebraic_digit_views_keep_the_exact_point_path(self):
        golden = BetaContext.golden()
        view = OrbitView.from_digits(golden, [1, 0, 0, 1, 0, 1, 0, 0])
        with pytest.raises(ValueError, match="exact value unavailable"):
            compare_distance_power(view, 3, 2)
        # the match at 3 runs to the end of the view, so the distance is
        # censored to [0, beta^-floor(lo)]; that holds the left endpoint's
        # distance beta^-88, as the exact sign of hi beta^88 - 1 shows
        view = OrbitView.from_digits(golden, [1, 0, 0] * 30)
        lam = neg_log_distance(view, 3)
        assert lam.censored
        dist = recurrence_distance(view, 3)
        hi = beta_power_bounds(golden, -math.floor(lam.lo))[1]
        assert (dist.lo, dist.hi) == (0, hi)
        power = [1, 0]
        for _ in range(88):
            power = multiply_by_root(power, golden.exact.poly)
        vec = [hi.numerator * c for c in power]
        vec[0] -= hi.denominator
        assert oracle_element_sign(vec, golden.exact) > 0

    def test_pisot_test_on_known_bases(self):
        assert recurrence._is_pisot((-1, -1, 1))        # golden ratio
        assert recurrence._is_pisot(CUBIC)              # smallest Pisot number
        assert recurrence._is_pisot((1, -3, 1))         # golden ratio squared
        assert not recurrence._is_pisot((-7, 0, 1))     # sqrt 7: conjugate -sqrt 7
        assert not recurrence._is_pisot((-2, 0, 1))     # sqrt 2: conjugate -sqrt 2
        # Lehmer's number is a Salem number: conjugates on the unit circle
        assert not recurrence._is_pisot((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
        # the float batch settles nothing on a base that is not Pisot
        sqrt7 = BetaContext.from_root((-7, 0, 1), 2, 3)
        for digits in return_streams(sqrt7, random.Random(86), (300,)):
            view = OrbitView.from_digits(sqrt7, digits)
            assert (recurrence._batch_gaps(view, first_digit_returns(view)) < 0).all()
