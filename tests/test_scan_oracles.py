"""The vectorised recurrence scans and the certified Q(beta) decisions
against their reference loops.

Each scan oracle below is the straightforward per-position loop that the
library replaced with numpy expressions.  The arithmetic is the same (the same
IEEE operations in the same order, exact max/min), so agreement must be exact.
Oracles and library each get their own view of the same stream, because
both keep caches on the view.

The decision oracles are the loops that the exact elements of Q(beta)
replaced: an interval sign test, an orbit replay for
``compare_distance_power`` on algebraic bases and a Fraction orbit value on
rational ones, an interval power loop for ``_power_at_least``, and for
interval inputs to ``beta_expand`` the interval Horner loop that doubled its
precision up to the cap.  All of them decide exactly, so agreement must be
exact too.  The element operations themselves are checked against Fraction
coefficient vectors.

The cylinder oracles are the ``BoundedReal`` loops that the integer kernels
replaced: Horner with a dyadic ``shrink`` per digit, ``powi`` on the base's
interval, and the greedy tail built one automaton step at a time.  The
kernels replay them exactly, so centers, radii and endpoints must be equal.
The cylinder-cache oracle is the cylinder that took both word sums S(w)
and S(w + ext) per word, which the per-(state, refine, n) cache of the
tail's Horner state and of the length replaced; endpoints and fullness
must be equal, whatever order the words come in.

The return oracles are the loop that certifies every first-digit recurrence
one by one with ``_depth_from_lambda``, and the Fraction comparison of a
digit view's left endpoint that the integer comparison replaced.  Profiles,
the digits a view ends up holding, and comparison signs must be equal.

The digit-stream oracle is the per-digit ``next_digit`` loop that
``extend`` replaced, with a certified floor for every digit; the digits and
the exact state left behind must be equal.  The word-step oracle is the
float loop that took every digit of a block one at a time and resynced from
its digits, which the word table's steps replaced; digits and exact states
must be equal, and the bound of every word step must hold exactly.  The
rational cylinder oracle is the two word sums, subtracted in Fractions,
that the cached per-state tail replaced; the cylinders must be equal.

The language oracles are the per-digit KMP walk that the follower
automaton's transition table replaced, and the block pool that stepped both
walks digit by digit for its counts, membership, prefix counts and
enumeration.  Every table cell, every count and the enumeration order must
be equal.  The block-draw oracle is the sampler that found each digit by
bisection of its state's cumulative completion counts and drew a whole
block again when it was excluded, which the lookup rows and the
excluded-prefix rows replaced; blocks and generator states must be equal.
The Z-box oracle is the Z-array that sent every position surviving the
whole-array steps through the Z-box recursion, which the batched window
read replaced; the arrays must be equal.
The difference-scan oracle is the loop over all positions at once that
advanced its index arrays in place, which the blocked scan over digit
windows replaced; s, the running maximum and the error bound must be equal
bit for bit.

The root-bracket oracle is the Fraction bisection of the isolating bracket
that the grid-cell computation of ``RootBracket.bounds`` replaced: Newton's
method proposes the cell and exact integer signs certify it.  Brackets,
degenerate ones included, must be equal.

The construction oracles are the level words built by the definition
u_k = (u_(k-1) v_k)^(ell_k) pad_k that the plan's segment layout replaced,
the sampler that drew every gap of each level it reached in full and then
cut the branch to its depth, the measure that divided one Fraction by the
pool size per gap block, and the box count that built a set of prefix
tuples per depth and per bootstrap resample.  Level words, digits, masses
(and their strings), slopes, intervals and counts must be equal.
"""

import collections
import itertools
import math
import random
import time
from bisect import bisect_right
from fractions import Fraction
from operator import mul
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betarec import algebraic, expansion, recurrence
from betarec.algebraic import PRECISION_CAP_BITS, RootBracket, multiply_by_root
from betarec.cantor import (
    _LOOKUP_BITS,
    BlockPool,
    _power_at_least,
    _rotations,
    _seed_block,
    build_levels,
    build_plan,
    measure,
    pad,
    sample_point,
)
from betarec.dimension import BoxCount, boxcount
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
from betarec.symbolic import (
    Cylinder,
    FollowerAutomaton,
    automaton_for,
    count_admissible,
    cylinder,
    enumerate_admissible,
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


def oracle_word_sum_bounds(w, ctx):
    """Horner over BoundedReal with an outward dyadic shrink after each digit."""
    if ctx.beta_fraction is not None:
        return BoundedReal.exact(word_value_fraction(w, ctx.beta_fraction))
    bits = ctx.precision_bits
    binv = BoundedReal.exact(1) / ctx.beta_bounds(bits)
    acc = BoundedReal.exact(0)
    for d in reversed(w):
        acc = ((acc + d) * binv).shrink(bits + 64)
    return acc


def oracle_beta_power_bounds(ctx, k):
    if ctx.beta_fraction is not None:
        return ctx.beta_fraction ** k, ctx.beta_fraction ** k
    iv = ctx.beta_bounds(ctx.precision_bits).powi(k)
    return iv.lo, iv.hi


def oracle_greedy_tail(w, ctx, refine):
    """Extend w by the largest digit the follower automaton allows, refine times."""
    auto = automaton_for(ctx, len(w) + refine)
    t = auto.feed(w)
    ext = []
    for _ in range(refine):
        d = auto.pattern[t % auto.period if auto.period is not None else t]
        t = auto.step(t, d)
        assert t is not None
        ext.append(d)
    return tuple(ext)


def oracle_interval_cylinder(w, ctx, refine):
    state = automaton_for(ctx, len(w) + refine).feed(w)
    left = oracle_word_sum_bounds(w, ctx)
    diff = oracle_word_sum_bounds(w + oracle_greedy_tail(w, ctx, refine), ctx) - left
    _, tail_hi = oracle_beta_power_bounds(ctx, -(len(w) + refine))
    length = BoundedReal.from_endpoints(diff.lo, diff.hi + tail_hi)
    return Cylinder(word=w, left=left, length=length, full=state == 0)


def oracle_cylinder(w, ctx, refine):
    """The cylinder from both word sums: S(w + ext) - S(w) as ``BoundedReal``
    subtraction on an algebraic base, and S(ext) valued per call on a
    rational one."""
    n = len(w)
    state = automaton_for(ctx, n + refine).feed(w)
    if state is None:
        raise ValueError("word is not admissible")
    left = word_sum_bounds(w, ctx)
    _, tail_hi = beta_power_bounds(ctx, -(n + refine))
    ext = ctx.eps_star(state + refine)[state:]
    if ctx.beta_fraction is not None:
        scale, _ = beta_power_bounds(ctx, -n)
        half = tail_hi / 2
        length = BoundedReal(scale * word_value_fraction(ext, ctx.beta_fraction) + half, half)
    else:
        diff = word_sum_bounds(w + ext, ctx) - left
        length = BoundedReal.from_endpoints(diff.lo, diff.hi + tail_hi)
    return Cylinder(word=w, left=left, length=length, full=state == 0)


def oracle_zbox_extend(a, i, z):
    n = a.shape[0]
    step = 64
    while i + z < n:
        end = min(z + step, n - i)
        diff = a[z:end] != a[i + z : i + end]
        k = int(diff.argmax())
        if diff[k]:
            return z + k
        z = end
        step *= 2
    return z


def oracle_zbox_z_array(seq, K=8):
    """Whole-array steps for matches below K, then the Z-box recursion over
    every surviving position."""
    a = np.asarray(seq)
    n = a.shape[0]
    z = np.zeros(n, dtype=np.int64)
    if n == 0:
        return z
    z[0] = n
    alive = np.ones(n, dtype=bool)
    alive[0] = False
    for k in range(min(K, n)):
        alive[n - k:] = False
        alive[1 : n - k] &= a[1 + k : n] == a[k]
        z += alive
    todo = np.flatnonzero(alive)
    undecided = collections.deque()
    p = r = 0
    while True:
        if undecided:
            i = undecided.popleft()
        elif p < todo.shape[0]:
            i = int(todo[p])
            p += 1
        else:
            return z
        end = i + oracle_zbox_extend(a, i, max(int(z[i]), K))
        z[i] = end - i
        if end > r:
            q = int(np.searchsorted(todo, end))
            j = todo[p:q]
            zk = z[j % i]
            z[j] = np.minimum(zk, end - j)
            undecided.extend(j[zk == end - j].tolist())
            p, r = q, end


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
    """The batched window read against the Z-box recursion it shortens."""

    @staticmethod
    def assert_matches_oracles(seq, gather):
        with mock.patch.object(recurrence, "_Z_GATHER", gather):
            for arr in (seq, np.array(seq, dtype=np.int8), np.array(seq, dtype=np.int64)):
                z = z_array(arr)
                assert z.dtype == np.int64
                assert z.tolist() == oracle_zbox_z_array(arr).tolist()
        assert z.tolist() == oracle_z_array(seq)

    @settings(max_examples=300)
    @given(z_streams(), st.sampled_from((1, 2, 3, 4, 1024)))
    def test_drawn_streams(self, seq, gather):
        # gathers of 1 to 4 positions split the survivors into many blocks
        self.assert_matches_oracles(seq, gather)

    @pytest.mark.parametrize("n", [0, 1, 8, 71, 72, 73])
    def test_window_edge_lengths(self, n):
        rng = random.Random(n)
        for seq in ([0] * n, [1] * n, ([0, 1] * n)[:n], random_digits(rng, 2, n)):
            self.assert_matches_oracles(seq, 1024)

    def test_a_box_that_ends_inside_a_block(self):
        # 300 matches 100 digits, past the window, and its box ends before
        # the settled survivors 420 and 430 read in the same block
        rng = random.Random(19)
        seq = random_digits(rng, 1, 500)
        for at, length in ((300, 100), (420, 9), (430, 20)):
            seq[at : at + length] = seq[:length]
        for gather in (*range(1, 9), 1024):
            self.assert_matches_oracles(seq, gather)

    def test_survivors_in_several_blocks(self):
        # a binary stream of this length leaves about 1,200 survivors
        rng = random.Random(17)
        seq = random_digits(rng, 1, 300_000)
        a = np.array(seq, dtype=np.int8)
        assert z_array(a).tolist() == oracle_zbox_z_array(a).tolist()
        block = random_digits(rng, 1, 23)
        seq = (block * (300_000 // 23 + 1))[:300_000]
        for at in rng.sample(range(300_000), 50):
            seq[at] ^= 1
        a = np.array(seq, dtype=np.int64)
        assert z_array(a).tolist() == oracle_zbox_z_array(a).tolist()


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
            beta_f, dbeta = ctx.beta_float_bound()
            for n in (0, 1, chunk - 1, chunk, chunk + 1, 50_003):
                depth = 2 * n + 100
                d = np.zeros(depth + 49, dtype=np.int8)
                d[:depth] = rng.integers(0, ctx.alphabet_max + 1, depth)
                j = rng.integers(0, 40, n)
                j[::97] = rng.integers(0, n + 1, j[::97].shape[0])
                ia = np.minimum(np.arange(1, n + 1) + j, depth - 1)
                for bound in (None, dbeta):
                    ours = recurrence._difference_scan(d, beta_f, ia, j, dbeta=bound)
                    ref = oracle_difference_scan(d, beta_f, ia, j, dbeta=bound)
                    for got, want in zip(ours[:2], ref[:2]):
                        assert self.same_bits(got, want), (value, n)
                    if bound is None:
                        assert ours[2] is None and ref[2] is None
                    else:
                        assert self.same_bits(ours[2], ref[2]), (value, n)
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
        s, max_abs, err = recurrence._difference_scan(np.zeros(10, dtype=np.int8), 2.5,
                                                      empty, empty, dbeta=1e-16)
        assert s.shape == max_abs.shape == err.shape == (0,)
        # extract_returns batches its return times through the scan
        ctx = BetaContext.from_value("2.5")
        view = OrbitView.from_digits(ctx, [1, 0, 1, 1, 0, 1, 2, 0, 1, 0])
        assert len(recurrence._batch_gaps(view, np.array([2, 3, 5]))) == 3


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
                    for s in range(min(centre - 2, -2), centre + 3):
                        assert compare_distance_power(view, n, s) == \
                            oracle_compare_distance_power(ref, n, s), (x, n, s)

    def test_rational_point_views_match_fractions(self):
        rng = random.Random(53)
        for name in ("2.5", "7/5", "3"):
            ctx = return_bases()[name]
            points = [Fraction(rng.randrange(1, 10**6), 10**6 + rng.randrange(1, 999))
                      for _ in range(5)]
            for x in points + [Fraction(1, 2)]:  # 1/2 is a fixed point of base 3
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
        for beta in (Fraction(5, 2), Fraction(7, 5), Fraction(3)):
            ctx = BetaContext.from_value(beta)
            for value in [Fraction(k, 8) for k in range(1, 60, 3)]:
                for exponent in exponents:
                    a, b = exponent.numerator, exponent.denominator
                    assert _power_at_least(value, ctx, exponent) == \
                        (value**b >= beta**a), (beta, value, exponent)
        # exact equalities: 9 = 3^2 and 1/3 = 3^-1
        three = BetaContext.from_value(3)
        assert _power_at_least(Fraction(9), three, Fraction(2))
        assert _power_at_least(Fraction(1, 3), three, Fraction(-1))
        assert not _power_at_least(Fraction(8), three, Fraction(2))

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


CUBIC = (-1, -1, 0, 1)  # x^3 - x - 1, the smallest Pisot number


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


class TestCylinderKernels:
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

    @pytest.mark.parametrize("refine", [0, 1, 24, 40])
    def test_cylinder_on_every_short_word(self, refine):
        for ctx in (BetaContext.from_value("2.5"), BetaContext.golden(),
                    BetaContext.from_root(CUBIC, 1, 2)):
            for n in range(9):
                for w in enumerate_admissible(ctx, n):
                    assert cylinder(w, ctx, refine) == oracle_interval_cylinder(w, ctx, refine), w

    def test_cylinder_past_the_default_automaton_depth(self):
        # 2.5 is not simple Parry: its automaton is rebuilt deeper for n + refine > 64
        ctx = BetaContext.from_value("2.5")
        for w in ((), (0,), (2,), (2, 0, 2), (1, 2, 1, 0)):
            assert cylinder(w, ctx, 90) == oracle_interval_cylinder(w, ctx, 90), w
        assert automaton_for(ctx, 0).depth >= 94


def cylinder_cache_bases():
    golden = BetaContext.golden()
    return {"2.5": BetaContext.from_value("2.5"), "7/5": BetaContext.from_value("7/5"),
            "3": BetaContext.from_value(3), "golden": golden,
            "golden N=3": approximate_beta(golden, 3),
            "x^3-x-1": BetaContext.from_root(CUBIC, 1, 2)}


CYLINDER_REFINES = (0, 1, 24, 40)


class TestCylinderCache:
    """The cached tail state and length against the two word sums, on words
    up to length 7, with each side on its own contexts."""

    @staticmethod
    def assert_same(ours, ref):
        assert (ours.left.lo, ours.left.hi, ours.length.lo, ours.length.hi, ours.full) == \
            (ref.left.lo, ref.left.hi, ref.length.lo, ref.length.hi, ref.full)
        assert ours == ref

    @pytest.mark.parametrize("name", sorted(cylinder_cache_bases()))
    def test_fresh_contexts_in_word_order(self, name):
        for refine in CYLINDER_REFINES:
            ours, ref = cylinder_cache_bases()[name], cylinder_cache_bases()[name]
            for n in range(8):
                for w in enumerate_admissible(ours, n):
                    self.assert_same(cylinder(w, ours, refine), oracle_cylinder(w, ref, refine))

    @pytest.mark.parametrize("name", sorted(cylinder_cache_bases()))
    def test_one_context_in_interleaved_order(self, name):
        # cache entries made by one (word, refine) are read by others
        ours, ref = cylinder_cache_bases()[name], cylinder_cache_bases()[name]
        cases = [(w, refine) for refine in CYLINDER_REFINES
                 for n in range(8) for w in enumerate_admissible(ours, n)]
        random.Random(name).shuffle(cases)
        for w, refine in cases:
            self.assert_same(cylinder(w, ours, refine), oracle_cylinder(w, ref, refine))


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


def outcome(call):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call()
    except ValueError as exc:  # PeriodicPointError included
        return type(exc).__name__, str(exc)


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
        rng = random.Random(88)
        for value in ("7/5", "2.5", "10/3", "3"):
            ctx = BetaContext.from_value(value)
            beta, beta_f = ctx.beta_fraction, ctx.beta_float()
            d = np.array(random_digits(rng, ctx.alphabet_max, 400), dtype=np.int8)
            ia, ib = np.array(rng.sample(range(300), 60)), np.array(rng.sample(range(300), 60))
            dbeta = 2.0 * float(abs(Fraction(beta_f) - beta))
            s, _, err = recurrence._difference_scan(d, beta_f, ia.copy(), ib.copy(),
                                                    dbeta=dbeta)
            for a, b, got, bound in zip(ia.tolist(), ib.tolist(), s.tolist(), err.tolist()):
                exact = Fraction(0)
                for i in range(48):
                    exact = exact * beta + int(d[a + i]) - int(d[b + i])
                assert abs(exact - Fraction(got)) <= Fraction(bound), (value, a, b)

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
        view = OrbitView.from_digits(BetaContext.golden(), [1, 0, 0, 1, 0, 1, 0, 0])
        with pytest.raises(ValueError, match="exact value unavailable"):
            compare_distance_power(view, 3, 2)

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


# ---------------------------------------------------------------------------
# orbit digit streams and rational cylinders
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


def oracle_float_extend(element, out, k):
    """The float loop that the word steps replaced: ``extend`` with each
    block's digits decided one at a time and the exact state rebuilt from
    those digits."""
    run = element.ctx._float_run
    while k > 0:
        if not any(element.vec):
            out.extend([0] * k)
            return
        if (run is None or element.den.bit_length() > 900
                or any(c.bit_length() > 900 for c in element.vec)):
            out.extend(element.next_digit() for _ in range(k))
            return
        v, err = oracle_float_start(run, element.vec, element.den)
        m = min(run.block, k)
        first = len(out)
        for _ in range(m):
            w = run.beta_f * v
            d = int(w)
            f = w - d
            err = err * run.beta_up + run.dbeta * v + 2.0 * 2.0**-53 * (w + 1.0)
            if not err < f < 1.0 - err:
                break
            out.append(d)
            v = f
        taken = len(out) - first
        if taken:
            rev = out[first:][::-1]
            element.vec = [sum(map(mul, element.vec, scol))
                           - element.den * sum(map(mul, rev, dcol))
                           for scol, dcol in zip(run.state_cols[taken], run.digit_cols)]
            k -= taken
        if taken < m:
            out.append(element.next_digit())
            k -= 1


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
    def test_word_steps_match_the_per_digit_float_loop(self):
        rng = random.Random(107)
        for name, ctx in table_bases().items():
            run = ctx._float_run
            t, block = run.word_len, run.block
            for n in (t - 1, t, t + 1, block - 1, block, block + 1, 2 * block + t + 3, 4000):
                x = Fraction(rng.getrandbits(64), 1 << 64)
                ours, ref = orbit_digit_stream(ctx, x), orbit_digit_stream(ctx, x)
                out, expect = [], []
                ours.extend(out, n)
                oracle_float_extend(ref, expect, n)
                assert out == expect, (name, x, n)
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
        for name, ctx in stream_bases().items():
            block = ctx._float_run.block
            for i in range(8):
                x = (Fraction(rng.getrandbits(64), 1 << 64) if i % 2
                     else Fraction(rng.randrange(1, 997), 997))
                n = rng.choice((1, block - 1, block, block + 1, 3 * block + 5, 700))
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
        x = Fraction(2**64 - 59, 2**64)
        ours, ref = orbit_digit_stream(huge, x), orbit_digit_stream(huge, x)
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


RATIONAL_CYLINDER_BASES = {name: BetaContext.from_value(name) for name in ("2.5", "7/5", "3")}


def oracle_rational_cylinder(w, ctx, refine):
    """The two-sum cylinder of a rational base, in Fractions: value(w + tail)
    - value(w) is the length's lower end."""
    beta = ctx.beta_fraction
    n = len(w)
    left = word_value_fraction(w, beta)
    low = word_value_fraction(w + oracle_greedy_tail(w, ctx, refine), beta) - left
    state = automaton_for(ctx, n + refine).feed(w)
    return Cylinder(word=w, left=BoundedReal.exact(left),
                    length=BoundedReal.from_endpoints(low, low + beta ** -(n + refine)),
                    full=state == 0)


@st.composite
def admissible_words(draw, ctx, max_len):
    """Admissible words of length <= max_len; each digit is drawn, or the
    largest one the follower automaton allows, so deep states are common."""
    table = automaton_for(ctx, max_len).transition_table()
    state, word = 0, []
    for _ in range(draw(st.integers(0, max_len))):
        allowed = [c for c, t in enumerate(table[state]) if t is not None]
        c = allowed[-1] if draw(st.booleans()) else draw(st.sampled_from(allowed))
        word.append(c)
        state = table[state][c]
    return tuple(word)


class TestRationalCylinders:
    @settings(max_examples=60)
    @given(st.data())
    def test_cached_tail_matches_the_two_sums(self, data):
        ctx = RATIONAL_CYLINDER_BASES[data.draw(st.sampled_from(sorted(RATIONAL_CYLINDER_BASES)))]
        refine = data.draw(st.sampled_from((0, 1, 7, 24, 40, 90)))
        for w in data.draw(st.lists(admissible_words(ctx, 30), min_size=1, max_size=8)):
            assert cylinder(w, ctx, refine) == oracle_rational_cylinder(w, ctx, refine), \
                (w, refine)


# ---------------------------------------------------------------------------
# the follower automaton and the block pools
# ---------------------------------------------------------------------------


def oracle_failure_links(pattern):
    pi = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k > 0 and pattern[i] != pattern[k]:
            k = pi[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        pi[i] = k
    return pi


class OracleFollower:
    """The per-digit KMP walk that the transition table replaced: a digit
    above the reference digit rejects, an equal one advances, a smaller one
    falls back along the failure links of the (tripled, for a simple Parry
    base) reference sequence."""

    def __init__(self, ctx, depth):
        ctx.eps_star(min(depth, 64) + 1)
        if ctx.simple_parry is None:
            ctx.eps_star(depth + 1)
        period = ctx._star_period
        self.depth = depth
        self.period = None if period is None else len(period)
        self.pattern = list(period) * 3 if period is not None else list(ctx.eps_star(depth + 1))
        self.pi = oracle_failure_links(self.pattern)

    def _step_raw(self, lifted, c):
        e = self.pattern[lifted]
        if c > e:
            return None
        if c == e:
            return lifted + 1
        t = lifted
        while t > 0 and self.pattern[t] != c:
            t = self.pi[t - 1]
        return t + 1 if self.pattern[t] == c else 0

    def step(self, state, c):
        if c < 0:
            raise ValueError("digits are non-negative")
        if self.period is not None:
            t = self._step_raw(state + self.period, c)
            return None if t is None else t % self.period
        if state > self.depth:
            raise ValueError("automaton depth exceeded; rebuild deeper")
        return self._step_raw(state, c)


class OraclePool:
    """The block pool built by stepping both KMP walks per digit: reachable
    layers forward, completion counts backward, membership and prefix counts
    by stepping, enumeration by depth-first search."""

    def __init__(self, child, parent, M, exclude=()):
        self.M = M
        self.ca, self.pa = OracleFollower(child, max(M + 1, 64)), OracleFollower(parent, max(M + 1, 64))
        self.amax = child.alphabet_max
        layers = [{(0, 0)}]
        for _ in range(M):
            layers.append({s2 for s in layers[-1] for c in range(self.amax + 1)
                           if (s2 := self._step(s, c)) is not None})
        self.g = [dict() for _ in range(M + 1)]
        self.g[M] = {s: int(s[1] == 0) for s in layers[M]}
        for t in range(M - 1, -1, -1):
            for s in layers[t]:
                self.g[t][s] = sum(self.g[t + 1].get(self._step(s, c), 0)
                                   for c in range(self.amax + 1) if self._step(s, c) is not None)
        self.exclude = tuple(w for w in exclude if self.raw_contains(w))
        self.size = self.g[0][(0, 0)] - len(self.exclude)

    def _step(self, state, c):
        sc = self.ca.step(state[0], c)
        sp = None if sc is None else self.pa.step(state[1], c)
        return None if sp is None else (sc, sp)

    def _feed(self, word):
        state = (0, 0)
        for c in word:
            if c < 0 or c > self.amax:
                return None
            state = self._step(state, c)
            if state is None:
                return None
        return state

    def raw_contains(self, w):
        state = self._feed(w) if len(w) == self.M else None
        return state is not None and state[1] == 0

    def count_with_prefix(self, prefix):
        state = self._feed(prefix)
        if state is None:
            return 0
        return self.g[len(prefix)].get(state, 0) - sum(
            1 for w in self.exclude if w[: len(prefix)] == prefix)

    def enumerate(self):
        stack = [((0, 0), ())]
        while stack:
            state, prefix = stack.pop()
            if len(prefix) == self.M:
                if state[1] == 0 and prefix not in self.exclude:
                    yield prefix
                continue
            for c in range(self.amax, -1, -1):
                s2 = self._step(state, c)
                if s2 is not None and self.g[len(prefix) + 1].get(s2, 0) > 0:
                    stack.append((s2, prefix + (c,)))


def oracle_pool_sample(pool, rng):
    """One block by bisection: at each digit, the cumulative completion
    counts of the state's digits, getrandbits(k) until the value is below
    their total (CPython's randrange), the digit found by bisection; the
    whole block drawn again while it is excluded."""
    while True:
        state, digits = (0, 0), []
        for t in range(pool.M):
            below = pool._g[t + 1]
            cum, steps = [], []
            for c, s2 in enumerate(pool._succ[state]):
                if s2 is not None and below[s2]:
                    cum.append((cum[-1] if cum else 0) + below[s2])
                    steps.append((c, s2))
            k = cum[-1].bit_length()
            r = rng.getrandbits(k)
            while r >= cum[-1]:
                r = rng.getrandbits(k)
            c, state = steps[bisect_right(cum, r)]
            digits.append(c)
        if tuple(digits) not in pool.exclude:
            return tuple(digits)


def parent_bases():
    """Bases of every kind: simple Parry (golden, x^3-x-1, the integers) and
    not (1.8, 2.5, 3.7, 7/5)."""
    bases = {"golden": BetaContext.golden(), "x^3-x-1": BetaContext.from_root(CUBIC, 1, 2)}
    for value in ("1.8", "2", "2.5", "3", "3.7", "7/5"):
        bases[value] = BetaContext.from_value(value)
    return bases


def language_bases():
    """The parent bases, each with its truncations beta_N."""
    bases = parent_bases()
    for name, ctx in list(bases.items()):
        for N in range(1, 9):
            try:
                bases[f"{name} at N={N}"] = approximate_beta(ctx, N)
            except ValueError:
                pass  # e_N = 0, or beta_N = 1: no truncation at N
    return bases


class TestFollowerTable:
    def test_every_cell_matches_the_kmp_walk(self):
        bases = language_bases()
        assert sum(1 for ctx in bases.values() if ctx.simple_parry is None) == 4
        for name, ctx in bases.items():
            for depth in (1, 7, 64, 150):
                ours, ref = FollowerAutomaton(ctx, depth), OracleFollower(ctx, depth)
                states = ref.period if ref.period is not None else depth + 1
                assert ours.num_states == states
                table = ours.transition_table()
                assert len(table) == states
                for s in range(states):
                    for c in range(ctx.alphabet_max + 3):
                        assert ours.step(s, c) == ref.step(s, c), (name, depth, s, c)
                        if c <= ctx.alphabet_max:
                            assert table[s][c] == ref.step(s, c)
                    with pytest.raises(ValueError, match="non-negative"):
                        ours.step(s, -1)
                if ref.period is None:
                    for bad in (depth + 1, depth + 9):
                        with pytest.raises(ValueError, match="depth exceeded"):
                            ref.step(bad, 0)
                        with pytest.raises(ValueError, match="depth exceeded"):
                            ours.step(bad, 0)

    def test_a_smaller_digit_always_falls_back_to_state_zero(self):
        # Parry's condition, checked on the KMP walk itself: the table's
        # rows need no failure links, on bases of every kind and beyond the
        # Pisot ones (sqrt 7, x^2-5x+5) and on a base just above 1
        bases = language_bases()
        bases.update({"sqrt 7": BetaContext.from_root((-7, 0, 1), 2, 3),
                      "x^2-5x+5": BetaContext.from_root((5, -5, 1), 3, 4),
                      "10/3": BetaContext.from_value("10/3"),
                      "41/40": BetaContext.from_value("41/40")})
        fallbacks = 0
        for name, ctx in bases.items():
            ref = OracleFollower(ctx, 400)
            for s in range(ref.period or 401):
                e = ref.pattern[s + ref.period if ref.period else s]
                for c in range(e):
                    assert ref.step(s, c) == 0, (name, s, c)
                fallbacks += e
        assert fallbacks > 2000

    def test_deep_walk_along_the_expansion_of_one(self):
        ctx = BetaContext.from_value("2.5")
        star = ctx.eps_star(4001)
        ours, ref = FollowerAutomaton(ctx, 4000), OracleFollower(ctx, 4000)
        state = 0
        for c in star[:3000]:
            state = ref.step(state, c)
        assert ours.feed(star[:3000]) == state == 3000
        assert ours.feed(star[:4000]) == 4000
        assert ours.step(4000, star[4000]) == 4001
        with pytest.raises(ValueError, match="depth exceeded"):
            ours.step(4001, 0)

    def test_random_walks_match_the_kmp_walk(self):
        rng = random.Random(111)
        for name, ctx in language_bases().items():
            ours, ref = FollowerAutomaton(ctx, 300), OracleFollower(ctx, 300)
            for _ in range(20):
                # follow the reference digits with occasional drops, so walks go deep
                word, state = [], 0
                for _ in range(rng.randrange(1, 300)):
                    e = ref.pattern[state % ref.period if ref.period else state]
                    c = e if rng.random() < 0.8 else rng.randrange(ctx.alphabet_max + 2)
                    word.append(c)
                    state = ref.step(state, c)
                    if state is None:
                        break
                assert ours.feed(tuple(word)) == state, (name, word)


def pool_cases():
    """(name, child, parent, M) for small pools of every kind."""
    cases = []
    for name, ctx in parent_bases().items():
        for N in (2, 3, 5):
            try:
                child = approximate_beta(ctx, N)
            except ValueError:
                continue
            for M in (2, 4, 6):
                cases.append((f"{name} N={N} M={M}", child, ctx, M))
        cases.append((f"{name} M=5 in itself", ctx, ctx, 5))
    return cases


class TestBlockPoolWalks:
    def test_counts_membership_and_order_match_the_stepped_pool(self):
        rng = random.Random(112)
        checked = 0
        for name, child, parent, M in pool_cases():
            ref = OraclePool(child, parent, M)
            members = list(ref.enumerate())
            exclude = ()
            if members:
                u = members[rng.randrange(len(members))]
                exclude = tuple(_rotations(u)) + ((child.alphabet_max + 1,) * M,)
            ours, ref = BlockPool(child, parent, M, exclude), OraclePool(child, parent, M, exclude)
            assert ours._g == ref.g, name
            assert (ours.size, ours.exclude) == (ref.size, ref.exclude), name
            assert list(ours.enumerate()) == list(ref.enumerate()), name
            alphabet = range(-1, child.alphabet_max + 2)
            for n in range(M + 1):
                for w in itertools.product(alphabet, repeat=n):
                    assert ours.count_with_prefix(w) == ref.count_with_prefix(w), (name, w)
                    if n == M:
                        assert (w in ours) == (ref.raw_contains(w) and w not in ref.exclude)
            checked += 1
        assert checked == 50

    def test_samples_are_members_drawn_by_the_counts(self):
        # the sampling rows read the same successor lists: every draw is a
        # member, and a uniform draw hits each member about equally often
        ctx = BetaContext.from_value("2.5")
        child = approximate_beta(ctx, 2)
        ref = OraclePool(child, ctx, 4)
        members = list(ref.enumerate())
        pool = BlockPool(child, ctx, 4, exclude=(members[0],))
        rng = random.Random(113)
        seen = {}
        for _ in range(200 * len(members)):
            w = pool.sample(rng)
            assert w in pool
            seen[w] = seen.get(w, 0) + 1
        assert set(seen) == set(members[1:])
        assert max(seen.values()) < 2 * min(seen.values())


class TestBlockDraws:
    """Lookup rows, bisection rows and excluded-prefix rows against the
    per-digit bisection sampler: the same blocks, the same generator state."""

    @staticmethod
    def pools():
        base25 = BetaContext.from_value("2.5")
        criterion6 = build_plan(base25, 0, Fraction(1, 2), delta="0.5", K=6, seed=23)
        dimension = build_plan(base25, "0.2", "1", delta="0.9", K=4, seed=2)
        golden = build_plan(BetaContext.golden(), "0.2", "1", delta="0.5", K=3, seed=11)
        wide = build_plan(base25, "0.2", "1", delta="0.1", K=3, seed=0)
        trunc = approximate_beta(base25, 2)
        pools = {name: plan.pool_for(plan.seed_word) for name, plan in (
            ("criterion 6", criterion6), ("dimension", dimension),
            ("golden", golden), ("2.5 delta 0.1", wide))}
        pools["criterion 6 universe"] = criterion6.universe()
        pools["seed 4 exclusion"] = BlockPool(trunc, base25, 3, exclude=_rotations((1, 0, 0)))
        return pools

    def test_pools_cover_both_kinds_of_row(self):
        pools = self.pools()
        sizes = {name: (pool.M, pool.size) for name, pool in pools.items()}
        assert sizes["criterion 6"] == (4, 27) and sizes["dimension"] == (3, 9)
        assert sizes["golden"][0] == 12 and sizes["2.5 delta 0.1"][0] == 37
        for pool in pools.values():
            pool.sample(random.Random(0))
        for name in ("criterion 6", "dimension", "golden", "seed 4 exclusion"):
            assert pools[name]._root[2] is not None, name
        # the root row draws 49 bits: more than one 32-bit word, and bisected
        root = pools["2.5 delta 0.1"]._root
        assert root[1] == 49 > _LOOKUP_BITS and root[2] is None

    def test_blocks_match_the_bisection_sampler(self):
        for name, pool in self.pools().items():
            for seed in range(6):
                ours, ref = random.Random(seed), random.Random(seed)
                for _ in range(40):
                    assert pool.sample(ours) == oracle_pool_sample(pool, ref), (name, seed)
                for b in (2, 7, 150):
                    want = sum((oracle_pool_sample(pool, ref) for _ in range(b)), ())
                    assert pool.sample(ours, b) == want, (name, seed, b)
                assert ours.getstate() == ref.getstate(), (name, seed)

    def test_excluded_draw_is_drawn_again(self):
        # seed 4's first raw block is an excluded rotation of (1, 0, 0)
        pool = self.pools()["seed 4 exclusion"]
        raw = oracle_pool_sample(BlockPool(pool.child, pool.parent, 3), random.Random(4))
        assert raw in pool.exclude
        ours, ref = random.Random(4), random.Random(4)
        assert pool.sample(ours, 3) == sum((oracle_pool_sample(pool, ref) for _ in range(3)), ())
        assert ours.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# construction oracles: branch sampling, exact measure, box counting
# ---------------------------------------------------------------------------


def oracle_level_words(plan, u, gap):
    """The level words of a branch, each gap filler v_k given whole by gap(k).

    v_1 = u^(n_1 div M) 0^(n_1 mod M), and u_k = (u_(k-1) v_k)^(ell_k) pad_k,
    with u_0 empty and pad_k the padding word of length p_k of that body."""
    reps = plan.n_seq[0] // plan.M
    body = u * reps + (0,) * (plan.n_seq[0] - reps * plan.M)
    for k in range(1, plan.levels + 1):
        if k > 1:
            body = word + gap(k)
        word = body * plan.ell_seq[k - 1] + pad(body, plan.p_seq[k - 1], plan.N)
        yield word


def oracle_gap_filler(pool, rng, t, q):
    filler = []
    for _ in range(t):
        filler.extend(pool.sample(rng))
    return tuple(filler) + (0,) * q


def oracle_sample_point(plan, seed, depth):
    """The digits of a point: every gap of each level it reaches drawn in
    full, the last level extended by whole blocks, then cut to depth."""
    rng = random.Random(seed)
    u = _seed_block(plan.universe(), rng)
    pool = plan.pool_for(u)
    words = oracle_level_words(plan, u, lambda k: oracle_gap_filler(
        pool, rng, plan.t_seq[k - 2], plan.q_seq[k - 2]))
    for word in words:
        if len(word) >= depth:
            break
    if len(word) < depth:
        word += oracle_gap_filler(pool, rng, -(-(depth - len(word)) // plan.M), 0)
    return list(word[:depth])


def oracle_measure(plan, w):
    """The mass of w's cylinder with one Fraction division per gap block."""
    n = len(w)
    if n == 0:
        return Fraction(1)
    M = plan.M
    universe = plan.universe()
    d1 = plan.d1_size()
    if n < M:
        cnt = universe.count_with_prefix(w)
        if all(d == 0 for d in w):
            cnt -= 1
        return Fraction(max(cnt, 0), d1)
    u = w[:M]
    if all(d == 0 for d in u) or not universe._raw_contains(u):
        return Fraction(0)
    pool = plan.pool_for(u)
    mass = Fraction(1, d1)
    words = oracle_level_words(plan, u, lambda k: w[plan.m_seq[k - 2] : plan.n_seq[k - 1]])
    for k, word in enumerate(words, start=1):
        if n <= len(word):
            return mass if w == word[:n] else Fraction(0)
        if w[: len(word)] != word:
            return Fraction(0)
        gap_start = len(word)
        zeros_lo = gap_start + plan.t_seq[k - 1] * M
        if k == plan.levels and n > zeros_lo:
            raise ValueError(f"prefix extends beyond the plan reach {zeros_lo}")
        for b in range(plan.t_seq[k - 1]):
            lo = gap_start + b * M
            hi = lo + M
            if n < hi:
                cnt = pool.count_with_prefix(w[lo:n])
                return mass * Fraction(max(cnt, 0), pool.size)
            if w[lo:hi] not in pool:
                return Fraction(0)
            mass /= pool.size
        zeros_hi = zeros_lo + plan.q_seq[k - 1]
        if any(d != 0 for d in w[zeros_lo : min(n, zeros_hi)]):
            return Fraction(0)
        if n < zeros_hi or k == plan.levels:
            return mass


def oracle_boxcount(points, ctx, n_range, bootstrap=200, seed=0):
    """Box counts from a set of prefix tuples per depth and per resample."""
    n_range = sorted(set(int(n) for n in n_range))
    need = n_range[-1]
    prefixes = [tuple(v.digits(need)) for v in points]
    log_beta = math.log(ctx.beta_float())
    xs = np.array([n * log_beta for n in n_range])

    def slope_of(sample):
        counts = [len({p[:n] for p in sample}) for n in n_range]
        ys = np.log(np.array(counts, dtype=float))
        a = np.vstack([xs, np.ones_like(xs)]).T
        coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
        return float(coef[0]), counts

    slope, counts = slope_of(prefixes)
    rng = np.random.default_rng(seed)
    boots = []
    for _ in range(bootstrap):
        idx = rng.integers(0, len(prefixes), size=len(prefixes))
        boots.append(slope_of([prefixes[i] for i in idx])[0])
    lo, hi = (float(np.percentile(boots, 2.5)),
              float(np.percentile(boots, 97.5))) if boots else (slope, slope)
    return BoxCount(slope=slope, ci=(lo, hi), counts=counts, n_range=tuple(n_range))


def construction_plans():
    """Plans on a rational base, the golden base and a base below 1.5.

    Between them they have paddings of zeros and of body digits, gaps with
    and without a zero tail, and one to three repeats per level."""
    return {"2.5": build_plan(BetaContext.from_value("2.5"), "0.2", "1", delta="0.9",
                              K=4, seed=2),
            "golden": build_plan(BetaContext.golden(), "0.2", "1", delta="0.5", K=3, seed=11),
            "7/5": build_plan(BetaContext.from_value("7/5"), "1/4", "2", delta="0.5",
                              K=3, seed=1)}


def landmark_depths(plan):
    """Depths at level ends, inside the level-one seed, a padding, a gap and
    its zero tail, and in the blocks past the last level, up to the reach."""
    M = plan.M
    out = {1, M - 1, M, M + 1}
    for k in range(plan.levels):
        m_k, repeats = plan.m_seq[k], plan.ell_seq[k] * plan.n_seq[k]
        blocks_end = m_k + plan.t_seq[k] * M
        out |= {m_k - 1, m_k, m_k + 1, repeats, repeats + 1, (repeats + m_k) // 2,
                m_k + M - 1, m_k + M, m_k + M + 1, (m_k + blocks_end) // 2,
                blocks_end - 1, blocks_end, blocks_end + 1,
                blocks_end + plan.q_seq[k] - 1}
    top = plan.levels - 1
    reach = plan.m_seq[top] + plan.t_seq[top] * M
    return sorted(d for d in out if 1 <= d <= reach)


class TestConstructionKernels:
    plans = construction_plans()

    def test_plans_cover_every_region(self):
        for name, plan in self.plans.items():
            assert plan.levels >= 3, name
        assert any(q for plan in self.plans.values() for q in plan.q_seq)
        assert any(not q for plan in self.plans.values() for q in plan.q_seq)
        assert any(ell > 1 for plan in self.plans.values() for ell in plan.ell_seq)
        assert any(p > plan.N for plan in self.plans.values() for p in plan.p_seq)

    @settings(max_examples=120)
    @given(st.data())
    def test_sample_point_matches_the_full_branch(self, data):
        name = data.draw(st.sampled_from(sorted(self.plans)))
        plan = self.plans[name]
        seed = data.draw(st.integers(0, 10**6))
        depth = data.draw(st.sampled_from(landmark_depths(plan)))
        view = sample_point(plan, seed, depth)
        assert view.digits(depth) == oracle_sample_point(plan, seed, depth), (name, depth)
        assert view.depth == depth

    def test_drawing_stops_at_the_block_that_reaches_the_depth(self, monkeypatch):
        # one entry per block drawn, whether a call draws one block or a run
        draws = []
        inner = BlockPool.sample
        monkeypatch.setattr(BlockPool, "sample",
                            lambda pool, rng, b=1: draws.extend([pool] * b) or inner(pool, rng, b))

        def gap_draws(plan, depth):
            # whole gaps below depth, then the blocks of the gap it ends in
            total = 0
            for k in range(plan.levels):
                start, t = plan.m_seq[k], plan.t_seq[k]
                if depth <= start:
                    break
                total += min(t, -(-(depth - start) // plan.M))
                if depth <= start + t * plan.M:
                    break
            return total

        for name, plan in self.plans.items():
            for depth in landmark_depths(plan):
                draws.clear()
                sample_point(plan, 7, depth)
                seeds = sum(pool is plan.universe() for pool in draws)
                assert len(draws) - seeds == gap_draws(plan, depth), (name, depth)
        # the dimension plan at depth 60: u_2 ends at 52 and M = 3, so after
        # the seed block a point draws t_1 = 5 blocks and 3 of v_3's 25
        assert gap_draws(self.plans["2.5"], 60) == 8

    def test_sample_point_hands_over_the_int8_array_of_its_digits(self):
        for name, plan in self.plans.items():
            depth = landmark_depths(plan)[-1]
            view = sample_point(plan, 5, depth)
            ref = OrbitView.from_digits(plan.ctx, view.digits(depth))
            arr = view._digit_array()
            assert arr.dtype == np.int8 == ref._digit_array().dtype, name
            assert np.array_equal(arr, ref._digit_array()), name

    def test_exhaustive_level_two_matches_the_definition(self):
        # k = 2 words of every seed block and every gap filler, in the
        # enumeration order of the universe and then of the seed's pool
        cases = {"2.5": (BetaContext.from_value("2.5"), "1/3", 105),
                 "golden": (BetaContext.golden(), "0.2", 6552),
                 "7/5": (BetaContext.from_value("7/5"), "1/3", 10448)}
        for name, (ctx, r_hat, count) in cases.items():
            plan = build_plan(ctx, r_hat, "1", delta="0.9", K=3, seed=0)
            ref = []
            for u in plan.universe().enumerate():
                if not any(u):
                    continue
                fillers = [()]
                for _ in range(plan.t_seq[0]):
                    fillers = [f + b for f in fillers for b in plan.pool_for(u).enumerate()]
                for f in fillers:
                    words = oracle_level_words(plan, u, lambda k: f + (0,) * plan.q_seq[0])
                    next(words)
                    ref.append(next(words))
            assert len(ref) == count, name
            assert build_levels(plan, 2, mode="exhaustive")[1].words == ref, name

    @settings(max_examples=120)
    @given(st.data())
    def test_measure_matches_per_block_fractions(self, data):
        name = data.draw(st.sampled_from(sorted(self.plans)))
        plan = self.plans[name]
        depths = landmark_depths(plan)
        depth = data.draw(st.sampled_from(depths))
        w = oracle_sample_point(plan, data.draw(st.integers(0, 10**6)), depth)
        if data.draw(st.booleans()):
            # a changed digit, anywhere: it may leave the construction
            i = data.draw(st.integers(0, depth - 1))
            w[i] = data.draw(st.integers(0, plan.ctx.alphabet_max))
        if depth == depths[-1] and data.draw(st.booleans()):
            w.append(0)  # one digit past the reach
        w = tuple(w)
        ours, ref = outcome(lambda: measure(plan, w)), outcome(lambda: oracle_measure(plan, w))
        assert ours == ref, (name, depth)
        assert str(ours) == str(ref)

    @settings(max_examples=60)
    @given(st.data())
    def test_boxcount_matches_the_prefix_sets(self, data):
        ctx = data.draw(st.sampled_from((BetaContext.from_value("2.5"),
                                         BetaContext.from_value(200))))
        width = data.draw(st.integers(2, 20))
        digit = st.integers(0, ctx.alphabet_max)
        # a few distinct rows, repeated: duplicate points and shared prefixes
        rows = data.draw(st.lists(st.lists(digit, min_size=width, max_size=width),
                                  min_size=1, max_size=8))
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=60))
        points = [rows[i] for i in picks]
        n_range = data.draw(st.lists(st.integers(1, width), min_size=2, max_size=12)
                            .filter(lambda ns: len(set(ns)) >= 2))
        bootstrap = data.draw(st.sampled_from((0, 1, 7)))
        seed = data.draw(st.integers(0, 1000))
        views = (OrbitView.from_digits(ctx, p) for p in points)
        ours = boxcount(views, ctx, n_range, bootstrap=bootstrap, seed=seed)
        ref = oracle_boxcount([OrbitView.from_digits(ctx, p) for p in points], ctx, n_range,
                              bootstrap=bootstrap, seed=seed)
        assert ours == ref
        assert ours.ci == ref.ci and ours.counts == ref.counts

    def test_boxcount_on_sampled_points_and_a_wide_alphabet(self):
        plan = self.plans["golden"]
        views = [sample_point(plan, s, 70) for s in range(300)]
        views += views[:40]  # duplicates
        n_range = [12, 3, 40, 3, 70, 25]
        assert boxcount(views, plan.ctx, n_range, bootstrap=20, seed=5) == \
            oracle_boxcount(views, plan.ctx, n_range, bootstrap=20, seed=5)
        ctx = BetaContext.from_value(300)  # alphabet_max 299: the int64 digit arrays
        rng = random.Random(121)
        views = [OrbitView.from_digits(ctx, [rng.choice((0, 150, 299)) for _ in range(9)])
                 for _ in range(500)]
        assert views[0]._digit_array().dtype == np.int64
        assert boxcount(views, ctx, range(1, 10), bootstrap=10, seed=1) == \
            oracle_boxcount(views, ctx, range(1, 10), bootstrap=10, seed=1)


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
