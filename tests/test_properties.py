"""Property tests for the beta-shift language and the batched return depths.

The follower automaton is checked against the direct suffix-by-suffix
definition of admissibility, and the counting recursion against the
enumeration, on bases of every kind the automaton handles: periodic (simple
Parry, integer) and depth-bounded (not simple Parry).

The exact construction measure is additive: the masses of a prefix's
one-digit extensions sum to the prefix's own, at every level and in the
t_K gap blocks past the last one.

The float lambda batch is checked against ``neg_log_distance`` on drawn
digit streams: the midpoints of ``_lambda_series`` lie in the per-position
bounds, and the gaps ``_batch_gaps`` settles are those of
``_depth_from_lambda``.  Its one float test implies the dip check it
replaced: wherever |s| clears the margin, no partial sum exceeded |s|.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from betarec import recurrence
from betarec.cantor import build_plan, measure, sample_point
from betarec.expansion import BetaContext, approximate_beta
from betarec.recurrence import OrbitView, neg_log_distance
from betarec.symbolic import (
    count_admissible,
    enumerate_admissible,
    is_admissible,
)
from oracles_recurrence import oracle_difference_scan
from oracles_symbolic import is_admissible_naive

BASES = {
    "2.5": BetaContext.from_value("2.5"),
    "3": BetaContext.from_value(3),
    "golden": BetaContext.golden(),
    "x^3-x-1": BetaContext.from_root((-1, -1, 0, 1), 1, 2),
    "2.5 truncated at 5": approximate_beta(BetaContext.from_value("2.5"), 5),
}


@st.composite
def words_near_the_boundary(draw, ctx):
    """Concatenated prefixes of the expansion of 1, some with the last digit
    lowered, mixed with free digits: most such words sit on or near the
    admissibility boundary."""
    amax = ctx.alphabet_max
    word = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            word += draw(st.lists(st.integers(0, amax), max_size=4))
        else:
            piece = list(ctx.eps_star(draw(st.integers(1, 12))))
            piece[-1] = max(piece[-1] - draw(st.integers(0, 1)), 0)
            word += piece
    return tuple(word)


@given(st.data())
def test_automaton_agrees_with_the_suffix_definition(data):
    ctx = BASES[data.draw(st.sampled_from(sorted(BASES)))]
    w = data.draw(words_near_the_boundary(ctx))
    assert is_admissible(w, ctx) == is_admissible_naive(w, ctx)


@settings(max_examples=40)
@given(st.sampled_from(sorted(BASES)), st.integers(0, 8))
def test_count_agrees_with_enumeration(name, n):
    ctx = BASES[name]
    assert count_admissible(ctx, n) == sum(1 for _ in enumerate_admissible(ctx, n))


RETURN_BASES = {
    "2.5": BASES["2.5"],
    "3": BASES["3"],
    "golden": BASES["golden"],
    "x^3-x-1": BASES["x^3-x-1"],
    "7/5": BetaContext.from_value("7/5"),
}


@st.composite
def digit_streams(draw, ctx):
    """Free digits, or a block repeated with a few digits changed: the
    second kind has long matches and deep near-returns."""
    amax = ctx.alphabet_max
    length = draw(st.integers(64, 320))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, amax), min_size=length, max_size=length))
    block = draw(st.lists(st.integers(0, amax), min_size=1, max_size=12))
    word = (block * (length // len(block) + 1))[:length]
    for _ in range(draw(st.integers(1, 8))):
        word[draw(st.integers(0, length - 1))] = draw(st.integers(0, amax))
    return word


@settings(max_examples=40)
@given(st.data())
def test_lambda_series_midpoints_lie_in_the_per_position_bounds(data):
    ctx = RETURN_BASES[data.draw(st.sampled_from(sorted(RETURN_BASES)))]
    digits = data.draw(digit_streams(ctx))
    lam, _ = recurrence._lambda_series(OrbitView.from_digits(ctx, digits),
                                       min(len(digits) - 1, 80))
    ref = OrbitView.from_digits(ctx, digits)
    # a float midpoint is kept when the tail stays below 1/_FLOAT_MARGIN of
    # the partial sum, which moves lambda by at most -log_beta(1 - 1/margin)
    tol = -2.0 * math.log1p(-1.0 / recurrence._FLOAT_MARGIN) / math.log(ctx.beta_float())
    for n, mid in enumerate(lam.tolist(), start=1):
        if not math.isnan(mid):
            lam = neg_log_distance(ref, n)
            assert lam.lo - tol <= mid <= lam.hi + tol, (n, mid, lam)


@st.composite
def near_cancelling_windows(draw, ctx):
    """The digit streams of two points 2^-e apart (e = 40 or 64), one after
    the other, and each window of the second paired with the same window of
    the first: T^k y - T^k x is tiny, so the difference digits cancel deeply
    and partial sums dip and recover."""
    e = draw(st.sampled_from((40, 64)))
    x = Fraction(draw(st.integers(0, (1 << e) - 2)), 1 << e)
    length = 160
    dx = OrbitView.from_point(ctx, x).digits(length)
    dy = OrbitView.from_point(ctx, x + Fraction(1, 1 << e)).digits(length)
    ib = np.arange(length - recurrence._SCAN_STEPS + 1)
    return np.array(dx + dy), ib + length, ib


@settings(max_examples=60)
@given(st.data())
def test_the_margin_implies_that_no_partial_sum_exceeds_s(data):
    # |s| > margin T, T = amax/(beta - 1): a partial sum past 2T grows by
    # (beta + 1)/2 a step and those before it stay below 2T, so the running
    # maximum of the dip check that _lambda_series dropped is |s| itself
    bases = {**RETURN_BASES, "10/3": BetaContext.from_value("10/3")}
    ctx = bases[data.draw(st.sampled_from(sorted(bases)))]
    if data.draw(st.booleans()):
        digits = data.draw(digit_streams(ctx))
        view = OrbitView.from_digits(ctx, digits)
        n = np.arange(1, len(digits))
        j = view.z_values()[1:]
        inside = n + j + recurrence._SCAN_STEPS <= len(digits)
        d, ia, ib = view._digit_array(), (n + j)[inside], j[inside]
    else:
        d, ia, ib = data.draw(near_cancelling_windows(ctx))
    beta_f = ctx.beta_float()
    s, max_abs, _ = oracle_difference_scan(d, beta_f, ia, ib)
    abs_s = np.abs(s)
    clears = abs_s > recurrence._FLOAT_MARGIN * max(ctx.alphabet_max, 1) / (beta_f - 1.0)
    assert (max_abs[clears] == abs_s[clears]).all()


@settings(max_examples=40)
@given(st.data())
def test_batched_gaps_equal_the_per_position_gaps(data):
    ctx = RETURN_BASES[data.draw(st.sampled_from(sorted(RETURN_BASES)))]
    digits = data.draw(digit_streams(ctx))
    view, ref = OrbitView.from_digits(ctx, digits), OrbitView.from_digits(ctx, digits)
    arr = view._digit_array()
    ns = np.flatnonzero(arr[1:] == arr[0]) + 1
    for n, gap in zip(ns.tolist(), recurrence._batch_gaps(view, ns).tolist()):
        if gap >= 0:
            assert recurrence._depth_from_lambda(ref, n) == (gap, False), n


_TAIL_PLAN = {}


def tail_plan():
    """A four-level plan on 2.5 whose last level is followed by t_K = 468
    gap blocks of length M = 4, built once."""
    if not _TAIL_PLAN:
        plan = build_plan(RETURN_BASES["2.5"], "0.2", "1", delta="0.5", K=4, seed=7)
        reach = plan.m_seq[plan.levels - 1] + plan.t_seq[plan.levels - 1] * plan.M
        _TAIL_PLAN.update(plan=plan, reach=reach)
    return _TAIL_PLAN["plan"], _TAIL_PLAN["reach"]


@settings(max_examples=40)
@given(st.data())
def test_measure_is_additive_over_one_digit_extensions(data):
    plan, reach = tail_plan()
    # segment k < K is level k + 1, [m_k, m_(k+1)) with m_0 = 0; segment K
    # is the tail of whole gap blocks, [m_K, reach)
    bounds = (0,) + plan.m_seq[: plan.levels] + (reach,)
    k = data.draw(st.integers(0, plan.levels))
    n = data.draw(st.integers(bounds[k], bounds[k + 1] - 1))
    seed = data.draw(st.integers(0, 30))
    w = list(sample_point(plan, seed, reach).digits(n))
    if w and data.draw(st.booleans()):  # often leaves the construction
        w[-1] = data.draw(st.integers(0, plan.ctx.alphabet_max))
    w = tuple(w)
    children = [measure(plan, w + (c,)) for c in range(plan.ctx.alphabet_max + 1)]
    assert sum(children) == measure(plan, w), (k, n, seed)
