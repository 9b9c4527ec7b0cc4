"""Cylinder geometry and the follower automaton against their reference
loops.

The cylinder oracle takes both word sums S(w) and S(w + ext) per word from
the word-sum oracles of ``oracles_expansion`` (Fractions on a rational
base), with the greedy tail ext built one automaton step at a time; the
per-(state, refine, n) cache of the tail's Horner state and of the length
replaced it.  Endpoints and fullness must be
equal, whatever order the words come in.

The language oracle is the per-digit KMP walk that the follower
automaton's transition table replaced (``oracle_common.OracleFollower``).
Every table cell must be equal.  ``is_admissible_naive`` is Parry's
definition read directly, suffix by suffix, for the tests of the language
elsewhere.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betarec.expansion import BetaContext, approximate_beta
from betarec.numerics import BoundedReal
from betarec.symbolic import (
    Cylinder,
    FollowerAutomaton,
    automaton_for,
    cylinder,
    enumerate_admissible,
)
from oracle_common import CUBIC, OracleFollower, parent_bases
from oracles_expansion import oracle_beta_power_bounds, oracle_word_sum_bounds


def is_admissible_naive(w, ctx):
    """Direct suffix-by-suffix lexicographic check, used as an oracle."""
    if any(d < 0 for d in w):
        raise ValueError("digits are non-negative")
    if any(d > ctx.alphabet_max for d in w):
        return False
    n = len(w)
    star = ctx.eps_star(n)
    for j in range(n):
        if w[j:] > star[: n - j]:
            return False
    return True


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


@functools.cache
def oracle_sum(ctx, w):
    """S(w) from the word-sum oracle, taken once: a word's sum serves every
    refine, and a greedy tail's every word that ends in its state."""
    return oracle_word_sum_bounds(w, ctx)


oracle_power = functools.cache(oracle_beta_power_bounds)


@functools.cache
def oracle_cylinder(w, ctx, refine):
    """The cylinder from both word sums: [S(w + ext) - S(w), that +
    beta^-(n+refine)] by ``BoundedReal`` subtraction, ext the greedy tail.
    Both sums and the power come from the word-sum oracles, exact on a
    rational base.  Memoised: the tests that share a reference context
    share its cylinders."""
    n = len(w)
    state = automaton_for(ctx, n + refine).feed(w)
    if state is None:
        raise ValueError("word is not admissible")
    left = oracle_sum(ctx, w)
    ext = oracle_greedy_tail(w, ctx, refine)
    diff = oracle_word_sum_bounds(w, ctx, oracle_sum(ctx, ext)) - left
    _, tail_hi = oracle_power(ctx, -(n + refine))
    length = BoundedReal.from_endpoints(diff.lo, diff.hi + tail_hi)
    return Cylinder(word=w, left=left, length=length, full=state == 0)


class TestCylinderKernels:
    @pytest.mark.parametrize("refine", [0, 1, 24, 40])
    def test_cylinder_on_every_short_word(self, refine):
        bases = cylinder_cache_bases()
        for name in ("2.5", "golden", "x^3-x-1"):
            ctx, ref = bases[name], reference_context(name)
            for n in range(9):
                for w in enumerate_admissible(ctx, n):
                    assert cylinder(w, ctx, refine) == oracle_cylinder(w, ref, refine), w

    def test_cylinder_past_the_default_automaton_depth(self):
        # 2.5 is not simple Parry: its automaton is rebuilt deeper for n + refine > 64
        ctx = BetaContext.from_value("2.5")
        for w in ((), (0,), (2,), (2, 0, 2), (1, 2, 1, 0)):
            assert cylinder(w, ctx, 90) == oracle_cylinder(w, reference_context("2.5"), 90), w
        assert automaton_for(ctx, 0).depth >= 94


def cylinder_cache_bases():
    golden = BetaContext.golden()
    return {"2.5": BetaContext.from_value("2.5"), "7/5": BetaContext.from_value("7/5"),
            "3": BetaContext.from_value(3), "golden": golden,
            "golden N=3": approximate_beta(golden, 3),
            "x^3-x-1": BetaContext.from_root(CUBIC, 1, 2)}


@functools.cache
def reference_context(name):
    """The oracles' own context for a base of ``cylinder_cache_bases``: one
    per base, so the library never runs on it and each oracle cylinder is
    taken once."""
    return cylinder_cache_bases()[name]


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
            ours, ref = cylinder_cache_bases()[name], reference_context(name)
            for n in range(8):
                for w in enumerate_admissible(ours, n):
                    self.assert_same(cylinder(w, ours, refine), oracle_cylinder(w, ref, refine))

    @pytest.mark.parametrize("name", sorted(cylinder_cache_bases()))
    def test_one_context_in_interleaved_order(self, name):
        # cache entries made by one (word, refine) are read by others
        ours, ref = cylinder_cache_bases()[name], reference_context(name)
        cases = [(w, refine) for refine in CYLINDER_REFINES
                 for n in range(8) for w in enumerate_admissible(ours, n)]
        random.Random(name).shuffle(cases)
        for w, refine in cases:
            self.assert_same(cylinder(w, ours, refine), oracle_cylinder(w, ref, refine))


RATIONAL_CYLINDER_BASES = {name: BetaContext.from_value(name) for name in ("2.5", "7/5", "3")}


@st.composite
def admissible_words(draw, ctx, max_len):
    """Admissible words of length <= max_len; each digit is drawn, or the
    largest one the follower automaton allows, so deep states are common."""
    auto = automaton_for(ctx, max_len)
    state, word = 0, []
    for _ in range(draw(st.integers(0, max_len))):
        allowed = [c for c in range(ctx.alphabet_max + 1) if auto.step(state, c) is not None]
        c = allowed[-1] if draw(st.booleans()) else draw(st.sampled_from(allowed))
        word.append(c)
        state = auto.step(state, c)
    return tuple(word)


class TestRationalCylinders:
    @settings(max_examples=60)
    @given(st.data())
    def test_cached_tail_matches_the_two_sums(self, data):
        ctx = RATIONAL_CYLINDER_BASES[data.draw(st.sampled_from(sorted(RATIONAL_CYLINDER_BASES)))]
        refine = data.draw(st.sampled_from((0, 1, 7, 24, 40, 90)))
        for w in data.draw(st.lists(admissible_words(ctx, 30), min_size=1, max_size=8)):
            assert cylinder(w, ctx, refine) == oracle_cylinder(w, ctx, refine), (w, refine)


# ---------------------------------------------------------------------------
# the follower automaton
# ---------------------------------------------------------------------------


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
                for s in range(states):
                    for c in range(ctx.alphabet_max + 3):
                        assert ours.step(s, c) == ref.step(s, c), (name, depth, s, c)
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
