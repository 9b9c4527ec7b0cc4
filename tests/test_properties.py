"""Property tests for the beta-shift language.

The follower automaton is checked against the direct suffix-by-suffix
definition of admissibility, and the counting recursion against the
enumeration, on bases of every kind the automaton handles: periodic (simple
Parry, integer) and depth-bounded (not simple Parry).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from betarec.expansion import BetaContext, approximate_beta
from betarec.symbolic import (
    count_admissible,
    enumerate_admissible,
    is_admissible,
    is_admissible_naive,
)

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
