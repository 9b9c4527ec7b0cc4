"""The beta-shift language: admissibility, counting, fullness, cylinders.

Admissibility of a digit word is the classical lexicographic condition of
Parry: every suffix must be at most the same-length prefix of the expansion
of 1.  The follower automaton operationalises it.  Its state is the length of
the longest suffix of the word read so far that is a prefix of the expansion
of 1; a digit exceeding the next reference digit rejects, matching it
advances, and a smaller digit returns to state 0: by Parry's condition no
shorter match survives it, so no KMP failure links are needed.  The
reference digits are thus the automaton's whole transition table.

For a simple Parry base the reference sequence is purely periodic, states are
taken mod the period, and the automaton is finite and exact at all depths.
Otherwise the automaton is built to a requested depth and rebuilt on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .expansion import (
    BetaContext,
    Word,
    _horner_ends,
    _scaled_interval,
    beta_power_bounds,
    word_sum_bounds,
    word_value_fraction,
)
from .numerics import BoundedReal

_AUTOMATON_DEPTH = 64  # the least depth automaton_for builds to


def lex_compare(a: Word, b: Word) -> int:
    """-1, 0, or 1 for words of equal length."""
    if len(a) != len(b):
        raise ValueError("lex_compare requires equal lengths")
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


class FollowerAutomaton:
    """Deterministic acceptor for the beta-admissible words.

    State s means that the longest suffix of the word read so far that is a
    prefix of the reference sequence e_0 e_1 ... (the expansion of 1,
    periodic for a simple Parry base) has length s.  As in KMP matching, the
    transition from s on digit c is

        delta(s, c) = s + 1             if c = e_s,
                      rejection         if c > e_s,
                      delta(b, c)       if c < e_s, with b = pi(s - 1),

    and delta(0, c) = 0 for c < e_0, where pi(s - 1) is the longest proper
    border of e_0 ... e_(s-1).  Parry's condition sigma^k(d*) <= d* says
    that the digit after any border b of that prefix is at least the digit
    after the prefix itself, e_b >= e_s (compare the shift by s - b with d*).
    So for c < e_s no border extends by c, the empty one included, and the
    fallback always ends in state 0 (the classical automaton of the
    beta-shift).  Row s of the transition table is therefore fixed by e_s
    alone: 0 below e_s, s + 1 at e_s, rejection above.  The reference
    digits are the table, read once per step, and no failure links are
    kept.

    A simple Parry base with primitive period m has states 0..m-1, with
    s + 1 taken mod m, and the automaton is exact at all depths.  Otherwise
    the states are 0..depth, and stepping from a deeper state raises.
    ``step`` returns the next state or None for rejection.
    """

    def __init__(self, ctx: BetaContext, depth: int):
        self.ctx = ctx
        self.depth = depth
        digits = ctx.eps_star(depth + 1)  # reading stops where the expansion of 1 ends
        period = ctx._star_period
        if period is not None:
            m = len(period)
            for p in range(1, m):
                if m % p == 0 and period == period[:p] * (m // p):
                    raise AssertionError("reference period must be primitive")
            self.period = m
            self.pattern = list(period)
        else:
            self.period = None
            self.pattern = list(digits)

    @property
    def num_states(self) -> int:
        return len(self.pattern)

    def step(self, state: int, c: int) -> Optional[int]:
        if c < 0:
            raise ValueError("digits are non-negative")
        if state >= len(self.pattern):
            raise ValueError("automaton depth exceeded; rebuild deeper")
        e = self.pattern[state]
        if c != e:
            return 0 if c < e else None
        return state + 1 if self.period is None else (state + 1) % self.period

    def row(self, state: int) -> list[Optional[int]]:
        """The next state for each digit 0..amax from state, None to reject."""
        return [self.step(state, c) for c in range(self.ctx.alphabet_max + 1)]

    def transition_table(self) -> list[list[Optional[int]]]:
        """Dense (state, digit) table; None entries are rejections."""
        return [self.row(s) for s in range(self.num_states)]

    def feed(self, word: Word, state: int = 0) -> Optional[int]:
        for c in word:
            state = self.step(state, c)
            if state is None:
                return None
        return state

    def accepts(self, word: Word) -> bool:
        return self.feed(word) is not None


def automaton_for(ctx: BetaContext, depth: int) -> FollowerAutomaton:
    """Automaton for ctx usable on words of length <= depth, cached on the context."""
    cached = getattr(ctx, "_follower_cache", None)
    if cached is not None and (cached.period is not None or cached.depth >= depth):
        return cached
    auto = FollowerAutomaton(ctx, max(depth, _AUTOMATON_DEPTH))
    ctx._follower_cache = auto
    return auto


def _reachable_rows(ctx: BetaContext, n: int) -> list[list[Optional[int]]]:
    """The transition rows of every state a word of length n can reach."""
    auto = automaton_for(ctx, n)
    return [auto.row(s) for s in range(min(auto.num_states, n + 1))]


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def is_admissible(w: Word, ctx: BetaContext) -> bool:
    if any(d < 0 for d in w):
        raise ValueError("digits are non-negative")
    if any(d > ctx.alphabet_max for d in w):
        return False
    return automaton_for(ctx, len(w)).accepts(w)


def count_admissible(ctx: BetaContext, n: int) -> int:
    """Exact number of admissible words of length n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    return sum(state_counts(ctx, n).values())


def state_counts(ctx: BetaContext, n: int) -> dict[int, int]:
    """Exact count of admissible length-n words by final automaton state."""
    table = _reachable_rows(ctx, n)
    counts = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for s, c in counts.items():
            for t in table[s]:
                if t is not None:
                    nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return counts


def enumerate_admissible(ctx: BetaContext, n: int) -> Iterator[Word]:
    """All admissible words of length n in lexicographic order, streamed."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield ()
        return
    table = _reachable_rows(ctx, n)
    digits = [0] * n
    states = [0] * (n + 1)
    k = 0
    digits[0] = -1
    while k >= 0:
        digits[k] += 1
        if digits[k] > ctx.alphabet_max:
            k -= 1
            continue
        t = table[states[k]][digits[k]]
        if t is None:
            k -= 1
            continue
        states[k + 1] = t
        if k == n - 1:
            yield tuple(digits)
        else:
            k += 1
            digits[k] = -1


# ---------------------------------------------------------------------------
# fullness and cylinders
# ---------------------------------------------------------------------------


def is_full(w: Word, ctx: BetaContext) -> bool:
    """A word is full when appending any admissible word stays admissible.

    Equivalent to the follower state being 0: no live suffix constrains the
    continuation.  (For a simple Parry base the state is already reduced mod
    the period, which is what makes e.g. the full period word full.)
    """
    state = automaton_for(ctx, len(w)).feed(w)
    if state is None:
        raise ValueError("word is not admissible")
    return state == 0


@dataclass(frozen=True)
class Cylinder:
    """Geometry of the interval of points sharing a digit prefix."""

    word: Word
    left: BoundedReal
    length: BoundedReal
    full: bool


def cylinder(w: Word, ctx: BetaContext, refine: int = 24) -> Cylinder:
    """Left endpoint, length, and fullness of the order-n cylinder of w.

    The supremum is approached by greedily extending w with maximal
    admissible digits, which follows the expansion of 1 from the follower
    state, so `refine` extension digits ext determine the length within
    beta^-(n+refine): it lies in [S(w + ext) - S(w), that + beta^-(n+refine)],
    S the word sum.

    Everything in that bound except w itself depends only on (state,
    refine, n), and is cached on the context under that key.  On a rational
    base the sums are exact, the length is beta^-n S(ext) plus the tail
    allowance, and the cache holds the finished length.  On an algebraic
    base, Horner reads reversed(w + ext), so its state after the ext digits
    is shared by every word; the cache holds that state (integer endpoints
    at the word sums' scale) and half the upper end of beta^-(n+refine),
    and two Horner runs over w's digits, from 0 and from that state, give
    S(w) and S(w + ext).  The length's ends are assembled as integers, as
    ``BoundedReal`` subtraction would form them (E.lo - L.hi, E.hi - L.lo),
    so the cylinder is the one the two full word sums give.
    """
    if refine < 0:
        raise ValueError(f"refine must be non-negative, got {refine}")
    w = tuple(w)
    n = len(w)
    state = automaton_for(ctx, n + refine).feed(w)
    if state is None:
        raise ValueError("word is not admissible")
    key = (state, refine, n)
    cached = ctx._cylinder_tails.get(key)
    beta = ctx.beta_fraction
    if cached is None:
        ext = ctx.eps_star(state + refine)[state:]
        _, tail_hi = beta_power_bounds(ctx, -(n + refine))
        half = tail_hi / 2
        if beta is not None:
            scale, _ = beta_power_bounds(ctx, -n)
            # [scale S(ext), scale S(ext) + tail_hi]
            cached = BoundedReal(scale * word_value_fraction(ext, beta) + half, half)
        else:
            cached = _horner_ends(ext, ctx) + (half,)
        ctx._cylinder_tails[key] = cached
    if beta is not None:
        return Cylinder(word=w, left=word_sum_bounds(w, ctx), length=cached, full=state == 0)
    ext_lo, ext_hi, half = cached
    l_lo, l_hi = _horner_ends(w, ctx)
    e_lo, e_hi = _horner_ends(w, ctx, ext_lo, ext_hi)
    scale = 1 << (ctx.precision_bits + 64)
    # [lo, hi + tail] with lo = (e_lo - l_hi) / scale and hi = (e_hi - l_lo) / scale;
    # on a dyadic root bracket the tail's denominator is odd, so Fraction
    # adds it to the dyadic halves with no gcd of the large terms
    lo, hi = e_lo - l_hi, e_hi - l_lo
    length = BoundedReal(Fraction(lo + hi, 2 * scale) + half, Fraction(hi - lo, 2 * scale) + half)
    return Cylinder(word=w, left=_scaled_interval(l_lo, l_hi, scale), length=length,
                    full=state == 0)


# ---------------------------------------------------------------------------
# distribution of full cylinders
# ---------------------------------------------------------------------------


def max_nonfull_run(ctx: BetaContext, n: int) -> tuple[int, int]:
    """(longest run of consecutive non-full order-n cylinders, total count).

    Computed by dynamic programming over (state, remaining depth) run
    summaries instead of enumerating words, so large n stay cheap.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    table = _reachable_rows(ctx, n)
    # summary: (count, prefix_run, max_run, suffix_run, all_nonfull)
    memo: dict[tuple[int, int], tuple[int, int, int, int, bool]] = {}

    def combine(a, b):
        ca, pa, ma, sa, aa = a
        cb, pb, mb, sb, ab = b
        count = ca + cb
        if aa and ab:
            return (count, count, count, count, True)
        pre = ca + pb if aa else pa
        suf = cb + sa if ab else sb
        mid = max(ma, mb, sa + pb)
        return (count, pre, mid, suf, False)

    def summary(state, depth):
        if depth == 0:
            if state == 0:
                return (1, 0, 0, 0, False)
            return (1, 1, 1, 1, True)
        key = (state, depth)
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = None
        for t in table[state]:
            if t is None:
                continue
            s = summary(t, depth - 1)
            acc = s if acc is None else combine(acc, s)
        memo[key] = acc
        return acc

    count, pre, mid, suf, allnf = summary(0, n)
    return (count if allnf else max(pre, mid, suf), count)


def full_window_check(ctx: BetaContext, n: int) -> bool:
    """True when every n+1 consecutive order-n cylinders contain a full one."""
    run, _ = max_nonfull_run(ctx, n)
    return run <= n
