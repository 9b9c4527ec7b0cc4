"""Nested Cantor-type subsets of the unit interval with prescribed recurrence.

The construction interleaves two scales: long self-repeats (which force deep
returns at the positions n_k, with depth m_k - n_k) separated by gap regions
filled with length-M blocks drawn from a pool of full words of a truncated
base.  Cyclic rotations of the level-one seed word are excluded from the
pool, which is what prevents accidental deep returns inside the gaps.

A plan fixes the base, the truncated base (N), the block length (M), and the
scale sequences n_k < m_k < n_(k+1).  Levels, exact counts, the natural
product-like probability measure on branches, and seeded point sampling all
derive from the plan.  The sampler's law is exactly that measure, so Monte
Carlo estimates are testable against the exact rational values.

A branch is u_K and t_K gap blocks: u_1 = v_1^(ell_1) pad_1 with v_1 =
u^(n_1 div M) 0^(n_1 mod M), and u_k = (u_(k-1) v_k)^(ell_k) pad_k with v_k
the t_(k-1) gap blocks and q_(k-1) zeros.  ``CantorPlan.layout`` lays that
rule out once, as segments given by the position each ends at: the seed
block u; copy runs, each digit repeating the one ``shift`` places back (M
in u's repeats, n_k in level k); zero runs (level k's last min(p_k, N)
digits, the n_1 mod M after u's repeats, each gap's q_k tail); and runs of
gap-block slots, t_k of them from m_k, the last ending at ``plan.reach``.
Sampling, level words and the exact measure all read that one table.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Iterator, Optional

from .expansion import BetaContext, Word, _sign_minus_power, approximate_beta
from .numerics import _as_fraction
from .recurrence import OrbitView
from .symbolic import automaton_for, count_admissible


class CountableRegimeError(ValueError):
    """The exponent pair lies in the regime where the target set is countable."""


class ConstructionError(RuntimeError):
    """The construction is infeasible at the chosen parameters."""


# ---------------------------------------------------------------------------
# scale sequences
# ---------------------------------------------------------------------------


def _canonical_scales(r_hat: Fraction, r: Fraction, k: int) -> tuple[int, int]:
    if r_hat == 0:
        base = k**k
        return base, math.floor((r + 1) * base)
    ratio = r / r_hat
    nk = math.floor(ratio**k)
    return nk, math.floor((r + 1) * ratio**k)


def plan_sequences(r_hat, r, K: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Scale sequences n_k, m_k realising the exponent pair (r_hat, r).

    Geometric scales (r/r_hat)^k when r_hat > 0, super-exponential k^k when
    r_hat = 0, adjusted so that n_k < m_k < n_(k+1) holds strictly and the
    return depths m_k - n_k never decrease.  The defining ratio limits
    (m_k - n_k)/n_k -> r and (m_k - n_k)/n_(k+1) -> r_hat are unaffected by
    the order-one adjustments.
    """
    r_hat = _as_fraction(r_hat)
    r = _as_fraction(r)
    if K < 3:
        raise ValueError("K must be at least 3")
    if r <= 0 or r_hat < 0:
        raise ValueError("need r > 0 and r_hat >= 0")
    if r_hat > r / (1 + r):
        raise CountableRegimeError("countable regime")
    n_seq: list[int] = []
    m_seq: list[int] = []
    prev_gap = 1
    for k in range(1, K + 1):
        nk, mk = _canonical_scales(r_hat, r, k)
        if n_seq:
            nk = max(nk, m_seq[-1] + 1)
        mk = max(mk, nk + prev_gap)
        n_seq.append(nk)
        m_seq.append(mk)
        prev_gap = mk - nk
    return tuple(n_seq), tuple(m_seq)


# ---------------------------------------------------------------------------
# the block pool (full words of the truncated base)
# ---------------------------------------------------------------------------


def _rotations(u: Word) -> tuple[Word, ...]:
    return tuple(dict.fromkeys(u[-i:] + u[:-i] for i in range(1, len(u) + 1)))


# sampling rows whose draws have at most this many bits look their choice
# up in a list of 2^bits entries; wider rows bisect.  Eight bits bound a
# row's list at 256 entries and cover every row of the small pools that
# deep points draw most from (a golden M = 12 pool's first row draws 8)
_LOOKUP_BITS = 8
# where a sampling walk ends on an excluded block (a walk that is not ends on None)
_EXCLUDED = ()


class BlockPool:
    """Words of length M admissible in the truncated base and full in the
    parent base, minus an explicit exclusion list.

    The pool's language is the product of the two follower automata.  One
    forward pass over the product states reachable in fewer than M digits
    records each state's successors, indexed by digit and read from the
    transition rows of the two automata (None where either rejects).  Everything else walks
    those lists: the backward completion counts ``_g`` (acceptance at depth
    M is parent state 0, fullness in the parent), membership and prefix
    counts, the sampling rows, and enumeration.
    """

    # the sampling table's first row, made by _build_table on the first draw
    # (choose_N_M builds pools it never samples)
    _root: Optional[tuple] = None

    def __init__(self, child: BetaContext, parent: BetaContext, M: int,
                 exclude: tuple[Word, ...] = ()):
        self.M = M
        self.child = child
        self.parent = parent
        ca = automaton_for(child, M + 1)
        pa = automaton_for(parent, M + 1)
        self._succ: dict[tuple[int, int], list[Optional[tuple[int, int]]]] = {}
        layers = [{(0, 0)}]
        for _ in range(M):
            nxt = set()
            for s in layers[-1]:
                succ = self._succ.get(s)
                if succ is None:
                    succ = [None if a is None or b is None else (a, b)
                            for a, b in zip(ca.row(s[0]), pa.row(s[1]))]
                    self._succ[s] = succ
                nxt.update(t for t in succ if t is not None)
            layers.append(nxt)
        self._g: list[dict[tuple[int, int], int]] = [{} for _ in range(M + 1)]
        self._g[M] = {s: 1 if s[1] == 0 else 0 for s in layers[M]}
        for t in range(M - 1, -1, -1):
            below = self._g[t + 1]
            self._g[t] = {s: sum(below[u] for u in self._succ[s] if u is not None)
                          for s in layers[t]}
        self.exclude = tuple(w for w in exclude if self._raw_contains(w))
        self._excluded = frozenset(self.exclude)
        self.size = self._g[0][(0, 0)] - len(self.exclude)
        # how many excluded words begin with each prefix, the empty one included
        self._excluded_prefixes: dict[Word, int] = {}
        for w in self.exclude:
            for k in range(self.M + 1):
                self._excluded_prefixes[w[:k]] = self._excluded_prefixes.get(w[:k], 0) + 1
        self._members: set[Word] = set()  # blocks proven members, at most size of them

    def _walk(self, word: Word) -> Optional[tuple[int, int]]:
        """The product state after word (at most M digits), None once it leaves."""
        state = (0, 0)
        for c in word:
            succ = self._succ[state]
            if not 0 <= c < len(succ):
                return None
            state = succ[c]
            if state is None:
                return None
        return state

    def _raw_contains(self, w: Word) -> bool:
        if len(w) != self.M:
            return False
        state = self._walk(w)
        return state is not None and state[1] == 0

    def __contains__(self, w: Word) -> bool:
        w = tuple(w)
        if w in self._members:
            return True
        if self._raw_contains(w) and w not in self._excluded:
            self._members.add(w)
            return True
        return False

    def count_with_prefix(self, prefix: Word) -> int:
        if len(prefix) > self.M:
            raise ValueError("prefix longer than block length")
        state = self._walk(prefix)
        if state is None:
            return 0
        return self._g[len(prefix)][state] - self._excluded_prefixes.get(tuple(prefix), 0)

    def _build_table(self) -> None:
        """One row per (position, product state) with completions left, and
        one per proper prefix of an excluded word.

        A row is (total, bit length k of total, lookup, cumulative weights,
        choices) over the digits whose completion count is non-zero, each
        choice a (digit, next row) pair.  A draw r = getrandbits(k) below
        ``total`` selects its choice and walks straight to the next row.
        Where k is at most ``_LOOKUP_BITS``, lookup is the list of the 2^k
        choices indexed by r, None from ``total`` on (draw again), and the
        row keeps no cumulative weights or choices; wider rows have lookup
        None and find their choice by bisection of the cumulative weights.
        Zero-weight digits can never be selected, so dropping them changes
        no draw's outcome.

        A prefix row weighs its digits as its state's row does, but leads
        on to the next prefix row while the digits read still begin an
        excluded word, and to ``_EXCLUDED`` when they complete one; so a
        walk knows at its last digit whether the block is excluded.
        """
        # the proper prefixes of the excluded words, by length, with their states
        prefixes: list[dict[Word, tuple[int, int]]] = [{} for _ in range(self.M)]
        for w in self.exclude:
            state = (0, 0)
            for t, c in enumerate(w):
                prefixes[t][w[:t]] = state
                state = self._succ[state][c]
        rows: dict = {}  # position t + 1's rows, by state; empty past the last digit
        prefix_rows: dict = dict.fromkeys(self.exclude, _EXCLUDED)
        for t in range(self.M - 1, -1, -1):
            below = self._g[t + 1]
            steps = {s: [(c, s2, below[s2]) for c, s2 in enumerate(self._succ[s])
                         if s2 is not None and below[s2]]
                     for s, count in self._g[t].items() if count}
            new_rows = {s: _sampling_row([((c, rows.get(s2)), w) for c, s2, w in st])
                        for s, st in steps.items()}
            prefix_rows = {
                p: _sampling_row([((c, prefix_rows.get(p + (c,), rows.get(s2))), w)
                                  for c, s2, w in steps[s]])
                for p, s in prefixes[t].items()}
            rows = new_rows
        self._root = prefix_rows.get((), rows.get((0, 0)))

    def sample(self, rng: random.Random, b: int = 1) -> Word:
        """b blocks drawn one after another from rng, as one word of b M digits."""
        if self.size <= 0:
            raise ConstructionError("construction infeasible at this (N, M)")
        if self._root is None:
            self._build_table()
        getrandbits, root, M = rng.getrandbits, self._root, self.M
        digits: list[int] = []
        append = digits.append
        for _ in range(b):
            while _draw_block(root, getrandbits, append) is not None:
                del digits[-M:]  # an excluded block: draw it again
        return tuple(digits)

    def enumerate(self, budget: int = 200_000) -> Iterator[Word]:
        if self._g[0][(0, 0)] > budget:
            raise ConstructionError("pool too large to enumerate")
        stack = [((0, 0), ())]
        while stack:
            state, prefix = stack.pop()
            if len(prefix) == self.M:
                if state[1] == 0 and prefix not in self._excluded:
                    yield prefix
                continue
            below = self._g[len(prefix) + 1]
            succ = self._succ[state]
            for c in range(len(succ) - 1, -1, -1):
                s2 = succ[c]
                if s2 is not None and below[s2] > 0:
                    stack.append((s2, prefix + (c,)))


def _sampling_row(weighted: list[tuple[tuple[int, object], int]]) -> tuple:
    """The sampling row of (choice, weight) pairs with non-zero weights;
    see ``BlockPool._build_table``."""
    cum = list(accumulate(w for _, w in weighted))
    total = cum[-1]
    k = total.bit_length()
    if k > _LOOKUP_BITS:
        return total, k, None, cum, [choice for choice, _ in weighted]
    lookup = [choice for choice, w in weighted for _ in range(w)]
    return total, k, lookup + [None] * ((1 << k) - total), None, None


def _draw_block(row: tuple, getrandbits: Callable[[int], int],
                append: Callable[[int], None]) -> Optional[tuple]:
    """Walk the sampling rows from row, appending one digit per row; returns
    None at the end of a block and ``_EXCLUDED`` on an excluded one.

    A function of its own, called once per block: CPython 3.11 specialises
    a function's bytecode only once it has been called a few times, so a
    loop over all of a gap's blocks in one call would run unspecialised.
    """
    # randrange(total) inlined: CPython draws getrandbits(k), k the bit
    # length of total, until the value falls below total, so the values and
    # the generator state match randrange's (pinned by a test)
    while row:
        total, k, lookup, cum, choices = row
        if lookup is not None:
            choice = lookup[getrandbits(k)]
            while choice is None:
                choice = lookup[getrandbits(k)]
        else:
            r = getrandbits(k)
            while r >= total:
                r = getrandbits(k)
            choice = choices[bisect_right(cum, r)]
        c, row = choice
        append(c)
    return row


def m_set(trunc_ctx: BetaContext, parent_ctx: BetaContext, u: Word,
          budget: int = 200_000) -> set[Word]:
    """The block pool relative to the seed word u, materialised.

    Blocks are the words of length len(u) admissible in the truncated base,
    full in the parent base, and distinct from every cyclic rotation of u.
    """
    M = len(u)
    universe = BlockPool(trunc_ctx, parent_ctx, M)
    if not universe._raw_contains(u):
        raise ValueError("seed word must be a full admissible block")
    if not any(u):
        raise ValueError("seed word must not be the zero block")
    pool = BlockPool(trunc_ctx, parent_ctx, M, exclude=_rotations(u))
    if pool.size <= 0:
        raise ConstructionError("construction infeasible at this (N, M)")
    return set(pool.enumerate(budget))


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------


def _power_at_least(value: Fraction, ctx: BetaContext, exponent: Fraction) -> bool:
    """Certified value >= beta**exponent for a rational exponent a/b, decided
    as value**b - beta**a >= 0 in Q(beta)."""
    if value <= 0:
        return False
    lhs = ctx._element(value ** exponent.denominator)
    return _sign_minus_power(ctx, lhs, exponent.numerator) >= 0


@dataclass(frozen=True)
class TruncationChoice:
    N: int
    M: int
    trunc_ctx: BetaContext
    count: int
    margin: float  # log2(lhs) - log2(beta^(M(1-delta))), logged for reporting
    universe: BlockPool = field(repr=False, compare=False)  # all full blocks at (N, M)


def choose_N_M(ctx: BetaContext, delta, m_cap: int = 64,
               n_cap: int = 14) -> TruncationChoice:
    """Smallest feasible (N, M), searched lexicographically (M outer, N inner).

    Feasibility is the exact-count inequality
        count(M)/M - M - 1 >= beta^(M(1-delta))
    for the truncated base, plus enough full blocks to branch on after the
    rotation exclusions are removed.
    """
    delta = _as_fraction(delta)
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    best: Optional[tuple[float, int, int]] = None
    valid_n = [i + 1 for i, d in enumerate(ctx.eps_star(n_cap)) if d > 0]
    trunc_cache: dict[int, BetaContext] = {}
    for M in range(2, m_cap + 1):
        for N in valid_n:
            if N == 1 and sum(ctx.eps_star(1)) < 2:
                continue
            tctx = trunc_cache.get(N)
            if tctx is None:
                tctx = approximate_beta(ctx, N)
                trunc_cache[N] = tctx
            count = count_admissible(tctx, M)
            lhs = Fraction(count, M) - M - 1
            if lhs <= 0:
                continue
            universe = BlockPool(tctx, ctx, M)
            if universe.size - 1 - M < 2:
                continue
            exponent = M * (1 - delta)
            margin = math.log2(float(lhs)) - float(exponent) * math.log2(ctx.beta_float())
            if _power_at_least(lhs, ctx, exponent):
                return TruncationChoice(N, M, tctx, count, margin, universe)
            if best is None or margin > best[0]:
                best = (margin, N, M)
    raise ConstructionError(
        f"no feasible (N, M) within caps; best margin {best[0]:.3f} bits at "
        f"(N={best[1]}, M={best[2]})" if best else "no candidates at all")


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


# the kinds of segment in a plan's branch layout
_SEED, _COPY, _ZERO, _SLOTS = "seed", "copy", "zero", "slots"


def pad(w: Word, p: int, N: int) -> Word:
    """The length-p padding word: zeros, or a word prefix sealed by N zeros.

    Sealing any word of the truncated base with N zeros produces a full word
    of the parent base, which is what keeps the construction admissible.
    """
    if p < 0:
        raise ValueError("p must be non-negative")
    if p <= N:
        return (0,) * p
    if len(w) < p - N:
        raise ValueError("word too short for this padding length")
    return w[: p - N] + (0,) * N


@dataclass
class CantorPlan:
    """All parameters of one construction, with exact derived sequences.

    m_k = ell_k n_k + p_k (0 <= p_k < n_k) splits each level into whole
    repeats plus padding; n_(k+1) - m_k = t_k M + q_k (0 <= q_k < M) splits
    each gap into whole blocks plus a zero tail.
    """

    ctx: BetaContext
    trunc_ctx: BetaContext
    r_hat: Fraction
    r: Fraction
    delta: Fraction
    N: int
    M: int
    n_seq: tuple[int, ...]
    m_seq: tuple[int, ...]
    seed_word: Word
    pool_bound_ok: bool
    ell_seq: tuple[int, ...] = field(init=False)
    p_seq: tuple[int, ...] = field(init=False)
    t_seq: tuple[int, ...] = field(init=False)
    q_seq: tuple[int, ...] = field(init=False)
    layout: tuple[tuple[int, str, int], ...] = field(init=False, repr=False)
    _universe: Optional[BlockPool] = field(default=None, repr=False)
    _pools: dict[Word, BlockPool] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        splits = [divmod(m, n) for n, m in zip(self.n_seq, self.m_seq)]
        self.ell_seq = tuple(ell for ell, _ in splits)
        self.p_seq = tuple(p for _, p in splits)
        gaps = [divmod(n - m, self.M) for m, n in zip(self.m_seq, self.n_seq[1:])]
        self.t_seq = tuple(t for t, _ in gaps)
        self.q_seq = tuple(q for _, q in gaps)
        # the branch layout, one (end, kind, shift) per segment; see the
        # module docstring.  Copy runs start where their shift does (at M and
        # at each n_k); past the last gap's blocks the plan has no zero tail.
        # Empty segments are dropped and adjacent zero runs merged.
        M, reps = self.M, self.n_seq[0] // self.M
        segments = [(M, _SEED, 0), (reps * M, _COPY, M), (self.n_seq[0], _ZERO, 0)]
        for k in range(self.levels):
            m = self.m_seq[k]
            segments += [(m - min(self.p_seq[k], self.N), _COPY, self.n_seq[k]), (m, _ZERO, 0),
                         (m + self.t_seq[k] * M, _SLOTS, 0), (self.n_seq[k + 1], _ZERO, 0)]
        layout = segments[:1]
        for seg in segments[1:-1]:
            if seg[0] > layout[-1][0]:
                if seg[1] is _ZERO and layout[-1][1] is _ZERO:
                    layout.pop()
                layout.append(seg)
        self.layout = tuple(layout)

    @property
    def levels(self) -> int:
        return len(self.n_seq) - 1  # last entry is lookahead for t_K, q_K

    def universe(self) -> BlockPool:
        if self._universe is None:
            self._universe = BlockPool(self.trunc_ctx, self.ctx, self.M)
        return self._universe

    def pool_for(self, u: Word) -> BlockPool:
        if u not in self._pools:
            self._pools[u] = BlockPool(self.trunc_ctx, self.ctx, self.M,
                                       exclude=_rotations(u))
        return self._pools[u]

    def universe_size(self) -> int:
        return self.universe().size  # includes the zero block

    def d1_size(self) -> int:
        return self.universe_size() - 1

    @property
    def reach(self) -> int:
        """The length of a branch, m_K + t_K M: its last digit closes the
        t_K gap blocks after the last level."""
        return self.layout[-1][0]

    def to_json_dict(self) -> dict:
        return {
            "beta": self.ctx.describe(),
            "r_hat": str(self.r_hat),
            "r": str(self.r),
            "delta": str(self.delta),
            "N": self.N,
            "M": self.M,
            "n_seq": [str(v) for v in self.n_seq],
            "m_seq": [str(v) for v in self.m_seq],
            "ell_seq": [str(v) for v in self.ell_seq],
            "p_seq": [str(v) for v in self.p_seq],
            "t_seq": [str(v) for v in self.t_seq],
            "q_seq": [str(v) for v in self.q_seq],
            "seed_word": list(self.seed_word),
            "universe_size": str(self.universe_size()),
            "pool_size": str(self.pool_for(self.seed_word).size),
            "pool_bound_ok": self.pool_bound_ok,
        }


def build_plan(ctx: BetaContext, r_hat, r, delta="0.1", K: int = 6,
               seed: int = 0) -> CantorPlan:
    """Assemble a construction plan for the exponent pair (r_hat, r).

    The canonical scales are re-indexed until every gap holds at least one
    whole block (t_k >= 1) and shifted so n_1 > 2M; both operations preserve
    the defining ratio limits.
    """
    if r == math.inf:
        raise ValueError("r = inf has no construction plan")
    if r_hat == math.inf:
        raise ValueError("r_hat = inf has no construction plan")
    r_hat = _as_fraction(r_hat)
    r = _as_fraction(r)
    delta = _as_fraction(delta)
    choice = choose_N_M(ctx, delta)
    N, M, tctx = choice.N, choice.M, choice.trunc_ctx
    extra = 0
    while True:
        n_raw, m_raw = plan_sequences(r_hat, r, K + 1 + extra)
        gaps = [n_raw[k + 1] - m_raw[k] for k in range(len(n_raw) - 1)]
        start = 0
        while start < len(gaps) and any(g < M for g in gaps[start:]):
            start += 1
        if start + K + 1 <= len(n_raw):
            break
        extra += max(2, start)
        if extra > 64:
            raise ConstructionError("gaps never reach the block length")
    n_cut = n_raw[start : start + K + 1]
    m_cut = m_raw[start : start + K + 1]
    offset = max(0, 2 * M + 1 - n_cut[0])
    n_seq = tuple(v + offset for v in n_cut)
    m_seq = tuple(v + offset for v in m_cut)
    u = _seed_block(choice.universe, random.Random(seed))
    pool = BlockPool(tctx, ctx, M, exclude=_rotations(u))
    if pool.size <= 0:
        raise ConstructionError("construction infeasible at this (N, M)")
    bound_ok = _power_at_least(Fraction(pool.size), ctx, M * (1 - delta))
    return CantorPlan(ctx=ctx, trunc_ctx=tctx, r_hat=r_hat, r=r, delta=delta,
                      N=N, M=M, n_seq=n_seq, m_seq=m_seq, seed_word=u,
                      pool_bound_ok=bound_ok, _universe=choice.universe,
                      _pools={u: pool})


# ---------------------------------------------------------------------------
# levels, sampling, measure: one walk along a construction branch
# ---------------------------------------------------------------------------


def _seed_block(universe: BlockPool, rng: random.Random) -> Word:
    """The level-one seed u: a universe draw, redrawn while it is the zero block."""
    while True:
        u = universe.sample(rng)
        if any(u):
            return u


def _grow(plan: CantorPlan, word: Word, length: int,
          blocks: Optional[Callable[[int], Word]]) -> Word:
    """The branch prefix word, ending where a segment does, grown to length.

    Copy and zero runs are written up to length; a run of gap-block slots
    is filled by one ``blocks(b)`` call, b the least number of its blocks
    that gets there, so the result may run up to M - 1 digits past length.
    Zeros and blocks gather in a tail that joins the word before a copy run
    reads it, so a level costs about three copies of the word.
    """
    start = len(word)
    tail: Word = ()
    for end, kind, shift in plan.layout:
        if start >= length:
            break
        if end <= start:
            continue
        stop = min(end, length)
        if kind is _COPY:
            # a copy run starts at its shift: the word so far, repeated
            word += tail
            tail = ()
            reps, rest = divmod(stop, shift)
            word = word * reps + word[:rest]
        elif kind is _ZERO:
            tail += (0,) * (stop - start)
        else:
            tail += blocks(-(-(stop - start) // plan.M))
        start = len(word) + len(tail)
    return word + tail


def _sampled_prefix(plan: CantorPlan, seed: int, length: int) -> Word:
    """The branch drawn from ``random.Random(seed)``, grown to length: the
    seed block, then its pool's gap blocks up to the one that reaches length,
    one ``BlockPool.sample`` call per run of slots."""
    rng = random.Random(seed)
    u = _seed_block(plan.universe(), rng)
    return _grow(plan, u, length, partial(plan.pool_for(u).sample, rng))


@dataclass
class LevelSet:
    k: int
    count_d: int
    count_g: int
    words: Optional[list[Word]] = None


def build_levels(plan: CantorPlan, k_max: int, mode: str = "counts",
                 seed: int = 0, budget: int = 100_000) -> list[LevelSet]:
    """Level families: counts, one sampled branch, or all branches.

    Counts use the plan's reference seed word for the rotation exclusions:
    count_g is exact at level one, but from level two on each seed block has
    its own pool, so count_g need not be the number of level words (on 2.5
    with (1/3, 1, delta 0.9), K = 3, seed 0: 99 at level two, where
    "exhaustive" lists 105).  Sampling draws the level-one block afresh per
    seed, matching the measure.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if k_max > plan.levels:
        raise ValueError("k_max exceeds the planned levels")
    pool_size = plan.pool_for(plan.seed_word).size
    counts_d = [plan.d1_size()] + [pool_size ** t for t in plan.t_seq[: k_max - 1]]
    counts_g = list(accumulate(counts_d, mul))
    if mode == "counts":
        return [LevelSet(k + 1, counts_d[k], counts_g[k]) for k in range(k_max)]
    if mode == "sample":
        word = _sampled_prefix(plan, seed, plan.m_seq[k_max - 1])
        return [LevelSet(k, counts_d[k - 1], counts_g[k - 1], [word[: plan.m_seq[k - 1]]])
                for k in range(1, k_max + 1)]
    if mode == "exhaustive":
        branches: list[tuple[Word, Word]] = [  # (u, word)
            (u, _grow(plan, u, plan.m_seq[0], None))
            for u in plan.universe().enumerate(budget) if any(u)]
        out = [LevelSet(1, counts_d[0], counts_g[0], [w for _, w in branches])]
        if len(branches) != counts_g[0]:
            raise AssertionError("level-one count mismatch")
        for k in range(2, k_max + 1):
            nxt: list[tuple[Word, Word]] = []
            for u, word in branches:
                blocks = list(plan.pool_for(u).enumerate(budget))
                fillers: list[Word] = [()]
                for _ in range(plan.t_seq[k - 2]):
                    fillers = [f + b for f in fillers for b in blocks]
                    if len(fillers) * len(branches) > budget:
                        raise ConstructionError("exhaustive level exceeds budget")
                for f in fillers:
                    nxt.append((u, _grow(plan, word, plan.m_seq[k - 1], lambda b, f=f: f)))
            branches = nxt
            out.append(LevelSet(k, counts_d[k - 1], len(branches),
                                [w for _, w in branches]))
        return out
    raise ValueError("mode must be counts, sample, or exhaustive")


def sample_point(plan: CantorPlan, seed: int, depth: int) -> OrbitView:
    """One point of the construction as a digit stream of the given depth.

    Deterministic per seed: the first depth digits of the branch drawn from
    ``random.Random(seed)``, grown along the plan's layout.  The generator
    is local to the call, so drawing stops at the gap block that reaches
    depth: later draws could change no digit that is kept.  Depth runs from
    1 to ``plan.reach``.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if depth > plan.reach:
        raise ValueError(f"depth exceeds plan reach {plan.reach}")
    return OrbitView._from_word(plan.ctx, _sampled_prefix(plan, seed, depth)[:depth])


def measure(plan: CantorPlan, w: Word) -> Fraction:
    """Exact mass of the cylinder of w under the construction measure.

    Level one splits mass equally over the branch seeds, and each gap block,
    the t_K past the last level included, over the seed's pool.  Past the
    seed block, w is read along the plan's layout: a copy run is one slice
    comparison with w itself, a zero run one ``any``, a whole gap block a
    pool membership test and a partial one a prefix count.  Prefixes that
    leave the construction get mass zero; a branch prefix longer than
    ``plan.reach`` raises ValueError.  The mass is the integer denominator
    d_1 size^b over the b whole blocks read, made one Fraction at the end.
    """
    w = tuple(w)
    n = len(w)
    if n == 0:
        return Fraction(1)
    M = plan.M
    universe = plan.universe()
    den = plan.d1_size()
    if n < M:
        cnt = universe.count_with_prefix(w)
        if not any(w):
            cnt -= 1  # the zero block is not a valid seed
        return Fraction(max(cnt, 0), den)
    u = w[:M]
    if not any(u) or u not in universe:
        return Fraction(0)
    pool = plan.pool_for(u)
    start = M
    for end, kind, shift in plan.layout[1:]:
        if n <= start:
            break
        stop = min(n, end)
        if kind is _COPY:
            if w[start:stop] != w[start - shift : stop - shift]:
                return Fraction(0)
        elif kind is _ZERO:
            if any(w[start:stop]):
                return Fraction(0)
        else:
            if end == plan.reach and n > end:
                raise ValueError(f"prefix extends beyond the plan reach {end}")
            for lo in range(start, stop - M + 1, M):
                if w[lo : lo + M] not in pool:
                    return Fraction(0)
                den *= pool.size
            lo = stop - (stop - start) % M
            if lo < stop:
                # the rest of the run marginalises out; only the partial block counts
                return Fraction(pool.count_with_prefix(w[lo:stop]), den * pool.size)
        start = end
    return Fraction(1, den)
