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
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
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


def _rotations(u: Word) -> list[Word]:
    out = []
    M = len(u)
    for i in range(1, M + 1):
        out.append(u[M - i:] + u[:M - i])
    return list(dict.fromkeys(out))


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

    # the sampling table's first row and the exclusions as a set, both made
    # by _build_table on the first draw (choose_N_M builds pools it never samples)
    _root: Optional[tuple] = None
    _excluded: Optional[frozenset] = None

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
        self.size = self._g[0][(0, 0)] - len(self.exclude)

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
        return self._raw_contains(w) and w not in self.exclude

    def count_with_prefix(self, prefix: Word) -> int:
        if len(prefix) > self.M:
            raise ValueError("prefix longer than block length")
        state = self._walk(prefix)
        if state is None:
            return 0
        raw = self._g[len(prefix)][state]
        hit = sum(1 for w in self.exclude if w[: len(prefix)] == prefix)
        return raw - hit

    def _build_table(self) -> None:
        """One row per (position, product state) with completions left.

        A row is (total, bit length of total, cumulative weights, choices)
        over the digits whose completion count is non-zero, each choice a
        (digit, successor row) pair, so a draw below ``total`` selects its
        choice by bisection and walks straight to the next row.  Zero-weight
        digits can never be selected, so dropping them changes no draw's
        outcome.
        """
        rows: dict[tuple[int, int], tuple] = {}
        for t in range(self.M - 1, -1, -1):
            nxt = rows
            rows = {}
            below = self._g[t + 1]
            for s, count in self._g[t].items():
                if count == 0:
                    continue
                cum: list[int] = []
                choices: list[tuple[int, Optional[tuple]]] = []
                acc = 0
                for c, s2 in enumerate(self._succ[s]):
                    w = below[s2] if s2 is not None else 0
                    if w:
                        acc += w
                        cum.append(acc)
                        choices.append((c, nxt.get(s2)))
                rows[s] = (acc, acc.bit_length(), cum, choices)
        self._root = rows.get((0, 0))
        self._excluded = frozenset(self.exclude)

    def sample(self, rng: random.Random) -> Word:
        if self.size <= 0:
            raise ConstructionError("construction infeasible at this (N, M)")
        if self._excluded is None:
            self._build_table()
        # randrange(total) inlined: CPython draws getrandbits(k), k the bit
        # length of total, until the value falls below total, so the values
        # and the generator state match randrange's (pinned by a test)
        getrandbits = rng.getrandbits
        while True:
            digits: list[int] = []
            row = self._root
            while row is not None:
                total, k, cum, choices = row
                r = getrandbits(k)
                while r >= total:
                    r = getrandbits(k)
                c, row = choices[bisect_right(cum, r)]
                digits.append(c)
            word = tuple(digits)
            if word not in self._excluded:
                return word

    def enumerate(self, budget: int = 200_000) -> Iterator[Word]:
        if self._g[0][(0, 0)] > budget:
            raise ConstructionError("pool too large to enumerate")
        stack = [((0, 0), ())]
        while stack:
            state, prefix = stack.pop()
            if len(prefix) == self.M:
                if state[1] == 0 and prefix not in self.exclude:
                    yield prefix
                continue
            below = self._g[len(prefix) + 1]
            succ = self._succ[state]
            for c in range(len(succ) - 1, -1, -1):
                s2 = succ[c]
                if s2 is not None and below[s2] > 0:
                    stack.append((s2, prefix + (c,)))


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
    if all(d == 0 for d in u):
        raise ValueError("seed word must not be the zero block")
    pool = BlockPool(trunc_ctx, parent_ctx, M, exclude=tuple(_rotations(u)))
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
    _universe: Optional[BlockPool] = field(default=None, repr=False)
    _pools: dict[Word, BlockPool] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        ell, p, t, q = [], [], [], []
        for nk, mk in zip(self.n_seq, self.m_seq):
            ell.append(mk // nk)
            p.append(mk % nk)
        for k in range(len(self.n_seq) - 1):
            tk, qk = divmod(self.n_seq[k + 1] - self.m_seq[k], self.M)
            t.append(tk)
            q.append(qk)
        self.ell_seq = tuple(ell)
        self.p_seq = tuple(p)
        self.t_seq = tuple(t)
        self.q_seq = tuple(q)

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
                                       exclude=tuple(_rotations(u)))
        return self._pools[u]

    def universe_size(self) -> int:
        return self.universe().size  # includes the zero block

    def d1_size(self) -> int:
        return self.universe_size() - 1

    def v1_word(self, u: Word) -> Word:
        reps = self.n_seq[0] // self.M
        return u * reps + (0,) * (self.n_seq[0] - reps * self.M)

    def next_level_word(self, prev: Word, filler: Word, k: int) -> Word:
        """u_k from u_(k-1) and the gap filler v_k (1-based level k)."""
        body = prev + filler
        return body * self.ell_seq[k - 1] + pad(body, self.p_seq[k - 1], self.N)

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
    pool = BlockPool(tctx, ctx, M, exclude=tuple(_rotations(u)))
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


def _gap_blocks(pool: BlockPool, rng: random.Random, t: int) -> Word:
    """t blocks drawn from the pool."""
    blocks: list[int] = []
    for _ in range(t):
        blocks.extend(pool.sample(rng))
    return tuple(blocks)


def _level_words(plan: CantorPlan, u: Word, blocks: Callable[[int, int], Word],
                 reach: Optional[int] = None) -> Iterator[Word]:
    """The level words u_1, u_2, ... of the branch with seed block u.

    The filler v_k between u_(k-1) and its repeat in u_k is t_(k-1) gap
    blocks, given by ``blocks(k, t_(k-1))``, then q_(k-1) zeros.  Blocks
    are asked for only when the caller asks for u_k, so blocks drawn from a
    random generator take its draws in level order, and nothing is drawn
    past the last level the caller reads.

    With ``reach``, a level whose gap blocks reach that many digits ends
    the walk with u_(k-1) followed by only the blocks that get there,
    ``blocks(k, b)`` for the least such b.  Since m_k >= n_k, ell_k >= 1
    and the body u_(k-1) v_k is a prefix of u_k, so the first reach digits
    of the last word yielded are those of u_k.
    """
    word = plan.next_level_word(plan.v1_word(u), (), 1)
    yield word
    M = plan.M
    for k in range(2, plan.levels + 1):
        t = plan.t_seq[k - 2]
        if reach is not None and reach - len(word) <= t * M:
            yield word + blocks(k, -(-(reach - len(word)) // M))
            return
        filler = blocks(k, t) + (0,) * plan.q_seq[k - 2]
        word = plan.next_level_word(word, filler, k)
        yield word


def _sampled_branch(plan: CantorPlan, rng: random.Random,
                    reach: Optional[int] = None) -> tuple[BlockPool, Iterator[Word]]:
    """A branch drawn from rng: its gap pool and its lazily drawn level words."""
    u = _seed_block(plan.universe(), rng)
    pool = plan.pool_for(u)
    return pool, _level_words(plan, u, lambda k, t: _gap_blocks(pool, rng, t), reach)


@dataclass
class LevelSet:
    k: int
    count_d: int
    count_g: int
    words: Optional[list[Word]] = None


def build_levels(plan: CantorPlan, k_max: int, mode: str = "counts",
                 seed: int = 0, budget: int = 100_000) -> list[LevelSet]:
    """Level families: exact counts, one sampled branch, or all branches.

    Counts use the plan's reference seed word for the rotation exclusions;
    sampling draws the level-one block afresh per seed, matching the measure.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if k_max > plan.levels:
        raise ValueError("k_max exceeds the planned levels")
    pool_size = plan.pool_for(plan.seed_word).size
    counts_d = [plan.d1_size()]
    for k in range(2, k_max + 1):
        counts_d.append(pool_size ** plan.t_seq[k - 2])
    counts_g = []
    acc = 1
    for c in counts_d:
        acc *= c
        counts_g.append(acc)
    if mode == "counts":
        return [LevelSet(k + 1, counts_d[k], counts_g[k]) for k in range(k_max)]
    if mode == "sample":
        _, words = _sampled_branch(plan, random.Random(seed))
        return [LevelSet(k, counts_d[k - 1], counts_g[k - 1], [word])
                for k, word in zip(range(1, k_max + 1), words)]
    if mode == "exhaustive":
        universe = plan.universe()
        branches: list[tuple[Word, Word]] = []  # (u, word)
        for u in universe.enumerate(budget):
            if all(d == 0 for d in u):
                continue
            branches.append((u, plan.next_level_word(plan.v1_word(u), (), 1)))
        out = [LevelSet(1, counts_d[0], counts_g[0], [w for _, w in branches])]
        if len(branches) != counts_g[0]:
            raise AssertionError("level-one count mismatch")
        for k in range(2, k_max + 1):
            nxt: list[tuple[Word, Word]] = []
            for u, word in branches:
                pool = plan.pool_for(u)
                blocks = list(pool.enumerate(budget))
                fillers: list[Word] = [()]
                for _ in range(plan.t_seq[k - 2]):
                    fillers = [f + b for f in fillers for b in blocks]
                    if len(fillers) * len(branches) > budget:
                        raise ConstructionError("exhaustive level exceeds budget")
                tail = (0,) * plan.q_seq[k - 2]
                for f in fillers:
                    nxt.append((u, plan.next_level_word(word, f + tail, k)))
            branches = nxt
            out.append(LevelSet(k, counts_d[k - 1], len(branches),
                                [w for _, w in branches]))
        return out
    raise ValueError("mode must be counts, sample, or exhaustive")


def sample_point(plan: CantorPlan, seed: int, depth: int) -> OrbitView:
    """One point of the construction as a digit stream of the given depth.

    Deterministic per seed: the first depth digits of the branch drawn from
    ``random.Random(seed)``, extended into the blocks of the gap after the
    last level when depth requires it.  The generator is local to the call,
    so drawing stops at the block that reaches depth: later draws could
    change no digit that is kept.  Depth runs from 1 to the plan reach
    m_K + t_K M.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    top = plan.levels
    max_depth = plan.m_seq[top - 1] + plan.t_seq[top - 1] * plan.M
    if depth > max_depth:
        raise ValueError(f"depth exceeds plan reach {max_depth}")
    rng = random.Random(seed)
    pool, words = _sampled_branch(plan, rng, reach=depth)
    for word in words:
        if len(word) >= depth:
            break
    if len(word) < depth:
        # whole blocks of the gap after the last level
        word += _gap_blocks(pool, rng, -(-(depth - len(word)) // plan.M))
    return OrbitView.from_digits(plan.ctx, word[:depth])


def measure(plan: CantorPlan, w: Word) -> Fraction:
    """Exact mass of the cylinder of w under the construction measure.

    Level one splits mass equally over the branch seeds; each deeper level
    splits equally over its gap-block choices, and so do the t_K blocks
    after the last level, which ``sample_point`` draws the same way.
    Prefixes that leave the construction get mass zero; a branch prefix
    longer than that reach, m_K + t_K M, raises ValueError.  The mass is
    kept as the integer denominator d_1 size^b over the b whole blocks
    read, and one Fraction is made at the end.
    """
    n = len(w)
    if n == 0:
        return Fraction(1)
    M = plan.M
    universe = plan.universe()
    d1 = plan.d1_size()
    if n < M:
        cnt = universe.count_with_prefix(w)
        if all(d == 0 for d in w):
            cnt -= 1  # the zero block is not a valid seed
        return Fraction(max(cnt, 0), d1)
    u = w[:M]
    if all(d == 0 for d in u) or not universe._raw_contains(u):
        return Fraction(0)
    pool = plan.pool_for(u)
    den = d1
    # the blocks of each gap v_(k+1), from w[m_k], are read only once the
    # loop below has checked them and the zeros after them, all inside w
    words = _level_words(plan, u, lambda k, t: w[plan.m_seq[k - 2] : plan.m_seq[k - 2] + t * M])
    for k, word in enumerate(words, start=1):
        if n <= len(word):
            return Fraction(1, den) if w == word[:n] else Fraction(0)
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
                # remaining blocks marginalise out; only the partial one counts
                cnt = pool.count_with_prefix(w[lo:n])
                return Fraction(max(cnt, 0), den * pool.size)
            if w[lo:hi] not in pool:
                return Fraction(0)
            den *= pool.size
        zeros_hi = zeros_lo + plan.q_seq[k - 1]
        if any(d != 0 for d in w[zeros_lo : min(n, zeros_hi)]):
            return Fraction(0)
        if n < zeros_hi or k == plan.levels:
            return Fraction(1, den)
