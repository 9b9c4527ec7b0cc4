"""Block pools, block draws and the Cantor construction against their
reference loops.

The power oracle is the interval power loop at doubling precision that the
exact decision of ``_power_at_least`` replaced; agreement must be exact.

The pool oracle is the block pool by brute force: the words of length M
that the KMP walks of both bases accept (``oracle_common.OracleFollower``),
the parent's ending in state 0, less the exclusions.  Every count, every
prefix count and the enumeration order must be equal.  The block-draw
oracle is the sampler that found each digit by bisection of its state's
cumulative completion counts and drew a whole block again when it was
excluded, which the lookup rows and the excluded-prefix rows replaced;
blocks and generator states must be equal.

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

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
from betarec.expansion import BetaContext, approximate_beta
from betarec.recurrence import OrbitView
from oracle_common import OracleFollower, algebraic_bases, outcome, parent_bases


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


class TestPowerAtLeast:
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


# ---------------------------------------------------------------------------
# the block pools
# ---------------------------------------------------------------------------


def oracle_pool(child, parent, M, exclude=()):
    """The block pool by brute force: the words of length M over the child's
    alphabet that the KMP walks of both bases accept, the parent's ending in
    state 0, in lexicographic order, less the exclusions among them.
    Returns those words and those exclusions."""
    walks = [OracleFollower(ctx, max(M + 1, 64)) for ctx in (child, parent)]

    def parent_state(w):
        states = [0, 0]
        for c in w:
            states = [walk.step(s, c) for walk, s in zip(walks, states)]
            if None in states:
                return None
        return states[1]

    raw = [w for w in itertools.product(range(child.alphabet_max + 1), repeat=M)
           if parent_state(w) == 0]
    exclude = tuple(w for w in exclude if w in raw)
    return [w for w in raw if w not in exclude], exclude


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
    def test_counts_membership_and_order_match_the_brute_force_pool(self):
        rng = random.Random(112)
        checked = 0
        for name, child, parent, M in pool_cases():
            members, _ = oracle_pool(child, parent, M)
            exclude = ()
            if members:
                u = members[rng.randrange(len(members))]
                exclude = tuple(_rotations(u)) + ((child.alphabet_max + 1,) * M,)
            ours = BlockPool(child, parent, M, exclude)
            members, excluded = oracle_pool(child, parent, M, exclude)
            assert (ours.size, ours.exclude) == (len(members), excluded), name
            assert list(ours.enumerate()) == members, name
            prefix_counts = collections.Counter(w[:n] for w in members for n in range(M + 1))
            member_set = set(members)
            alphabet = range(-1, child.alphabet_max + 2)
            for n in range(M + 1):
                for w in itertools.product(alphabet, repeat=n):
                    assert ours.count_with_prefix(w) == prefix_counts[w], (name, w)
                    if n == M:
                        assert (w in ours) == (w in member_set)
            checked += 1
        assert checked == 50

    def test_samples_are_members_drawn_by_the_counts(self):
        # the sampling rows read the same successor lists: every draw is a
        # member, and a uniform draw hits each member about equally often
        ctx = BetaContext.from_value("2.5")
        child = approximate_beta(ctx, 2)
        members, _ = oracle_pool(child, ctx, 4)
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
                            lambda pool, rng, b=1, out=None:
                            draws.extend([pool] * b) or inner(pool, rng, b, out=out))

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
