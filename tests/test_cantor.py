import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from betarec.cantor import (
    BlockPool,
    _rotations,
    CountableRegimeError,
    build_levels,
    build_plan,
    choose_N_M,
    m_set,
    measure,
    pad,
    plan_sequences,
    sample_point,
)
from betarec.expansion import BetaContext, approximate_beta
from betarec.symbolic import count_admissible, is_admissible, is_full


@pytest.fixture(scope="module")
def base25():
    return BetaContext.from_value("2.5")


@pytest.fixture(scope="module")
def plan25(base25):
    return build_plan(base25, "0.2", "1", delta="0.5", K=5, seed=7)


class TestPlanSequences:
    def test_geometric_example(self):
        n, m = plan_sequences("0.2", "1", 6)
        assert n == (5, 25, 125, 625, 3125, 15625)
        assert m == (10, 50, 250, 1250, 6250, 31250)

    def test_zero_uniform_rate(self):
        n, m = plan_sequences(0, 1, 6)
        assert n == (1, 4, 27, 256, 3125, 46656)
        assert m == (2, 8, 54, 512, 6250, 93312)

    def test_countable_regime_guard(self):
        with pytest.raises(CountableRegimeError):
            plan_sequences("0.6", "1", 4)

    def test_interleaving_and_monotone_gaps(self):
        for rh, r in (("0.25", "1"), ("0.1", "0.5"), (0, "0.5"), ("1/3", "1")):
            n, m = plan_sequences(rh, r, 8)
            gaps = [b - a for a, b in zip(n, m)]
            assert gaps == sorted(gaps)
            for k in range(7):
                assert n[k] < m[k] < n[k + 1]

    def test_ratio_limits(self):
        n, m = plan_sequences("0.2", "1", 14)
        k = 12
        assert abs((m[k] - n[k]) / n[k] - 1.0) < 1e-3
        assert abs((m[k] - n[k]) / n[k + 1] - 0.2) < 1e-3


class TestChooseNM:
    def test_base_two(self):
        choice = choose_N_M(BetaContext.from_value(2), "0.5")
        count = count_admissible(choice.trunc_ctx, choice.M)
        lhs = Fraction(count, choice.M) - choice.M - 1
        assert lhs > 0
        assert float(lhs) >= 2.0 ** (choice.M * 0.5) - 1e-9
        assert choice.M <= 12

    def test_base_25(self, base25):
        choice = choose_N_M(base25, "0.3")
        count = count_admissible(choice.trunc_ctx, choice.M)
        lhs = Fraction(count, choice.M) - choice.M - 1
        assert float(lhs) >= 2.5 ** (choice.M * 0.7) * (1 - 1e-9)
        assert choice.margin > 0

    def test_large_delta_small_m(self, base25):
        choice = choose_N_M(base25, "0.9")
        assert choice.M <= 6


class TestPad:
    def test_short_padding_is_zeros(self):
        assert pad((1, 0, 1, 1, 0, 1), 3, 5) == (0, 0, 0)

    def test_long_padding_prefix_plus_seal(self):
        w = (1, 0, 1, 0, 0, 1, 1, 1)
        assert pad(w, 8, 5) == (1, 0, 1, 0, 0, 0, 0, 0)

    def test_empty(self):
        assert pad((1, 1), 0, 4) == ()

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            pad((1,), 5, 2)


class TestBlockPool:
    def test_universe_counts_full_words(self, base25):
        N, M = 4, 5
        tctx = approximate_beta(base25, N)
        universe = BlockPool(tctx, base25, M)
        explicit = [w for w in _all_words(tctx, M) if is_full(w, base25)]
        assert universe.size == len(explicit)
        assert (0,) * M in universe

    def test_pool_excludes_rotations(self, base25, plan25):
        u = plan25.seed_word
        pool = plan25.pool_for(u)
        members = m_set(plan25.trunc_ctx, base25, u)
        assert len(members) == pool.size
        rots = {u[len(u) - i:] + u[:len(u) - i] for i in range(1, len(u) + 1)}
        assert not (members & rots)
        for w in list(members)[:50]:
            assert is_full(w, base25)
            assert is_admissible(w, plan25.trunc_ctx)

    def test_pool_lower_bound_from_counts(self, base25, plan25):
        # at least count/M - M full blocks survive the rotation exclusions
        M = plan25.M
        count = count_admissible(plan25.trunc_ctx, M)
        pool = plan25.pool_for(plan25.seed_word)
        assert pool.size >= count / M - M

    def test_prefix_counts_sum(self, base25, plan25):
        pool = plan25.pool_for(plan25.seed_word)
        for prefix in ((), (1,), (2, 0)):
            total = sum(pool.count_with_prefix(prefix + (c,))
                        for c in range(plan25.trunc_ctx.alphabet_max + 1))
            assert total == pool.count_with_prefix(prefix)

    def test_membership_memo_keeps_only_members(self, base25):
        trunc = approximate_beta(base25, 2)
        pool = BlockPool(trunc, base25, 3, exclude=tuple(_rotations((1, 0, 0))))
        words = list(itertools.product(range(3), repeat=3))
        first = [w in pool for w in words]
        assert sum(first) == pool.size == len(pool._members) == 9
        assert not pool._members & set(pool.exclude)
        # a second pass answers members from the memo, and lists as tuples
        assert [w in pool for w in words] == first == [list(w) in pool for w in words]
        # prefix counts leave out the excluded words that begin with the prefix
        for k in range(4):
            for prefix in itertools.product(range(3), repeat=k):
                assert pool.count_with_prefix(prefix) == pool.count_with_prefix(list(prefix)) \
                    == sum(1 for w, ok in zip(words, first) if ok and w[:k] == prefix)

    def test_sampling_uniform(self, base25, plan25):
        pool = plan25.pool_for(plan25.seed_word)
        rng = random.Random(5)
        seen = {}
        draws = 4000
        for _ in range(draws):
            w = pool.sample(rng)
            seen[w] = seen.get(w, 0) + 1
        assert set(seen) <= set(pool.enumerate())
        expected = draws / pool.size
        assert max(seen.values()) < 4 * expected


def _all_words(ctx, n):
    from betarec.symbolic import enumerate_admissible
    return list(enumerate_admissible(ctx, n))


class TestLevels:
    def test_counts_match_exhaustive(self, base25):
        plan = build_plan(base25, "0.2", "1", delta="0.9", K=3, seed=3)
        counts = build_levels(plan, 1, mode="counts")
        full = build_levels(plan, 1, mode="exhaustive", budget=500_000)
        assert counts[0].count_g == len(full[0].words)
        assert counts[0].count_d == plan.universe_size() - 1

    def test_level_word_lengths(self, plan25):
        levels = build_levels(plan25, 4, mode="sample", seed=11)
        for ls in levels:
            assert len(ls.words[0]) == plan25.m_seq[ls.k - 1]

    def test_nesting(self, plan25):
        levels = build_levels(plan25, 4, mode="sample", seed=11)
        for a, b in zip(levels, levels[1:]):
            wa, wb = a.words[0], b.words[0]
            assert wb[: len(wa)] == wa

    def test_count_formula(self, plan25):
        levels = build_levels(plan25, 4, mode="counts")
        pool = plan25.pool_for(plan25.seed_word).size
        for k in range(2, 5):
            assert levels[k - 1].count_d == pool ** plan25.t_seq[k - 2]
        acc = levels[0].count_d
        for k in range(2, 5):
            acc *= levels[k - 1].count_d
            assert levels[k - 1].count_g == acc

    def test_count_lower_bound(self, plan25):
        # count_g >= c^k beta^((1-delta) sum of gaps), c = beta^(-M(1-delta)),
        # as exact integers: compare squares to clear the 1/2 exponent
        beta = Fraction(5, 2)
        levels = build_levels(plan25, 5, mode="counts")
        for k in range(1, 6):
            gaps = sum(plan25.n_seq[j + 1] - plan25.m_seq[j] for j in range(k - 1))
            exponent = gaps - k * plan25.M  # times (1 - delta) = 1/2
            count = levels[k - 1].count_g
            if exponent >= 0:
                assert Fraction(count) ** 2 >= beta**exponent
            else:
                assert Fraction(count) ** 2 * beta ** (-exponent) >= 1


class TestSampling:
    def test_deterministic(self, plan25):
        a = sample_point(plan25, 42, 400)
        b = sample_point(plan25, 42, 400)
        assert a.digits(400) == b.digits(400)

    def test_admissible_prefixes(self, plan25, base25):
        v = sample_point(plan25, 1, plan25.m_seq[3])
        assert is_admissible(tuple(v.digits(v.depth)), base25)

    def test_no_short_window_returns_in_gaps(self, plan25):
        M = plan25.M
        v = sample_point(plan25, 9, plan25.m_seq[3])
        for k in (1, 2):
            m_k, n_next = plan25.m_seq[k - 1], plan25.n_seq[k]
            for n in range(m_k, n_next - 2 * M):
                assert v.z(n) < 2 * M, (n, v.z(n))

    def test_blocks_of_gap_are_pool_members(self, plan25):
        v = sample_point(plan25, 13, plan25.m_seq[2])
        digits = tuple(v.digits(v.depth))
        u = digits[: plan25.M]
        pool = plan25.pool_for(u)
        m1, n2 = plan25.m_seq[0], plan25.n_seq[1]
        t1, q1 = plan25.t_seq[0], plan25.q_seq[0]
        for b in range(t1):
            block = digits[m1 + b * plan25.M : m1 + (b + 1) * plan25.M]
            assert block in pool
        assert all(d == 0 for d in digits[m1 + t1 * plan25.M : n2])

    def test_profile_ratios_track_targets(self, plan25):
        # on a sampled point the monotone return profile reproduces the
        # planned depth ratios: (m_k - n_k)/n_k near r, /n_(k+1) near r_hat
        from betarec.recurrence import extract_returns
        v = sample_point(plan25, 3, plan25.m_seq[4] + 150)
        prof = extract_returns(v, 6, monotone=True,
                               search_limit=plan25.n_seq[4] + 5)
        n, m = prof.n_seq, prof.m_seq
        deep = [k for k in range(len(n) - 1) if n[k] >= plan25.n_seq[2]]
        assert deep
        for k in deep:
            assert abs((m[k] - n[k]) / n[k] - 1.0) < 0.1
            assert abs((m[k] - n[k]) / n[k + 1] - 0.2) < 0.05

    def test_padding_words_are_full(self, plan25, base25):
        from betarec.cantor import pad
        v = sample_point(plan25, 21, plan25.m_seq[1])
        digits = tuple(v.digits(v.depth))
        n1, m1, ell1, p1 = (plan25.n_seq[0], plan25.m_seq[0],
                            plan25.ell_seq[0], plan25.p_seq[0])
        if p1 > 0:
            tail = digits[ell1 * n1 : m1]
            assert tail == pad(digits[:n1], p1, plan25.N)
            assert is_full(tail, base25) or all(d == 0 for d in tail)


def _digest(digits) -> str:
    return hashlib.sha256(bytes(digits)).hexdigest()


class TestSamplerPins:
    """Sampled digits at fixed seeds, pinned as digests.

    The digests were recorded from the per-digit reference sampler that
    stepped both follower automata and rebuilt the weight list on every
    digit; the table-driven sampler must reproduce every draw.
    """

    def test_criterion_6_plan(self, base25):
        plan = build_plan(base25, 0, Fraction(1, 2), delta="0.5", K=6, seed=23)
        depth = plan.m_seq[4] + 200
        assert (plan.N, plan.M, plan.seed_word, depth) == (4, 4, (2, 0, 0, 0), 70189)
        pins = {400: "34a766387ec28492ac3e245da3e314cab4abda51a3f5da8c755a6ca820962964",
                401: "6f3bdb41d5bab8e89fc882f999e8793537136463b0d46eed927368d1efad1ae7"}
        for seed, digest in pins.items():
            assert _digest(sample_point(plan, seed, depth).digits(depth)) == digest

    def test_golden_plan(self):
        plan = build_plan(BetaContext.golden(), "0.2", "1", delta="0.5", K=6, seed=11)
        depth = plan.m_seq[4] + 200
        assert (plan.N, plan.M, depth) == (11, 12, 6470)
        pins = {1000: "bfb5b299ff6021fc8fcdc032bb0979509e348411132210611b94bb8e3d87dce2",
                1001: "52e158b4253461ff0080fb65053ddf4b68dce2b74685f81d90dd362890a41176"}
        for seed, digest in pins.items():
            assert _digest(sample_point(plan, seed, depth).digits(depth)) == digest

    def test_rejection_redraws(self, base25):
        trunc = approximate_beta(base25, 2)
        universe = BlockPool(trunc, base25, 3)
        pool = BlockPool(trunc, base25, 3, exclude=tuple(_rotations((1, 0, 0))))
        assert (universe.size, pool.size) == (12, 9)
        # seed 4: the first raw draw is an excluded rotation, so the pool
        # rejects it and returns the next draw of the same generator
        rng = random.Random(4)
        first, second = universe.sample(rng), universe.sample(rng)
        assert first in pool.exclude and second not in pool.exclude
        assert pool.sample(random.Random(4)) == second == (2, 0, 1)
        rng = random.Random(5)
        words = [pool.sample(rng) for _ in range(300)]
        assert not set(words) & set(pool.exclude)
        assert _digest([d for w in words for d in w]) == (
            "2f6f3f5bbbe02e3719674d44df69719235692527658988acf2718e45434d94e7")

    def test_build_levels_sample(self, plan25):
        levels = build_levels(plan25, 4, mode="sample", seed=3)
        words = [ls.words[0] for ls in levels]
        assert [len(w) for w in words] == [14, 54, 254, 1254]
        assert _digest([d for w in words for d in w]) == (
            "09baedab88462e8ee53e73435b20c482df14e0c92e04d4d998d9674e4d4e80a0")


class TestRandrangeInline:
    """``BlockPool.sample`` draws each digit as CPython's ``randrange(total)``
    does: getrandbits(total.bit_length()) until the value is below total.

    The sampled digits, and so every pinned digest, rely on that CPython
    detail; this pins it for every row total of the two pinned plans' pools
    and for large random totals.
    """

    @staticmethod
    def getrandbits_loop(rng, total):
        k = total.bit_length()
        r = rng.getrandbits(k)
        while r >= total:
            r = rng.getrandbits(k)
        return r

    def test_matches_randrange(self, base25):
        totals = {1, 2, 3, (1 << 70) - 1, 1 << 70}
        for plan in (build_plan(base25, 0, Fraction(1, 2), delta="0.5", K=6, seed=23),
                     build_plan(BetaContext.golden(), "0.2", "1", delta="0.5",
                                K=6, seed=11)):
            pool = plan._pools[plan.seed_word]
            # a table row's total is the completion count of its state
            totals |= {c for layer in pool._g[: pool.M] for c in layer.values() if c}
        wide = random.Random(70)
        totals |= {wide.randrange(1, 1 << 70) for _ in range(200)}
        for seed in range(3):
            ours, ref = random.Random(seed), random.Random(seed)
            for total in sorted(totals):
                for _ in range(10):
                    assert self.getrandbits_loop(ours, total) == ref.randrange(total)
            assert ours.getstate() == ref.getstate()


class TestBranchWalk:
    """Sampling, sampled levels and the exact measure walk the same branch."""

    def test_sample_point_follows_sampled_levels(self, plan25):
        for seed in range(20):
            levels = build_levels(plan25, 4, mode="sample", seed=seed)
            for k in range(1, 5):
                m_k = plan25.m_seq[k - 1]
                digits = sample_point(plan25, seed, m_k).digits(m_k)
                assert tuple(digits) == levels[k - 1].words[0], (seed, k)

    def test_deep_measure_pins(self, plan25):
        # plan25 has M = 4; the gap v_3 spans [54, 129) with zeros from 126,
        # v_4 spans [254, 629) with zeros from 626; u_3, u_4 end at 254, 1254
        assert (plan25.M, plan25.m_seq[1:4], plan25.n_seq[2:4]) == (
            4, (54, 254, 1254), (129, 629))
        masses = []
        for seed in range(5):
            w = build_levels(plan25, 4, mode="sample", seed=seed)[3].words[0]
            for n in (76, 127, 129, 200, 254, 295, 627, 629, 1254):
                masses.append(measure(plan25, w[:n]))
            tail = list(w[:628])
            tail[627] = 1  # a non-zero digit inside v_4's zero tail
            masses.append(measure(plan25, tuple(tail)))
            block = list(w[:300])
            block[297] = (block[297] + 1) % 3  # a changed digit in a v_4 block
            masses.append(measure(plan25, tuple(block)))
        assert sum(m == 0 for m in masses) == 8
        assert hashlib.sha256("|".join(map(str, masses)).encode()).hexdigest() == (
            "7204647fcf50f391f925723920979c0c479494af2b35da58f1fa9867ab68c9a8")

    def test_deep_additivity(self, plan25):
        w = build_levels(plan25, 4, mode="sample", seed=2)[3].words[0]
        amax = plan25.ctx.alphabet_max
        for n in (76, 127, 295, 627, 1000):
            children = sum(measure(plan25, w[:n] + (c,)) for c in range(amax + 1))
            assert children == measure(plan25, w[:n])


class TestMeasureTail:
    """Past the last level, sample_point draws t_K pool blocks; measure follows."""

    @pytest.fixture(scope="class")
    def plan4(self, base25):
        return build_plan(base25, "0.2", "1", delta="0.5", K=4, seed=7)

    @staticmethod
    def branch(plan):
        m_K = plan.m_seq[plan.levels - 1]
        reach = plan.reach
        assert reach == m_K + plan.t_seq[plan.levels - 1] * plan.M
        w = tuple(sample_point(plan, 0, reach).digits(reach))
        return w, m_K, reach, plan.pool_for(w[: plan.M])

    def test_additivity(self, plan4):
        w, m_K, reach, _ = self.branch(plan4)
        amax = plan4.ctx.alphabet_max
        for n in (m_K, m_K + 5, m_K + plan4.M, reach - 1):
            children = sum(measure(plan4, w[:n] + (c,)) for c in range(amax + 1))
            assert children == measure(plan4, w[:n]) > 0

    def test_agrees_with_level_mass(self, plan4):
        w, m_K, reach, pool = self.branch(plan4)
        level = Fraction(1, plan4.d1_size() * pool.size ** sum(plan4.t_seq[:-1]))
        assert measure(plan4, w[:m_K]) == level
        full, part = divmod(5, plan4.M)
        start = m_K + full * plan4.M
        assert measure(plan4, w[: m_K + 5]) == level / pool.size ** full * Fraction(
            pool.count_with_prefix(w[start : m_K + 5]), pool.size)
        assert measure(plan4, w) == level / pool.size ** plan4.t_seq[-1]

    def test_error_past_the_reach(self, plan4):
        w, _, reach, _ = self.branch(plan4)
        assert reach == 3126
        with pytest.raises(ValueError, match="plan reach 3126"):
            measure(plan4, w + (0,))
        with pytest.raises(ValueError, match="depth exceeds plan reach 3126"):
            sample_point(plan4, 0, reach + 1)

    def test_leaving_in_level_one_past_the_reach_is_null(self, plan4):
        # the prefix leaves the branch before its length matters
        w, _, _, _ = self.branch(plan4)
        amax = plan4.ctx.alphabet_max
        # a repeat of the seed block, and the last digit of u_1
        for i in (plan4.M, plan4.m_seq[0] - 1):
            left = list(w) + [0]
            left[i] = (left[i] + 1) % (amax + 1)
            assert measure(plan4, tuple(left)) == 0, i


class TestMeasure:
    def test_total_mass(self, plan25):
        assert measure(plan25, ()) == 1

    def test_level_one_masses_sum_to_one(self, base25):
        plan = build_plan(base25, "0.2", "1", delta="0.9", K=3, seed=3)
        level1 = build_levels(plan, 1, mode="exhaustive", budget=500_000)[0]
        total = sum(measure(plan, w) for w in level1.words)
        assert total == 1
        assert all(measure(plan, w) == Fraction(1, level1.count_g)
                   for w in level1.words[:20])

    def test_unrolled_level_two(self, plan25):
        levels = build_levels(plan25, 2, mode="sample", seed=11)
        w2 = levels[1].words[0]
        u = w2[: plan25.M]
        pool = plan25.pool_for(u)
        expected = Fraction(1, plan25.d1_size() * pool.size ** plan25.t_seq[0])
        assert measure(plan25, w2) == expected

    def test_additivity(self, plan25):
        levels = build_levels(plan25, 2, mode="sample", seed=4)
        w2 = levels[1].words[0]
        amax = plan25.ctx.alphabet_max
        for n in (plan25.M - 1, plan25.M + 2, plan25.m_seq[0] + 1,
                  plan25.m_seq[0] + plan25.M + 1, plan25.n_seq[1] + 3):
            w = w2[:n]
            children = sum(measure(plan25, w + (c,)) for c in range(amax + 1))
            assert children == measure(plan25, w)

    def test_digit_lists_read_as_words(self, plan25):
        # a view's digits come as a list; the mass is that of the same tuple
        v = sample_point(plan25, 6, plan25.n_seq[1] + 3)
        for n in (plan25.M - 1, plan25.M, plan25.m_seq[0] + 2, plan25.n_seq[1] + 3):
            assert measure(plan25, v.digits(n)) == measure(plan25, tuple(v.digits(n))) > 0

    def test_non_branch_prefix_is_null(self, plan25):
        levels = build_levels(plan25, 2, mode="sample", seed=4)
        w2 = list(levels[1].words[0][: plan25.m_seq[0] + 4])
        w2[plan25.m_seq[0] + 2] = (w2[plan25.m_seq[0] + 2] + 1) % 3
        got = measure(plan25, tuple(w2))
        fixed = tuple(levels[1].words[0][: plan25.m_seq[0] + 4])
        assert measure(plan25, fixed) > 0
        # a corrupted block either leaves the pool or changes mass; if it is
        # still a pool member the mass must agree with the uncorrupted one
        if got != 0:
            assert got == measure(plan25, fixed)

    def test_monte_carlo_agrees(self, plan25):
        target = plan25.seed_word[:3]
        mu = measure(plan25, target)
        draws = 3000
        hits = 0
        for s in range(draws):
            v = sample_point(plan25, 10_000 + s, 3)
            if tuple(v.digits(3)) == target:
                hits += 1
        p = float(mu)
        sigma = (p * (1 - p) / draws) ** 0.5
        assert abs(hits / draws - p) < 5 * sigma + 1e-9


class TestSizes:
    def test_depth_and_level_counts_below_one_are_rejected(self, plan25):
        for depth in (0, -5):
            with pytest.raises(ValueError, match=f"depth must be at least 1, got {depth}"):
                sample_point(plan25, 0, depth)
        for k_max in (0, -2):
            with pytest.raises(ValueError, match=f"k_max must be at least 1, got {k_max}"):
                build_levels(plan25, k_max)


class TestInfeasible:
    def test_seed_word_validation(self, base25, plan25):
        with pytest.raises(ValueError):
            m_set(plan25.trunc_ctx, base25, (0,) * plan25.M)
