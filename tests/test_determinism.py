"""Enclosures and floats of beta depend only on the base and the context
precision.

Reads at a finer precision (an explicit ``beta_bounds(400)``, power bounds
at 1,024 bits, a certified sign that escalates past 600 bits) must leave
every later cylinder, word sum, power enclosure, recurrence distance and
float of beta equal to a fresh context's, and the precision itself cannot
be reassigned.  The pins fix the floats of beta, a digest of the golden
cylinders that acceptance criterion 4 checks, criterion 10's box counts,
a point of criterion 6's plan past its last level, and the README's
``dim boxcount``, ``cantor sample``, ``cantor measure`` and ``exponents``
envelopes (the last prints the whole lambda series), and the 4,000-digit
orbit streams of criterion 9's golden points and of points on x^3 - x - 1.
"""

import hashlib
import random
import shlex
from fractions import Fraction

import pytest

from betarec.cantor import build_plan, sample_point
from betarec.cli import main
from betarec.dimension import boxcount
from betarec.expansion import (
    BetaContext,
    approximate_beta,
    beta_power_bounds,
    evaluate_word,
    word_sum_bounds,
)
from betarec.recurrence import OrbitView, recurrence_distance
from betarec.symbolic import cylinder, enumerate_admissible

CUBIC = (-1, -1, 0, 1)  # x^3 - x - 1, the smallest Pisot number


def algebraic_bases():
    golden = BetaContext.golden()
    return [golden, BetaContext.from_root(CUBIC, 1, 2), approximate_beta(golden, 3)]


def read_finer(ctx):
    """Read beta well past the context precision, as a certified floor or a
    caller asking for more bits would."""
    root = ctx.exact
    coarse = root.power_bounds(32)
    ctx.beta_bounds(400)
    root.power_bounds(1024)
    # beta - m for m within 2**-600 of beta: its sign needs over 600 bits
    near = root.interval(600).center
    x = ctx._element(1)
    x.push(0)
    x.sub(ctx._element(near))
    assert x.sign() != 0
    assert max(root._bounds) > 600  # the sign escalated past the precision
    assert root.power_bounds(32) is coarse


def snapshot(ctx):
    words = [w for n in range(7) for w in enumerate_admissible(ctx, n)]
    view = OrbitView.from_point(ctx, Fraction(3, 7))
    return {
        "float": ctx.beta_float_bound(),
        "describe": ctx.describe(),
        "cylinders": [cylinder(w, ctx, refine) for w in words for refine in (0, 40)],
        "sums": [(word_sum_bounds(w, ctx), evaluate_word(w, ctx)) for w in words],
        "powers": [beta_power_bounds(ctx, k) for k in range(-40, 41, 7)],
        "distances": [recurrence_distance(view, n) for n in range(1, 9)],
    }


def test_finer_reads_change_no_later_result():
    for disturbed, fresh in zip(algebraic_bases(), algebraic_bases()):
        read_finer(disturbed)
        assert snapshot(disturbed) == snapshot(fresh), disturbed.describe()


def test_precision_is_read_only():
    # the float view of beta is taken at the precision the context is built with
    for ctx in algebraic_bases() + [BetaContext.from_value("2.5", precision_bits=10)]:
        bits = ctx.precision_bits
        with pytest.raises(AttributeError):
            ctx.precision_bits = 300
        assert ctx.precision_bits == bits >= 64


def criterion_4_golden_cylinders(ctx, interleave):
    """Criterion 4's golden pass: cylinders at refine 40 on the words of the
    N = 3 truncation, optionally with its ``beta_bounds(256)`` reads."""
    trunc = approximate_beta(ctx, 3)
    out = []
    for n in range(1, 11):
        for w in enumerate_admissible(trunc, n):
            out.append(cylinder(w, ctx, refine=40))
            if interleave:
                ctx.beta_bounds(256).powi(-(n + 3))
                ctx.beta_bounds(256).powi(-n)
    return out


def test_criterion_4_order_matches_a_fresh_context():
    ours = criterion_4_golden_cylinders(BetaContext.golden(), interleave=True)
    fresh = criterion_4_golden_cylinders(BetaContext.golden(), interleave=False)
    assert len(ours) == 185
    assert ours == fresh


# values recorded before enclosures were made independent of earlier reads
FLOAT_PINS = {
    "golden": ("0x1.9e3779b97f4a8p+0", "0x1.f506319fcfd19p-54"),
    "x^3-x-1": ("0x1.5320b74eca44bp+0", "0x1.29f43bb41df5dp-54"),
    "golden N=3": ("0x1.772fad1ede80bp+0", "0x1.18844d90ad22ap-53"),
    "2.5 N=5": ("0x1.3ef593a4f4a53p+1", "0x1.75e3d0605d63cp-56"),
}
CRITERION_4_DIGEST = "21076a95aa0d586c5f8403d2d9e3e3748078fec986ac59cb15d2c257f731ed7c"


def test_beta_float_pins():
    golden = BetaContext.golden()
    bases = {
        "golden": golden,
        "x^3-x-1": BetaContext.from_root(CUBIC, 1, 2),
        "golden N=3": approximate_beta(golden, 3),
        "2.5 N=5": approximate_beta(BetaContext.from_value("2.5"), 5),
    }
    got = {name: tuple(v.hex() for v in ctx.beta_float_bound())
           for name, ctx in bases.items()}
    assert got == FLOAT_PINS


def test_criterion_4_golden_cylinder_digest():
    h = hashlib.sha256()
    for c in criterion_4_golden_cylinders(BetaContext.golden(), interleave=False):
        for v in (c.left.lo, c.left.hi, c.length.lo, c.length.hi):
            h.update(f"{v.numerator}/{v.denominator};".encode())
    assert h.hexdigest() == CRITERION_4_DIGEST


# recorded before the box counts were taken from sorted prefix ranks, the
# sampler stopped at the block reaching its depth and measure made one Fraction
BOXCOUNT_PINS = {
    "uniform": ("0x1.ff61181df1df4p-1", ("0x1.fc5aaceb77b11p-1", "0x1.fec0eea68778bp-1"),
                [4, 8, 16, 32, 64, 128, 254]),
    "construction": ("0x1.43eb2e6576903p-2", ("0x1.40ca30eb4417ap-2", "0x1.41e6a93fc2746p-2"),
                     [11] * 10 + [33, 73, 105, 314, 687, 986]),
}
README_BOXCOUNT_DIGEST = "c8d2c972805437ad7eed319cac06f96c0c4821b75b82f0e3525a4c942ee14cf5"


def test_criterion_10_boxcount_pins():
    ctx2 = BetaContext.from_value(2)
    rng = random.Random(4)
    uniform = [OrbitView.from_digits(ctx2, [rng.randint(0, 1) for _ in range(40)])
               for _ in range(1500)]
    ctx = BetaContext.from_value("2.5")
    plan = build_plan(ctx, "0.2", "1", delta="0.9", K=4, seed=2)
    samples = [sample_point(plan, 100 + i, 60) for i in range(4000)]
    got = {}
    for name, res in (("uniform", boxcount(uniform, ctx2, range(2, 9), bootstrap=60, seed=2)),
                      ("construction", boxcount(samples, ctx, range(3, 19), bootstrap=60,
                                                seed=3))):
        got[name] = (res.slope.hex(), tuple(v.hex() for v in res.ci), res.counts)
    assert got == BOXCOUNT_PINS


def test_readme_boxcount_envelope_digest(capsys):
    argv = shlex.split("dim boxcount --beta 2.5 --rhat 0.2 --r 1 --delta 0.9 --points 2000")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == README_BOXCOUNT_DIGEST


# recorded before the plan's segment layout replaced the level-word walk
DEEP_POINT_DIGEST = "f4409685a24419a0429c748aaacb7491721484e24977c5ccd23e35dfce1c29f5"
README_CANTOR_DIGESTS = {
    "cantor sample --beta 2.5 --rhat 0.2 --r 1 --delta 0.5 --depth 200":
        "7351e20f806c5c1fc327f317a0147fe73e93e89fecc756a3b1cbd6ee2a97f29c",
    "cantor measure --beta 2.5 --rhat 0.2 --r 1 --delta 0.5 --prefix 2,1":
        "3f57581492f23e9b7ab21e47d04c822743855fd6d357b6c08cc3d7a2754b87eb",
}


def test_criterion_6_point_past_the_last_level():
    plan = build_plan(BetaContext.from_value("2.5"), 0, Fraction(1, 2), delta="0.5",
                      K=6, seed=23)
    depth = plan.m_seq[5] + 200
    assert plan.m_seq[5] < depth == 1_235_519 < plan.reach
    digits = sample_point(plan, 400, depth).digits(depth)
    assert hashlib.sha256(bytes(digits)).hexdigest() == DEEP_POINT_DIGEST


@pytest.mark.parametrize("command", sorted(README_CANTOR_DIGESTS))
def test_readme_cantor_envelope_digests(command, capsys):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == README_CANTOR_DIGESTS[command]


# recorded while the lambda series was still built as a list by _lambda_series
README_EXPONENTS_DIGEST = "7167423f58e24a8cbb3a87f64f4a5b53a4dd4232f940bf2f29537f7443f33b8e"


def test_readme_exponents_envelope_digest(capsys):
    assert main(shlex.split("exponents --beta 2.5 --x 0.7137 --N 2000")) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == README_EXPONENTS_DIGEST


# recorded before orbit digits were taken a table word at a time
ORBIT_STREAMS_DIGEST = "db8de5a302f13eea22a2e7b3a3f52691b5f4441d96c08a427057b5815b12c8b9"


def test_orbit_digit_streams_digest():
    # criterion 9's first 20 golden points, then 3 points on x^3 - x - 1
    h = hashlib.sha256()
    for ctx, seed, count in ((BetaContext.golden(), 77, 20),
                             (BetaContext.from_root(CUBIC, 1, 2), 9, 3)):
        rng = random.Random(seed)
        for _ in range(count):
            x = Fraction(rng.getrandbits(64), 1 << 64)
            h.update(bytes(OrbitView.from_point(ctx, x).digits(4000)))
    assert h.hexdigest() == ORBIT_STREAMS_DIGEST


def truncations():
    """(parent, N, approximate_beta(parent, N)) for every N <= 14 where the
    parent's expansion of 1 has e_N > 0 and digit sum at least 2, on three
    algebraic and three rational parents."""
    parents = [BetaContext.golden(), BetaContext.from_root(CUBIC, 1, 2),
               BetaContext.from_root((1, -3, 1), 2, 3)]
    parents += [BetaContext.from_value(v) for v in ("2.5", "7/5", "19/2")]
    for parent in parents:
        for N in range(1, 15):
            prefix = parent.eps_star(N)
            if prefix[-1] and sum(prefix) >= 2:
                yield parent, N, approximate_beta(parent, N)


def test_truncations_read_their_own_expansion_of_one():
    # 1 = sum e_i beta_N**-i (Parry): the N-prefix is the truncation's
    # expansion of 1, which ends at N; the base is the rational e_1 at N = 1
    count = 0
    for parent, N, ctx in truncations():
        prefix = parent.eps_star(N)
        assert ctx.eps_star(3 * N) == (prefix[:-1] + (prefix[-1] - 1,)) * 3, (parent.describe(), N)
        assert ctx.simple_parry == N
        assert ctx.beta_fraction == (prefix[0] if N == 1 else None)
        count += 1
    assert count == 43


# recorded when truncations were handed their period by approximate_beta
TRUNCATION_DIGEST = "43fedd0b7446fd0de284fbf0c68cc767e955eae3b81fde437143f3811704a8a8"


def test_truncation_digest():
    h = hashlib.sha256()
    for _, N, ctx in truncations():
        f, d = ctx.beta_float_bound()
        h.update(repr((ctx.eps_star(2 * N + 1), ctx.simple_parry, ctx.alphabet_max,
                       f.hex(), d.hex())).encode())
    assert h.hexdigest() == TRUNCATION_DIGEST
