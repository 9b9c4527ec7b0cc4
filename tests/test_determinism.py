"""Enclosures and floats of beta depend only on the base and the context
precision.

Reads at a finer precision (an explicit ``beta_bounds(400)``, power bounds
at 1,024 bits, a certified sign that escalates past 600 bits) must leave
every later cylinder, word sum, power enclosure, recurrence distance and
float of beta equal to a fresh context's.  The pins fix the floats of beta
and a digest of the golden cylinders that acceptance criterion 4 checks.
"""

import hashlib
from fractions import Fraction

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
