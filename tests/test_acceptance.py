"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
that ends with the criterion's own wall time.

Runs on five bases (golden ratio, 1.8, 2, 2.5, 3.7) where the criterion is
base-parametric.  The construction-based criteria fix beta = 2.5 (an exact
rational base keeps every distance comparison exact); delta is 0.5 for the
sampling runs, 0.1 for the measure-ratio gate, and 0.9 for the shallow
box-count probe, as recorded with each test.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from betarec.cantor import build_plan, plan_sequences, sample_point
from betarec.dimension import (
    boxcount,
    dim_prescribed,
    dim_uniform,
    local_dimension_series,
)
from betarec.expansion import BetaContext, approximate_beta, beta_expand
from betarec.recurrence import (
    OrbitView,
    classify_prefix,
    estimate_r,
    estimate_r_hat,
    extract_returns,
    verify_bracketing,
)
from betarec.symbolic import (
    automaton_for,
    count_admissible,
    cylinder,
    enumerate_admissible,
    max_nonfull_run,
)
from oracles_symbolic import is_admissible_naive

GRID = 100_000

_started = [0.0]


@pytest.fixture(autouse=True)
def _criterion_clock():
    """Start each criterion's clock; module-scoped fixtures are built before."""
    _started[0] = time.perf_counter()


def _report(num: int, ok: bool, detail: str) -> None:
    elapsed = time.perf_counter() - _started[0]
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}  "
          f"[{elapsed:.2f} s]")
    assert ok, f"criterion {num}: {detail}"


def _bases():
    return [
        ("golden", BetaContext.golden()),
        ("1.8", BetaContext.from_value("1.8")),
        ("2", BetaContext.from_value(2)),
        ("2.5", BetaContext.from_value("2.5")),
        ("3.7", BetaContext.from_value("3.7")),
    ]


# ---------------------------------------------------------------------------
# independent grid-expansion oracles (vectorised; exact digit decisions)
# ---------------------------------------------------------------------------


def _grid_digits_rational(p: int, q: int, G: int, n: int) -> np.ndarray:
    """Digits of x = i/G for all i, exactly.  int64 when it fits, else objects."""
    den_growth = G * q ** (n + 1) * p
    if den_growth < 2**62:
        a = np.arange(G, dtype=np.int64)
        den = np.int64(G)
        out = np.empty((G, n), dtype=np.int64)
        for k in range(n):
            den = den * q
            t = p * a
            d = t // den
            out[:, k] = d
            a = t - d * den
        return out
    a = np.arange(G, dtype=object)
    den = G
    out = np.empty((G, n), dtype=np.int64)
    for k in range(n):
        den *= q
        t = a * p
        d = t // den
        out[:, k] = d.astype(np.int64)
        a = t - d * den
    return out


def _phi_value_at_least(a: int, b: int, bound: int) -> bool:
    """b + (a+b)*phi >= bound, exactly (phi the golden ratio)."""
    y = a + b
    x = 2 * bound - 2 * b - y  # need y*sqrt5 >= x
    if x <= 0:
        return True
    return 5 * y * y >= x * x


def _grid_digits_golden(G: int, n: int) -> np.ndarray:
    """Digits of x = i/G under the golden base, exact via integer sqrt(5) tests."""
    phi = (1 + 5**0.5) / 2
    a = np.arange(G, dtype=np.int64)
    b = np.zeros(G, dtype=np.int64)
    out = np.empty((G, n), dtype=np.int64)
    for k in range(n):
        vals = b + (a + b) * phi
        d = np.floor(vals / G).astype(np.int64)
        risky = np.abs(vals - d * G) < 1e-4 * G
        risky |= np.abs(vals - (d + 1) * G) < 1e-4 * G
        for i in np.nonzero(risky)[0]:
            ai, bi = int(a[i]), int(b[i])
            dd = int(d[i]) - 1
            while _phi_value_at_least(ai, bi, (dd + 1) * G):
                dd += 1
            d[i] = dd
        out[:, k] = d
        a, b = b - d * G, a + b
    return out


def _grid_digits(name: str, ctx: BetaContext, G: int, n: int) -> np.ndarray:
    if name == "golden":
        return _grid_digits_golden(G, n)
    beta = ctx.beta_fraction
    return _grid_digits_rational(beta.numerator, beta.denominator, G, n)


def _automaton_table_np(ctx: BetaContext, depth: int) -> np.ndarray:
    auto = automaton_for(ctx, depth)
    table = auto.transition_table()
    arr = np.full((len(table) + 1, ctx.alphabet_max + 1), -1, dtype=np.int64)
    for s, row in enumerate(table):
        for c, t in enumerate(row):
            if t is not None:
                arr[s, c] = t
    return arr


def test_criterion_1_language_correctness():
    t0 = time.time()
    rng = random.Random(20260809)
    mismatches = 0
    rejected_grid = 0
    for name, ctx in _bases():
        auto = automaton_for(ctx, 40)
        for _ in range(10_000):
            length = rng.randint(1, 28)
            w = tuple(rng.randint(0, ctx.alphabet_max) for _ in range(length))
            if (auto.feed(w) is not None) != is_admissible_naive(w, ctx):
                mismatches += 1
        digits = _grid_digits(name, ctx, GRID, 20)
        table = _automaton_table_np(ctx, 24)
        states = np.zeros(GRID, dtype=np.int64)
        for k in range(20):
            col = digits[:, k]
            dead = (states < 0) | (col > ctx.alphabet_max)
            states = np.where(dead, -1, table[states, np.minimum(col, ctx.alphabet_max)])
        rejected_grid += int((states < 0).sum())
        # spot-check the vectorised oracle against the library expansion
        for i in (1, GRID // 3, GRID - 7):
            lib = beta_expand(Fraction(i, GRID), ctx, 20)
            assert tuple(digits[i]) == lib, (name, i)
    elapsed = time.time() - t0
    ok = mismatches == 0 and rejected_grid == 0 and elapsed < 30
    _report(1, ok,
            f"automaton==naive on 5x10^4 words, grid closure on 5x{GRID} "
            f"points (mismatches={mismatches}, rejected={rejected_grid}), "
            f"{elapsed:.1f}s < 30s")


def test_criterion_2_counting():
    fib = [1, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    phi = BetaContext.golden()
    fib_ok = all(count_admissible(phi, n) == fib[n + 1] for n in range(1, 26))
    renyi_ok = True
    for name, ctx in _bases():
        for n in range(1, 21):
            count = count_admissible(ctx, n)
            beta = ctx.beta_fraction
            if beta is not None:
                lower = beta**n
                upper = beta ** (n + 1) / (beta - 1)
                renyi_ok &= lower <= count <= upper
            else:
                bits = 256
                lo_pow = ctx.beta_bounds(bits).powi(n)
                up = ctx.beta_bounds(bits).powi(n + 1) / (ctx.beta_bounds(bits) - 1)
                renyi_ok &= count >= lo_pow.hi and count <= up.lo
    _report(2, fib_ok and renyi_ok,
            "golden counts are Fibonacci F(n+2) for n<=25; Renyi bounds "
            "beta^n <= count <= beta^(n+1)/(beta-1) exact for all bases, n<=20")


def test_criterion_3_full_cylinder_windows():
    worst = {}
    for name, ctx in _bases():
        for n in range(1, 13):
            run, _ = max_nonfull_run(ctx, n)
            worst[name] = max(worst.get(name, 0), run - n)
    ok = all(v <= 0 for v in worst.values())
    _report(3, ok,
            f"every window of n+1 consecutive order-n cylinders holds a full "
            f"one, n<=12, all bases (worst slack {worst})")


def test_criterion_4_cylinder_geometry():
    pairs = [(BetaContext.from_value("2.5"), 5), (BetaContext.golden(), 3)]
    bound_ok = True
    checked = 0
    for ctx, N in pairs:
        trunc = approximate_beta(ctx, N)
        beta = ctx.beta_fraction
        for n in range(1, 11):
            for w in enumerate_admissible(trunc, n):
                c = cylinder(w, ctx, refine=40)
                if beta is not None:
                    bound_ok &= c.length.hi >= beta ** -(n + N)
                    bound_ok &= c.length.lo <= beta**-n
                else:
                    lo_pow = ctx.beta_bounds(256).powi(-(n + N))
                    hi_pow = ctx.beta_bounds(256).powi(-n)
                    bound_ok &= c.length.hi >= lo_pow.lo
                    bound_ok &= c.length.lo <= hi_pow.hi
                checked += 1
    sum_ok = True
    for ctx in (BetaContext.from_value("2.5"), BetaContext.golden()):
        n, refine = 6, 30
        cs = [cylinder(w, ctx, refine) for w in enumerate_admissible(ctx, n)]
        total_lo = sum(c.length.lo for c in cs)
        total_hi = sum(c.length.hi for c in cs)
        sum_ok &= total_lo <= 1 <= total_hi
        width = float(total_hi - total_lo)
        sum_ok &= width < len(cs) * float(ctx.beta_bounds(64).hi) ** -(n + refine) + 1e-12
    _report(4, bound_ok and sum_ok,
            f"beta^-(n+N) <= |I_n| <= beta^-n on {checked} truncated-base "
            f"words at two (beta, N) pairs; order-6 lengths sum to 1")


@pytest.fixture(scope="module")
def plan_02_10():
    ctx = BetaContext.from_value("2.5")
    return build_plan(ctx, "0.2", "1", delta="0.5", K=6, seed=11)


def test_criterion_5_recurrence_bracketing(plan_02_10):
    plan = plan_02_10
    depth = plan.m_seq[4] + 200
    entries = 0
    bracket_fail = 0
    form_fail = 0
    for s in range(50):
        view = sample_point(plan, 1000 + s, depth)
        profile = extract_returns(view, 5, monotone=True,
                                  search_limit=plan.n_seq[4] + 10)
        for k in range(min(5, len(profile.n_seq))):
            entries += 1
            if not verify_bracketing(view, profile, k):
                bracket_fail += 1
            try:
                classify_prefix(view, k, profile)
            except Exception:
                form_fail += 1
    ok = entries >= 200 and bracket_fail == 0 and form_fail == 0
    _report(5, ok,
            f"{entries} profile entries on 50 sampled points: bracketing "
            f"certified exactly (fails={bracket_fail}), prefix forms total "
            f"(violations={form_fail})")


def test_criterion_6_exponent_recovery():
    ctx = BetaContext.from_value("2.5")
    targets = [(Fraction(1, 5), Fraction(1)), (Fraction(1, 3), Fraction(1)),
               (Fraction(0), Fraction(1, 2))]
    lines = []
    all_ok = True
    for r_hat, r in targets:
        t0 = time.time()
        plan = build_plan(ctx, r_hat, r, delta="0.5", K=6, seed=23)
        n6, m6 = plan.n_seq[5], plan.m_seq[5]
        good = 0
        for s in range(30):
            view = sample_point(plan, 400 + s, m6 + 200)
            r_est = estimate_r(view, n6).value
            rh_est = estimate_r_hat(view, n6).value
            if abs(r_est - float(r)) <= 0.10 and abs(rh_est - float(r_hat)) <= 0.10:
                good += 1
        elapsed = time.time() - t0
        ok = good >= 27 and elapsed < 300
        all_ok &= ok
        lines.append(f"({float(r_hat):.3f},{float(r):.2f}): {good}/30 in "
                     f"{elapsed:.0f}s")
    _report(6, all_ok, "exponents within +-0.10 for >=90% of samples at "
            "depth >= n_6: " + "; ".join(lines))


def test_criterion_7_exact_dimension_series():
    n_seq, m_seq = plan_sequences("0.2", "1", 21)
    k = 20
    series = Fraction(sum(n_seq[j + 1] - m_seq[j] for j in range(k - 1)),
                      m_seq[k - 1])
    series_ok = abs(series - Fraction(3, 8)) < Fraction(1, 1000)
    ctx = BetaContext.from_value("2.5")
    plan = build_plan(ctx, "0.2", "1", delta="0.1", K=8, seed=5)
    report = local_dimension_series(plan, 8)
    lo, hi = report.mu_log_ratios[-1]
    delta = float(plan.delta)
    ratio_ok = (1 - delta) * 0.375 - 0.05 <= lo and hi <= 0.375 + 0.05
    _report(7, series_ok and ratio_ok,
            f"series at k=20 is {float(series):.9f} (=3/8 within 1e-3, exact "
            f"rationals); measure log-ratio at k=8, delta=0.1 in "
            f"[{lo:.4f},{hi:.4f}] within [{(1-delta)*0.375-0.05:.4f}, 0.425]")


def test_criterion_8_formula_identities():
    worst_a = 0.0
    for i in range(1, 101):
        r = i * 0.07
        worst_a = max(worst_a, abs(dim_prescribed(0, Fraction(i * 7, 100))
                                   - 1 / (1 + r)))
    worst_b = 0.0
    for i in range(1, 100):
        rh = Fraction(i, 100)
        rstar = 2 * rh / (1 - rh)
        worst_b = max(worst_b, abs(dim_prescribed(rh, rstar) - dim_uniform(rh)))
    ok = worst_a < 1e-12 and worst_b < 1e-12
    _report(8, ok,
            f"dim(0, r) = 1/(1+r) to {worst_a:.2e} on 100 r's; "
            f"dim(rhat, 2rhat/(1-rhat)) = ((1-rhat)/(1+rhat))^2 to {worst_b:.2e}")


def test_criterion_9_full_measure_statistics():
    results = []
    all_ok = True
    for name, ctx in (("golden", BetaContext.golden()),
                      ("2.5", BetaContext.from_value("2.5"))):
        rng = random.Random(77)
        small = 0
        for _ in range(200):
            x = Fraction(rng.getrandbits(64), 1 << 64)
            view = OrbitView.from_point(ctx, x)
            if estimate_r_hat(view, 2000).value <= 0.05:
                small += 1
        ok = small >= 190
        all_ok &= ok
        results.append(f"{name}: {small}/200")
    _report(9, all_ok,
            "uniform exponent estimate <= 0.05 for >=95% of 200 uniform "
            "points, N_max=2000: " + "; ".join(results))


def test_criterion_10_boxcount_sanity():
    ctx2 = BetaContext.from_value(2)
    rng = random.Random(4)
    uniform_pts = [OrbitView.from_digits(ctx2, [rng.randint(0, 1) for _ in range(40)])
                   for _ in range(1500)]
    uni = boxcount(uniform_pts, ctx2, range(2, 9), bootstrap=60, seed=2)
    uniform_ok = abs(uni.slope - 1.0) <= 0.05
    ctx = BetaContext.from_value("2.5")
    plan = build_plan(ctx, "0.2", "1", delta="0.9", K=4, seed=2)
    samples = [sample_point(plan, 100 + i, 60) for i in range(4000)]
    res = boxcount(samples, ctx, range(3, 19), bootstrap=60, seed=3)
    box_ok = 0.25 <= res.slope <= 0.50
    _report(10, uniform_ok and box_ok,
            f"uniform slope {uni.slope:.3f} within 1.0+-0.05; construction "
            f"slope {res.slope:.3f} in advisory band [0.25, 0.50] "
            f"(slow convergence documented)")
