"""The four benchmark workloads, each replaying an expensive acceptance
criterion through the public library API.

A workload has a set-up (contexts, truncated bases, construction plans) and
a pass: a fixed list of items derived from the workload seed.  Seed 0
reproduces the criterion's own seeds; any other seed derives fresh plan and
point seeds, which are the only seeds the library receives.

Every library call goes through ``Recorder.call`` so that operations are
counted and failures caught.  Each item is timed around its library calls
only; the benchmark's own checks and digests run outside the timed region.
Outputs are digested by group; ``reference.json`` holds the digests recorded
at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import random
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

from betarec import cantor, dimension, expansion, recurrence, symbolic
from betarec import cli  # noqa: F401  the CLI's import cost belongs in setup_s

PROBE_EVERY_S = 0.05   # period of the speed probe
PROBE_REF_S = 0.27e-3  # the probe loop's time on a 2-vCPU Xeon VM at its fast speed


def _probe_loop() -> float:
    t0 = perf_counter()
    x = 0
    for i in range(4000):
        x += i * i % 7
    return perf_counter() - t0


class SpeedProbe:
    """The CPU's speed through a pass, sampled by a fixed loop on a timer.

    The CPU of a shared VM can run about 1.5x slower for seconds at a time,
    so a half-minute run may catch much or little of that.  Every
    PROBE_EVERY_S a SIGALRM handler times a fixed pure-Python loop in the
    main thread, between two bytecodes of whatever runs there.  ``clock``
    leaves out the handler's own time, so the items it times do not include
    the probe.  Within an item the program's time tracks the loop's in
    proportion: over repeats of one item, log item time on log probe time
    has a slope of 1.04 on returns-certified and 1.2 on dimension-shallow.
    """

    def __init__(self):
        self.at: list[float] = []   # clock time of each sample
        self.s: list[float] = []    # the loop's time at that sample
        self._spent = 0.0

    def clock(self) -> float:
        while True:  # retry if a sample lands between the two reads
            spent = self._spent
            now = perf_counter()
            if spent == self._spent:
                return now - spent

    def _sample(self, *_) -> None:
        d = _probe_loop()
        self._spent += d
        self.at.append(perf_counter() - self._spent)
        self.s.append(d)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def at_reference(self, t0: float, t1: float) -> float:
        """t1 - t0 at the speed where the loop takes PROBE_REF_S, scaled by
        the samples taken within it and the one on each side."""
        window = self.s[max(bisect_left(self.at, t0) - 1, 0):bisect_right(self.at, t1) + 1]
        return (t1 - t0) * PROBE_REF_S * sum(1 / d for d in window) / len(window)


SPEED = SpeedProbe()
clock = SPEED.clock


class Recorder:
    """Operation counts, item timings, accuracy and output digests of a pass.

    Items are timed with ``clock`` while the speed probe runs, from ``start``
    to ``finish``.  Each item's time is kept as measured (``item_s``) and at
    reference speed (``ref_s``).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0          # failures that are the documented defect
        self.unexpected: list[str] = []
        self.busy_s = 0.0       # summed item time of the pass, unscaled
        self.spans: list[tuple[float, float]] = []  # every item's clock interval
        self.primary: list[bool] = []     # whether each item is a primary one
        self.item_s: list[float] = []
        self.ref_s: list[float] = []
        self.acc_ok = 0
        self.acc_n = 0
        self.stream_digits = 0
        self._groups: dict[str, "hashlib._Hash"] = {}
        self.group_items: dict[str, int] = {}

    def start(self) -> None:
        SPEED.start()

    def finish(self) -> None:
        SPEED.stop()
        self.item_s = [t1 - t0 for t0, t1 in self.spans]
        self.ref_s = [SPEED.at_reference(t0, t1) for t0, t1 in self.spans]
        self.busy_s = sum(self.item_s)

    def call(self, fn, *args, known=None, **kwargs):
        """One library operation; returns (value, exception or None).

        ``known`` names the exception type of a documented defect: it still
        counts as a failed operation, but not as an unexpected one.
        """
        self.attempted += 1
        try:
            return fn(*args, **kwargs), None
        except Exception as exc:  # every failure of the program is counted
            self.failed += 1
            if known is not None and isinstance(exc, known):
                self.known += 1
            else:
                self.unexpected.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None, exc

    def fail(self, what: str) -> None:
        """An operation returned normally but its result is wrong."""
        self.failed += 1
        self.unexpected.append(what)

    def timed(self, t0: float, primary: bool) -> None:
        """An item that started at clock time t0 ends now."""
        self.spans.append((t0, clock()))
        self.primary.append(primary)

    def accuracy(self, ok: bool) -> None:
        self.acc_n += 1
        self.acc_ok += bool(ok)

    def output(self, group: str, *values) -> None:
        """Fold one item's outputs into its group digest."""
        h = self._groups.get(group)
        if h is None:
            h = self._groups[group] = hashlib.sha256()
            self.group_items[group] = 0
        self.group_items[group] += 1
        for v in values:
            h.update(v if isinstance(v, bytes) else repr(v).encode())
            h.update(b"\x00")

    def digests(self) -> dict[str, str]:
        return {g: h.hexdigest()[:16] for g, h in self._groups.items()}


def _derived(workload: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1 << 30) for _ in range(n)]


def _err(exc) -> str:
    return type(exc).__name__


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _interleave(*streams: list) -> list:
    """Merge lists so that each advances in proportion to its length.

    Spreads every kind of item evenly over the pass, so each latency sample
    set covers the whole measurement window rather than one burst of it.
    """
    order = sorted((i / len(s), k, i) for k, s in enumerate(streams) for i in range(len(s)))
    return [streams[k][i] for _, k, i in order]


# ---------------------------------------------------------------------------
# recovery-deep: criterion 6, target (r_hat, r) = (0, 1/2)
# ---------------------------------------------------------------------------


def setup_recovery_deep(seed: int, size: str) -> dict:
    plan_seed, point_seed = (23, 400) if seed == 0 else _derived("recovery-deep", seed, 2)
    ctx = expansion.BetaContext.from_value("2.5")
    plan = cantor.build_plan(ctx, 0, Fraction(1, 2), delta="0.5", K=6, seed=plan_seed)
    level = 6 if size == "full" else 4
    return {"plan": plan, "point_seed": point_seed,
            "depth": plan.m_seq[level - 1] + 200, "n_max": plan.n_seq[level - 1]}


def pass_recovery_deep(st: dict, rec: Recorder) -> None:
    plan, n_max = st["plan"], st["n_max"]
    rec.output("plan", plan.N, plan.M, plan.n_seq, plan.m_seq, plan.seed_word)
    t0 = clock()
    view, e1 = rec.call(cantor.sample_point, plan, st["point_seed"], st["depth"])
    if e1 is None:
        r, e2 = rec.call(recurrence.estimate_r, view, n_max)
        rh, e3 = rec.call(recurrence.estimate_r_hat, view, n_max)
    rec.timed(t0, primary=True)
    if e1 is not None:
        rec.accuracy(False)
        rec.output("point", _err(e1))
        return
    rec.accuracy(e2 is None and e3 is None and abs(r.value - 0.5) <= 0.1
                 and abs(rh.value) <= 0.1)
    rec.output("point", bytes(view.digits(st["depth"])),
               _err(e2) if e2 else (r.value, r.censored),
               _err(e3) if e3 else (rh.value, rh.censored))


# ---------------------------------------------------------------------------
# returns-certified: criterion 5, on beta = 2.5 and on the golden base
# ---------------------------------------------------------------------------


def setup_returns_certified(seed: int, size: str) -> dict:
    plan_seed, point_seed = (11, 1000) if seed == 0 else _derived("returns-certified", seed, 2)
    plans = [cantor.build_plan(ctx, "0.2", "1", delta="0.5", K=6, seed=plan_seed)
             for ctx in (expansion.BetaContext.from_value("2.5"),
                         expansion.BetaContext.golden())]
    # 100 distinct beta = 2.5 points leave ten items beyond the p90; ten
    # golden points keep the defect in view without lengthening the pass
    counts = (100, 10) if size == "full" else (4, 2)
    return {"plans": plans, "point_seed": point_seed, "counts": counts}


def pass_returns_certified(st: dict, rec: Recorder) -> None:
    streams = []
    for plan, count, name in zip(st["plans"], st["counts"], ("r25", "phi")):
        rec.output(f"{name}-plan", plan.N, plan.M, plan.n_seq, plan.m_seq, plan.seed_word)
        streams.append([(plan, name, i) for i in range(count)])
    for plan, name, i in _interleave(*streams):
        _returns_point(plan, name, i, st["point_seed"] + i, rec)


def _returns_point(plan, name: str, i: int, seed: int, rec: Recorder) -> None:
    golden = plan.ctx.beta_fraction is None
    depth = plan.m_seq[4] + 200
    t0 = clock()
    view, err = rec.call(cantor.sample_point, plan, seed, depth)
    if err is None:
        prof, err = rec.call(recurrence.extract_returns, view, 5, monotone=True,
                             search_limit=plan.n_seq[4] + 10)
    brackets, forms = [], []
    if err is None:
        for k in range(len(prof.n_seq)):
            # ValueError on golden digit views is ROADMAP item 3's defect
            brackets.append(rec.call(recurrence.verify_bracketing, view, prof, k,
                                     known=ValueError if golden else None))
            forms.append(rec.call(recurrence.classify_prefix, view, k, prof))
    rec.timed(t0, primary=not golden)
    if err is not None:
        rec.accuracy(False)
        rec.output(f"{name}-{i}", _err(err))
        return
    for k, (ok, exc) in enumerate(brackets):
        if exc is None and not ok:
            rec.fail(f"{name} point {i}: bracketing of entry {k} not certified")
    rec.accuracy(len(prof.n_seq) > 0 and all(ok for ok, _ in brackets)
                 and all(exc is None for _, exc in forms))
    rec.output(f"{name}-{i}", bytes(view.digits(depth)), prof.n_seq, prof.m_seq,
               prof.t_seq, prof.truncated,
               [_err(exc) if exc else form.value for form, exc in forms])


# ---------------------------------------------------------------------------
# language-exact: criteria 2, 4 and 9 on the algebraic (golden) base
# ---------------------------------------------------------------------------


def _phi_sign(x: Fraction, a: int, b: int) -> int:
    """Sign of x - (a + b*phi), phi the golden ratio, decided exactly."""
    y = x - a - Fraction(b, 2)  # compare y with b*sqrt(5)/2
    if (y >= 0) != (b >= 0):
        return 1 if y >= 0 else -1
    lhs, rhs = y * y, Fraction(5 * b * b, 4)
    if lhs == rhs:
        return 0
    return (1 if lhs > rhs else -1) if y >= 0 else (-1 if lhs > rhs else 1)


def _phi_power(k: int) -> tuple[int, int]:
    """phi**k as a + b*phi for any integer k, independently of the library."""
    a, b = 1, 0
    for _ in range(abs(k)):
        a, b = (b, a + b) if k > 0 else (b - a, a)
    return a, b


def _length_ok(c, n: int, N: int, beta) -> bool:
    """beta^-(n+N) <= |I_n| and beta^-n >= the length's lower end."""
    if beta is not None:
        return c.length.hi >= beta ** -(n + N) and c.length.lo <= beta ** -n
    return (_phi_sign(c.length.hi, *_phi_power(-(n + N))) >= 0
            and _phi_sign(c.length.lo, *_phi_power(-n)) <= 0)


def setup_language_exact(seed: int, size: str) -> dict:
    (point_seed,) = (77,) if seed == 0 else _derived("language-exact", seed, 1)
    golden = expansion.BetaContext.golden()
    rational = expansion.BetaContext.from_value("2.5")
    bases = [("phi", golden, 3, expansion.approximate_beta(golden, 3)),
             ("r25", rational, 5, expansion.approximate_beta(rational, 5))]
    full = size == "full"
    return {"bases": bases, "golden": golden, "point_seed": point_seed,
            "max_len": 10 if full else 4, "max_count": 25 if full else 10,
            "points": 200 if full else 10, "n_max": 2000 if full else 500}


def pass_language_exact(st: dict, rec: Recorder) -> None:
    cylinders = {}
    for name, ctx, N, trunc in st["bases"]:
        cylinders[name] = []
        for n in range(1, st["max_len"] + 1):
            t0 = clock()
            words, err = rec.call(lambda: list(symbolic.enumerate_admissible(trunc, n)))
            rec.timed(t0, primary=False)
            rec.output(f"{name}-len{n}", words if err is None else _err(err))
            cylinders[name] += [(_language_cylinder, (name, ctx, N, w)) for w in words or ()]
    rng = random.Random(st["point_seed"])
    points = [(_language_point, (st, i, Fraction(rng.getrandbits(64), 1 << 64)))
              for i in range(st["points"])]
    for fn, args in _interleave(cylinders["phi"], cylinders["r25"], points):
        fn(*args, rec)
    fib = [1, 1]
    while len(fib) < st["max_count"] + 2:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, st["max_count"] + 1):
        t0 = clock()
        count, err = rec.call(symbolic.count_admissible, st["golden"], n)
        rec.timed(t0, primary=False)
        ok = err is None and count == fib[n + 1]
        if err is None and not ok:
            rec.fail(f"count_admissible(golden, {n}) = {count}, not F({n + 2})")
        rec.accuracy(ok)
        rec.output("counts", count if err is None else _err(err))


def _language_cylinder(name: str, ctx, N: int, w, rec: Recorder) -> None:
    golden = ctx.beta_fraction is None
    group = f"{name}-len{len(w)}"
    t0 = clock()
    c, err = rec.call(symbolic.cylinder, w, ctx, refine=40)
    rec.timed(t0, primary=golden)
    if err is not None:
        rec.accuracy(False)
        rec.output(group, _err(err))
        return
    ok = _length_ok(c, len(w), N, ctx.beta_fraction)
    if not ok:
        rec.fail(f"{name} cylinder {w}: length outside [beta^-(n+N), beta^-n]")
    rec.accuracy(ok)
    rec.output(group, _frac(c.left.lo), _frac(c.left.hi), _frac(c.length.lo),
               _frac(c.length.hi), c.full)


def _language_point(st: dict, i: int, x: Fraction, rec: Recorder) -> None:
    t0 = clock()
    view, err = rec.call(recurrence.OrbitView.from_point, st["golden"], x)
    if err is None:
        est, err = rec.call(recurrence.estimate_r_hat, view, st["n_max"])
    rec.timed(t0, primary=False)
    group = f"uniform-{i // 20}"
    if err is not None:
        rec.accuracy(False)
        rec.output(group, _frac(x), _err(err))
        return
    rec.stream_digits += view.depth
    rec.accuracy(est.value <= 0.05)
    rec.output(group, _frac(x), est.value, est.censored, bytes(view.digits(view.depth)))


# ---------------------------------------------------------------------------
# dimension-shallow: criterion 10 plus exact measure reads
# ---------------------------------------------------------------------------


def setup_dimension_shallow(seed: int, size: str) -> dict:
    if seed == 0:
        plan_seed, point_seed, boot_seed = 2, 100, 3
    else:
        plan_seed, point_seed, boot_seed = _derived("dimension-shallow", seed, 3)
    ctx = expansion.BetaContext.from_value("2.5")
    plan = cantor.build_plan(ctx, "0.2", "1", delta="0.9", K=4, seed=plan_seed)
    full = size == "full"
    return {"ctx": ctx, "plan": plan, "point_seed": point_seed, "boot_seed": boot_seed,
            "points": 4000 if full else 200, "n_range": range(3, 19 if full else 11),
            "bootstrap": 60 if full else 10}


def pass_dimension_shallow(st: dict, rec: Recorder) -> None:
    plan = st["plan"]
    rec.output("plan", plan.N, plan.M, plan.n_seq, plan.m_seq, plan.seed_word)
    views = []
    for i in range(st["points"]):
        t0 = clock()
        view, err = rec.call(cantor.sample_point, plan, st["point_seed"] + i, 60)
        masses = []
        if err is None:
            masses = [rec.call(cantor.measure, plan, tuple(view.digits(n)))
                      for n in (12, 24, 36, 48, 60)]
        rec.timed(t0, primary=True)
        group = f"points-{i // 200}"
        if err is not None:
            rec.accuracy(False)
            rec.output(group, _err(err))
            continue
        views.append(view)
        values = [m for m, exc in masses if exc is None]
        # a sampled point lies in the support, and mass shrinks with depth
        ok = (len(values) == 5 and values[-1] > 0
              and all(a >= b for a, b in zip(values, values[1:])))
        if len(values) == 5 and not ok:
            rec.fail(f"point {i}: measures {values} not positive and non-increasing")
        rec.accuracy(ok)
        rec.output(group, bytes(view.digits(60)),
                   [_frac(m) if exc is None else _err(exc) for m, exc in masses])
    t0 = clock()
    box, err = rec.call(dimension.boxcount, views, st["ctx"], st["n_range"],
                        bootstrap=st["bootstrap"], seed=st["boot_seed"])
    rec.timed(t0, primary=False)
    if err is not None:
        rec.accuracy(False)
        rec.output("boxcount", _err(err))
        return
    rec.accuracy(0.25 <= box.slope <= 0.50)
    rec.output("boxcount", box.slope, box.ci, box.counts)


SETUP = {
    "recovery-deep": setup_recovery_deep,
    "returns-certified": setup_returns_certified,
    "language-exact": setup_language_exact,
    "dimension-shallow": setup_dimension_shallow,
}

PASS = {
    "recovery-deep": pass_recovery_deep,
    "returns-certified": pass_returns_certified,
    "language-exact": pass_language_exact,
    "dimension-shallow": pass_dimension_shallow,
}
