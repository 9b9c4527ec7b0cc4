"""Spans around the library's public functions, installed from outside.

Only the traced worker process calls ``install``.  It replaces the names that
callers actually resolve (module globals such as
``betarec.symbolic.word_sum_bounds`` and class attributes such as
``betarec.cantor.BlockPool.sample``); nothing under ``src/`` changes.

Three kinds of wrapper keep the cost proportional to what is measured:

* a span records name, start, end and parent for each call;
* a leaf adds its calls and seconds to its parent span, for functions called
  once per digit or block (``floor_element``, ``BlockPool.sample``) that
  contain no other span;
* a counter only counts calls, for cheap helpers inside leaves.

Per-digit methods such as ``OrbitView.z`` are not wrapped at all.  Spans stay
in memory; ``Tracer.dump`` writes them out once the pass has ended.  A span's
self time is its duration minus the time its child spans and leaves cover.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import betarec.algebraic
from betarec import cantor, dimension, expansion, numerics, recurrence, symbolic

ESTIMATES = ("recurrence.estimate_r", "recurrence.estimate_r_hat")


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.work: dict[int, object] = {}   # span index -> number or tag
        self.leaves: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, s, work]
        self.counts: dict[str, int] = {}
        self.stack = [-1]

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, work=None):
        """Wrap fn in a span; ``work(args, kwargs)`` tags it at entry."""
        def traced(*args, **kwargs):
            i = self.open(name)
            if work is not None:
                self.work[i] = work(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def _leaf_add(self, name: str, seconds: float, work: int) -> None:
        rec = self.leaves.get((self.stack[-1], name))
        if rec is None:
            rec = self.leaves[(self.stack[-1], name)] = [0, 0.0, 0]
        rec[0] += 1
        rec[1] += seconds
        rec[2] += work

    def leaf(self, name: str, fn):
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf_add(name, perf_counter() - t0, 0)
        return traced

    def leaf_generator(self, name: str, fn):
        """Time each resume of a generator; work counts the values yielded."""
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    value = next(gen)
                except StopIteration:
                    self._leaf_add(name, perf_counter() - t0, 0)
                    return
                self._leaf_add(name, perf_counter() - t0, 1)
                yield value
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return traced

    def point_view_ensure(self, view) -> None:
        """Span each ``ensure`` of one point-backed view; work = digits appended."""
        inner = view.ensure

        def ensure(n):
            before = view.depth
            i = self.open("recurrence.OrbitView.ensure")
            try:
                return inner(n)
            finally:
                self.close(i)
                self.work[i] = view.depth - before
        view.ensure = ensure

    def dump(self, path) -> None:
        names = sorted(set(self.name) | {n for _, n in self.leaves})
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[n], p, s, e, self.work.get(i)] for i, (n, p, s, e) in
                      enumerate(zip(self.name, self.parent, self.start, self.end))],
            "leaves": [[p, index[n], c, s, w] for (p, n), (c, s, w) in self.leaves.items()],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    t = tracer
    BlockPool = cantor.BlockPool
    cantor.build_plan = t.span("cantor.build_plan", cantor.build_plan)
    BlockPool.__init__ = t.span("cantor.BlockPool", BlockPool.__init__)
    BlockPool.sample = t.leaf("cantor.BlockPool.sample", BlockPool.sample)
    cantor.sample_point = t.span("cantor.sample_point", cantor.sample_point,
                                 work=lambda a, k: a[2] if len(a) > 2 else k["depth"])
    cantor.measure = t.span("cantor.measure", cantor.measure)

    def scanned(args, kwargs):
        # positions the lambda series will scan; 0 when it is already cached
        view, n_max = args
        cache = getattr(view, "_lambda_cache", None)
        return 0 if cache is not None and cache[0] == n_max else n_max

    recurrence.z_array = t.span("recurrence.z_array", recurrence.z_array,
                                work=lambda a, k: len(a[0]))
    recurrence.digit_period = t.span("recurrence.digit_period", recurrence.digit_period)
    recurrence.neg_log_distance = t.span("recurrence.neg_log_distance",
                                         recurrence.neg_log_distance)
    recurrence.compare_distance_power = t.span("recurrence.compare_distance_power",
                                               recurrence.compare_distance_power)
    for name in ("estimate_r", "estimate_r_hat"):
        setattr(recurrence, name, t.span(f"recurrence.{name}",
                                         getattr(recurrence, name), work=scanned))
    for name in ("extract_returns", "verify_bracketing", "classify_prefix"):
        setattr(recurrence, name, t.span(f"recurrence.{name}", getattr(recurrence, name)))
    from_point = recurrence.OrbitView.from_point.__func__

    def traced_from_point(cls, ctx, x):
        view = from_point(cls, ctx, x)
        t.point_view_ensure(view)
        return view
    recurrence.OrbitView.from_point = classmethod(traced_from_point)

    approximate = t.span("expansion.approximate_beta", expansion.approximate_beta)
    expansion.approximate_beta = cantor.approximate_beta = approximate
    word_sum = t.span("expansion.word_sum_bounds", expansion.word_sum_bounds)
    expansion.word_sum_bounds = symbolic.word_sum_bounds = word_sum
    power = t.span("expansion.beta_power_bounds", expansion.beta_power_bounds)
    expansion.beta_power_bounds = symbolic.beta_power_bounds = power
    recurrence.beta_power_bounds = power
    expansion.floor_element = t.leaf("algebraic.floor_element", expansion.floor_element)
    RootBracket = betarec.algebraic.RootBracket
    RootBracket.power_bounds = t.counter("algebraic.power_bounds", RootBracket.power_bounds)

    BoundedReal = numerics.BoundedReal
    BoundedReal.shrink = t.counter("numerics.shrink", BoundedReal.shrink)
    BoundedReal.powi = t.span("numerics.powi", BoundedReal.powi)

    def kind(args, kwargs):
        ctx = args[1] if len(args) > 1 else kwargs["ctx"]
        return "rational" if ctx.beta_fraction is not None else "algebraic"
    symbolic.cylinder = t.span("symbolic.cylinder", symbolic.cylinder, work=kind)
    count = t.span("symbolic.count_admissible", symbolic.count_admissible)
    symbolic.count_admissible = cantor.count_admissible = count
    symbolic.enumerate_admissible = t.leaf_generator("symbolic.enumerate_admissible",
                                                     symbolic.enumerate_admissible)
    automaton = t.counter("symbolic.automaton_for", symbolic.automaton_for)
    symbolic.automaton_for = cantor.automaton_for = automaton
    symbolic.FollowerAutomaton.__init__ = t.counter("symbolic.FollowerAutomaton",
                                                    symbolic.FollowerAutomaton.__init__)
    dimension.boxcount = t.span("dimension.boxcount", dimension.boxcount)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(t: Tracer, stream_digits: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (all but trace.overhead_frac)."""
    n = len(t.name)
    dur = [t.end[i] - t.start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        if t.parent[i] >= 0:
            covered[t.parent[i]] += dur[i]
    leaf_calls: dict[str, int] = {}
    leaf_s: dict[str, float] = {}
    leaf_work: dict[str, int] = {}
    for (p, name), (calls, seconds, work) in t.leaves.items():
        if p >= 0:
            covered[p] += seconds
        leaf_calls[name] = leaf_calls.get(name, 0) + calls
        leaf_s[name] = leaf_s.get(name, 0.0) + seconds
        leaf_work[name] = leaf_work.get(name, 0) + work

    def ancestors(i):
        p = t.parent[i]
        while p >= 0:
            yield t.name[p]
            p = t.parent[p]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}   # outermost spans only, so recursion is not counted twice
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    cylinders: dict[str, list[float]] = {"rational": [], "algebraic": []}
    fallback = 0
    for i, name in enumerate(t.name):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - covered[i]
        up = list(ancestors(i))
        if name not in up:
            total[name] = total.get(name, 0.0) + dur[i]
        w = t.work.get(i)
        if name == "symbolic.cylinder":
            cylinders[w].append(dur[i])
        elif w is not None:
            work[name] = work.get(name, 0) + w
        if name == "recurrence.neg_log_distance" and any(a in ESTIMATES for a in up):
            fallback += 1

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    def median_us(values):
        return statistics.median(values) * 1e6 if values else 0.0

    c = calls.get
    s = total.get
    scanned = work.get(ESTIMATES[0], 0) + work.get(ESTIMATES[1], 0)
    ensure = "recurrence.OrbitView.ensure"
    return {
        "cantor.build_plan_s": s("cantor.build_plan", 0.0),
        "cantor.pool_builds": c("cantor.BlockPool", 0),
        "cantor.pool_build_s": s("cantor.BlockPool", 0.0),
        "cantor.pool_sample_calls": leaf_calls.get("cantor.BlockPool.sample", 0),
        "cantor.pool_sample_s": leaf_s.get("cantor.BlockPool.sample", 0.0),
        "cantor.sample_digits_per_s": rate(work.get("cantor.sample_point", 0),
                                           s("cantor.sample_point", 0.0)),
        "cantor.sample_point_s": self_s.get("cantor.sample_point", 0.0),
        "cantor.measure_calls": c("cantor.measure", 0),
        "cantor.measure_s": s("cantor.measure", 0.0),
        "recurrence.z_array_calls": c("recurrence.z_array", 0),
        "recurrence.z_array_digits": work.get("recurrence.z_array", 0),
        "recurrence.z_array_s": s("recurrence.z_array", 0.0),
        "recurrence.digit_period_calls": c("recurrence.digit_period", 0),
        "recurrence.digit_period_s": s("recurrence.digit_period", 0.0),
        "recurrence.estimate_r_s": s("recurrence.estimate_r", 0.0),
        "recurrence.estimate_r_hat_s": s("recurrence.estimate_r_hat", 0.0),
        "recurrence.neg_log_distance_calls": c("recurrence.neg_log_distance", 0),
        "recurrence.neg_log_distance_s": s("recurrence.neg_log_distance", 0.0),
        "recurrence.fallback_frac": rate(fallback, scanned),
        "recurrence.extract_returns_s": s("recurrence.extract_returns", 0.0),
        "recurrence.compare_distance_power_calls": c("recurrence.compare_distance_power", 0),
        "recurrence.compare_distance_power_s": s("recurrence.compare_distance_power", 0.0),
        "recurrence.verify_bracketing_s": s("recurrence.verify_bracketing", 0.0),
        "recurrence.classify_prefix_s": s("recurrence.classify_prefix", 0.0),
        "recurrence.stream_digits": stream_digits,
        "expansion.approximate_beta_s": s("expansion.approximate_beta", 0.0),
        "expansion.orbit_digits_per_s": rate(work.get(ensure, 0), s(ensure, 0.0)),
        "expansion.word_sum_bounds_calls": c("expansion.word_sum_bounds", 0),
        "expansion.word_sum_bounds_s": s("expansion.word_sum_bounds", 0.0),
        "expansion.beta_power_bounds_s": s("expansion.beta_power_bounds", 0.0),
        "algebraic.floor_element_calls": leaf_calls.get("algebraic.floor_element", 0),
        "algebraic.floor_element_s": leaf_s.get("algebraic.floor_element", 0.0),
        "algebraic.power_bounds_calls": t.counts.get("algebraic.power_bounds", 0),
        "numerics.shrink_calls": t.counts.get("numerics.shrink", 0),
        "numerics.powi_calls": c("numerics.powi", 0),
        "numerics.powi_s": s("numerics.powi", 0.0),
        "symbolic.cylinder_us_golden": median_us(cylinders["algebraic"]),
        "symbolic.cylinder_us_rational": median_us(cylinders["rational"]),
        "symbolic.count_admissible_s": s("symbolic.count_admissible", 0.0),
        "symbolic.enumerate_words_per_s": rate(
            leaf_work.get("symbolic.enumerate_admissible", 0),
            leaf_s.get("symbolic.enumerate_admissible", 0.0)),
        "symbolic.automaton_for_calls": t.counts.get("symbolic.automaton_for", 0),
        "symbolic.automaton_builds": t.counts.get("symbolic.FollowerAutomaton", 0),
        "dimension.boxcount_s": s("dimension.boxcount", 0.0),
    }
