"""Orbit recurrence: distances |T^n x - x|, the two recurrence exponents,
return-depth profiles, and the digit-structure forced by a deep return.

The orbit of x under T(y) = beta*y mod 1 is the shift on its digit stream,
so every distance |T^n x - x| is controlled by the longest common prefix of
the stream and its shift (one Z-array computes all of them) together with
the value of the difference series past the first disagreement.  That
difference series is evaluated by an exact integer recurrence: a floating
recurrence loses all precision exactly in the deep-cancellation cases this
module exists to measure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .algebraic import RootBracket, floor_element, multiply_by_root
from .expansion import (
    BetaContext,
    Word,
    beta_power_bounds,
    orbit_digit_stream,
    word_value_fraction,
)
from .numerics import BoundedReal


class PeriodicPointError(ValueError):
    """The digit stream is periodic: both exponents are infinite."""


class FormViolationError(AssertionError):
    """A return prefix matched none of the three structural forms."""


def z_array(seq: list[int]) -> list[int]:
    """z[i] = length of the longest common prefix of seq and seq[i:]."""
    n = len(seq)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    l = r = 0
    for i in range(1, n):
        if i < r:
            zi = z[i - l]
            if zi < r - i:
                z[i] = zi  # the match ends inside the current Z-box
                continue
            zi = r - i
        else:
            zi = 0
        while i + zi < n and seq[zi] == seq[i + zi]:
            zi += 1
        z[i] = zi
        if i + zi > r:
            l, r = i, i + zi
    return z


# ---------------------------------------------------------------------------
# orbit views
# ---------------------------------------------------------------------------


class OrbitView:
    """A point of [0, 1) seen through its digit stream.

    Point-backed views (``from_point``) extend their stream on demand.
    Digit-backed views (``from_digits``) carry a fixed stream and stand for
    its left endpoint, i.e. the digits continue with zeros; analyses must
    stay below the supplied depth to say anything about the intended point.

    The Z-array of the available stream is held once, as a numpy int64
    array, and rebuilt only when the stream has grown.
    """

    def __init__(self, ctx: BetaContext, digits: list[int],
                 point: Optional[Fraction], stream):
        self.ctx = ctx
        self._digits = digits
        self._point = point
        self._stream = stream
        self._z: Optional[np.ndarray] = None
        self._z_len = 0
        self._periodic: Optional[tuple[tuple[int, int], bool]] = None

    @classmethod
    def from_point(cls, ctx: BetaContext, x) -> "OrbitView":
        x = Fraction(x) if not isinstance(x, Fraction) else x
        if not (0 <= x < 1):
            raise ValueError("x must lie in [0, 1)")
        return cls(ctx, [], x, orbit_digit_stream(ctx, x))

    @classmethod
    def from_digits(cls, ctx: BetaContext, digits) -> "OrbitView":
        digits = list(digits)
        if digits and (min(digits) < 0 or max(digits) > ctx.alphabet_max):
            raise ValueError("digit out of alphabet")
        return cls(ctx, digits, None, None)

    @property
    def depth(self) -> int:
        return len(self._digits)

    def ensure(self, n: int) -> int:
        """Extend the stream to at least n digits where possible; returns depth."""
        if self._stream is not None and len(self._digits) < n:
            target = max(n, 2 * len(self._digits), 256)
            while len(self._digits) < target:
                self._digits.append(self._stream.next_digit())
        return len(self._digits)

    def digits(self, n: int) -> list[int]:
        self.ensure(n)
        return self._digits[:n]

    def digit(self, i: int) -> int:
        self.ensure(i + 1)
        return self._digits[i]

    def point_fraction(self) -> Fraction:
        """The exact point, materialising the left endpoint for digit views."""
        if self._point is None:
            beta = self.ctx.beta_fraction
            if beta is None:
                raise ValueError("exact value unavailable for this view")
            self._point = word_value_fraction(tuple(self._digits), beta)
        return self._point

    def z_values(self) -> np.ndarray:
        """The Z-array of the available stream, as a read-only array."""
        d = len(self._digits)
        if self._z is None or self._z_len != d:
            self._z = np.array(z_array(self._digits), dtype=np.int64)
            self._z.flags.writeable = False
            self._z_len = d
        return self._z

    def z(self, n: int) -> int:
        """Common prefix length of the stream and its shift by n, as available."""
        return int(self.z_values()[n])

    def z_censored(self, n: int) -> bool:
        return n + self.z(n) >= len(self._digits)


def digit_period(view: OrbitView, scan_depth: Optional[int] = None) -> Optional[int]:
    """Smallest period of the available digit stream, up to half its depth.

    A reported period is evidence of a periodic point, not a proof; both
    recurrence exponents degenerate to infinity on periodic points, so they
    are handled separately.
    """
    d = view.ensure(scan_depth or view.depth or 512)
    if scan_depth is not None:
        d = min(d, scan_depth)
    half = d // 2
    z = view.z_values()[1 : half + 1]
    hits = np.flatnonzero(z >= d - np.arange(1, half + 1))
    return int(hits[0]) + 1 if hits.size else None


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaBounds:
    """Certified bounds on -log_beta |T^n x - x| (the per-return depth)."""

    lo: float
    hi: float
    censored: bool
    match_len: int


def _scaled_log2(n: int) -> float:
    """log2 of a positive integer, accurate for any size."""
    bl = n.bit_length()
    if bl <= 53:
        return math.log2(n)
    return math.log2(n >> (bl - 53)) + (bl - 53)


class _DiffAccumulator:
    """Exact accumulator for S_L = sum c_i beta^(L-i), c_i integer digits.

    Rational base p/q: S_L = N_L / q^L with N_L = p*N_(L-1) + c*q^L.
    Algebraic base: N_L is an integer vector in powers of beta.
    The magnitude |S_L| only needs ~50 accurate bits, extracted at the end.
    """

    def __init__(self, ctx: BetaContext):
        self.ctx = ctx
        beta = ctx.beta_fraction
        if beta is not None:
            self.p, self.q = beta.numerator, beta.denominator
            self.n_int = 0
            self.qpow = 1
            self.vec = None
        else:
            root: RootBracket = ctx.exact
            self.root = root
            self.vec = [0] * root.degree
            iv = root.interval(96)
            self.pow_floats = [1.0]
            for _ in range(1, root.degree):
                self.pow_floats.append(self.pow_floats[-1] * float(iv.center))

    def push(self, c: int) -> None:
        if self.vec is None:
            self.qpow *= self.q
            self.n_int = self.p * self.n_int + c * self.qpow
        else:
            self.vec = multiply_by_root(self.vec, self.root.poly)
            self.vec[0] += c

    def log2_abs(self) -> Optional[float]:
        """log2 |S_L|, or None when S_L = 0 (so far)."""
        if self.vec is None:
            if self.n_int == 0:
                return None
            return _scaled_log2(abs(self.n_int)) - _scaled_log2(self.qpow)
        shift = max(c.bit_length() for c in self.vec) - 52
        total = 0.0
        for c, pf in zip(self.vec, self.pow_floats):
            cf = float(c >> shift) if shift > 0 else float(c)
            total += cf * pf
        if total == 0.0:
            return None
        return math.log2(abs(total)) + max(shift, 0)


def neg_log_distance(view: OrbitView, n: int,
                     certainty_bits: int = 24,
                     scan_cap: int = 1 << 21) -> LambdaBounds:
    """Bounds on -log_beta |T^n x - x| from the digit stream.

    Scans difference digits past the first disagreement until the scaled
    partial sum provably dominates every possible tail, then converts to
    bounds; runs off the available stream (or the scan cap, which protects
    against periodic points) => censored, only a lower bound.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if view.ensure(n + 64) <= n:
        raise ValueError("insufficient digit depth")
    j = view.z(n)
    if view.z_censored(n) and view._stream is not None:
        while view.z_censored(n) and view.depth < scan_cap:
            before = view.depth
            view.ensure(2 * view.depth)
            if view.depth == before:
                break
        j = view.z(n)
    amax = max(view.ctx.alphabet_max, 1)
    beta_f = view.ctx.beta_float()
    lb = math.log2(beta_f)
    tail_bound = amax * beta_f / (beta_f - 1.0)
    log2_tail = math.log2(tail_bound)
    acc = _DiffAccumulator(view.ctx)
    L = 0
    digits = view._digits
    base = view.depth
    while True:
        ia = n + j + L
        ib = j + L
        if ia >= base:
            if view._stream is not None and base < scan_cap:
                base = view.ensure(min(2 * max(base, ia + 64), scan_cap))
                digits = view._digits
            if ia >= base:
                # stream exhausted: the distance may be anything below the bound
                log2s = acc.log2_abs()
                lo_val = (j + L - (log2s + 1.0) / lb) if log2s is not None else float(j + L)
                return LambdaBounds(lo=lo_val, hi=math.inf, censored=True, match_len=j)
        acc.push(digits[ia] - digits[ib])
        L += 1
        if L % 16 == 0 or L < 8:
            log2s = acc.log2_abs()
            if log2s is not None and log2s > log2_tail + certainty_bits:
                ratio = 2.0 ** (log2_tail - log2s)
                lam = j + L - log2s / lb
                spread = math.log2(1.0 + ratio) / lb
                down = -math.log2(1.0 - ratio) / lb
                return LambdaBounds(lo=lam - spread, hi=lam + down,
                                    censored=False, match_len=j)


def orbit_point_fraction(view: OrbitView, n: int) -> Fraction:
    """T^n x exactly, via T^n x = beta^n (x - value of the first n digits)."""
    beta = view.ctx.beta_fraction
    if beta is None:
        raise ValueError("exact orbit values need a rational base")
    x = view.point_fraction()
    prefix = tuple(view.digits(n))
    return (x - word_value_fraction(prefix, beta)) * beta**n


def recurrence_distance(view: OrbitView, n: int) -> BoundedReal:
    """|T^n x - x| as an enclosure; exact (radius 0) for rational bases."""
    if n < 1:
        raise ValueError("n must be at least 1")
    beta = view.ctx.beta_fraction
    if beta is not None:
        return BoundedReal.exact(abs(orbit_point_fraction(view, n) - view.point_fraction()))
    lam = neg_log_distance(view, n)
    if lam.censored:
        hi = beta_power_bounds(view.ctx, -int(math.floor(lam.lo))).hi
        return BoundedReal.from_endpoints(0, hi)
    lo_pow = beta_power_bounds(view.ctx, -int(math.floor(lam.hi)) - 1).lo
    hi_pow = beta_power_bounds(view.ctx, -int(math.floor(lam.lo))).hi
    return BoundedReal.from_endpoints(lo_pow, hi_pow)


def compare_distance_power(view: OrbitView, n: int, s: int) -> int:
    """Exact sign of |T^n x - x| - beta^-s  (-1, 0, or 1)."""
    beta = view.ctx.beta_fraction
    if beta is not None:
        dist = abs(orbit_point_fraction(view, n) - view.point_fraction())
        target = beta ** (-s)
        return (dist > target) - (dist < target)
    # algebraic base: D = T^n x - x over den(x), by Horner over the digits
    x = view.point_fraction()
    root: RootBracket = view.ctx.exact
    bits = view.ctx.precision_bits
    den = x.denominator
    vec = [x.numerator] + [0] * (root.degree - 1)
    for d in view.digits(n):
        vec = multiply_by_root(vec, root.poly)
        vec[0] -= d * den
    vec[0] -= x.numerator
    if floor_element(vec, den, root, bits) < 0:
        vec = [-c for c in vec]
    # |D| beta^s against 1: floor 0 is below, 1 with no remainder is equal
    for _ in range(s):
        vec = multiply_by_root(vec, root.poly)
    fl = floor_element(vec, den, root, bits)
    if fl == 0:
        return -1
    vec[0] -= den
    return 0 if fl == 1 and not any(vec) else 1


# ---------------------------------------------------------------------------
# return profiles
# ---------------------------------------------------------------------------


@dataclass
class ReturnProfile:
    """Return times n_k, their maximal depths m_k, and match ends t_k.

    n_k are the positions where the first digit recurs; m_k is the largest n
    with |T^(n_k) x - x| < beta^-(n - n_k); t_k ends the maximal block after
    n_k that copies the prefix.  With ``monotone`` the subsequence keeping
    m_k - n_k non-decreasing was selected.
    """

    n_seq: list[int]
    m_seq: list[int]
    t_seq: list[int]
    monotone: bool
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.n_seq)

    def gaps(self) -> list[int]:
        return [m - n for n, m in zip(self.n_seq, self.m_seq)]


def _depth_from_lambda(view: OrbitView, n: int) -> tuple[Optional[int], bool]:
    """m - n = ceil(lambda) - 1, certified; None when censored."""
    lam = neg_log_distance(view, n)
    if lam.censored:
        return None, True
    g_lo = math.ceil(lam.lo) - 1
    g_hi = math.ceil(lam.hi) - 1
    if g_lo == g_hi:
        return g_lo, False
    # an integer sits inside the lambda interval: settle the boundary exactly
    s = math.ceil(lam.hi) - 1
    cmp = compare_distance_power(view, n, s)
    # dist < beta^-s  <=> lambda > s <=> gap >= s
    return (s if cmp < 0 else s - 1), False


def extract_returns(view: OrbitView, K: int, monotone: bool = True,
                    search_limit: Optional[int] = None) -> ReturnProfile:
    """First K return-profile entries: first-digit recurrences with depths.

    Returns an explicitly truncated profile when the digit budget runs out
    before K entries are certified.
    """
    depth = view.ensure(search_limit or max(view.depth, 4096))
    limit = min(search_limit or depth, depth)
    if _check_periodic(view, max(64, limit // 2)):
        raise PeriodicPointError("periodic point")
    first = view.digit(0)
    n_seq: list[int] = []
    m_seq: list[int] = []
    t_seq: list[int] = []
    best_gap = -1
    n = 0
    truncated = False
    while len(n_seq) < K:
        n += 1
        if n >= limit:
            truncated = True
            break
        if view.digit(n) != first:
            continue
        gap, censored = _depth_from_lambda(view, n)
        if censored:
            truncated = True
            break
        if monotone and gap <= best_gap:
            continue
        best_gap = gap
        t = n + view.z(n)
        n_seq.append(n)
        m_seq.append(n + gap)
        t_seq.append(t)
    return ReturnProfile(n_seq, m_seq, t_seq, monotone, truncated)


def verify_bracketing(view: OrbitView, profile: ReturnProfile, k: int) -> bool:
    """Certified check of beta^-(m-n)-1 <= |T^n x - x| < beta^-(m-n)."""
    n = profile.n_seq[k]
    g = profile.m_seq[k] - n
    upper = compare_distance_power(view, n, g)   # dist vs beta^-g: need < 0
    lower = compare_distance_power(view, n, g + 1)  # dist vs beta^-(g+1): need >= 0
    return upper < 0 and lower >= 0


class PrefixForm(enum.Enum):
    OVERLAP = "overlap"
    BORROW = "borrow"
    CARRY = "carry"


def classify_prefix(view: OrbitView, k: int, profile: ReturnProfile) -> PrefixForm:
    """Which structural form the length-m_k prefix takes, verified literally.

    Overlap: the block after n_k copies the prefix through m_k.
    Carry: the next digit rises by one and zeros follow through m_k
    (exactly forced by the distance window).
    Borrow: the next digit drops by one and the remaining positions up to
    m_k stay at most the reference sequence (the expansion of 1) in
    lexicographic order.  The reference digits themselves appear when the
    point's own tail vanishes at that scale; the distance window otherwise
    admits the slightly smaller neighbours, so the lex bound is the
    provable literal content.
    """
    n = profile.n_seq[k]
    m = profile.m_seq[k]
    t = profile.t_seq[k]
    w = tuple(view.digits(max(m, t + 1) + 1))
    if w[n : n + min(t, m) - n] != w[: min(t, m) - n]:
        raise FormViolationError("form violation")
    if t >= m:
        return PrefixForm.OVERLAP
    d_ref = w[t - n]
    d_here = w[t]
    tail = w[t + 1 : m]
    ell = m - t - 1
    if d_here == d_ref + 1 and all(d == 0 for d in tail):
        return PrefixForm.CARRY
    if d_here == d_ref - 1 and tail <= view.ctx.eps_star(ell):
        return PrefixForm.BORROW
    raise FormViolationError("form violation")


# ---------------------------------------------------------------------------
# exponent estimates
# ---------------------------------------------------------------------------


@dataclass
class ExponentEstimate:
    """An exponent estimate plus the raw per-n series it came from.

    ``value`` is math.inf exactly when the stream was detected periodic;
    ``neg_log`` holds midpoint values of -log_beta |T^n x - x| (nan where
    censored), 1-indexed by return time n.
    """

    value: float
    n_max: int
    window: tuple[int, int]
    neg_log: list[float] = field(repr=False, default_factory=list)
    censored: int = 0

    def ratios(self) -> list[float]:
        return [lam / n for n, lam in enumerate(self.neg_log, start=1)]


def _lambda_series(view: OrbitView, n_max: int,
                   scan_steps: int = 48) -> tuple[list[float], np.ndarray, int]:
    """Midpoints of -log_beta |T^n x - x| for n = 1..n_max, batched.

    A fixed number of float recurrence steps settles the vast majority of
    positions at once; positions that cancel too deeply, dip and recover
    (where the float recurrence loses precision), or run off the stream are
    recomputed with the exact per-position routine.  Returns the series as
    a list and as an array, and the number of censored positions.
    """
    cache = getattr(view, "_lambda_cache", None)
    if cache is not None and cache[0] == n_max:
        return cache[1], cache[2], cache[3]
    n_arr = np.arange(1, n_max + 1)
    # make sure every position can see its whole match plus the scan window
    probe = 0
    while True:
        depth = view.ensure(max(n_max + 256, 2 * view.depth if probe else 0))
        if depth <= n_max:
            raise IndexError(f"digit stream of depth {depth} is too short "
                             f"for n_max {n_max}")
        j_arr = view.z_values()[1 : n_max + 1]
        need = int((n_arr + j_arr).max()) + 1 + scan_steps
        if need <= depth or view._stream is None or depth >= 1 << 21:
            break
        probe += 1
        view.ensure(need)
    depth = view.depth
    amax = max(view.ctx.alphabet_max, 1)
    # zero padding past the stream: positions that read it are discarded below
    dtype = np.int8 if amax <= 127 else np.int64
    d = np.zeros(depth + scan_steps + 1, dtype=dtype)
    d[:depth] = view._digits
    beta_f = view.ctx.beta_float()
    tail = amax / (beta_f - 1.0)
    s = np.zeros(n_max, dtype=np.float64)
    max_abs = np.zeros(n_max, dtype=np.float64)
    ia = n_arr + j_arr
    ib = j_arr.copy()
    bad = ia + (scan_steps - 1) >= depth
    for _ in range(scan_steps):
        s *= beta_f
        s += d[ia] - d[ib]
        np.maximum(max_abs, np.abs(s), out=max_abs)
        ia += 1
        ib += 1
    abs_s = np.abs(s)
    ok = (~bad) & (abs_s > (1 << 20) * tail) & (max_abs < (1 << 20) * abs_s)
    lam = np.full(n_max, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam[ok] = j_arr[ok] + scan_steps - np.log(abs_s[ok]) / math.log(beta_f)
    censored = 0
    for idx in np.nonzero(~ok)[0]:
        lb = neg_log_distance(view, int(idx) + 1)
        if lb.censored:
            censored += 1
        else:
            lam[idx] = (lb.lo + lb.hi) / 2.0
    out = lam.tolist()
    view._lambda_cache = (n_max, out, lam, censored)
    return out, lam, censored


def _check_periodic(view: OrbitView, n_max: int) -> bool:
    """Whether the stream looks periodic; decided once per (n_max, depth).

    The verdict is a function of n_max and the depth the check starts from,
    so it is kept on the view under that key.
    """
    key = (n_max, view.depth)
    if view._periodic is not None and view._periodic[0] == key:
        return view._periodic[1]
    view.ensure(2 * n_max)
    periodic = digit_period(view, view.depth) is not None
    if periodic and view._stream is not None:
        # extend: a genuine period survives, an artefact of shallow depth won't
        view.ensure(4 * view.depth)
        periodic = digit_period(view, view.depth) is not None
    view._periodic = (key, periodic)
    return periodic


def _estimate(view: OrbitView, n_max: int,
              reduce: Callable[[np.ndarray, np.ndarray], float]) -> ExponentEstimate:
    """The steps both exponent estimates share, around their own reduction.

    After the n_max check and the periodicity sentinel, ``reduce(lam, ns)``
    gets the whole series, with censored and non-positive entries read as
    +0.0, and the return times ns of the tail window [n_max/2, n_max];
    ``lam[ns[0] - 1:]`` is the series over that window.
    """
    if n_max < 10:
        raise ValueError("n_max too small")
    window = (n_max // 2, n_max)
    if _check_periodic(view, n_max):
        return ExponentEstimate(math.inf, n_max, window)
    series, lam, censored = _lambda_series(view, n_max)
    positive = np.where(lam > 0, lam, 0.0)  # censored (nan) entries fail the test
    value = float(reduce(positive, np.arange(window[0], n_max + 1)))
    return ExponentEstimate(value, n_max, window, series, censored)


def estimate_r(view: OrbitView, n_max: int) -> ExponentEstimate:
    """Asymptotic recurrence exponent: sup-rate along a subsequence.

    Proxy for the limsup of -log_beta |T^n x - x| / n: the maximum over the
    tail window [n_max/2, n_max], which discards small-n transients.
    """
    return _estimate(view, n_max, lambda lam, ns: (lam[ns[0] - 1:] / ns).max())


def estimate_r_hat(view: OrbitView, n_max: int) -> ExponentEstimate:
    """Uniform recurrence exponent: the rate guaranteed inside every window.

    Proxy for the liminf over N of max_(n<=N) -log_beta |T^n x - x| / N,
    taking the min over the tail window [n_max/2, n_max].
    """
    return _estimate(view, n_max, lambda lam, ns: (
        np.maximum.accumulate(lam)[ns[0] - 1:] / ns).min())


# ---------------------------------------------------------------------------
# word indices and the near-periodic families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WordIndices:
    """Return positions s_k inside a finite word, their block ends t_k, and
    the count k of positions strictly inside the word."""

    s_seq: tuple[int, ...]
    t_seq: tuple[int, ...]
    k: int


def word_indices(w: Word) -> WordIndices:
    """Positions where the first digit recurs inside w, with maximal blocks.

    s_1 is the first i < n with w_(i+1) = w_1 (n when none exists); each
    next s is the first such position strictly beyond the previous one.  For
    s_k < n, t_k ends the longest block starting at s_k+1 that copies the
    prefix.  k counts the s_k strictly inside the word.
    """
    n = len(w)
    if n < 1:
        raise ValueError("word must be non-empty")
    s_seq: list[int] = []
    t_seq: list[int] = []
    z = z_array(list(w))
    prev = 0
    while True:
        s = next((i for i in range(prev + 1, n) if w[i] == w[0]), n)
        s_seq.append(s)
        if s == n:
            break
        t_seq.append(s + z[s])
        prev = s
    return WordIndices(tuple(s_seq), tuple(t_seq), len(t_seq))


def _perturbations(w: Word, r_floor: int, ctx: BetaContext) -> set[Word]:
    """One application of the prefix-perturbation step to w."""
    from .symbolic import is_admissible

    n = len(w)
    idx = word_indices(w)
    bfloor = ctx.alphabet_max + (1 if isinstance(ctx.exact, Fraction)
                                 and ctx.exact.denominator == 1 else 0)
    star = ctx.eps_star(r_floor * n + 1)
    out: set[Word] = {w}
    if idx.k == 0:
        anchors = [(0, w[0])] if n else []
    else:
        anchors = [(t, w[t]) for t in idx.t_seq if t < n]
    for a in range(1, r_floor + 2):
        base = w * a
        for t, d in anchors:
            head = w[:t]
            for jj in range(0, r_floor * n + 1):
                if d > 0:
                    out.add(base + head + (d - 1,) + star[:jj])
                if d < bfloor:
                    out.add(base + head + (min(d + 1, ctx.alphabet_max),) + (0,) * jj)
    return {v for v in out if is_admissible(v, ctx)}


def near_periodic_family(w: Word, r, levels: int, ctx: BetaContext,
                         budget: int = 50_000) -> set[Word]:
    """Members of the recursive perturbation families M_1(w) .. M_levels(w).

    These finite families of admissible words exhaust the possible prefixes
    of expansions whose returns overlap too strongly (the countable regime);
    each level applies the perturbation step to all previous members and
    injects the next plain repetition of w.
    """
    from .symbolic import is_admissible

    if levels < 1 or levels > 3:
        raise ValueError("levels must be within 1..3")
    r_floor = int(math.floor(r))
    current = _perturbations(w, r_floor, ctx)
    if is_admissible(w * 2, ctx):
        current.add(w * 2)
    for level in range(2, levels + 1):
        nxt: set[Word] = set()
        for v in current:
            nxt |= _perturbations(v, r_floor, ctx)
            if len(nxt) > budget:
                raise RuntimeError("perturbation family exceeds budget")
        rep = w * (level + 1)
        if is_admissible(rep, ctx):
            nxt.add(rep)
        current |= nxt
    return current
