"""Orbit recurrence: distances |T^n x - x|, the two recurrence exponents,
return-depth profiles, and the digit-structure forced by a deep return.

The orbit of x under T(y) = beta*y mod 1 is the shift on its digit stream,
so every distance |T^n x - x| is controlled by the longest common prefix of
the stream and its shift (one Z-array computes all of them) together with
the value of the difference series past the first disagreement.  Float
scans of 48 difference digits settle most positions: return depths through
a certified bound on a dot product's error, the exponent series through a
margin test.  The rest, where the series cancels deeply, take the exact
walk over elements of Q(beta).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .expansion import (
    BetaContext,
    _sign_minus_power,
    beta_power_bounds,
    orbit_digit_stream,
    word_value_fraction,
)
from .numerics import BoundedReal


class PeriodicPointError(ValueError):
    """The digit stream is periodic: both exponents are infinite."""


class FormViolationError(AssertionError):
    """A return prefix matched none of the three structural forms."""


class StreamTooShortError(IndexError):
    """A digit view holds too few digits for the requested window."""


def _digit_dtype(ctx: BetaContext) -> type:
    return np.int8 if ctx.alphabet_max <= 127 else np.int64


# positions whose match with the prefix is shorter than this are settled by
# whole-array comparisons; the next _Z_WINDOW digits of the others are read
# by one gather per block of _Z_GATHER of them, and only those that match the
# whole window (or reach the end) go through the Z-box recursion
_Z_VECTOR_STEPS = 8
_Z_WINDOW = 64
_Z_GATHER = 1024


def _extend_match(a: np.ndarray, i: int, z: int) -> int:
    """Largest m >= z with a[:m] == a[i:i+m], given that a[:z] == a[i:i+z].

    Compares slices in chunks that double, so a long match costs a few
    numpy calls and a short one a single small comparison.
    """
    n = a.shape[0]
    step = 64
    while i + z < n:
        end = min(z + step, n - i)
        diff = a[z:end] != a[i + z : i + end]
        k = int(diff.argmax())
        if diff[k]:
            return z + k
        z = end
        step *= 2
    return z


def _settle_window(a: np.ndarray, z: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Settle the positions of block whose match ends within the window;
    returns the others, in order.

    Every position of block matches the first K = ``_Z_VECTOR_STEPS`` digits
    and z holds K there.  Its window a[i+K : i+K+W] is gathered and compared
    with a[K : K+W], so its first difference gives the exact match length.
    A position whose window matches throughout keeps K + W as a known match
    length, and one whose window runs past the end keeps K.
    """
    K, W = _Z_VECTOR_STEPS, _Z_WINDOW
    far = int(np.searchsorted(block, a.shape[0] - K - W, side="right"))
    if not far:
        return block
    i = block[:far]
    diff = a[i[:, None] + np.arange(K, K + W)] != a[K : K + W]
    first = diff.argmax(axis=1)
    settled = diff[np.arange(far), first]
    z[i] += np.where(settled, first, W)
    return np.concatenate((i[~settled], block[far:]))


def z_array(seq) -> np.ndarray:
    """z[i] = length of the longest common prefix of seq and seq[i:].

    Returns an int64 array.  The first phase settles, with
    ``_Z_VECTOR_STEPS`` whole-array comparisons, every position whose match
    is shorter than that.  The other positions are taken in increasing
    order through the Z-box recursion (Gusfield, *Algorithms on Strings,
    Trees and Sequences*, 1997, sec. 1.4).  A match of length m at i makes
    seq[:i + m] i-periodic, so inside that box z[j] follows from
    z[j mod i] for all j at once; only the positions whose mirrored match
    reaches the box edge are extended one by one.  So a match that runs to
    the end of the stream settles every later position in one step.

    Positions past the current box are first read ``_Z_WINDOW`` digits
    further, a block at a time (``_settle_window``), and those whose match
    ends there are final and skipped.  Settled positions are exact, so the
    box's reads of z[j mod i] stay final; a position that a box covers
    before its block is read is never gathered.
    """
    a = np.asarray(seq)
    n = a.shape[0]
    z = np.zeros(n, dtype=np.int64)
    if n == 0:
        return z
    z[0] = n
    K = _Z_VECTOR_STEPS
    alive = np.ones(n, dtype=bool)
    alive[0] = False
    for k in range(min(K, n)):
        alive[n - k:] = False
        alive[1 : n - k] &= a[1 + k : n] == a[k]
        z += alive
    todo = np.flatnonzero(alive)  # z >= K: z holds K, a known match length
    undecided: deque[int] = deque()  # inside a box, z holds the box bound
    # todo[:p] are read or inside a box; block[b:] are the open positions of
    # the last block read, all below todo[p]
    block = todo[:0]
    b = p = r = 0
    while True:
        if undecided:
            i = undecided.popleft()
        else:
            while b == block.shape[0]:
                if p == todo.shape[0]:
                    return z
                block, b = _settle_window(a, z, todo[p : p + _Z_GATHER]), 0
                p = min(p + _Z_GATHER, todo.shape[0])
            i = int(block[b])
            b += 1
        end = i + _extend_match(a, i, max(int(z[i]), K))
        z[i] = end - i
        if end > r:
            # every position below i is final; in the new part of the box,
            # z[j] = z[j mod i] when that is shorter than end - j, and
            # end - j when longer, as a[end] != a[end - i] or end = n
            c = int(np.searchsorted(block, end))
            q = max(p, int(np.searchsorted(todo, end)))
            j = np.concatenate((block[b:c], todo[p:q]))
            zk = z[j % i]
            z[j] = np.minimum(zk, end - j)
            undecided.extend(j[zk == end - j].tolist())
            b, p, r = c, q, end


# ---------------------------------------------------------------------------
# orbit views
# ---------------------------------------------------------------------------


class OrbitView:
    """A point of [0, 1) seen through its digit stream.

    Point-backed views (``from_point``) extend their stream on demand.
    Digit-backed views (``from_digits``) carry a fixed stream and stand for
    its left endpoint, i.e. the digits continue with zeros; analyses must
    stay below the supplied depth to say anything about the intended point.

    The available stream is also held as one numpy array (int8 when the
    alphabet fits), and its Z-array as one int64 array; each is rebuilt only
    when the stream has grown.
    """

    def __init__(self, ctx: BetaContext, digits: list[int],
                 point: Optional[Fraction], stream):
        self.ctx = ctx
        self._digits = digits
        self._point = point
        self._stream = stream
        self._arr: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._periodic: Optional[tuple[tuple[int, int], bool]] = None

    @classmethod
    def from_point(cls, ctx: BetaContext, x) -> "OrbitView":
        x = Fraction(x)
        return cls(ctx, [], x, orbit_digit_stream(ctx, x))

    @classmethod
    def from_digits(cls, ctx: BetaContext, digits) -> "OrbitView":
        digits = list(digits)
        arr = np.array(digits)
        # floats, strings and integers past 64 bits (dtype object) are rejected
        if digits and (arr.dtype.kind not in "iu"
                       or arr.min() < 0 or arr.max() > ctx.alphabet_max):
            raise ValueError("digit out of alphabet")
        view = cls(ctx, digits, None, None)
        view._arr = arr.astype(_digit_dtype(ctx), copy=False)
        return view

    @classmethod
    def _from_word(cls, ctx: BetaContext, word: tuple[int, ...]) -> "OrbitView":
        """A digit view of a word known to lie in the alphabet, unchecked;
        when the digits fit int8, the array is one ``bytes`` copy of word."""
        view = cls(ctx, list(word), None, None)
        if _digit_dtype(ctx) is np.int8:
            view._arr = np.frombuffer(bytes(word), dtype=np.int8)
        return view

    @property
    def depth(self) -> int:
        return len(self._digits)

    def ensure(self, n: int) -> int:
        """Extend the stream to at least n digits where possible; returns depth.

        The one depth rule: a point view grows to at least twice its depth
        and 256 digits, but never past ``_SCAN_CAP`` by doubling; a larger n
        is served in full.  Digit views never grow.
        """
        if self._stream is not None and len(self._digits) < n:
            target = max(n, min(2 * len(self._digits), _SCAN_CAP), 256)
            self._stream.extend(self._digits, target - len(self._digits))
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

    def _digit_array(self) -> np.ndarray:
        """The available stream as a numpy array, built once per depth."""
        if self._arr is None or self._arr.shape[0] != len(self._digits):
            self._arr = np.array(self._digits, dtype=_digit_dtype(self.ctx))
        return self._arr

    def z_values(self) -> np.ndarray:
        """The Z-array of the available stream, as a read-only array."""
        if self._z is None or self._z.shape[0] != len(self._digits):
            self._z = z_array(self._digit_array())
            self._z.flags.writeable = False
        return self._z

    def z(self, n: int) -> int:
        """Common prefix length of the stream and its shift by n, as available."""
        return int(self.z_values()[n])

    def z_censored(self, n: int) -> bool:
        return n + self.z(n) >= len(self._digits)


def digit_period(view: OrbitView) -> Optional[int]:
    """Smallest period of the digits the view holds, up to half its depth.

    Extends nothing.  A reported period is evidence of a periodic point, not
    a proof; both recurrence exponents degenerate to infinity on periodic
    points, so they are handled separately.
    """
    d = view.depth
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


# neg_log_distance first asks for this many digits past n and stops once the
# partial sum exceeds 2**_CERTAINTY_BITS times its tail bound; OrbitView.ensure
# doubles a point view's depth up to _SCAN_CAP digits, and readers censor there
# (a guard for periodic points, whose matches never end)
_LOOKAHEAD = 64
_CERTAINTY_BITS = 24
_SCAN_CAP = 1 << 21
# float steps of the batched difference scan; _lambda_series keeps a float
# midpoint when |s| exceeds _FLOAT_MARGIN times the tail bound
_SCAN_STEPS = 48
_FLOAT_MARGIN = 1 << 20


def neg_log_distance(view: OrbitView, n: int) -> LambdaBounds:
    """Bounds on -log_beta |T^n x - x| from the digit stream.

    Scans difference digits past the first disagreement until the scaled
    partial sum provably dominates every possible tail, then converts to
    bounds; runs off the available stream (or the scan cap, which protects
    against periodic points) => censored, only a lower bound.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if view.ensure(n + _LOOKAHEAD) <= n:
        raise ValueError("insufficient digit depth")
    # while the match at n runs to the end, ask for one digit more
    while view.z_censored(n) and view.depth < _SCAN_CAP:
        depth = view.depth
        if view.ensure(depth + 1) == depth:
            break  # a digit view holds no more
    j = view.z(n)
    amax = max(view.ctx.alphabet_max, 1)
    beta_f = view.ctx.beta_float()
    lb = math.log2(beta_f)
    tail_bound = amax * beta_f / (beta_f - 1.0)
    log2_tail = math.log2(tail_bound)
    acc = view.ctx._element(0)
    L = 0
    digits = view._digits
    base = view.depth
    while True:
        ia = n + j + L
        ib = j + L
        if ia >= base:
            if base < _SCAN_CAP:
                base = view.ensure(ia + 1)  # extends digits in place
            if ia >= base:
                # stream exhausted: the distance may be anything below the bound
                log2s = acc.log2_abs()
                lo_val = (j + L - (log2s + 1.0) / lb) if log2s is not None else float(j + L)
                return LambdaBounds(lo=lo_val, hi=math.inf, censored=True, match_len=j)
        acc.push(digits[ia] - digits[ib])
        L += 1
        if L % 16 == 0 or L < 8:
            log2s = acc.log2_abs()
            if log2s is not None and log2s > log2_tail + _CERTAINTY_BITS:
                ratio = 2.0 ** (log2_tail - log2s)
                lam = j + L - log2s / lb
                spread = math.log2(1.0 + ratio) / lb
                down = -math.log2(1.0 - ratio) / lb
                return LambdaBounds(lo=lam - spread, hi=lam + down,
                                    censored=False, match_len=j)


# positions per block of the difference scans: a block's working arrays
# (the 48 x block digit differences, as float64 in _dot_scan) stay near 6 MB
_SCAN_CHUNK = 1 << 14


def _difference_scan(d: np.ndarray, beta_f: float, ia: np.ndarray,
                     ib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float difference recurrence s <- beta_f s + d[ia + i] - d[ib + i], batched.

    Each position starts from s = 0 and reads one digit pair a step for
    ``_SCAN_STEPS`` = 48 steps, so s approximates S = sum_(i<48) c_i
    beta^(47-i) with c_i = d[ia + i] - d[ib + i].  Positions run in blocks
    of ``_SCAN_CHUNK``, all 48 steps on one block before the next: a block
    gathers the 48-digit windows of d at its ia and at its ib (one row copy
    per position), takes their difference once, and step i adds row i of
    its transpose.  ia and ib are not changed.
    Returns s and the running maximum of |s|.
    """
    s = np.zeros(ia.shape[0], dtype=np.float64)
    max_abs = np.zeros(ia.shape[0], dtype=np.float64)
    if not ia.shape[0]:
        return s, max_abs  # d may be shorter than one window
    windows = sliding_window_view(d, _SCAN_STEPS)
    for lo in range(0, ia.shape[0], _SCAN_CHUNK):
        part = slice(lo, lo + _SCAN_CHUNK)
        sc, mc = s[part], max_abs[part]
        # row i holds c_i of every position in the block
        diffs = (windows[ia[part]] - windows[ib[part]]).T.copy()
        for c in diffs:
            sc *= beta_f
            sc += c
            np.maximum(mc, np.abs(sc), out=mc)
    return s, max_abs


def _difference(view: OrbitView, n: int):
    """T^n x - x as an exact element of Q(beta), by Horner over the first n
    digits: T^n x = beta^n x - sum_(i<=n) d_i beta^(n-i)."""
    x = view.point_fraction()
    d = view.ctx._element(x)
    for digit in view.digits(n):
        d.push(-digit)
    d.sub(view.ctx._element(x))
    return d


def recurrence_distance(view: OrbitView, n: int) -> BoundedReal:
    """|T^n x - x| as an enclosure; exact (radius 0) for rational bases."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if view.ctx.beta_fraction is not None:
        d = _difference(view, n)
        return BoundedReal.exact(Fraction(abs(d.num), d.den))
    lam = neg_log_distance(view, n)
    if lam.censored:
        _, hi = beta_power_bounds(view.ctx, -int(math.floor(lam.lo)))
        return BoundedReal.from_endpoints(0, hi)
    lo_pow, _ = beta_power_bounds(view.ctx, -int(math.floor(lam.hi)) - 1)
    _, hi_pow = beta_power_bounds(view.ctx, -int(math.floor(lam.lo)))
    return BoundedReal.from_endpoints(lo_pow, hi_pow)


def compare_distance_power(view: OrbitView, n: int, s: int) -> int:
    """Exact sign of |T^n x - x| - beta^-s  (-1, 0, or 1), for any integer s.

    A digit view stands for its left endpoint: digits past its depth read as
    0.  On a rational base p/q, with j = z(n),
    T^n x - x = beta^-(j+L) (S_L + R_L), S_L = sum_(i<L) c_i beta^(L-1-i),
    c_i = d_(n+j+i) - d_(j+i) and |R_L| <= amax q/(p - q).  The digits are
    read from j on until |S_L| -+ that tail bound lies on one side of
    beta^(j+L-s), all in integers; once j + L reaches the depth the tail is
    exactly 0, so a tie is settled exactly.  Otherwise the difference D is
    one exact element of Q(beta), and |D| beta^s - 1 is decided as
    sign(D) (D beta^s - sign(D)), with the power of beta moved to the other
    side when s < 0.  That needs the exact point, so a digit view on an
    algebraic base raises ValueError.
    """
    beta = view.ctx.beta_fraction
    if beta is not None and view._stream is None and 0 < n < view.depth:
        return _compare_left_endpoint(view, n, s, beta)
    d = _difference(view, n)
    sign = d.sign()
    if sign == 0:
        return -1
    return sign * _sign_minus_power(view.ctx, d, -s, sign)


def _compare_left_endpoint(view: OrbitView, n: int, s: int, beta: Fraction) -> int:
    """compare_distance_power on a digit view over a rational base."""
    p, q = beta.numerator, beta.denominator
    digits = view._digits
    depth = len(digits)
    tail = max(view.ctx.alphabet_max, 1) * q  # the tail bound times p - q
    acc = view.ctx._element(0)
    i = view.z(n)
    while True:
        acc.push((digits[n + i] if n + i < depth else 0) - digits[i])
        i += 1
        # with S = acc.num/acc.den and beta^(i-s) = num/den, compare
        # |S| -+ amax q/(p - q) with num/den, all times (p - q) den acc.den
        e = i - s
        num, den = (p**e, q**e) if e >= 0 else (q**-e, p**-e)
        lhs = abs(acc.num) * (p - q) * den
        rhs = num * (p - q) * acc.den
        if i >= depth:
            return (lhs > rhs) - (lhs < rhs)
        slack = tail * den * acc.den
        if lhs - slack > rhs:
            return 1
        if lhs + slack < rhs:
            return -1


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


def _roots_inside(p: list[int]) -> Optional[int]:
    """How many roots of sum p[k] z^k lie inside the unit circle; None
    when one may lie on it.

    The Schur-Cohn recursion, exact in integers: with P*(z) = z^n P(1/z),
    T = p_0 P - p_n P* has lower degree, and as many roots inside as P when
    |p_0| > |p_n|, or as many as P has outside when |p_0| < |p_n|.  A root
    on the circle is a root of every T down the chain, so it shows as a tie
    |p_0| = |p_n| at some step.
    """
    n = len(p) - 1
    if n == 0:
        return 0
    a0, an = abs(p[0]), abs(p[-1])
    if a0 == an:
        return None
    t = [p[0] * x - p[-1] * y for x, y in zip(p, reversed(p))]
    while t[-1] == 0:  # t[0] = p_0^2 - p_n^2 is not 0
        t.pop()
    k = _roots_inside(t)
    return None if k is None else (k if a0 > an else n - k)


def _is_pisot(poly: tuple[int, ...]) -> bool:
    """Whether every root of poly but one has modulus below 1023/1024.

    Counts the roots of poly(1023 z / 1024) inside the unit circle; the
    smaller radius keeps units such as the golden ratio off the tie.
    """
    n = len(poly) - 1
    scaled = [c * 1023**k * 1024 ** (n - k) for k, c in enumerate(poly)]
    return _roots_inside(scaled) == n - 1


_UNIT = Fraction(1, 1 << 53)  # unit roundoff of a float64
_GAMMA = _SCAN_STEPS * _UNIT / (1 - _SCAN_STEPS * _UNIT)  # see _batch_gaps


def _dot_scan(ctx: BetaContext, d: np.ndarray, ia: np.ndarray,
              ib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = C @ P and err = |C| @ D in blocks of ``_SCAN_CHUNK`` rows, with
    C[:, i] = d[ia + i] - d[ib + i] for i < 48; P and D (see ``_batch_gaps``)
    are made once per context and kept on it."""
    weights = getattr(ctx, "_scan_weights", None)
    if weights is None:
        b, dbeta = map(Fraction, ctx.beta_float_bound())
        P, D = [], []
        for k in range(_SCAN_STEPS - 1, -1, -1):
            p = Fraction(float(b**k))
            bound = ((b + dbeta)**k - b**k + abs(b**k - p) + _GAMMA * p) * (1 + 2 * _GAMMA)
            P.append(float(p))
            D.append(math.nextafter(float(bound), math.inf))
        weights = ctx._scan_weights = (np.array(P), np.array(D))
    P, D = weights
    s, err = np.empty(ia.shape[0]), np.empty(ia.shape[0])
    windows = sliding_window_view(d, _SCAN_STEPS)
    for lo in range(0, ia.shape[0], _SCAN_CHUNK):
        part = slice(lo, lo + _SCAN_CHUNK)
        c = np.subtract(windows[ia[part]], windows[ib[part]], dtype=np.float64)
        np.matmul(c, P, out=s[part])
        np.matmul(np.abs(c, out=c), D, out=err[part])
    return s, err


def _batch_gaps(view: OrbitView, ns: np.ndarray) -> np.ndarray:
    """ceil(lambda) - 1 at each return time in ns that the float filter
    settles, under conditions (a)-(c) of ``extract_returns``; -1 at the
    others.

    With j = z(n) and c_i = d_(n+j+i) - d_(j+i), exact as floats, the
    filter takes S = sum_(i<48) c_i beta^(47-i) as one dot product
    s = fl(sum c_i P_i) (``_dot_scan``), P_i the float nearest beta_f^k,
    k = 47 - i.  Then
      |S - s| <= sum |c_i| |beta^k - P_i| + |sum c_i P_i - s|
              <= sum |c_i| (e_i + gamma P_i),
    where e_i = (beta_f + dbeta)^k - beta_f^k + |beta_f^k - P_i| bounds
    |beta^k - P_i| for dbeta >= |beta - beta_f| (``beta_float_bound``), and
    gamma = 48u/(1 - 48u), u = 2^-53, bounds a 48-term float dot product in
    every order of summation (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1), so in any order BLAS takes.  err is that sum in
    floats, sum |c_i| D_i with D_i = (e_i + gamma P_i)(1 + 2 gamma) taken in
    Fractions and rounded up: a float sum of nonnegative terms is at least
    1 - gamma times the exact one, and (1 - gamma)(1 + 2 gamma) >= 1.
    On an algebraic base that is not Pisot, the float value of S_L inside
    ``neg_log_distance`` can lose many bits, so nothing is settled; nor past
    beta = 2^20, where beta^48 leaves the float range.
    """
    gaps = np.full(ns.shape[0], -1, dtype=np.int64)
    ctx = view.ctx
    beta_f = ctx.beta_float()
    if (ctx.beta_fraction is None and not _is_pisot(ctx.exact.poly)) or beta_f > 2.0**20:
        return gaps
    depth = view.depth
    j = view.z_values()[ns]
    sel = np.flatnonzero((ns + _LOOKAHEAD <= depth) & (ns + j + _SCAN_STEPS <= depth))
    if not sel.size:
        return gaps  # the view may be shorter than one window
    j = j[sel]
    s, err = _dot_scan(ctx, view._digit_array(), ns[sel] + j, j)
    tail = max(ctx.alphabet_max, 1) / (beta_f - 1.0)
    abs_s = np.abs(s)
    low = abs_s - err - tail
    stops = low > (1.0 + 1e-9) * 2.0**_CERTAINTY_BITS * tail * beta_f
    lb = math.log(beta_f)
    slack = 1e-9 - 2.0 * math.log1p(-(2.0**-_CERTAINTY_BITS)) / lb
    top = j[stops] + _SCAN_STEPS
    lam_lo = top - np.log(abs_s[stops] + err[stops] + tail) / lb - slack
    lam_hi = top - np.log(low[stops]) / lb + slack
    g = np.ceil(lam_lo) - 1
    same = g == np.ceil(lam_hi) - 1
    gaps[sel[stops][same]] = g[same]
    return gaps


def _return_gaps(view: OrbitView, ns: np.ndarray):
    """Yield (n, gap) for each return time in ns, in order; gap is None
    when censored.  See ``extract_returns``."""
    start, size = 0, 256
    while start < ns.shape[0]:
        chunk = ns[start : start + size]
        for n, gap in zip(chunk.tolist(), _batch_gaps(view, chunk).tolist()):
            if gap < 0:
                gap, censored = _depth_from_lambda(view, n)
                if censored:
                    gap = None
            yield n, gap
        start += size
        size *= 2


def extract_returns(view: OrbitView, K: int, monotone: bool = True,
                    search_limit: Optional[int] = None) -> ReturnProfile:
    """First K return-profile entries: first-digit recurrences with depths.

    The return times are the n in [1, limit) with d_n = d_0, where limit is
    the search limit or else the depth.  One float dot product of 48
    difference digits with the powers of beta, with a certified bound err
    on its error (``_batch_gaps`` derives it), settles the gap of each n for
    which all of these hold:
    (a) n + 64 <= depth and n + z(n) + 48 <= depth;
    (b) the lower bound |s| - err - amax/(beta - 1) of |S_48| exceeds 2^24
        times ``neg_log_distance``'s tail bound amax beta/(beta - 1);
    (c) the lambda interval from |s| -+ (err + amax/(beta - 1)), widened by
        1e-9 and by the width of ``neg_log_distance``'s own interval, gives
        one value of ceil(lambda) - 1.
    By (a) and (b) ``neg_log_distance`` would read no digit past the depth
    and would stop by L = 48, uncensored; by (c) it would give the same gap
    with no exact comparison.  Every other n goes through
    ``_depth_from_lambda``, in order.  So the profile, its truncation and
    the digits a point view ends up holding are those of certifying every
    return time one by one.  The scan runs over chunks that double from 256
    return times, so a profile that fills early scans little.

    Returns an explicitly truncated profile when the return times run out,
    or a distance is censored, before K entries are certified.  Raises
    ValueError for K or a search limit below 1 and for a view of fewer than
    two digits.
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    if search_limit is not None and search_limit < 1:
        raise ValueError(f"search_limit must be at least 1, got {search_limit}")
    depth = view.ensure(search_limit or max(view.depth, 4096))
    if depth < 2:
        raise ValueError("insufficient digit depth")
    limit = min(search_limit or depth, depth)
    if _check_periodic(view, max(64, limit // 2)):
        raise PeriodicPointError("periodic point")
    arr = view._digit_array()
    gaps = _return_gaps(view, np.flatnonzero(arr[1:limit] == arr[0]) + 1)
    n_seq: list[int] = []
    m_seq: list[int] = []
    t_seq: list[int] = []
    best_gap = -1
    truncated = False
    while len(n_seq) < K:
        n, gap = next(gaps, (None, None))
        if gap is None:  # no return time left, or a censored one
            truncated = True
            break
        if monotone and gap <= best_gap:
            continue
        best_gap = gap
        n_seq.append(n)
        m_seq.append(n + gap)
        t_seq.append(n + view.z(n))
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
    ``lam`` holds midpoint values of -log_beta |T^n x - x| (nan where
    censored) for return times n = 1..n_max, as the read-only array the
    view caches (None on a periodic stream), and ``neg_log`` is the same
    series as a list of floats, made on first read.
    """

    value: float
    n_max: int
    window: tuple[int, int]
    lam: Optional[np.ndarray] = field(repr=False, default=None, compare=False)
    censored: int = 0

    @cached_property
    def neg_log(self) -> list[float]:
        return [] if self.lam is None else self.lam.tolist()


def _lambda_series(view: OrbitView, n_max: int) -> tuple[np.ndarray, int]:
    """Midpoints of -log_beta |T^n x - x| for n = 1..n_max, batched.

    A fixed number of float recurrence steps settles the vast majority of
    positions at once; positions that cancel too deeply, dip and recover
    (where the float recurrence loses precision), or run off the stream are
    recomputed with the exact per-position routine.  Returns the series as
    a read-only array, kept on the view, and the number of censored
    positions.
    """
    cache = getattr(view, "_lambda_cache", None)
    if cache is not None and cache[0] == n_max:
        return cache[1], cache[2]
    n_arr = np.arange(1, n_max + 1)
    depth = view.ensure(n_max + 256)
    if depth <= n_max:
        raise StreamTooShortError(f"digit stream of depth {depth} is too short "
                                  f"for n_max {n_max}")
    # ask for every position's whole match plus the scan window, until the
    # view holds them, reaches the cap or stops growing
    while True:
        j_arr = view.z_values()[1 : n_max + 1]
        need = int((n_arr + j_arr).max()) + 1 + _SCAN_STEPS
        if need <= depth or depth >= _SCAN_CAP or view.ensure(need) == depth:
            break
        depth = view.depth
    amax = max(view.ctx.alphabet_max, 1)
    # zero padding past the stream: positions that read it are discarded below
    arr = view._digit_array()
    d = np.zeros(depth + _SCAN_STEPS + 1, dtype=arr.dtype)
    d[:depth] = arr
    beta_f = view.ctx.beta_float()
    tail = amax / (beta_f - 1.0)
    ia = n_arr + j_arr
    bad = ia + (_SCAN_STEPS - 1) >= depth
    s, max_abs = _difference_scan(d, beta_f, ia, j_arr)
    abs_s = np.abs(s)
    ok = (~bad) & (abs_s > _FLOAT_MARGIN * tail) & (max_abs < _FLOAT_MARGIN * abs_s)
    lam = np.full(n_max, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam[ok] = j_arr[ok] + _SCAN_STEPS - np.log(abs_s[ok]) / math.log(beta_f)
    censored = 0
    for idx in np.nonzero(~ok)[0]:
        lb = neg_log_distance(view, int(idx) + 1)
        if lb.censored:
            censored += 1
        else:
            lam[idx] = (lb.lo + lb.hi) / 2.0
    lam.flags.writeable = False
    view._lambda_cache = (n_max, lam, censored)
    return lam, censored


def _check_periodic(view: OrbitView, n_max: int) -> bool:
    """Whether the stream looks periodic; decided once per (n_max, depth).

    The verdict is a function of n_max and the depth the check starts from,
    so it is kept on the view under that key.
    """
    key = (n_max, view.depth)
    if view._periodic is not None and view._periodic[0] == key:
        return view._periodic[1]
    view.ensure(2 * n_max)
    periodic = digit_period(view) is not None
    if periodic and view._stream is not None:
        # extend: a genuine period survives, an artefact of shallow depth won't
        view.ensure(4 * view.depth)
        periodic = digit_period(view) is not None
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
    lam, censored = _lambda_series(view, n_max)
    positive = np.where(lam > 0, lam, 0.0)  # censored (nan) entries fail the test
    value = float(reduce(positive, np.arange(window[0], n_max + 1)))
    return ExponentEstimate(value, n_max, window, lam, censored)


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
