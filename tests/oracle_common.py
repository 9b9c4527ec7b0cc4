"""Oracles and helpers that the per-layer oracle modules share: the interval
sign test of an element of Q(beta), the per-digit KMP walk that the
follower automaton's transition table replaced, and bases that more than
one layer checks.
"""

from betarec.expansion import BetaContext


CUBIC = (-1, -1, 0, 1)  # x^3 - x - 1, the smallest Pisot number


def algebraic_bases():
    return (BetaContext.golden(), BetaContext.from_root((-1, -1, 0, 1), 1, 2))


def parent_bases():
    """Bases of every kind: simple Parry (golden, x^3-x-1, the integers) and
    not (1.8, 2.5, 3.7, 7/5)."""
    bases = {"golden": BetaContext.golden(), "x^3-x-1": BetaContext.from_root(CUBIC, 1, 2)}
    for value in ("1.8", "2", "2.5", "3", "3.7", "7/5"):
        bases[value] = BetaContext.from_value(value)
    return bases


def oracle_element_sign(vec, root, bits=128):
    if all(c == 0 for c in vec):
        return 0
    while True:
        pows = root.power_bounds(bits)
        lo = hi = 0
        for c, (plo, phi) in zip(vec, pows):
            if c >= 0:
                lo += c * plo
                hi += c * phi
            else:
                lo += c * phi
                hi += c * plo
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
        if bits > 1 << 16:
            raise ArithmeticError("sign undecidable; polynomial may be reducible")


def outcome(call):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call()
    except ValueError as exc:  # PeriodicPointError included
        return type(exc).__name__, str(exc)


def oracle_failure_links(pattern):
    pi = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k > 0 and pattern[i] != pattern[k]:
            k = pi[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        pi[i] = k
    return pi


class OracleFollower:
    """The per-digit KMP walk that the transition table replaced: a digit
    above the reference digit rejects, an equal one advances, a smaller one
    falls back along the failure links of the (tripled, for a simple Parry
    base) reference sequence."""

    def __init__(self, ctx, depth):
        ctx.eps_star(min(depth, 64) + 1)
        if ctx.simple_parry is None:
            ctx.eps_star(depth + 1)
        period = ctx._star_period
        self.depth = depth
        self.period = None if period is None else len(period)
        self.pattern = list(period) * 3 if period is not None else list(ctx.eps_star(depth + 1))
        self.pi = oracle_failure_links(self.pattern)

    def _step_raw(self, lifted, c):
        e = self.pattern[lifted]
        if c > e:
            return None
        if c == e:
            return lifted + 1
        t = lifted
        while t > 0 and self.pattern[t] != c:
            t = self.pi[t - 1]
        return t + 1 if self.pattern[t] == c else 0

    def step(self, state, c):
        if c < 0:
            raise ValueError("digits are non-negative")
        if self.period is not None:
            t = self._step_raw(state + self.period, c)
            return None if t is None else t % self.period
        if state > self.depth:
            raise ValueError("automaton depth exceeded; rebuild deeper")
        return self._step_raw(state, c)
