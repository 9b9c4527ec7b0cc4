"""Command-line surface: every operation, machine-readable output.

Results are printed as a JSON envelope {command, params, result} with sorted
keys, so identical inputs and seeds give byte-identical output.  The
library's typed errors (``LIBRARY_ERRORS``) exit with code 1 and a
structured JSON error; any other exception is a fault in the program and
exits 1 with the same error marked ``"internal": true``.  argparse handles
bad arguments with its usual exit code 2.  csv/tsv output flattens the
result rows for plotting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import cantor as cantor_mod
from . import dimension as dim_mod
from . import recurrence as rec_mod
from . import symbolic as sym_mod
from .algebraic import PrecisionError
from .expansion import (
    BetaContext,
    DigitIndeterminateError,
    approximate_beta,
    beta_expand,
    word_from_text,
    word_text,
)
from .numerics import IndeterminateSignError, _as_fraction


class NoDigitsError(ValueError):
    """--stdin-digits found no digits to analyse."""


class WordLimitError(RuntimeError):
    """enumerate found more words than --limit allows."""


# raised on bad input or a request the library cannot decide; any other
# exception escaping a command is a fault in the program itself
LIBRARY_ERRORS = (ValueError, PrecisionError, DigitIndeterminateError,
                  IndeterminateSignError, cantor_mod.ConstructionError,
                  rec_mod.FormViolationError, rec_mod.StreamTooShortError,
                  WordLimitError)


def _default_bits() -> int:
    """The precision from BETAREC_PRECISION_BITS (at least 64), else 192."""
    env = os.environ.get("BETAREC_PRECISION_BITS")
    return max(64, int(env)) if env else 192


def _exponent(text: str):
    """An exponent argument: a rational literal, or inf."""
    return math.inf if text.strip().lower() == "inf" else text


def _context(args) -> BetaContext:
    return BetaContext.named(args.beta, precision_bits=args.precision_bits)


def _fraction_decimal(fr: Fraction, digits: int = 24) -> str:
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    whole = fr.numerator // fr.denominator
    rem = fr - whole
    scaled = (rem * 10**digits).numerator // (rem * 10**digits).denominator
    return f"{sign}{whole}.{scaled:0{digits}d}"


def _clean_floats(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf"
        if math.isnan(obj):
            return None
        return obj
    if isinstance(obj, dict):
        return {k: _clean_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean_floats(v) for v in obj]
    return obj


def _emit(command: str, params: dict, result: dict, rows, args) -> None:
    fmt = args.output
    if fmt == "json":
        payload = {"command": command, "params": _clean_floats(params),
                   "result": _clean_floats(result)}
        print(json.dumps(payload, sort_keys=True))
        return
    sep = "," if fmt == "csv" else "\t"
    if rows is None:
        rows = [(k, v) for k, v in sorted(result.items())
                if not isinstance(v, (list, dict))]
    for row in rows:
        print(sep.join(str(_clean_floats(v)) for v in row))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_expand(args):
    ctx = _context(args)
    digits = beta_expand(_as_fraction(args.x), ctx, args.n)
    return {"digits": word_text(digits)}, [(word_text(digits),)]


def cmd_eps_star(args):
    ctx = _context(args)
    digits = ctx.eps_star(args.n)
    result = {"digits": word_text(digits)}
    m = ctx.detect_simple_parry(min(args.n, 64))
    if m is not None:
        result["simple_parry"] = m
    return result, [(word_text(digits),)]


def cmd_approx_beta(args):
    ctx = _context(args)
    approx = approximate_beta(ctx, args.N)
    mid = approx.beta_bounds(args.precision_bits).center
    return {
        "beta_n": _fraction_decimal(mid),
        "expansion_of_one_period": word_text(approx.eps_star(args.N)),
    }, None


def cmd_admissible(args):
    ctx = _context(args)
    w = word_from_text(args.word)
    return {"word": word_text(w), "admissible": sym_mod.is_admissible(w, ctx)}, None


def cmd_count(args):
    ctx = _context(args)
    return {"n": args.n, "count": str(sym_mod.count_admissible(ctx, args.n))}, None


def cmd_enumerate(args):
    ctx = _context(args)
    words = []
    for i, w in enumerate(sym_mod.enumerate_admissible(ctx, args.n)):
        if i >= args.limit:
            raise WordLimitError(f"more than {args.limit} words; raise --limit")
        words.append(word_text(w))
    return {"n": args.n, "count": len(words), "words": words}, [(w,) for w in words]


def cmd_full_scan(args):
    ctx = _context(args)
    run, total = sym_mod.max_nonfull_run(ctx, args.n)
    result = {
        "n": args.n,
        "cylinders": str(total),
        "max_nonfull_run": run,
        "window_property": run <= args.n,
    }
    return result, None


def _view_from_args(args, ctx) -> rec_mod.OrbitView:
    if getattr(args, "stdin_digits", False):
        digits = word_from_text(sys.stdin.read().strip())
        if not digits:
            raise NoDigitsError("no digits supplied on stdin")
        return rec_mod.OrbitView.from_digits(ctx, digits)
    if args.x is None:
        raise ValueError("provide --x or --stdin-digits")
    return rec_mod.OrbitView.from_point(ctx, _as_fraction(args.x))


def cmd_exponents(args):
    ctx = _context(args)
    view = _view_from_args(args, ctx)
    r = rec_mod.estimate_r(view, args.N)
    rh = rec_mod.estimate_r_hat(view, args.N)
    series = [round(v, 6) for v in r.neg_log]
    result = {
        "r": r.value,
        "r_hat": rh.value,
        "window": list(r.window),
        "censored": r.censored,
        "neg_log_series": series,
    }
    rows = [(n + 1, series[n]) for n in range(len(series))]
    return result, rows


def cmd_returns(args):
    ctx = _context(args)
    view = _view_from_args(args, ctx)
    profile = rec_mod.extract_returns(view, args.K, monotone=not args.all_returns,
                                      search_limit=args.depth)
    entries = []
    for k in range(len(profile.n_seq)):
        entry = {
            "n": profile.n_seq[k],
            "m": profile.m_seq[k],
            "t": profile.t_seq[k],
            "bracketing_ok": rec_mod.verify_bracketing(view, profile, k),
        }
        try:
            entry["form"] = rec_mod.classify_prefix(view, k, profile).value
        except rec_mod.FormViolationError:
            entry["form"] = "violation"
        entries.append(entry)
    result = {
        "monotone": profile.monotone,
        "truncated": profile.truncated,
        "entries": entries,
    }
    rows = [(e["n"], e["m"], e["t"], e["form"]) for e in entries]
    return result, rows


def _plan_from_args(args, ctx) -> cantor_mod.CantorPlan:
    return cantor_mod.build_plan(ctx, args.rhat, args.r, delta=args.delta,
                                 K=args.K, seed=args.seed)


def cmd_cantor(args):
    ctx = _context(args)
    if args.action == "plan":
        plan = _plan_from_args(args, ctx)
        return plan.to_json_dict(), None
    if args.action == "counts":
        plan = _plan_from_args(args, ctx)
        k = plan.levels if args.k is None else args.k
        levels = cantor_mod.build_levels(plan, k, mode="counts")
        result = {"levels": [
            {"k": ls.k, "count_d": str(ls.count_d), "count_g": str(ls.count_g)}
            for ls in levels]}
        rows = [(ls.k, ls.count_d, ls.count_g) for ls in levels]
        return result, rows
    if args.action == "sample":
        plan = _plan_from_args(args, ctx)
        depth = args.depth
        if depth is None:
            k = plan.levels if args.k is None else args.k
            if k < 1:
                raise ValueError(f"k must be at least 1, got {k}")
            if k > plan.levels:
                raise ValueError("k_max exceeds the planned levels")
            depth = plan.m_seq[k - 1]
        view = cantor_mod.sample_point(plan, args.seed, depth)
        digits = word_text(tuple(view.digits(depth)))
        return {"depth": depth, "digits": digits}, [(digits,)]
    if args.action == "measure":
        plan = _plan_from_args(args, ctx)
        if args.prefix is None:
            raise ValueError("measure needs --prefix")
        w = word_from_text(args.prefix)
        mu = cantor_mod.measure(plan, w)
        return {"prefix": word_text(w), "measure": str(mu),
                "measure_float": float(mu)}, None
    raise ValueError(f"unknown cantor action {args.action}")


def cmd_dim(args):
    if args.action == "formula":
        value = dim_mod.dim_prescribed(args.rhat, args.r)
        result = {
            "value": value,
            "countable": dim_mod.is_countable_pair(args.rhat, args.r),
            "uniform_value": dim_mod.dim_uniform(args.rhat),
            "maximizer": dim_mod.maximizer(args.rhat)
            if args.rhat != math.inf and _as_fraction(args.rhat) <= 1 else None,
        }
        return result, None
    ctx = _context(args)
    plan = _plan_from_args(args, ctx)
    if args.action == "series":
        report = dim_mod.local_dimension_series(
            plan, plan.levels if args.k is None else args.k)
        rows = [(k + 1, float(v)) for k, v in enumerate(report.series_values)]
        return report.to_json_dict(), rows
    if args.action == "boxcount":
        lo, hi = args.n_lo, args.n_hi
        if lo > hi:
            raise ValueError(f"depth range --n-lo {lo} .. --n-hi {hi} is empty")
        if args.points < 1:
            raise ValueError(f"points must be at least 1, got {args.points}: "
                             "the point set is empty")
        pts = [cantor_mod.sample_point(plan, args.seed + 1 + i, args.depth)
               for i in range(args.points)]
        res = dim_mod.boxcount(pts, ctx, range(lo, hi + 1), seed=args.seed)
        rows = [(n, c, round(math.log(c), 9))
                for n, c in zip(res.n_range, res.counts)]
        return res.to_json_dict(), rows
    raise ValueError(f"unknown dim action {args.action}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--beta", default="2",
                        help="base: decimal, fraction, or 'golden'")
    # default None: main fills it from the environment, where a bad value
    # becomes an argument error rather than a traceback
    common.add_argument("--precision-bits", type=int, default=None)
    common.add_argument("--output", choices=("json", "csv", "tsv"), default="json")
    common.add_argument("--seed", type=int, default=0)
    p = argparse.ArgumentParser(
        prog="betarec",
        description="beta-expansions, the beta-shift language, recurrence "
                    "exponents, and Cantor-type dimension checks")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    q = add("expand", help="greedy digit expansion of a point")
    q.add_argument("--x", required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_expand)

    q = add("eps-star", help="digits of the infinite expansion of 1")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_eps_star)

    q = add("approx-beta", help="base with truncated expansion of 1")
    q.add_argument("--N", type=int, required=True)
    q.set_defaults(func=cmd_approx_beta)

    q = add("admissible", help="test a digit word for admissibility")
    q.add_argument("word")
    q.set_defaults(func=cmd_admissible)

    q = add("count", help="count admissible words of length n")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_count)

    q = add("enumerate", help="list admissible words of length n")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--limit", type=int, default=100_000)
    q.set_defaults(func=cmd_enumerate)

    q = add("full-scan", help="full-cylinder distribution report")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_full_scan)

    q = add("exponents", help="recurrence exponent estimates")
    q.add_argument("--x")
    q.add_argument("--stdin-digits", action="store_true")
    q.add_argument("--N", type=int, required=True)
    q.set_defaults(func=cmd_exponents)

    q = add("returns", help="return-time profile with classification")
    q.add_argument("--x")
    q.add_argument("--stdin-digits", action="store_true")
    q.add_argument("--K", type=int, default=5)
    q.add_argument("--depth", type=int, default=None)
    q.add_argument("--all-returns", action="store_true",
                   help="report every return instead of the monotone subsequence")
    q.set_defaults(func=cmd_returns)

    q = add("cantor", help="construction plans, samples, counts, measure")
    q.add_argument("action", choices=("plan", "sample", "counts", "measure"),
                   help="counts: count_g is exact at level one; past it every branch "
                        "is counted with the reference seed's pool, so count_g can "
                        "differ from the number of level words")
    q.add_argument("--rhat", type=_exponent, required=True)
    q.add_argument("--r", type=_exponent, required=True)
    q.add_argument("--delta", default="0.1")
    q.add_argument("--K", type=int, default=6)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--depth", type=int, default=None)
    q.add_argument("--prefix", default=None)
    q.set_defaults(func=cmd_cantor)

    q = add("dim", help="dimension formulas, exact series, box counts")
    q.add_argument("action", choices=("formula", "series", "boxcount"))
    q.add_argument("--rhat", type=_exponent, required=True)
    q.add_argument("--r", type=_exponent, required=True)
    q.add_argument("--delta", default="0.1")
    q.add_argument("--K", type=int, default=6)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--points", type=int, default=2000)
    q.add_argument("--depth", type=int, default=48)
    q.add_argument("--n-lo", type=int, default=3)
    q.add_argument("--n-hi", type=int, default=16)
    q.set_defaults(func=cmd_dim)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision_bits is None:
        try:
            args.precision_bits = _default_bits()
        except ValueError:
            parser.error("BETAREC_PRECISION_BITS must be an integer, got "
                         f"{os.environ['BETAREC_PRECISION_BITS']!r}")
    params = {k: v for k, v in vars(args).items()
              if k not in ("func",) and v is not None}
    try:
        result, rows = args.func(args)
    except Exception as exc:  # structured failure for scripts
        err = {"command": args.command, "error": type(exc).__name__,
               "message": str(exc)}
        if not isinstance(exc, LIBRARY_ERRORS):
            err["internal"] = True
        print(json.dumps(err, sort_keys=True))
        return 1
    _emit(args.command, params, result, rows if args.output != "json" else None,
          args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
