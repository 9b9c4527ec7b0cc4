"""betarec benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): recovery-deep, returns-certified,
language-exact, dimension-shallow.  Seed 0 replays the acceptance criteria's
own seeds; seed 1 is the held-out seed that a gain claim must also hold on.

Every pass runs in a fresh single-threaded worker process (BLAS/OpenMP
threads pinned to 1).  Passes repeat the same inputs until ``--seconds`` is
spent; a few set-up-only processes top the set-up samples up to five.

Times are given at reference CPU speed.  On a shared 2-vCPU Xeon VM the CPU
was seen to run about 1.5x slower for seconds at a time, and a half-minute
run may catch much or little of that.  So a probe loop is timed every 50 ms
through each pass (``workloads.SpeedProbe``), each item's time is scaled to
the speed at which that loop takes PROBE_REF_S, and the median over the
passes is taken.  The detail line keeps the unscaled per-pass sums
(``run_s_samples``).

``--trace 0`` prints the end-to-end metrics of untraced passes:
  setup_s        process start to first item (import, contexts, plans), median
  run_s          the pass's item times summed, at reference speed
  item_p50_ms    median latency of the workload's primary item, at
                 reference speed
  item_p90_ms    90th percentile of the same
  peak_rss_mb    peak resident memory of a pass process, median
  ok_frac        operations that succeeded / operations attempted
  accuracy_frac  items whose result meets its mathematical reference
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (``tracing.LAYERS``), plus trace.overhead_frac.

A failed operation raised, returned a failed certificate, or belongs to an
output group whose digest differs from ``reference.json``.  The result line's
``failed``/``attempted`` is the failure share; ``ok_frac`` is its complement.
``correct`` is false on any digest mismatch, any disagreement between passes,
or any failure other than the documented defect (ValueError from
verify_bracketing on golden-base digit views, ROADMAP item 3).

The environment record, the per-pass samples and the output check are
printed before the result line and saved under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic

from metrics import E2E_UNITS, LAYERS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for key in PINNED:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, env, t_start, extra=()) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    timeout = max(5.0, DEADLINE_S - (monotonic() - t_start))
    t0 = monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    wall = monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["ready"] - t0
    data["wall_s"] = wall
    return data


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "loadavg_start": list(os.getloadavg()),
    }


def check_outputs(args, passes) -> tuple[list[str], int, str]:
    """Compare each pass's digests with the others and with the reference.

    Returns (problems, failed items, status).  A mismatched group counts every
    item of that group as a failed operation, in every pass.
    """
    problems = []
    first = passes[0]["digests"]
    for p in passes[1:]:
        if p["digests"] != first:
            problems.append("passes disagree on their outputs")
            break
    with open(BENCH / "reference.json") as fh:
        ref = json.load(fh).get(args.size, {}).get(args.workload, {}).get(str(args.seed))
    if ref is None:
        return problems, 0, "unrecorded seed: checked against mathematical references only"
    failed = 0
    bad = sorted(g for g in set(ref) | set(first) if ref.get(g) != first.get(g))
    for p in passes:
        failed += sum(p["group_items"].get(g, 1) for g in bad)
    if bad:
        problems.append(f"digest mismatch in groups {bad[:10]}")
        return problems, failed, "mismatch"
    return problems, 0, "match"


def item_times(passes) -> list[float]:
    """Each item's time at reference speed, median over the passes."""
    return [statistics.median(t) for t in zip(*(p["ref_s"] for p in passes))]


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the self-test")
    args = ap.parse_args()
    if not (ROOT / "src" / "betarec" / "__init__.py").is_file():
        print(f"betarec sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_start = monotonic()
    env_record = environment()
    env = worker_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-{args.size}-t{args.trace}"
    passes = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            extra = ("--spans", str(OUT / f"spans-{tag}-p{len(passes)}.json")) if traced else ()
            p = run_worker(args, env, t_start, extra)
            p["traced"] = traced
            passes.append(p)
            elapsed = monotonic() - t_start
            longest = max(q["wall_s"] for q in passes)
            if len(passes) >= 1 + args.trace and elapsed + longest > args.seconds:
                break
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        setup = [p["setup_s"] for p in untraced]
        while len(setup) < SETUP_SAMPLES and not args.trace:
            setup.append(run_worker(args, env, t_start, ("--setup-only",))["setup_s"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems, mismatched, digest_status = check_outputs(args, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = min(attempted, sum(p["failed"] for p in passes) + mismatched)
    known = sum(p["known"] for p in passes)
    unexpected = sorted({u for p in passes for u in p["unexpected"]})
    if unexpected:
        problems.append(f"unexpected failures: {unexpected[:5]}")
    if len({len(p["item_s"]) for p in passes}) != 1:
        problems.append("passes ran different numbers of items")
    items = item_times(untraced)
    run_s = sum(items)
    if args.trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (sum(item_times(traced)) - run_s) / run_s
        metrics = {name: {"value": layers[name], "unit": LAYERS[name][0]} for name in LAYERS}
    else:
        primary = [t * 1e3 for t, is_primary in zip(items, untraced[0]["primary"]) if is_primary]
        acc_ok = sum(p["accuracy"][0] for p in untraced)
        acc_n = sum(p["accuracy"][1] for p in untraced)
        values = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "item_p50_ms": statistics.median(primary),
            "item_p90_ms": p90(primary),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
            "ok_frac": (attempted - failed) / attempted,
            "accuracy_frac": acc_ok / acc_n,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_s_samples": setup,
        "run_s_samples": [p["busy_s"] for p in untraced],
        "traced_run_s_samples": [p["busy_s"] for p in traced],
        "primary_items": sum(untraced[0]["primary"]),
        "fail_frac": failed / attempted,
        "known_defect_failures": known,
        "output_check": digest_status,
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"env": env_record, "detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"env": env_record}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
