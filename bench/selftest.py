"""Self-test of the benchmark: every workload at tiny size, untraced and traced.

    python3 bench/selftest.py

Checks that
* BENCHMARK.json names exactly the workloads, end-to-end metrics and per-layer
  metrics (with units and directions) that the code emits;
* every per-layer metric names the end-to-end metrics and workloads it should
  move;
* each run exits 0 and its last line holds every metric with its unit, a
  finite non-zero value for each end-to-end metric, and ``correct`` true;
* at seed 0 the outputs match the recorded digests, and the only failures are
  the golden-point bracketing checks of returns-certified (ROADMAP item 3);
* the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from metrics import E2E_UNITS, LAYERS, WORKLOADS
from run import BENCH, OUT, ROOT

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_spec() -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from metrics.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(e2e == E2E_UNITS, "BENCHMARK.json end_to_end differs from metrics.E2E_UNITS")
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(layers == {n: (u, b) for n, (u, b, _) in LAYERS.items()},
          "BENCHMARK.json per_layer differs from metrics.LAYERS")
    for name, (_, _, moves) in LAYERS.items():
        check(bool(moves), f"{name} names no end-to-end metric it should move")
        for metric, workload in moves:
            check(metric in e2e and workload in WORKLOADS,
                  f"{name} should move unknown ({metric}, {workload})")


def check_run(workload: str, trace: int) -> None:
    where = f"{workload} --trace {trace}"
    proc = run(workload, trace)
    if proc.returncode != 0:
        check(False, f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    env = json.loads(lines[-3])["env"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    check(result["correct"] is True, f"{where}: not correct: {detail['problems']}")
    check(result["attempted"] >= 1, f"{where}: nothing attempted")
    check(detail["output_check"] == "match", f"{where}: output check {detail['output_check']}")
    check(all(k in env for k in ("commit", "python", "numpy", "nproc", "cpu_model",
                                 "loadavg_start")), f"{where}: environment record incomplete")
    if workload == "returns-certified":
        check(result["failed"] > 0 and result["failed"] == detail["known_defect_failures"],
              f"{where}: failures are not exactly the golden bracketing checks")
    else:
        check(result["failed"] == 0, f"{where}: {result['failed']} failed operations")
    units = E2E_UNITS if trace == 0 else {n: u for n, (u, _, _) in LAYERS.items()}
    metrics = result["metrics"]
    check(set(metrics) == set(units), f"{where}: metric names {sorted(set(metrics) ^ set(units))}")
    for name, unit in units.items():
        m = metrics.get(name, {})
        check(set(m) == {"value", "unit"} and m["unit"] == unit, f"{where}: {name} unit")
        value = m.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{where}: {name} value {value!r}")
        if trace == 0:
            check(value != 0, f"{where}: {name} is 0")


def check_bare_directory() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("recovery-deep", 0, cwd=bare)
    check(proc.returncode != 0, "bare directory: benchmark exited 0")
    check('"metrics"' not in proc.stdout, "bare directory: benchmark printed a result")
    shutil.rmtree(bare)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    check_spec()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_bare_directory()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
