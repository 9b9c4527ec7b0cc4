"""Record the output digests that run.py checks, into reference.json.

    python3 bench/record.py --size full --seeds 0-19
    python3 bench/record.py --size tiny --seeds 0 --workload language-exact

Record only at a commit whose outputs are the accepted ones.  Each
(workload, seed) runs one untraced pass; a pass with an unexpected failure is
refused.  Later changes that alter any output then show as digest mismatches.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import monotonic
from types import SimpleNamespace

from metrics import WORKLOADS
from run import BENCH, BenchError, environment, run_worker, worker_env


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--seeds", type=seed_list, default=[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    path = BENCH / "reference.json"
    with open(path) as fh:
        ref = json.load(fh)
    ref["recorded_at"] = {k: v for k, v in environment().items() if k != "loadavg_start"}
    env = worker_env()
    for workload in args.workload or WORKLOADS:
        for seed in args.seeds:
            job = SimpleNamespace(workload=workload, seed=seed, size=args.size)
            try:
                data = run_worker(job, env, monotonic())
            except BenchError as exc:
                print(f"{workload} seed {seed}: {exc}", file=sys.stderr)
                return 1
            if data["unexpected"]:
                print(f"{workload} seed {seed}: refusing to record {data['unexpected']}",
                      file=sys.stderr)
                return 1
            ref.setdefault(args.size, {}).setdefault(workload, {})[str(seed)] = data["digests"]
            with open(path, "w") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{workload} seed {seed}: {len(data['digests'])} groups", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
