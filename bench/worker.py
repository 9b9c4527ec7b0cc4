"""One benchmark process: import, set up, and run one pass of a workload.

Started by ``run.py`` in a fresh process for every pass, with BLAS/OpenMP
threads pinned to 1.  Prints one JSON object on stdout.  With ``--setup-only``
it stops before the first item, to sample set-up time alone.  With
``--spans PATH`` the pass is traced and the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import monotonic


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import workloads  # imports the library: part of set-up time

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    state = workloads.SETUP[args.workload](args.seed, args.size)
    ready = monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return
    rec = workloads.Recorder()
    rec.start()
    workloads.PASS[args.workload](state, rec)
    rec.finish()
    out = {
        "ready": ready,
        "busy_s": rec.busy_s,
        "item_s": rec.item_s,
        "ref_s": rec.ref_s,
        "primary": rec.primary,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "known": rec.known,
        "unexpected": rec.unexpected[:20],
        "accuracy": [rec.acc_ok, rec.acc_n],
        "digests": rec.digests(),
        "group_items": rec.group_items,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, rec.stream_digits)
        tracer.dump(args.spans)
    json.dump(out, sys.stdout)
    print()


if __name__ == "__main__":
    main()
