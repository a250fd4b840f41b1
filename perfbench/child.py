"""One benchmark run in a fresh process; started by run.py.

Set-up is timed from the moment the parent spawned this process (passed as
--spawned, a CLOCK_MONOTONIC reading, which is shared between processes) to
the first timed call.  Then the workload runs whole passes for about
--seconds seconds, at least one.  With --trace 1 the outside wrappers are
installed for every other pass, traced first, so that traced and untraced
passes see the same share of first-pass effects.  The child reports raw
CLOCK_MONOTONIC intervals as one JSON object on its last output line;
run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_pass(workload) -> tuple[list[float], int, object]:
    """([start, end] of the timed pass, failed operations, raw output)."""
    t0 = time.monotonic()
    try:
        output = workload.run()
        t1 = time.monotonic()
        mismatches = workload.check(output)
    except Exception:  # the program failed: every operation of the pass fails
        t1 = time.monotonic()
        traceback.print_exc(file=sys.stderr)
        output, mismatches = None, ["pass raised"] * workload.ops_per_pass
    finally:
        workload.cleanup()
    for line in mismatches[:20]:
        print(f"mismatch: {line}", file=sys.stderr)
    return [t0, t1], min(len(mismatches), workload.ops_per_pass), output


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    # workloads imports framecat.cli, which loads every framecat module, so
    # the program's function-level imports stay out of the timed passes
    from spans import Tracer
    from workloads import WORKLOADS, per_layer_units

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    result = {"setup": [args.spawned, time.monotonic()], "info": workload.info}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    passes = []
    start = time.monotonic()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        try:
            window, f, output = one_pass(workload)
        finally:
            if traced:
                tracer.uninstall()
        attempted += workload.ops_per_pass
        failed += f
        record = {"window": window, "traced": traced}
        if traced:
            layers = dict.fromkeys(per_layer_units(), 0.0)
            layers.update(tracer.metrics())
            if output is not None and hasattr(workload, "suite_seconds"):
                layers.update(workload.suite_seconds(output))
            layers["trace.coverage"] = tracer.top_level_s / (window[1] - window[0])
            record["layers"] = layers
        passes.append(record)
        # stop when another pass of the same length would overrun; a traced
        # run needs one pass of each kind
        overrun = time.monotonic() - start + window[1] - window[0] > args.seconds
        if overrun and (tracer is None or len(passes) >= 2):
            break

    result.update({
        "passes": passes,
        "units": per_layer_units() if tracer else None,
        "ops_per_pass": workload.ops_per_pass,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
