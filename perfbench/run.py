"""framecat benchmark: one run of one workload.

    python3 perfbench/run.py --workload corpus|homsets|documents \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory, nothing is built or installed.  Each run starts a fresh
child process (child.py), so set-up time and peak memory are per-run
values; set-up is repeated in a few set-up-only processes and reported as
the median.  The line before the result gives the seed and the seconds of
every pass.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  NOTES.md describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("corpus", "homsets", "documents")
SETUP_REPEATS = 5    # set-up-only processes besides the measured one
DEADLINE_S = 170.0   # a run must end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("WORKBENCH_CORPUS_DIR", None)  # `corpus run` must use the generated corpus
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
           "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seconds(window) -> float:
    return window[1] - window[0]


def end_to_end(res: dict, setups: list[list[float]]) -> dict:
    return {
        "wall_s": statistics.median(seconds(p["window"]) for p in res["passes"]),
        "setup_s": statistics.median(seconds(w) for w in setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_total": res["ops_per_pass"],
    }


def per_layer(res: dict) -> dict:
    traced, untraced = [], []
    for p in res["passes"]:
        if p["traced"]:
            traced.append(dict(p["layers"], **{"trace.wall_s": seconds(p["window"])}))
        else:
            untraced.append(seconds(p["window"]))
    out = {k: statistics.median(t[k] for t in traced) for k in res["units"]}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(untraced)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "framecat" / "__init__.py").is_file():
        print(f"error: no framecat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        setups = [] if args.trace else [
            spawn(args, ["--setup-only"], timeout=30.0)["setup"]
            for _ in range(SETUP_REPEATS)]
        res = spawn(args, [], timeout=DEADLINE_S - (time.monotonic() - start))
        if args.trace:
            values = per_layer(res)
            units = res["units"]
        else:
            values = end_to_end(res, setups + [res["setup"]])
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_total": "count"}
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    passes = [round(seconds(p["window"]), 4) for p in res["passes"]]
    print(f"{args.workload}: seed {args.seed}, pass seconds {passes}, "
          f"{json.dumps(res['info'])}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
