"""Benchmark of the nodemetry CLI on three workloads.

    python3 perfbench/run.py --workload ct_sparse --seed 1 --seconds 20 --trace 0

Run it from the root of a nodemetry source checkout; it imports the toolkit
from `src/` there and writes only under `.bench_work/`. Workloads:
ct_sparse, cohort_dense and folds_29class (see scenes.py). The last line of
standard output is the result object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics for --trace 0 and the per-layer
metrics of a traced run for --trace 1. The line before it holds the run's
conditions and every other figure measured.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# numeric libraries get one thread each, in this process and its children,
# so `eval --jobs 2` is the only parallelism
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nodemetry" / "cli.py").is_file():
        print(f"error: no nodemetry sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    from launcher import Launcher

    # started before this process loads NumPy or any scene (see launcher.py)
    with Launcher(src) as launcher:
        import runner

        if args.workload not in runner.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; "
                  f"choose from {sorted(runner.WORKLOADS)}", file=sys.stderr)
            return 2
        result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            launcher, ROOT / ".bench_work")
    detail = result.pop("detail")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
