"""Benchmark the LF-development loop on one workload.

Run from the root of a checkout:

    python3 lfbench/run.py --workload text-refit --seed 0 --seconds 40 --trace 0

Generates the workload's corpora from the seed, times whole rounds of
`weaklab.pipeline.run()` for about --seconds, checks every output against
computations of its own, and prints the result as one JSON object on the
last line of standard output: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. Exits with status 1,
after printing the result, when a check failed. Corpora, the result and
the trace are written under .lfbench/ in the checkout.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One BLAS thread: the figures should not depend on what else the host runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None):
    from lfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from lfbench.harness import run_workload

    work_dir = os.path.join(ROOT, ".lfbench", "%s-seed%d" % (args.workload, args.seed))
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), work_dir)
    problems = result.pop("problems")
    rounds = result.pop("rounds")
    name = "result-trace.json" if args.trace else "result.json"
    with open(os.path.join(work_dir, name), "w", encoding="utf-8") as fh:
        json.dump({**result, "problems": problems, "rounds": rounds}, fh, sort_keys=True,
                  indent=2)
        fh.write("\n")
    print("%s seed %d: %d rounds, %d iterations attempted, %d failed"
          % (args.workload, args.seed, rounds, result["attempted"], result["failed"]))
    for metric, entry in result["metrics"].items():
        print("  %-28s %14.6f %s" % (metric, entry["value"], entry["unit"]))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    print(json.dumps(result, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "weaklab", "pipeline.py")):
        sys.exit("lfbench: no weaklab sources under %s" % os.path.join(ROOT, "src"))
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    sys.exit(main())
