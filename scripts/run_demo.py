#!/usr/bin/env python3
"""Generate a synthetic corpus, run the full pipeline against the mock
annotator, and print the metric table.

Example:
    python3 scripts/run_demo.py --workdir /tmp/weaklab-demo --seeds 3
"""

import argparse
import tempfile

from weaklab.pipeline import (
    RunConfig,
    generate_synthetic,
    multi_seed,
    render_report_table,
    run,
    write_synthetic,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default=None,
                        help="where to write the corpus (default: temp dir)")
    parser.add_argument("--n-train", type=int, default=2000)
    parser.add_argument("--n-valid", type=int, default=200)
    parser.add_argument("--n-test", type=int, default=500)
    parser.add_argument("--q", type=float, default=0.8,
                        help="per-token signature inclusion probability")
    parser.add_argument("--iterations", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of seeds; >1 prints mean ± std per metric")
    parser.add_argument("--sampler", default="random",
                        choices=["random", "uncertainty", "seu"])
    parser.add_argument("--label-model", default="dawid_skene",
                        choices=["majority", "weighted", "dawid_skene"])
    args = parser.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="weaklab-demo-")
    dataset, signatures, annotations = generate_synthetic(
        n_train=args.n_train, n_valid=args.n_valid, n_test=args.n_test,
        q=args.q, seed=0)
    paths = write_synthetic(workdir, dataset, signatures, annotations)
    print("corpus written to %s" % workdir)

    config = RunConfig.from_dict(dict(
        train_path=paths["train_path"], valid_path=paths["valid_path"],
        test_path=paths["test_path"], schema_path=paths["schema_path"],
        annotations_path=paths["annotations_path"], mock_signatures=signatures,
        n_iterations=args.iterations, sampler=args.sampler,
        label_model=args.label_model, max_opt_iters=300, grad_tol=1e-4))

    if args.seeds > 1:
        summary, _ = multi_seed(config, n_seeds=args.seeds)
        print("\n%d seeds (mean ± std):" % args.seeds)
        print(render_report_table(summary["metrics"]))
    else:
        report = run(config, dataset=dataset)
        print()
        print(render_report_table(report.metrics))
        if report.warning:
            print("warning: %s" % report.warning)


if __name__ == "__main__":
    main()
