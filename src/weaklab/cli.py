"""Command-line entry points.

Subcommands: run, multi-seed, replay, eval-lfs, synth, report.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus, downstream, labelfns, pipeline


def _add_config_arg(parser):
    parser.add_argument("--config", required=True, help="path to a JSON run config")


def _apply_overrides(config, args):
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "backend", None):
        config.backend = args.backend
    if getattr(args, "transcript", None):
        config.transcript_path = args.transcript
    if getattr(args, "report", None):
        config.report_path = args.report
    return config


def cmd_run(args):
    config = _apply_overrides(pipeline.RunConfig.from_file(args.config), args)
    report = pipeline.run(config)
    print(pipeline.render_report_table(report.metrics))
    if not report.complete:
        print("WARNING: %s" % report.warning, file=sys.stderr)
        return 1
    return 0


def cmd_multi_seed(args):
    config = _apply_overrides(pipeline.RunConfig.from_file(args.config), args)
    summary, _ = pipeline.multi_seed(config, n_seeds=args.seeds)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    for name, stats in summary["metrics"].items():
        if stats["mean"] is None:
            print("%-12s --" % name)
        else:
            print("%-12s %.4f (%.4f)" % (name, stats["mean"], stats["std"]))
    return 1 if summary["partial"] else 0


def cmd_replay(args):
    config = pipeline.RunConfig.from_file(args.config)
    config.backend = "replay"
    config.transcript_path = args.transcript
    if args.report:
        config.report_path = args.report
    report = pipeline.run(config)
    print(pipeline.render_report_table(report.metrics))
    return 0 if report.complete else 1


def cmd_eval_lfs(args):
    """Score an externally supplied LF set file against a dataset."""
    config = pipeline.RunConfig.from_file(args.config)
    dataset = corpus.load_dataset(config.train_path, config.valid_path,
                                  config.test_path, config.schema_path)
    lfs = labelfns.load_lfs(args.lfs, dataset.classes, dataset.task_kind)
    train_matrix = labelfns.build_matrix(lfs, dataset.train).entries
    valid_matrix = labelfns.build_matrix(lfs, dataset.valid).entries
    valid_accuracies = [labelfns.lf_stats(lf, dataset.valid, votes=valid_matrix[:, j]).accuracy
                        for j, lf in enumerate(lfs)]
    space = downstream.fit_tfidf([i.text for i in dataset.train],
                                 min_df=config.min_df, max_features=config.max_features)
    X_train = downstream.featurize_all(space, [i.text for i in dataset.train])
    problabels, model = pipeline.refit(config, dataset, train_matrix, valid_accuracies, X_train)
    positive = (dataset.classes.index(config.positive_class)
                if config.positive_class is not None else None)
    metrics = pipeline.compute_metrics(dataset, lfs, train_matrix, problabels, model,
                                       space, [], positive)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, sort_keys=True, indent=2)
            fh.write("\n")
    print(pipeline.render_report_table(metrics))
    return 0


def cmd_synth(args):
    dataset, signatures, annotations = pipeline.generate_synthetic(
        n_train=args.n_train, n_valid=args.n_valid, n_test=args.n_test,
        n_classes=args.classes, q=args.q, noise_vocab=args.noise_vocab, seed=args.seed)
    paths = pipeline.write_synthetic(args.out, dataset, signatures, annotations)
    for name, path in sorted(paths.items()):
        print("%s: %s" % (name, path))
    return 0


def cmd_report(args):
    with open(args.report, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    metrics = payload.get("metrics", payload)
    print(pipeline.render_report_table(metrics))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="weaklab",
                                     description="iterative weak-supervision pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one pipeline run")
    _add_config_arg(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--backend", choices=["http", "mock", "replay"])
    p.add_argument("--transcript", help="record (or replay) a transcript at this path")
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("multi-seed", help="aggregate a run over several seeds")
    _add_config_arg(p)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--seed", type=int)
    p.add_argument("--backend", choices=["http", "mock", "replay"])
    p.add_argument("--report")
    p.set_defaults(func=cmd_multi_seed)

    p = sub.add_parser("replay", help="re-run from a recorded transcript")
    _add_config_arg(p)
    p.add_argument("--transcript", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("eval-lfs", help="score an external LF set file")
    _add_config_arg(p)
    p.add_argument("--lfs", required=True, help="JSONL file of LF records")
    p.add_argument("--report")
    p.set_defaults(func=cmd_eval_lfs)

    p = sub.add_parser("synth", help="emit a planted synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-valid", type=int, default=200)
    p.add_argument("--n-test", type=int, default=500)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--q", type=float, default=0.8)
    p.add_argument("--noise-vocab", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="render a JSON report as a table")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
