"""Command-line entry points.

Subcommands: run, multi-seed, replay, eval-lfs, synth, report.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import labelfns, lfgate, pipeline


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
    print(pipeline.render_report_table(summary["metrics"]))
    return 1 if summary["partial"] else 0


def cmd_eval_lfs(args):
    """Score an externally supplied LF set file against a dataset: the LFs go
    through a run's setup, an admission gate with only the validity stage on,
    and the tail of a run (`refit`, then the metric suite)."""
    config = pipeline.RunConfig.from_file(args.config)
    dataset, positive, space, X_train = pipeline._prepare(config)
    lfs = labelfns.load_lfs(args.lfs, dataset.classes, dataset.task_kind)
    gate = lfgate.AdmissionGate(dataset, lfgate.FilterConfig(enable_accuracy=False,
                                                             enable_redundancy=False))
    gate.admit([lfgate.CandidateSpec(lf.kind, lf.payload, lf.target_class, lf.provenance)
                for lf in lfs])
    problabels, model = pipeline.refit(config, dataset, gate, X_train)
    del X_train  # as in a run: the metric suite builds its own test blocks
    metrics = pipeline.compute_metrics(dataset, gate.admitted, gate.train_matrix(), problabels,
                                       model, space, [], positive)
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
    """Render a run report, `eval-lfs` metrics or a multi-seed summary."""
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
    p.add_argument("--backend", choices=["http", "mock"])  # a transcript holds one seed
    p.add_argument("--report")
    p.set_defaults(func=cmd_multi_seed)

    p = sub.add_parser("replay", help="re-run from a recorded transcript")
    _add_config_arg(p)
    p.add_argument("--transcript", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_run, backend="replay")  # `run --backend replay`

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
