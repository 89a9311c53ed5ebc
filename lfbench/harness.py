"""Run one workload: generate corpora, time whole rounds, check every output.

A round runs `pipeline.run()` once on each of the workload's corpora, all
generated from the workload seed and written to files before the first
round. Rounds repeat until the next one would end past the measuring time,
so every report is compared with its repeats and every timing is a median
or a mean over rounds.

Untraced runs carry only the boundary probes (see `tracer`). In a traced
run untraced and traced rounds alternate: the traced rounds give the
per-layer figures, and each traced round's extra run time over the
untraced round before it is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

from weaklab import pipeline

from . import checks, corpora
from .workloads import CORPORA
from .tracer import Probe

END_TO_END = {  # name -> unit
    "setup_s": "s", "run_s": "s", "iter_ms_p50": "ms", "iter_ms_p90": "ms",
    "peak_rss_mb": "MB", "train_acc": "fraction", "test_score": "fraction",
}
LAYER_SECONDS = {  # metric -> span key
    "aggregate.fit_s": "aggregate.fit",
    "downstream.train_s": "downstream.train",
    "downstream.featurize_s": "downstream.featurize",
    "corpus.load_s": "corpus.load",
    "labelfns.index_s": "labelfns.index",
    "labelfns.votes_s": "labelfns.votes",
    "lfgate.admit_s": "lfgate.admit",
    "select.pick_s": "select.pick",
    "prompting.build_s": "prompting.build",
    "prompting.parse_s": "prompting.parse",
    "plmclient.complete_s": "plmclient.complete",
    "pipeline.metrics_s": "pipeline.metrics",
}
LAYER_COUNTS = (
    "aggregate.fits", "aggregate.em_iters", "aggregate.em_unconverged",
    "downstream.train_calls", "downstream.grad_evals", "downstream.predict_calls",
    "labelfns.votes_calls", "labelfns.apply_calls",
    "lfgate.candidates", "lfgate.admitted", "lfgate.rejected_validity",
    "lfgate.rejected_accuracy", "lfgate.rejected_redundancy",
    "select.picks", "prompting.responses", "plmclient.requests",
)
PER_LAYER = {**{name: "s" for name in LAYER_SECONDS}, **{name: "count" for name in LAYER_COUNTS},
             "lfgate.admit_ratio": "ratio", "pipeline.self_s": "s",
             "pipeline.trace_overhead_s": "s"}


@dataclass
class Sample:
    """One timed pipeline.run() call."""

    corpus: int
    run_s: float
    setup_s: float
    iter_s: list  # per-iteration latencies in seconds
    report: dict
    probe: Probe


def timed_run(config, index, traced) -> Sample:
    gc.collect()  # garbage of the previous run is not this run's cost
    with Probe(traced) as probe:
        start = time.perf_counter()
        report = pipeline.run(config)
        end = time.perf_counter()
    if not probe.picks or probe.metrics_at is None:
        raise RuntimeError("run made no sampler call or skipped compute_metrics")
    bounds = probe.picks + [probe.metrics_at]
    return Sample(corpus=index, run_s=end - start, setup_s=probe.picks[0] - start,
                  iter_s=list(np.diff(bounds)), report=json.loads(report.to_json()),
                  probe=probe)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB; VmHWM)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare(workload, seed, work_dir):
    """Generate and write the workload's corpora; return (corpora, configs)."""
    shutil.rmtree(work_dir, ignore_errors=True)
    made, configs = [], []
    for k in range(CORPORA):
        corpus_seed = seed * 100 + k
        corpus = workload.make_corpus(corpus_seed)
        paths = corpora.write_corpus(corpus, os.path.join(work_dir, "corpus%d" % k))
        configs.append(pipeline.RunConfig.from_dict({
            **workload.config, **paths, "mock_signatures": corpus.signatures,
            "seed": corpus_seed}))
        made.append(corpus)
    return made, configs


def measure(configs, seconds, traced):
    """Whole rounds until the time is used; returns (untraced, traced) lists of
    rounds, each a list of Samples. An untraced run makes at least three rounds,
    so every median it reports is one of three or more; a traced run at least
    two untraced and two traced rounds."""
    rounds = {False: [], True: []}
    kinds = (False, True) if traced else (False,)
    least = 2 if traced else 3
    start = time.perf_counter()
    while True:
        for kind in kinds:
            rounds[kind].append([timed_run(c, k, kind) for k, c in enumerate(configs)])
        done = len(rounds[kinds[-1]])
        elapsed = time.perf_counter() - start
        if done >= least and elapsed * (done + 1) / done > seconds:
            return rounds[False], rounds[True]


def end_to_end(rounds) -> dict:
    """Every round repeats the same runs. `setup_s` and the iteration latencies
    are first a median over rounds of the same run (or of the same iteration of
    it), which drops short stalls, and then a mean or quantile over corpora and
    iterations. `run_s` is the mean over every run: a run lasts over a second,
    so short stalls average out within it, and the host's slow phases, which
    last longer than a round, sway a mean over rounds less than a median of
    a few."""
    by_corpus = list(zip(*rounds))
    profile_ms = [1000.0 * statistics.median(same)
                  for samples in by_corpus for same in zip(*(s.iter_s for s in samples))]
    return {
        "setup_s": statistics.fmean(statistics.median(s.setup_s for s in samples)
                                    for samples in by_corpus),
        "run_s": statistics.fmean(s.run_s for samples in rounds for s in samples),
        "iter_ms_p50": float(np.percentile(profile_ms, 50)),
        "iter_ms_p90": float(np.percentile(profile_ms, 90)),
        "peak_rss_mb": peak_rss_mb(),
        "train_acc": statistics.fmean(s.report["metrics"]["train_acc"] for s in rounds[0]),
        "test_score": statistics.fmean(s.report["metrics"]["test_score"] for s in rounds[0]),
    }


def _layer_values(traced_round, untraced_round) -> dict:
    values = {}
    for name, key in LAYER_SECONDS.items():
        values[name] = sum(s.probe.seconds.get(key, 0.0) for s in traced_round)
    for name in LAYER_COUNTS:
        values[name] = sum(s.probe.counts.get(name, 0) for s in traced_round)
    values["lfgate.admit_ratio"] = (values["lfgate.admitted"] / values["lfgate.candidates"]
                                    if values["lfgate.candidates"] else 0.0)
    values["pipeline.self_s"] = sum(s.run_s - s.probe.covered for s in traced_round)
    values["pipeline.trace_overhead_s"] = (sum(s.run_s for s in traced_round)
                                           - sum(s.run_s for s in untraced_round))
    return values


def per_layer(traced_rounds, untraced_rounds):
    """Per-round layer figures (summed over the round's corpora): times are the
    median over traced rounds, counts those of the first traced round.
    Returns (metrics, per-round values, problems)."""
    per_round = [_layer_values(t, u) for t, u in zip(traced_rounds, untraced_rounds)]
    metrics = {}
    problems = []
    for name in PER_LAYER:
        values = [r[name] for r in per_round]
        if PER_LAYER[name] == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append("%s differs between repeats: %r" % (name, values))
    return metrics, per_round, problems


def verify(corpus_list, untraced_rounds, traced_rounds) -> list:
    """Output checks on the first round; repeats must match it byte for byte."""
    problems = []
    for sample in untraced_rounds[0]:
        corpus = corpus_list[sample.corpus]
        problems += ["corpus %d: %s" % (sample.corpus, p) for p in checks.check_run(
            sample.report, corpus, sample.probe.label_model, sample.probe.classifier)]
    everything = untraced_rounds + traced_rounds
    for k in range(len(corpus_list)):
        reports = [r[k].report for r in everything]
        problems += ["corpus %d: %s" % (k, p) for p in checks.check_repeats(reports)]
    return problems


def run_workload(workload, seed, seconds, traced, work_dir) -> dict:
    """Measure one workload and return the result object the command prints."""
    corpus_list, configs = prepare(workload, seed, work_dir)
    untraced_rounds, traced_rounds = measure(configs, seconds, traced)
    if traced:
        metrics, per_round, problems = per_layer(traced_rounds, untraced_rounds)
        with open(os.path.join(work_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": seed, "rounds": per_round}, fh,
                      sort_keys=True, indent=2)
            fh.write("\n")
        units = PER_LAYER
    else:
        metrics, problems, units = end_to_end(untraced_rounds), [], END_TO_END
    problems += verify(corpus_list, untraced_rounds, traced_rounds)
    samples = [s for r in untraced_rounds + traced_rounds for s in r]
    attempted = sum(s.report["config"]["n_iterations"] for s in samples)
    completed = sum(len(s.report["iterations"]) for s in samples)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "problems": problems,
        "rounds": len(untraced_rounds) + len(traced_rounds),
    }
