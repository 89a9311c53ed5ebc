"""Probes wrapped around weaklab's public functions from outside the program.

A `Probe` replaces module and class attributes of weaklab with wrappers for
the duration of one `pipeline.run()` call and restores them afterwards. Two
kinds of wrapper exist:

- boundary probes, installed in every run: the entry of each sampler call
  (an iteration boundary), the entry of `pipeline.compute_metrics` (the end
  of the last iteration), and the return values of the label-model fits and
  of `train_logreg`, kept for the output checks;
- layer probes, installed only in traced runs: a `perf_counter` span and a
  call count around each module's public functions.

A span whose key is already open is not recorded again, so a fit that calls
`majority_vote` for its initialisation counts once and the uncertainty
sampler's fallback to the random sampler is one pick. Layer times include
the spans nested inside them (admission includes the vote columns it
computes); `covered` sums only the outermost spans, so run time minus
`covered` is the loop's own time.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

from weaklab import aggregate, corpus, downstream, labelfns, lfgate, pipeline, plmclient, prompting, select


@dataclass(frozen=True)
class Hook:
    owner: object
    name: str
    span: Optional[str] = None  # timed span key
    count: Optional[str] = None  # call-count key
    before: Optional[Callable] = None  # before(probe)
    after: Optional[Callable] = None  # after(probe, args, result)
    boundary: bool = False  # installed in untraced runs too


def _pick(probe):
    probe.picks.append(time.perf_counter())


def _metrics(probe):
    probe.metrics_at = time.perf_counter()


def _fit_done(probe, args, result):
    probe.label_model = result
    if isinstance(result, aggregate.DawidSkeneResult):
        probe.counts["aggregate.em_iters"] += result.n_iter
        probe.counts["aggregate.em_unconverged"] += 0 if result.converged else 1


def _train_done(probe, args, result):
    probe.classifier = result


def _admit_done(probe, args, result):
    new_lfs, verdicts = result
    probe.counts["lfgate.candidates"] += len(verdicts)
    probe.counts["lfgate.admitted"] += len(new_lfs)
    for verdict in verdicts:
        if verdict.outcome == lfgate.REJECTED:
            probe.counts["lfgate.rejected_%s" % verdict.stage] += 1


def hooks():
    """Every probe point; the pipeline reaches each through the attribute patched."""
    fit = dict(span="aggregate.fit", count="aggregate.fits", after=_fit_done, boundary=True)
    pick = dict(span="select.pick", count="select.picks", before=_pick, boundary=True)
    return [
        Hook(select, "random_sampler", **pick),
        Hook(select, "uncertainty_sampler", **pick),
        Hook(select, "seu_sampler", **pick),
        Hook(pipeline, "compute_metrics", span="pipeline.metrics", before=_metrics,
             boundary=True),
        Hook(aggregate, "dawid_skene_em", **fit),
        Hook(aggregate, "weighted_vote", **fit),
        Hook(aggregate, "majority_vote", **fit),
        Hook(downstream, "train_logreg", span="downstream.train", count="downstream.train_calls",
             after=_train_done, boundary=True),
        Hook(downstream, "loss_and_grad", count="downstream.grad_evals"),
        Hook(downstream, "predict_proba", count="downstream.predict_calls"),
        Hook(select, "predict_proba", count="downstream.predict_calls"),
        Hook(downstream, "fit_tfidf", span="downstream.featurize"),
        Hook(downstream, "featurize_all", span="downstream.featurize"),
        Hook(corpus, "load_dataset", span="corpus.load"),
        Hook(labelfns.KeywordIndex, "__init__", span="labelfns.index"),
        Hook(labelfns.KeywordIndex, "votes", span="labelfns.votes", count="labelfns.votes_calls"),
        Hook(labelfns, "apply_lf", count="labelfns.apply_calls"),
        Hook(lfgate.AdmissionGate, "admit", span="lfgate.admit", after=_admit_done),
        Hook(prompting, "build_task_prompt", span="prompting.build"),
        Hook(prompting, "parse_response", span="prompting.parse", count="prompting.responses"),
        Hook(prompting, "aggregate_sc", span="prompting.parse"),
        Hook(plmclient, "complete", span="plmclient.complete", count="plmclient.requests"),
    ]


class Probe:
    """Boundary stamps, captures and (when traced) layer spans of one run."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.picks: list = []  # perf_counter at each sampler entry
        self.metrics_at: Optional[float] = None
        self.label_model = None  # last label-model result
        self.classifier = None  # last trained LinearModel
        self.seconds: dict = defaultdict(float)  # span key -> seconds
        self.counts: Counter = Counter()
        self.covered = 0.0  # seconds inside outermost spans
        self._open: list = []
        self._saved: list = []

    def _wrap(self, hook: Hook, original):
        probe = self

        def wrapper(*args, **kwargs):
            if hook.span is not None and hook.span in probe._open:
                return original(*args, **kwargs)
            if hook.before is not None:
                hook.before(probe)
            if hook.count is not None:
                probe.counts[hook.count] += 1
            if hook.span is None:
                result = original(*args, **kwargs)
            else:
                probe._open.append(hook.span)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    probe._open.pop()
                probe.seconds[hook.span] += elapsed
                if not probe._open:
                    probe.covered += elapsed
            if hook.after is not None:
                hook.after(probe, args, result)
            return result

        return wrapper

    def __enter__(self):
        for hook in hooks():
            if hook.boundary or self.traced:
                original = hook.owner.__dict__[hook.name]
                self._saved.append((hook.owner, hook.name, original))
                setattr(hook.owner, hook.name, self._wrap(hook, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False
