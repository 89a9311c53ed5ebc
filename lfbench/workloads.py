"""The three benchmark workloads: corpus and loop configuration.

Why each exists is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from . import corpora

# Settings every workload shares. The classifier stops at the gradient
# tolerance the repository's demo and end-to-end tests use. With fewer than
# 35 iterations per run the median iteration latency sits on the edge of
# its fast mode and moves with the share of slow iterations (README.md).
_COMMON = {"max_opt_iters": 300, "grad_tol": 1e-4, "n_iterations": 35}

# Distinct corpora per round, all derived from the workload seed; a mean
# over more corpora holds down the spread between seeds (README.md).
CORPORA = 6


@dataclass(frozen=True)
class Workload:
    name: str
    generator: Callable  # corpora.text_corpus | corpora.relation_corpus
    corpus: dict  # generator keyword arguments besides the seed
    config: dict  # RunConfig fields besides the corpus paths, signatures and seed
    tiny: dict = field(default_factory=dict)  # overrides for the benchmark's own tests

    def make_corpus(self, seed):
        return self.generator(seed, **self.corpus)

    def shrunk(self):
        """The same workload at the size its own tests use."""
        return replace(self, corpus={**self.corpus, **self.tiny.get("corpus", {})},
                       config={**self.config, **self.tiny.get("config", {})})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="text-refit",
        generator=corpora.text_corpus,
        corpus={"n_train": 400, "n_valid": 200, "n_test": 1000},
        config={**_COMMON, "sampler": "uncertainty", "prompt_method": "few_shot",
                "label_model": "dawid_skene", "mock_p_label": 0.7, "mock_p_keyword": 0.6},
        tiny={"corpus": {"n_train": 120, "n_valid": 60, "n_test": 60},
              "config": {"n_iterations": 6}},
    ),
    Workload(
        name="text-seu-sc",
        generator=corpora.text_corpus,
        corpus={"n_train": 350, "n_valid": 200, "n_test": 1000},
        config={**_COMMON, "sampler": "seu", "prompt_method": "self_consistency",
                "label_model": "weighted", "mock_p_label": 0.7, "mock_p_keyword": 0.6},
        tiny={"corpus": {"n_train": 120, "n_valid": 60, "n_test": 60},
              "config": {"n_iterations": 4}},
    ),
    Workload(
        name="relation-wide",
        generator=corpora.relation_corpus,
        corpus={"n_train": 250, "n_valid": 150, "n_test": 1000, "n_names": 3000},
        config={**_COMMON, "sampler": "random", "prompt_method": "cot",
                "label_model": "dawid_skene", "lazy_retrain": True,
                "mock_p_label": 0.9, "mock_p_keyword": 0.5},
        tiny={"corpus": {"n_train": 60, "n_valid": 40, "n_test": 40, "n_names": 200},
              "config": {"n_iterations": 5}},
    ),
)}
