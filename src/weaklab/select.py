"""Query-instance selection: random, predictive-entropy uncertainty, and
expected-utility scoring of the candidate LFs an annotator would return."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .corpus import extract_ngrams, tokenize
from .downstream import predict_proba


class PoolExhausted(RuntimeError):
    """Raised when a sampler is asked to draw from an empty pool."""


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each row, with the 0*ln(0) = 0 convention."""
    return -(probs * np.log(np.where(probs > 0, probs, 1.0))).sum(axis=1)


def entropy(p) -> float:
    """Shannon entropy in nats of one probability vector."""
    p = np.asarray(p, dtype=float)
    if (p < 0).any() or abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError("not a probability vector: %r" % (p,))
    return float(entropy_rows(p.reshape(1, -1))[0])


@dataclass
class SelectionState:
    """Without-replacement pool over train instance ids."""

    pool: list
    queried: list = field(default_factory=list)

    def __post_init__(self):
        self.pool = sorted(self.pool)

    def take(self, instance_id):
        self.pool.remove(instance_id)
        self.queried.append(instance_id)
        return instance_id


def random_sampler(state: SelectionState, rng) -> int:
    """Uniform draw from the pool, deterministic given the rng state."""
    if not state.pool:
        raise PoolExhausted("selection pool is empty")
    return state.take(state.pool[rng.randrange(len(state.pool))])


def uncertainty_sampler(state: SelectionState, model, features_by_id, rng=None) -> int:
    """Pick the pool instance with maximal predictive entropy under the
    current downstream model; ties go to the lowest id. Falls back to a
    random draw before the first model exists."""
    if not state.pool:
        raise PoolExhausted("selection pool is empty")
    if model is None:
        if rng is None:
            return state.take(state.pool[0])
        return random_sampler(state, rng)
    pool = state.pool  # sorted, so ties resolve to the lowest id
    features = np.stack([features_by_id[iid] for iid in pool])
    scores = entropy_rows(predict_proba(model, features)).tolist()
    best = 0
    for k in range(1, len(pool)):
        if scores[k] > scores[best] + 1e-15:
            best = k
    return state.take(pool[best])


@dataclass
class SeuState:
    """Inputs for expected-utility scoring.

    candidate_accuracy maps (payload, class) to a validation-accuracy
    estimate; uncovered is the set of train instance ids not yet covered by
    the admitted LF set; posteriors maps pool instance id to the current
    label-model class distribution.
    """

    candidate_accuracy: dict
    uncovered: set
    posteriors: dict
    accuracy_prior: float = 0.5


def expected_utility(candidates) -> float:
    """Candidates are (accuracy, n_new_coverage) pairs.

    The candidate distribution is proportional to accuracy, each candidate's
    utility is accuracy * new coverage, and the score is the expectation.
    """
    total = sum(a for a, _ in candidates)
    if total <= 0:
        return 0.0
    return sum((a / total) * (a * ncov) for a, ncov in candidates)


def _instance_candidates(instance, seu: SeuState, ngram_cover_counts):
    cls = seu.posteriors.get(instance.id)
    label = int(np.argmax(cls)) if cls is not None else 0
    out = []
    for gram in extract_ngrams(tokenize(instance.text), 1, 3):
        acc = seu.candidate_accuracy.get((gram, label), seu.accuracy_prior)
        out.append((acc, ngram_cover_counts(gram)))
    return out


def seu_sampler(state: SelectionState, seu: SeuState, train_by_id, pool_cap: Optional[int] = None,
                rng=None) -> int:
    """Pick the pool instance whose candidate LFs have maximal expected
    utility; ties go to the lowest id."""
    if not state.pool:
        raise PoolExhausted("selection pool is empty")
    pool = state.pool
    if pool_cap is not None and len(pool) > pool_cap:
        if rng is None:
            pool = pool[:pool_cap]
        else:
            pool = sorted(rng.sample(pool, pool_cap))

    uncovered_grams = {}
    for iid in seu.uncovered:
        inst = train_by_id.get(iid)
        if inst is None:
            continue
        for gram in set(extract_ngrams(tokenize(inst.text), 1, 3)):
            uncovered_grams[gram] = uncovered_grams.get(gram, 0) + 1

    def cover_count(gram):
        return uncovered_grams.get(gram, 0)

    best_id = None
    best_score = -math.inf
    for iid in pool:
        candidates = _instance_candidates(train_by_id[iid], seu, cover_count)
        score = expected_utility(candidates)
        if score > best_score + 1e-12:
            best_score = score
            best_id = iid
    return state.take(best_id)
