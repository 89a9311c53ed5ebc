"""Query-instance selection: random, predictive-entropy uncertainty, and
expected-utility scoring of the candidate LFs an annotator would return."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .downstream import predict_proba
from .labelfns import KeywordIndex


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


def seu_sampler(state: SelectionState, seu: SeuState, train_by_id, pool_cap: Optional[int] = None,
                rng=None, index: Optional[KeywordIndex] = None) -> int:
    """Pick the pool instance whose candidate LFs have maximal expected
    utility; ties go to the lowest id.

    An instance's candidates are its 1-3-grams, each for the instance's
    label (the argmax of its posterior, 0 without one), with the accuracy
    `candidate_accuracy` gives that (gram, label) or `accuracy_prior`, and
    covering the uncovered train instances that hold the gram. `index` is a
    `KeywordIndex` over the train instances; without one, `train_by_id`'s
    values are indexed. The score is `expected_utility` of the candidates,
    computed for the whole pool at once: sums run over the grams in
    `extract_ngrams` order, one column of `index.padded_ids` at a time, so
    every score equals Python's left-to-right `sum` bit for bit, and no
    pool × grams float matrix is held.
    """
    if not state.pool:
        raise PoolExhausted("selection pool is empty")
    pool = state.pool
    if pool_cap is not None and len(pool) > pool_cap:
        if rng is None:
            pool = pool[:pool_cap]
        else:
            pool = sorted(rng.sample(pool, pool_cap))
    if index is None:
        index = KeywordIndex(train_by_id.values())
    row_of = {inst.id: i for i, inst in enumerate(index.instances)}
    pad = len(index.gram_ids)  # the padding id: no gram, accuracy 0, covers nothing

    uncovered = np.zeros(len(index.instances), dtype=bool)
    uncovered[[row_of[iid] for iid in seu.uncovered if iid in row_of]] = True
    cover = np.bincount(index.ids[np.repeat(uncovered, np.diff(index.indptr))], minlength=pad + 1)

    labels = np.zeros(len(pool), dtype=np.int64)
    known = [k for k, iid in enumerate(pool) if iid in seu.posteriors]
    if known:
        labels[known] = np.argmax([seu.posteriors[pool[k]] for k in known], axis=1)
    n_labels = int(labels.max()) + 1
    table = np.full((n_labels, pad + 1), float(seu.accuracy_prior))
    table[:, pad] = 0.0
    for (gram, label), acc in seu.candidate_accuracy.items():
        gram_id = index.gram_ids.get(gram)
        if gram_id is not None and 0 <= label < n_labels:
            table[label, gram_id] = acc

    rows = np.array([row_of[iid] for iid in pool], dtype=np.int64)
    total = np.zeros(len(pool))
    for column in index.padded_ids.T:
        total += table[labels, column[rows]]
    positive = total > 0
    divisor = np.where(positive, total, 1.0)
    utility = np.zeros(len(pool))
    for column in index.padded_ids.T:
        grams = column[rows]
        acc = table[labels, grams]
        utility += (acc / divisor) * (acc * cover[grams])
    scores = np.where(positive, utility, 0.0).tolist()

    best = 0
    for k in range(1, len(pool)):
        if scores[k] > scores[best] + 1e-12:
            best = k
    return state.take(pool[best])
