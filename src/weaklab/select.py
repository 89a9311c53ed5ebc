"""Query-instance selection: random, predictive-entropy uncertainty, and
expected-utility scoring of the candidate LFs an annotator would return."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .downstream import predict_proba
from .labelfns import KeywordIndex


class PoolExhausted(RuntimeError):
    """Raised when a sampler is asked to draw from an empty pool."""


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each row, with the 0*ln(0) = 0 convention."""
    return -(probs * np.log(np.where(probs > 0, probs, 1.0))).sum(axis=1)


@dataclass
class SelectionState:
    """Without-replacement pool over train rows, kept in the order given,
    and the scores `uncertainty_sampler` and `seu_sampler` last worked out
    (None before)."""

    pool: list
    entropy: Optional[EntropyScores] = None
    seu: Optional[SeuScores] = None

    def take(self, row):
        self.pool.remove(row)
        return row


def first_max(scores: np.ndarray, eps: float) -> int:
    """The index `best` on which the loop `best = k if scores[k] >
    scores[best] + eps`, run from best = 0 over k = 1, 2, ..., ends: the
    earliest of scores within eps of each other wins a near-tie. A NaN
    score is never picked after the first, and a NaN first score is kept.

    The loop only ever moves to a strict running maximum, a score above
    every earlier non-NaN score: any score it passed over was at most
    scores[best] + eps then, and scores[best] only grows. So it runs over
    those alone, found with `np.fmax.accumulate`, and ends on the index the
    full loop ends on.
    """
    best = 0
    ahead = np.flatnonzero(scores[1:] > np.fmax.accumulate(scores[:-1])) + 1
    for k, score in zip(ahead.tolist(), scores[ahead].tolist()):
        if score > scores[best] + eps:
            best = k
    return best


def random_sampler(state: SelectionState, rng) -> int:
    """Uniform draw from the pool, deterministic given the rng state."""
    if not state.pool:
        raise PoolExhausted("selection pool is empty")
    return state.take(state.pool[rng.randrange(len(state.pool))])


class EntropyScores:
    """The predictive entropy of every row of `features` under one model,
    and the inputs it came from: `features`, held as the same object, and
    copies of the model's weights and bias, so that a caller changing the
    model in place is seen as a change."""

    def __init__(self, model, features):
        self.features = features
        self.weights, self.bias = model.weights.copy(), model.bias.copy()
        self.scores = entropy_rows(predict_proba(model, features))

    def holds(self, model, features) -> bool:
        """Whether these are the inputs the scores came from."""
        return (features is self.features and np.array_equal(model.weights, self.weights)
                and np.array_equal(model.bias, self.bias))


def uncertainty_sampler(state: SelectionState, model, features, rng) -> int:
    """Pick the pool row whose `features` row has maximal predictive entropy
    under the current downstream model; ties go to the earliest in the pool
    (`first_max`, within 1e-15). Falls back to a random draw before the
    first model exists.

    Every row of `features` is scored with one `predict_proba` over the
    whole matrix, and the scores are kept on `state` (`EntropyScores`) with
    the model and features they came from. A pick under an equal model and
    the same features reuses them: `pipeline.refit` returns the same model
    on an iteration that admits nothing once the classifier has converged.
    Reuse is exact, since the product always runs over the same full
    matrix, so a kept score is the bits a fresh one would be.
    """
    if not state.pool:
        raise PoolExhausted("selection pool is empty")
    if model is None:
        return random_sampler(state, rng)
    if state.entropy is None or not state.entropy.holds(model, features):
        state.entropy = EntropyScores(model, features)
    pool = state.pool
    return state.take(pool[first_max(state.entropy.scores[pool], 1e-15)])


# the accuracy SEU gives a candidate (gram, label) that no admitted LF measured
PRIOR_ACCURACY = 0.5


class SeuScores:
    """SEU scores of train rows under one set of inputs, and those inputs.

    The inputs are `seu_sampler`'s index, labels, uncovered mask and
    accuracy map, copied so that a caller changing its own arrays in place
    is seen as a change. From them come each gram's new coverage (`cover`)
    and each (label, gram) accuracy (`table`). `scores` holds a score for
    each row `scored` marks.
    """

    def __init__(self, index: KeywordIndex, labels, uncovered, accuracy):
        self.index, self.accuracy = index, dict(accuracy)
        self.labels, self.uncovered = np.array(labels), np.array(uncovered)
        n_grams = index.n_grams
        self.cover = np.bincount(index.ids[np.repeat(self.uncovered, np.diff(index.indptr))],
                                 minlength=n_grams)
        n_labels = int(self.labels.max()) + 1
        self.table = np.full((n_labels, n_grams), PRIOR_ACCURACY)
        for (gram, label), acc in self.accuracy.items():
            gram_id = index.gram_id(gram.split(" "))
            if gram_id is not None and 0 <= label < n_labels:
                self.table[label, gram_id] = acc
        self.scores = np.zeros(len(self.labels))
        self.scored = np.zeros(len(self.labels), dtype=bool)

    def holds(self, index, labels, uncovered, accuracy) -> bool:
        """Whether these are the inputs the scores came from."""
        return (index is self.index and accuracy == self.accuracy
                and np.array_equal(labels, self.labels)
                and np.array_equal(uncovered, self.uncovered))

    def of(self, rows: np.ndarray) -> np.ndarray:
        """The scores of `rows`, working out those not scored yet."""
        fresh = rows[~self.scored[rows]]
        if len(fresh):
            starts = self.index.indptr[fresh]
            lengths = self.index.indptr[fresh + 1] - starts
            owner = np.repeat(np.arange(len(fresh)), lengths)  # the fresh row of each gram
            # a gram's place in `ids`: its row's start plus its rank in the row
            at = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths - starts, lengths)
            grams = self.index.ids[at]
            acc = self.table[self.labels[fresh][owner], grams]
            total = np.bincount(owner, weights=acc, minlength=len(fresh))
            positive = total > 0
            terms = (acc / np.where(positive, total, 1.0)[owner]) * (acc * self.cover[grams])
            utility = np.bincount(owner, weights=terms, minlength=len(fresh))
            self.scores[fresh] = np.where(positive, utility, 0.0)
            self.scored[fresh] = True
        return self.scores[rows]


def seu_sampler(state: SelectionState, index: KeywordIndex, labels, uncovered, accuracy, rng,
                pool_cap: Optional[int] = None) -> int:
    """Pick the pool row whose candidate LFs have maximal expected utility;
    ties go to the earliest in the pool (`first_max`, within 1e-12).

    `index` is a `KeywordIndex` over the train rows; `labels` holds each
    row's label (its posterior argmax) and `uncovered` marks the rows no
    admitted LF covers. A row's candidates are its 1-3-grams, each for the
    row's label, with the accuracy `accuracy` gives that (gram, label) or
    PRIOR_ACCURACY, and covering the uncovered rows that hold the gram.
    The score is the candidates' expected utility: each candidate is drawn
    with probability proportional to its accuracy a and is worth a times
    its new coverage, and a row whose accuracies total 0 scores 0. It is
    computed for many rows at once from the rows' gram ids, read straight
    from the index's CSR arrays (`ids`, `indptr`), so the arrays it builds
    are the size of the scored rows' n-grams. `np.bincount` sums each row's
    accuracies and utility terms first to last, in `extract_ngrams` order,
    so every score equals Python's left-to-right `sum` bit for bit. A pool
    longer than `pool_cap` is cut to an `rng.sample` of that many rows,
    kept in pool order.

    Scores are kept on `state` (`SeuScores`) with the inputs they came
    from, and reused while the next call passes equal inputs: only pool
    rows not scored under them are scored, such as rows first drawn into a
    capped sample. Any changed input drops every kept score. Reuse is
    exact: a row's score is made of elementwise operations, gathers and
    `np.bincount`'s in-order adds over that row's own grams, with no BLAS
    call, so it is the same bits whichever other rows are scored with it.
    """
    if not state.pool:
        raise PoolExhausted("selection pool is empty")
    pool = state.pool
    if pool_cap is not None and len(pool) > pool_cap:
        pool = [pool[k] for k in sorted(rng.sample(range(len(pool)), pool_cap))]
    if state.seu is None or not state.seu.holds(index, labels, uncovered, accuracy):
        state.seu = SeuScores(index, labels, uncovered, accuracy)
    scores = state.seu.of(np.array(pool, dtype=np.int64))
    return state.take(pool[first_max(scores, 1e-12)])
