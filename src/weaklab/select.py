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
    """Without-replacement pool over train rows, kept in the order given,
    and the SEU scores `seu_sampler` last worked out (None before)."""

    pool: list
    queried: list = field(default_factory=list)
    seu: Optional[SeuScores] = None

    def take(self, row):
        self.pool.remove(row)
        self.queried.append(row)
        return row


def random_sampler(state: SelectionState, rng) -> int:
    """Uniform draw from the pool, deterministic given the rng state."""
    if not state.pool:
        raise PoolExhausted("selection pool is empty")
    return state.take(state.pool[rng.randrange(len(state.pool))])


def uncertainty_sampler(state: SelectionState, model, features, rng=None) -> int:
    """Pick the pool row whose `features` row has maximal predictive entropy
    under the current downstream model; ties go to the earliest in the pool.
    Falls back to a random draw before the first model exists.

    Unlike SEU's, these scores are worked out afresh on every call, even for
    an unchanged model: `predict_proba`'s matrix product goes through BLAS,
    whose blocking depends on how many rows are multiplied at once, so a
    row's entropy can differ in the last bit between a full pool and a
    smaller one. A kept score could then flip a near-tie and change a pick.
    """
    if not state.pool:
        raise PoolExhausted("selection pool is empty")
    if model is None:
        if rng is None:
            return state.take(state.pool[0])
        return random_sampler(state, rng)
    pool = state.pool
    scores = entropy_rows(predict_proba(model, features[pool])).tolist()
    best = 0
    for k in range(1, len(pool)):
        if scores[k] > scores[best] + 1e-15:
            best = k
    return state.take(pool[best])


def expected_utility(candidates) -> float:
    """Candidates are (accuracy, n_new_coverage) pairs.

    The candidate distribution is proportional to accuracy, each candidate's
    utility is accuracy * new coverage, and the score is the expectation.
    """
    total = sum(a for a, _ in candidates)
    if total <= 0:
        return 0.0
    return sum((a / total) * (a * ncov) for a, ncov in candidates)


class SeuScores:
    """SEU scores of train rows under one set of inputs, and those inputs.

    The inputs are `seu_sampler`'s index, labels, uncovered mask, accuracy
    map and prior, copied so that a caller changing its own arrays in place
    is seen as a change. From them come each gram's new coverage (`cover`)
    and each (label, gram) accuracy (`table`). `scores` holds a score for
    each row `scored` marks.
    """

    def __init__(self, index: KeywordIndex, labels, uncovered, accuracy, prior: float):
        self.index, self.accuracy, self.prior = index, dict(accuracy), float(prior)
        self.labels, self.uncovered = np.array(labels), np.array(uncovered)
        n_grams = len(index.gram_ids)
        self.cover = np.bincount(index.ids[np.repeat(self.uncovered, np.diff(index.indptr))],
                                 minlength=n_grams)
        n_labels = int(self.labels.max()) + 1
        self.table = np.full((n_labels, n_grams), self.prior)
        for (gram, label), acc in self.accuracy.items():
            gram_id = index.gram_ids.get(gram)
            if gram_id is not None and 0 <= label < n_labels:
                self.table[label, gram_id] = acc
        self.scores = np.zeros(len(self.labels))
        self.scored = np.zeros(len(self.labels), dtype=bool)

    def holds(self, index, labels, uncovered, accuracy, prior) -> bool:
        """Whether these are the inputs the scores came from."""
        return (index is self.index and float(prior) == self.prior and accuracy == self.accuracy
                and np.array_equal(labels, self.labels)
                and np.array_equal(uncovered, self.uncovered))

    def of(self, rows: np.ndarray) -> list:
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
        return self.scores[rows].tolist()


def seu_sampler(state: SelectionState, index: KeywordIndex, labels, uncovered, accuracy,
                pool_cap: Optional[int] = None, rng=None, prior: float = 0.5) -> int:
    """Pick the pool row whose candidate LFs have maximal expected utility;
    ties go to the earliest in the pool.

    `index` is a `KeywordIndex` over the train rows; `labels` holds each
    row's label (its posterior argmax) and `uncovered` marks the rows no
    admitted LF covers. A row's candidates are its 1-3-grams, each for the
    row's label, with the accuracy `accuracy` gives that (gram, label) or
    `prior`, and covering the uncovered rows that hold the gram. The score
    is `expected_utility` of the candidates, computed for many rows at once
    from the rows' gram ids, read straight from the index's CSR arrays
    (`ids`, `indptr`), so the arrays it builds are the size of the scored
    rows' n-grams. `np.bincount` sums each row's accuracies and utility
    terms first to last, in `extract_ngrams` order, so every score equals
    Python's left-to-right `sum` bit for bit. A pool longer than
    `pool_cap` is cut to its first `pool_cap` rows, or with `rng` to a
    sample of that many, kept in pool order.

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
        if rng is None:
            pool = pool[:pool_cap]
        else:
            pool = [pool[k] for k in sorted(rng.sample(range(len(pool)), pool_cap))]
    if state.seu is None or not state.seu.holds(index, labels, uncovered, accuracy, prior):
        state.seu = SeuScores(index, labels, uncovered, accuracy, prior)
    scores = state.seu.of(np.array(pool, dtype=np.int64))

    best = 0
    for k in range(1, len(pool)):
        if scores[k] > scores[best] + 1e-12:
            best = k
    return state.take(pool[best])
