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
    """Without-replacement pool over train rows, kept in the order given."""

    pool: list
    queried: list = field(default_factory=list)

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
    Falls back to a random draw before the first model exists."""
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


def _row_sum(table: np.ndarray) -> np.ndarray:
    """The sum of a table's rows, added first to last."""
    total = np.zeros(table.shape[1])
    for row in table:
        total += row
    return total


def seu_sampler(state: SelectionState, index: KeywordIndex, labels, uncovered, accuracy,
                pool_cap: Optional[int] = None, rng=None, prior: float = 0.5) -> int:
    """Pick the pool row whose candidate LFs have maximal expected utility;
    ties go to the earliest in the pool.

    `index` is a `KeywordIndex` over the train rows; `labels` holds each
    row's label (its posterior argmax) and `uncovered` marks the rows no
    admitted LF covers. A row's candidates are its 1-3-grams, each for the
    row's label, with the accuracy `accuracy` gives that (gram, label) or
    `prior`, and covering the uncovered rows that hold the gram. The score
    is `expected_utility` of the candidates, computed for the whole pool at
    once from tables of accuracies and utility terms gathered through
    `index.padded_ids`: a row per gram position of the split's longest row
    and a column per pool row (0.2 MB each for 350 rows of at most 75
    grams, not pool × all grams). Sums add the table rows first to last,
    in `extract_ngrams` order, so every score equals Python's left-to-right
    `sum` bit for bit. A pool longer than `pool_cap` is cut to its first
    `pool_cap` rows, or with `rng` to a sample of that many, kept in pool
    order.
    """
    if not state.pool:
        raise PoolExhausted("selection pool is empty")
    pool = state.pool
    if pool_cap is not None and len(pool) > pool_cap:
        if rng is None:
            pool = pool[:pool_cap]
        else:
            pool = [pool[k] for k in sorted(rng.sample(range(len(pool)), pool_cap))]
    pad = len(index.gram_ids)  # the padding id: no gram, accuracy 0, covers nothing
    cover = np.bincount(index.ids[np.repeat(uncovered, np.diff(index.indptr))], minlength=pad + 1)

    rows = np.array(pool, dtype=np.int64)
    labels = labels[rows]
    n_labels = int(labels.max()) + 1
    table = np.full((n_labels, pad + 1), float(prior))
    table[:, pad] = 0.0
    for (gram, label), acc in accuracy.items():
        gram_id = index.gram_ids.get(gram)
        if gram_id is not None and 0 <= label < n_labels:
            table[label, gram_id] = acc

    grams = index.padded_ids.T[:, rows].astype(np.intp)  # gram position × pool
    acc = table.ravel()[labels * (pad + 1) + grams]  # table[labels, grams], gathered flat
    total = _row_sum(acc)
    positive = total > 0
    utility = _row_sum((acc / np.where(positive, total, 1.0)) * (acc * cover[grams]))
    scores = np.where(positive, utility, 0.0).tolist()

    best = 0
    for k in range(1, len(pool)):
        if scores[k] > scores[best] + 1e-12:
            best = k
    return state.take(pool[best])
