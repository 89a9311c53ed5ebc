"""Text featurization and the downstream classifier.

TF-IDF features feed a multinomial logistic regression trained by
deterministic full-batch gradient descent with backtracking line search.
`evaluate` always featurizes the split it scores, in blocks of EVAL_BLOCK
rows, so no caller holds a split's whole dense matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import Tokens, tokenize_all


@dataclass
class FeatureSpace:
    vocabulary: dict  # token -> column index
    idf: np.ndarray  # (dim,)
    dim: int


def fit_tfidf(train, min_df: int = 1, max_features: int = 50000) -> FeatureSpace:
    """Build the vocabulary and idf table from the training corpus: its
    texts, or their `Tokens`.

    Tokens need document frequency >= min_df; the vocabulary is capped at
    max_features by descending document frequency with lexicographic
    tie-break, and its columns are in lexicographic order.
    idf(t) = ln((1 + N) / (1 + df(t))) + 1.
    """
    if min_df < 1:
        raise ValueError("min_df must be at least 1, not %r" % (min_df,))
    if max_features < 1:
        raise ValueError("max_features must be at least 1, not %r" % (max_features,))
    tokens = train if isinstance(train, Tokens) else tokenize_all(train)
    n = tokens.n_texts
    if not n:
        raise ValueError("empty corpus")
    # (token, text) pairs as token x texts + text, sorted, so repeats are neighbours
    pairs = np.sort(tokens.ids.astype(np.int64) * n + tokens.rows())
    distinct = np.ones(len(pairs), dtype=bool)
    distinct[1:] = pairs[1:] != pairs[:-1]
    df = np.bincount(pairs[distinct] // n, minlength=len(tokens.token_ids))
    words = list(tokens.token_ids)
    rank = np.empty(len(words), dtype=np.int64)  # each token's place in lexicographic order
    rank[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
    eligible = np.flatnonzero(df >= min_df)
    kept = eligible[np.lexsort((rank[eligible], -df[eligible]))][:max_features]
    kept = kept[np.argsort(rank[kept])]
    vocabulary = {words[t]: col for col, t in enumerate(kept.tolist())}
    idf = np.array([math.log((1 + n) / (1 + d)) + 1.0 for d in df[kept].tolist()])
    return FeatureSpace(vocabulary=vocabulary, idf=idf, dim=len(kept))


def featurize_all(space: FeatureSpace, texts) -> np.ndarray:
    """One L2-normalized tf-idf row per text (or per text of a `Tokens`),
    filled into a single preallocated matrix; out-of-vocabulary tokens are
    ignored.

    Each token adds its idf to its column in token order (`np.add.at`
    applies repeated indices one after another), so a cell is the bits of
    adding its tokens one by one. Each row's norm is `np.linalg.norm` of
    the dense row: a sum over its non-zeros alone could round differently.
    """
    tokens = texts if isinstance(texts, Tokens) else tokenize_all(texts)
    column = np.array([space.vocabulary.get(t, -1) for t in tokens.token_ids],
                      dtype=np.int64)[tokens.ids]
    known = np.flatnonzero(column >= 0)
    column = column[known]
    out = np.zeros((tokens.n_texts, space.dim))
    np.add.at(out.reshape(-1), tokens.rows()[known] * space.dim + column, space.idf[column])
    norms = np.array([np.linalg.norm(vec) for vec in out])
    out /= np.where(norms > 0, norms, 1.0)[:, None]
    return out


@dataclass
class LinearModel:
    weights: np.ndarray  # (C, dim)
    bias: np.ndarray  # (C,)
    l2: float
    # how train_logreg ended; None on a model it did not fit
    n_iter: Optional[int] = None  # accepted gradient steps
    grad_norm: Optional[float] = None  # max-abs gradient at the returned weights
    converged: Optional[bool] = None  # False when the fit stopped at max_iters

    @property
    def n_classes(self):
        return self.weights.shape[0]

    @property
    def dim(self):
        return self.weights.shape[1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    # the row max taken column by column: max is exact in any order, and a
    # strided reduction over a few columns is slower than C-1 np.maximum calls
    z = logits - functools.reduce(np.maximum, logits.T)[:, None]
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _as_soft(labels, n, n_classes) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim == 1:
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
            raise ValueError("label index out of range")
        soft = np.zeros((n, n_classes))
        soft[np.arange(n), labels.astype(int)] = 1.0
        return soft
    if labels.shape != (n, n_classes):
        raise ValueError("soft label matrix has shape %r, expected %r" % (labels.shape, (n, n_classes)))
    if not np.allclose(labels.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("soft labels must be row-stochastic")
    return labels


def _objective(weights, bias, features, soft_labels, l2):
    """The loss of `loss_and_grad` and the class probabilities it came from."""
    n = features.shape[0]
    probs = _softmax(features @ weights.T + bias)
    eps = 1e-300
    loss = -float((soft_labels * np.log(probs + eps)).sum()) / n
    loss += 0.5 * l2 * float((weights ** 2).sum())
    return loss, probs


def _gradient(probs, weights, features, soft_labels, l2):
    """The gradient of `loss_and_grad` from the probabilities `_objective` returned."""
    delta = (probs - soft_labels) / features.shape[0]
    return delta.T @ features + l2 * weights, delta.sum(axis=0)


def loss_and_grad(weights, bias, features, soft_labels, l2):
    """Mean cross-entropy plus (l2/2)*||W||^2 (bias unregularized), with
    analytic gradients."""
    loss, probs = _objective(weights, bias, features, soft_labels, l2)
    return (loss, *_gradient(probs, weights, features, soft_labels, l2))


def _max_abs(grad_w, grad_b) -> float:
    return max(np.abs(grad_w).max(initial=0.0), np.abs(grad_b).max(initial=0.0))


def train_logreg(features: np.ndarray, labels, n_classes: int, l2: float = 1e-4,
                 max_iters: int = 1000, grad_tol: float = 1e-6,
                 init: Optional[LinearModel] = None) -> LinearModel:
    """Full-batch gradient descent with backtracking (Armijo) line search.

    Each iteration first tries twice the last accepted step (at most 1e4) and
    halves it until the loss falls by at least 1e-4 * step * |grad|^2 (or the
    step drops below 1e-12). Trial steps evaluate only the loss; the gradient
    is computed once per accepted step, from the probabilities its loss
    already holds. The fit stops once the max-abs gradient is below grad_tol
    (converged) or after max_iters steps.

    Deterministic from zero initialization; `init` enables warm starts when
    retraining across pipeline iterations.
    """
    n, dim = features.shape
    if n < 1:
        raise ValueError("need at least one training example")
    soft = _as_soft(labels, n, n_classes)
    if init is not None and init.weights.shape == (n_classes, dim):
        weights = init.weights.copy()
        bias = init.bias.copy()
    else:
        weights = np.zeros((n_classes, dim))
        bias = np.zeros(n_classes)
    step = 1.0
    n_iter = 0
    loss, grad_w, grad_b = loss_and_grad(weights, bias, features, soft, l2)
    grad_norm = _max_abs(grad_w, grad_b)
    while n_iter < max_iters and not grad_norm < grad_tol:  # a NaN norm keeps going
        grad_sq = float((grad_w ** 2).sum() + (grad_b ** 2).sum())
        # backtracking line search on the Armijo condition
        step = min(step * 2.0, 1e4)
        while True:
            new_w = weights - step * grad_w
            new_b = bias - step * grad_b
            new_loss, probs = _objective(new_w, new_b, features, soft, l2)
            if new_loss <= loss - 1e-4 * step * grad_sq or step < 1e-12:
                break
            step *= 0.5
        weights, bias, loss = new_w, new_b, new_loss
        grad_w, grad_b = _gradient(probs, weights, features, soft, l2)
        grad_norm = _max_abs(grad_w, grad_b)
        n_iter += 1
    return LinearModel(weights=weights, bias=bias, l2=l2, n_iter=n_iter,
                       grad_norm=float(grad_norm), converged=bool(grad_norm < grad_tol))


def predict_proba(model: LinearModel, features: np.ndarray) -> np.ndarray:
    features = np.atleast_2d(features)
    if features.shape[1] != model.dim:
        raise ValueError("feature dim %d does not match model dim %d" % (features.shape[1], model.dim))
    return _softmax(features @ model.weights.T + model.bias)


def accuracy_score(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    return float((y_true == y_pred).mean())


def binary_f1(y_true, y_pred, positive_class: int) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = int(((y_pred == positive_class) & (y_true == positive_class)).sum())
    fp = int(((y_pred == positive_class) & (y_true != positive_class)).sum())
    fn = int(((y_pred != positive_class) & (y_true == positive_class)).sum())
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


# Rows `evaluate` featurizes and scores at a time, so a split never needs
# its whole dense matrix at once. Each block is dropped before the next is
# built: one block is live at a time.
EVAL_BLOCK = 256


def evaluate(model: LinearModel, space: FeatureSpace, split, metric: str = "accuracy",
             positive_class: int = 1) -> float:
    """Score the model on a gold-labeled split with accuracy or binary F1.

    The split is featurized and predicted EVAL_BLOCK rows at a time; the
    predictions equal those from one matrix of every row. An empty split
    has no score and raises ValueError.
    """
    instances = list(split)
    if not instances:
        raise ValueError("cannot score an empty split")
    y_true = np.array([inst.gold_label for inst in instances])
    y_pred = np.zeros(len(instances), dtype=np.int64)
    for start in range(0, len(instances), EVAL_BLOCK):
        texts = [inst.text for inst in instances[start:start + EVAL_BLOCK]]
        # the block is a temporary, freed before the next one is built
        y_pred[start:start + len(texts)] = predict_proba(
            model, featurize_all(space, texts)).argmax(axis=1)
    if metric == "accuracy":
        return accuracy_score(y_true, y_pred)
    if metric == "binary_f1":
        if model.n_classes != 2:
            raise ValueError("binary F1 needs a 2-class model")
        return binary_f1(y_true, y_pred, positive_class)
    raise ValueError("unknown metric %r" % metric)
