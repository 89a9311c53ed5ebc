"""Text featurization and the downstream classifier.

TF-IDF features feed a multinomial logistic regression trained by
deterministic full-batch gradient descent with backtracking line search.
Dense precomputed embeddings can be substituted for TF-IDF by passing a
feature matrix directly to train_logreg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import tokenize


@dataclass
class FeatureSpace:
    vocabulary: dict  # token -> column index
    idf: np.ndarray  # (dim,)
    dim: int


def fit_tfidf(train_texts, min_df: int = 1, max_features: int = 50000) -> FeatureSpace:
    """Build the vocabulary and idf table from the training corpus.

    Tokens need document frequency >= min_df; the vocabulary is capped at
    max_features by descending document frequency with lexicographic
    tie-break. idf(t) = ln((1 + N) / (1 + df(t))) + 1.
    """
    texts = list(train_texts)
    if not texts:
        raise ValueError("empty corpus")
    df: dict = {}
    for text in texts:
        for token in set(tokenize(text)):
            df[token] = df.get(token, 0) + 1
    eligible = [t for t, d in df.items() if d >= min_df]
    eligible.sort(key=lambda t: (-df[t], t))
    eligible = eligible[:max_features]
    eligible.sort()
    vocabulary = {t: i for i, t in enumerate(eligible)}
    n = len(texts)
    idf = np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in eligible])
    return FeatureSpace(vocabulary=vocabulary, idf=idf, dim=len(eligible))


def featurize(space: FeatureSpace, text: str) -> np.ndarray:
    """L2-normalized tf-idf vector; out-of-vocabulary tokens are ignored."""
    vec = np.zeros(space.dim)
    for token in tokenize(text):
        idx = space.vocabulary.get(token)
        if idx is not None:
            vec[idx] += space.idf[idx]
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def featurize_all(space: FeatureSpace, texts) -> np.ndarray:
    return np.stack([featurize(space, t) for t in texts]) if texts else np.zeros((0, space.dim))


@dataclass
class LinearModel:
    weights: np.ndarray  # (C, dim)
    bias: np.ndarray  # (C,)
    l2: float

    @property
    def n_classes(self):
        return self.weights.shape[0]

    @property
    def dim(self):
        return self.weights.shape[1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
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


def loss_and_grad(weights, bias, features, soft_labels, l2):
    """Mean cross-entropy plus (l2/2)*||W||^2 (bias unregularized), with
    analytic gradients."""
    n = features.shape[0]
    probs = _softmax(features @ weights.T + bias)
    eps = 1e-300
    loss = -float((soft_labels * np.log(probs + eps)).sum()) / n
    loss += 0.5 * l2 * float((weights ** 2).sum())
    delta = (probs - soft_labels) / n
    grad_w = delta.T @ features + l2 * weights
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def train_logreg(features: np.ndarray, labels, n_classes: int, l2: float = 1e-4,
                 max_iters: int = 1000, grad_tol: float = 1e-6,
                 init: Optional[LinearModel] = None) -> LinearModel:
    """Full-batch gradient descent with backtracking (Armijo) line search.

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
    loss, grad_w, grad_b = loss_and_grad(weights, bias, features, soft, l2)
    for _ in range(max_iters):
        grad_norm = max(np.abs(grad_w).max(initial=0.0), np.abs(grad_b).max(initial=0.0))
        if grad_norm < grad_tol:
            break
        grad_sq = float((grad_w ** 2).sum() + (grad_b ** 2).sum())
        # backtracking line search on the Armijo condition
        step = min(step * 2.0, 1e4)
        while True:
            new_w = weights - step * grad_w
            new_b = bias - step * grad_b
            new_loss, new_gw, new_gb = loss_and_grad(new_w, new_b, features, soft, l2)
            if new_loss <= loss - 1e-4 * step * grad_sq or step < 1e-12:
                break
            step *= 0.5
        weights, bias = new_w, new_b
        loss, grad_w, grad_b = new_loss, new_gw, new_gb
    return LinearModel(weights=weights, bias=bias, l2=l2)


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


def evaluate(model: LinearModel, space: Optional[FeatureSpace], split, metric: str = "accuracy",
             positive_class: int = 1, features: Optional[np.ndarray] = None) -> float:
    """Score the model on a gold-labeled split with accuracy or binary F1."""
    instances = list(split)
    y_true = np.array([inst.gold_label for inst in instances])
    if features is None:
        features = featurize_all(space, [inst.text for inst in instances])
    y_pred = predict_proba(model, features).argmax(axis=1)
    if metric == "accuracy":
        return accuracy_score(y_true, y_pred)
    if metric == "binary_f1":
        if model.n_classes != 2:
            raise ValueError("binary F1 needs a 2-class model")
        return binary_f1(y_true, y_pred, positive_class)
    raise ValueError("unknown metric %r" % metric)
