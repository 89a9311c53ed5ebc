import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab.corpus import Instance
from weaklab.downstream import (
    LinearModel,
    accuracy_score,
    binary_f1,
    evaluate,
    featurize,
    featurize_all,
    fit_tfidf,
    loss_and_grad,
    predict_proba,
    train_logreg,
)
from weaklab.downstream import fit_tfidf as _fit


class TestTfidf:
    CORPUS = ["the cat sat", "the dog sat", "the cat ran"]

    def test_idf_values(self):
        space = fit_tfidf(self.CORPUS)
        # N=3; df: the=3, cat=2, sat=2, dog=1, ran=1
        assert space.idf[space.vocabulary["the"]] == pytest.approx(math.log(4 / 4) + 1)
        assert space.idf[space.vocabulary["cat"]] == pytest.approx(math.log(4 / 3) + 1)
        assert space.idf[space.vocabulary["dog"]] == pytest.approx(math.log(4 / 2) + 1)

    def test_min_df_prunes_rare_tokens(self):
        space = fit_tfidf(self.CORPUS, min_df=2)
        assert set(space.vocabulary) == {"the", "cat", "sat"}

    def test_max_features_keeps_most_frequent(self):
        space = fit_tfidf(self.CORPUS, max_features=2)
        # df ties broken lexicographically: "the"(3) then "cat"(2) beats "sat"(2)
        assert set(space.vocabulary) == {"the", "cat"}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_tfidf([])

    def test_vectors_are_l2_normalized(self):
        space = fit_tfidf(self.CORPUS)
        for text in self.CORPUS:
            assert np.linalg.norm(featurize(space, text)) == pytest.approx(1.0)

    def test_oov_tokens_ignored(self):
        space = fit_tfidf(self.CORPUS)
        assert np.array_equal(featurize(space, "zebra quux"), np.zeros(space.dim))

    def test_repeated_token_counts(self):
        space = fit_tfidf(["a b", "a c"])
        v1 = featurize(space, "a a b")
        v2 = featurize(space, "a b")
        # doubling the count of "a" tilts the normalized vector toward "a"
        assert v1[space.vocabulary["a"]] > v2[space.vocabulary["a"]]

    def test_featurize_all_empty(self):
        space = fit_tfidf(self.CORPUS)
        assert featurize_all(space, []).shape == (0, space.dim)


def numeric_grad(weights, bias, features, soft, l2, eps=1e-6):
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros_like(bias)
    for idx in np.ndindex(*weights.shape):
        w = weights.copy()
        w[idx] += eps
        lo_plus = loss_and_grad(w, bias, features, soft, l2)[0]
        w[idx] -= 2 * eps
        lo_minus = loss_and_grad(w, bias, features, soft, l2)[0]
        grad_w[idx] = (lo_plus - lo_minus) / (2 * eps)
    for k in range(bias.size):
        b = bias.copy()
        b[k] += eps
        lo_plus = loss_and_grad(weights, b, features, soft, l2)[0]
        b[k] -= 2 * eps
        lo_minus = loss_and_grad(weights, b, features, soft, l2)[0]
        grad_b[k] = (lo_plus - lo_minus) / (2 * eps)
    return grad_w, grad_b


class TestLogreg:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_analytic_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(6, 3))
        soft = rng.uniform(0.1, 1.0, size=(6, 2))
        soft /= soft.sum(axis=1, keepdims=True)
        weights = rng.normal(scale=0.5, size=(2, 3))
        bias = rng.normal(scale=0.5, size=2)
        _, gw, gb = loss_and_grad(weights, bias, features, soft, 0.01)
        nw, nb = numeric_grad(weights, bias, features, soft, 0.01)
        assert np.abs(gw - nw).max() < 1e-6
        assert np.abs(gb - nb).max() < 1e-6

    def test_separable_data_fit(self):
        features = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        labels = [0, 0, 1, 1]
        model = train_logreg(features, labels, 2)
        preds = predict_proba(model, features).argmax(axis=1)
        assert list(preds) == labels

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        m1 = train_logreg(features, labels, 3)
        m2 = train_logreg(features, labels, 3)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_soft_labels_accepted(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0]])
        soft = np.array([[0.9, 0.1], [0.1, 0.9]])
        model = train_logreg(features, soft, 2)
        preds = predict_proba(model, features).argmax(axis=1)
        assert list(preds) == [0, 1]

    def test_soft_labels_must_be_row_stochastic(self):
        features = np.zeros((2, 2))
        with pytest.raises(ValueError, match="row-stochastic"):
            train_logreg(features, np.array([[0.9, 0.4], [0.5, 0.5]]), 2)

    def test_hard_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            train_logreg(np.zeros((2, 2)), [0, 5], 2)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train_logreg(np.zeros((0, 2)), [], 2)

    def test_l2_shrinks_weights(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0]] * 5)
        labels = [0, 1] * 5
        light = train_logreg(features, labels, 2, l2=1e-6)
        heavy = train_logreg(features, labels, 2, l2=1.0)
        assert np.abs(heavy.weights).sum() < np.abs(light.weights).sum()

    def test_warm_start_converges_to_same_region(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(40, 3))
        labels = rng.integers(0, 2, size=40)
        cold = train_logreg(features, labels, 2, grad_tol=1e-8)
        warm = train_logreg(features, labels, 2, grad_tol=1e-8, init=cold)
        assert np.abs(warm.weights - cold.weights).max() < 1e-5

    def test_predict_dim_mismatch(self):
        model = LinearModel(weights=np.zeros((2, 3)), bias=np.zeros(2), l2=0.0)
        with pytest.raises(ValueError, match="dim"):
            predict_proba(model, np.zeros((1, 4)))

    def test_training_monotonically_reduces_loss(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(25, 4))
        labels = rng.integers(0, 2, size=25)
        soft = np.zeros((25, 2))
        soft[np.arange(25), labels] = 1.0
        zero_loss = loss_and_grad(np.zeros((2, 4)), np.zeros(2), features, soft, 1e-4)[0]
        model = train_logreg(features, labels, 2, l2=1e-4)
        final_loss = loss_and_grad(model.weights, model.bias, features, soft, 1e-4)[0]
        assert final_loss < zero_loss


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score([0, 1, 1, 0], [0, 1, 0, 0]) == pytest.approx(0.75)

    def test_f1_hand_counted(self):
        # tp=2, fp=1, fn=1 -> f1 = 4/6
        y_true = [1, 1, 1, 0, 0]
        y_pred = [1, 1, 0, 1, 0]
        assert binary_f1(y_true, y_pred, 1) == pytest.approx(2 / 3)

    def test_f1_degenerate_zero(self):
        assert binary_f1([0, 0], [0, 0], 1) == 0.0

    def test_f1_perfect(self):
        assert binary_f1([1, 0, 1], [1, 0, 1], 1) == 1.0

    def test_evaluate_accuracy_and_f1(self):
        space = fit_tfidf(["good day", "bad day"])
        split = [Instance(id=0, text="good day", gold_label=0),
                 Instance(id=1, text="bad day", gold_label=1)]
        features = featurize_all(space, [i.text for i in split])
        model = train_logreg(features, [0, 1], 2)
        assert evaluate(model, space, split, "accuracy") == 1.0
        assert evaluate(model, space, split, "binary_f1", positive_class=1) == 1.0

    def test_evaluate_unknown_metric(self):
        model = LinearModel(weights=np.zeros((2, 1)), bias=np.zeros(2), l2=0.0)
        split = [Instance(id=0, text="a", gold_label=0)]
        space = fit_tfidf(["a"])
        with pytest.raises(ValueError, match="unknown metric"):
            evaluate(model, space, split, "auc")
