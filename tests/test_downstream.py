import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab import downstream
from weaklab.corpus import Instance, tokenize
from weaklab.downstream import (
    EVAL_BLOCK,
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

    def test_featurize_all_equals_the_per_text_loop(self):
        rng = np.random.default_rng(0)
        vocab = ["w%d" % k for k in range(40)]
        texts = [" ".join(rng.choice(vocab, size=int(rng.integers(0, 25)))) for _ in range(60)]
        space = fit_tfidf(texts[:30], min_df=2)
        got = featurize_all(space, texts)
        for row, text in zip(got, texts):
            assert row.tolist() == _featurize_reference(space, text).tolist()
            assert featurize(space, text).tolist() == row.tolist()


def _featurize_reference(space, text):
    """The per-text TF-IDF loop: one zero vector, idf added per token, then
    divided by its L2 norm."""
    vec = np.zeros(space.dim)
    for token in tokenize(text):
        idx = space.vocabulary.get(token)
        if idx is not None:
            vec[idx] += space.idf[idx]
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


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


def _softmax_reference(logits):
    """The softmax before the column-wise row max: one `max(axis=1)`."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_grad_reference(weights, bias, features, soft_labels, l2):
    n = features.shape[0]
    probs = _softmax_reference(features @ weights.T + bias)
    eps = 1e-300
    loss = -float((soft_labels * np.log(probs + eps)).sum()) / n
    loss += 0.5 * l2 * float((weights ** 2).sum())
    delta = (probs - soft_labels) / n
    grad_w = delta.T @ features + l2 * weights
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def _train_logreg_reference(features, soft, l2, max_iters, grad_tol, weights, bias):
    """The gradient-descent loop that evaluates the full loss and gradient at
    every trial step of its line search."""
    step = 1.0
    loss, grad_w, grad_b = _loss_and_grad_reference(weights, bias, features, soft, l2)
    for _ in range(max_iters):
        grad_norm = max(np.abs(grad_w).max(initial=0.0), np.abs(grad_b).max(initial=0.0))
        if grad_norm < grad_tol:
            break
        grad_sq = float((grad_w ** 2).sum() + (grad_b ** 2).sum())
        step = min(step * 2.0, 1e4)
        while True:
            new_w = weights - step * grad_w
            new_b = bias - step * grad_b
            new_loss, new_gw, new_gb = _loss_and_grad_reference(new_w, new_b, features, soft, l2)
            if new_loss <= loss - 1e-4 * step * grad_sq or step < 1e-12:
                break
            step *= 0.5
        weights, bias = new_w, new_b
        loss, grad_w, grad_b = new_loss, new_gw, new_gb
    return weights, bias


class TestLineSearch:
    @given(seed=st.integers(0, 2 ** 32 - 1), n_classes=st.integers(2, 12),
           soft_labels=st.booleans(), warm=st.booleans(), max_iters=st.integers(1, 300),
           scale=st.sampled_from([1.0, 30.0, 1e3]))
    @settings(max_examples=60, deadline=None)
    def test_weights_equal_the_full_gradient_loop_bit_for_bit(self, seed, n_classes,
                                                              soft_labels, warm, max_iters,
                                                              scale):
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        # `scale` stretches the features, so logits reach the magnitude where
        # exp underflows without the row-max shift
        features = scale * rng.normal(size=(n, dim))
        hard = rng.integers(0, n_classes, size=n)
        soft = np.zeros((n, n_classes))
        soft[np.arange(n), hard] = 1.0
        if soft_labels:
            soft = rng.uniform(0.0, 1.0, size=(n, n_classes))
            soft /= soft.sum(axis=1, keepdims=True)
        init = None
        weights, bias = np.zeros((n_classes, dim)), np.zeros(n_classes)
        if warm:
            weights = scale * rng.normal(size=(n_classes, dim))
            bias = rng.normal(size=n_classes)
            init = LinearModel(weights=weights, bias=bias, l2=0.0)
        l2 = float(rng.choice([0.0, 1e-4, 0.1]))
        model = train_logreg(features, soft if soft_labels else hard, n_classes, l2=l2,
                             max_iters=max_iters, grad_tol=1e-6, init=init)
        want_w, want_b = _train_logreg_reference(features, soft, l2, max_iters, 1e-6,
                                                 weights, bias)
        assert np.array_equal(model.weights, want_w)
        assert np.array_equal(model.bias, want_b)

    @given(seed=st.integers(0, 2 ** 32 - 1), n_classes=st.integers(1, 12),
           magnitude=st.sampled_from([1.0, 1e3, 1e300]))
    @settings(max_examples=60, deadline=None)
    def test_softmax_equals_the_row_max_reference(self, seed, n_classes, magnitude):
        rng = np.random.default_rng(seed)
        logits = magnitude * rng.normal(size=(int(rng.integers(0, 20)), n_classes))
        logits[rng.uniform(size=logits.shape) < 0.2] = 0.0  # ties, signed zeros below
        logits[rng.uniform(size=logits.shape) < 0.1] = -0.0
        got = downstream._softmax(logits)
        assert np.array_equal(got, _softmax_reference(logits), equal_nan=True)

    def test_trial_steps_evaluate_no_gradient(self, monkeypatch):
        calls = {"loss_and_grad": 0, "_gradient": 0}
        for name in calls:
            original = getattr(downstream, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(downstream, name, counted)
        rng = np.random.default_rng(5)
        features = rng.normal(size=(50, 6))
        model = train_logreg(features, rng.integers(0, 3, size=50), 3, max_iters=40)
        # one gradient at the start (inside loss_and_grad), one per accepted step
        assert calls == {"loss_and_grad": 1, "_gradient": 1 + model.n_iter}
        assert model.n_iter == 40


class TestFitDiagnostics:
    def test_capped_fit_is_reported(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(30, 4))
        labels = rng.integers(0, 2, size=30)
        model = train_logreg(features, labels, 2, l2=0.0, max_iters=1)
        assert model.n_iter == 1 and not model.converged
        soft = downstream._as_soft(labels, 30, 2)
        _, gw, gb = loss_and_grad(model.weights, model.bias, features, soft, 0.0)
        assert model.grad_norm == max(np.abs(gw).max(), np.abs(gb).max()) >= 1e-6

    def test_converged_fit_is_reported(self):
        features = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        labels = [0, 0, 1, 1]
        model = train_logreg(features, labels, 2, l2=1e-2, max_iters=1000, grad_tol=1e-6)
        assert model.converged and 0 < model.n_iter < 1000
        soft = downstream._as_soft(labels, 4, 2)
        _, gw, gb = loss_and_grad(model.weights, model.bias, features, soft, 1e-2)
        assert model.grad_norm == max(np.abs(gw).max(), np.abs(gb).max()) < 1e-6

    def test_fit_from_a_converged_model_takes_no_step(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0]] * 3)
        labels = [0, 1] * 3
        first = train_logreg(features, labels, 2, l2=1e-2)
        again = train_logreg(features, labels, 2, l2=1e-2, init=first)
        assert again.converged and again.n_iter == 0
        assert np.array_equal(again.weights, first.weights)


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

    @pytest.mark.parametrize("n_test", [1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 1000])
    def test_evaluate_in_blocks_equals_one_matrix(self, monkeypatch, n_test):
        rng = np.random.default_rng(n_test)
        vocab = ["w%d" % k for k in range(60)]
        texts = [" ".join(rng.choice(vocab, size=int(rng.integers(0, 12)))) for _ in range(n_test)]
        space = fit_tfidf([" ".join(vocab[:50])] + texts[:100])
        model = LinearModel(weights=rng.normal(size=(3, space.dim)), bias=rng.normal(size=3),
                            l2=0.0)
        split = [Instance(id=i, text=t, gold_label=i % 3) for i, t in enumerate(texts)]
        want = predict_proba(model, featurize_all(space, texts)).argmax(axis=1)

        predicted, block_rows = [], []
        real_featurize_all = downstream.featurize_all

        def recording(space, texts):
            block_rows.append(len(texts))
            return real_featurize_all(space, texts)

        monkeypatch.setattr(downstream, "featurize_all", recording)
        monkeypatch.setattr(downstream, "accuracy_score",
                            lambda y_true, y_pred: predicted.append(y_pred) or 0.0)
        evaluate(model, space, split, "accuracy")
        assert predicted[0].tolist() == want.tolist()
        assert max(block_rows, default=0) <= EVAL_BLOCK and sum(block_rows) == n_test

    @pytest.mark.parametrize("given_features", [False, True])
    def test_evaluate_rejects_an_empty_split(self, given_features):
        # the mean of no predictions would be NaN, which is not a score
        model = LinearModel(weights=np.zeros((2, 1)), bias=np.zeros(2), l2=0.0)
        space = fit_tfidf(["a"])
        features = np.zeros((0, 1)) if given_features else None
        with pytest.raises(ValueError, match="empty split"):
            evaluate(model, space, [], "accuracy", features=features)

    def test_evaluate_unknown_metric(self):
        model = LinearModel(weights=np.zeros((2, 1)), bias=np.zeros(2), l2=0.0)
        split = [Instance(id=0, text="a", gold_label=0)]
        space = fit_tfidf(["a"])
        with pytest.raises(ValueError, match="unknown metric"):
            evaluate(model, space, split, "auc")
