"""Release acceptance gate.

Ten end-to-end checks, each with an explicit wall-clock budget:

 1. pinned filter constants and their boundary semantics
 2. Dawid-Skene EM matches an independent maximum-likelihood oracle on an
    enumeration of small binary vote matrices
 3. Dawid-Skene parameter recovery on a large planted matrix
 4. downstream classifier gradient and fitting correctness
 5. samplers match brute-force references and the hand-computed
    expected-utility example
 6. self-consistency aggregation mechanics
 7. the full synthetic pipeline: accurate oracle vs degraded oracle, with
    the admission filters carrying the quality load
 8. determinism and transcript replay, byte-for-byte
 9. the metric suite against a fully hand-computed state
10. JSONL ingestion at realistic split sizes plus malformed-input rejection
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from weaklab import aggregate, labelfns, pipeline
from weaklab.aggregate import LabelModelKind, dawid_skene_em, majority_vote
from weaklab.corpus import Dataset, Instance, LoadError, TEXT_TASK, load_dataset, save_dataset
from weaklab.downstream import LinearModel, loss_and_grad, predict_proba, train_logreg
from weaklab.labelfns import ABSTAIN, KEYWORD, KeywordIndex, LFError
from weaklab.lfgate import FilterConfig, accuracy_filter, redundancy_filter
from weaklab.pipeline import RunConfig, compute_metrics, generate_synthetic, run, write_synthetic
from weaklab.prompting import ParsedResponse, PromptSpec, aggregate_sc, cosine_distance, kate_neighbors
from weaklab.select import (
    SelectionState,
    entropy,
    expected_utility,
    seu_sampler,
    uncertainty_sampler,
)


# --------------------------------------------------------------------------
# 1. Filter constants: accuracy threshold 0.6 (below fails / equal passes,
#    zero validation activity passes), redundancy threshold 0.95 (strictly
#    above fails), keyword length 1-3 tokens.
# --------------------------------------------------------------------------

def test_filter_constants_and_boundaries():
    start = time.monotonic()
    config = FilterConfig()
    assert config.accuracy_threshold == 0.6
    assert config.redundancy_threshold == 0.95

    def acc_case(correct, wrong):
        votes = np.ones(correct + wrong, dtype=np.int64)
        gold = np.array([1] * correct + [0] * wrong)
        return accuracy_filter(votes, gold, config)

    passed, acc = acc_case(11, 9)
    assert not passed and acc == pytest.approx(0.55)
    passed, acc = acc_case(12, 8)
    assert passed and acc == pytest.approx(0.60)
    passed, acc = acc_case(13, 7)
    assert passed and acc == pytest.approx(0.65)
    # an LF that never fires on validation cannot be measured and is let through
    passed, acc = accuracy_filter(np.full(10, ABSTAIN), np.ones(10, dtype=int), config)
    assert passed and acc is None

    # consensus 19/20 = 0.95 sits exactly at the threshold: not above, passes
    a = np.ones(20, dtype=np.int64)
    b = np.concatenate([np.ones(19, dtype=np.int64), [ABSTAIN]])
    passed, best = redundancy_filter(a, [b], config)
    assert passed and best == pytest.approx(0.95)
    # 96/100 = 0.96 is strictly above: fails
    a = np.ones(100, dtype=np.int64)
    b = np.concatenate([np.ones(96, dtype=np.int64), np.full(4, ABSTAIN)])
    passed, best = redundancy_filter(a, [b], config)
    assert not passed and best == pytest.approx(0.96)

    classes = ["HAM", "SPAM"]
    assert labelfns.compile_lf(KEYWORD, "one", 1, classes, TEXT_TASK) is not None
    assert labelfns.compile_lf(KEYWORD, "one two three", 1, classes, TEXT_TASK) is not None
    with pytest.raises(LFError, match="outside 1-3"):
        labelfns.compile_lf(KEYWORD, "one two three four", 1, classes, TEXT_TASK)

    assert time.monotonic() - start < 1.0


# --------------------------------------------------------------------------
# 2. Label-model oracle equivalence on small binary matrices.
#
# The reference maximizes the same penalized marginal likelihood the EM
# optimizes -- prior p, per-column vote accuracies (a_j, b_j) and per-class
# fire rates (t0_j, t1_j) -- directly with multi-start L-BFGS in logit
# space, entirely independently of the EM implementation.  Enumeration is
# exhaustive over vote patterns for one-column matrices up to 6 rows and
# two-column matrices up to 3 rows, and seeded-random beyond that (full
# exhaustion over 3^(n*m) patterns is infeasible).
#
# Degenerate matrices (e.g. a single always-identical column) leave the
# likelihood flat along a ridge whose curvature is below double-precision
# resolution; there EM's value matches the optimum to 1e-8 but its position
# along the ridge is undetermined.  For those cases the test additionally
# requires that polishing EM's own parameters with the reference optimizer
# reaches the reference posterior while improving the objective by at most
# 1e-8 -- i.e. EM stopped at the optimum up to machine-precision flatness.
# --------------------------------------------------------------------------

def _ml_unpack(x, m):
    return x[0], x[1:1 + m], x[1 + m:1 + 2 * m], x[1 + 2 * m:1 + 3 * m], x[1 + 3 * m:]


def _ml_factors(entries, x):
    _, a, b, t0, t1 = _ml_unpack(x, entries.shape[1])
    active = entries != ABSTAIN
    v0 = entries == 0
    v1 = entries == 1
    f0 = np.where(active, t0 * np.where(v0, a, 1.0 - a), 1.0 - t0)
    f1 = np.where(active, t1 * np.where(v1, b, 1.0 - b), 1.0 - t1)
    return active, v0, v1, f0, f1


def _ml_objective(entries, x):
    p = x[0]
    _, _, _, f0, f1 = _ml_factors(entries, x)
    like = p * f0.prod(axis=1) + (1.0 - p) * f1.prod(axis=1)
    return np.log(like).sum() + (np.log(x) + np.log1p(-x)).sum()


def _ml_objective_and_grad(entries, x):
    m = entries.shape[1]
    p, a, b, t0, t1 = _ml_unpack(x, m)
    active, v0, v1, f0, f1 = _ml_factors(entries, x)
    F0 = f0.prod(axis=1)
    F1 = f1.prod(axis=1)
    like = p * F0 + (1.0 - p) * F1
    obj = np.log(like).sum() + (np.log(x) + np.log1p(-x)).sum()
    w0 = p * F0 / like
    w1 = (1.0 - p) * F1 / like
    g = np.empty_like(x)
    g[0] = ((F0 - F1) / like).sum()
    g[1:1 + m] = w0 @ np.where(v0, 1.0 / a, np.where(v1, -1.0 / (1.0 - a), 0.0))
    g[1 + m:1 + 2 * m] = w1 @ np.where(v1, 1.0 / b, np.where(v0, -1.0 / (1.0 - b), 0.0))
    g[1 + 2 * m:1 + 3 * m] = w0 @ np.where(active, 1.0 / t0, -1.0 / (1.0 - t0))
    g[1 + 3 * m:] = w1 @ np.where(active, 1.0 / t1, -1.0 / (1.0 - t1))
    g += 1.0 / x - 1.0 / (1.0 - x)
    return obj, g


def _ml_posteriors(entries, x):
    p = x[0]
    _, _, _, f0, f1 = _ml_factors(entries, x)
    u0 = p * f0.prod(axis=1)
    u1 = (1.0 - p) * f1.prod(axis=1)
    return np.stack([u0, u1], axis=1) / (u0 + u1)[:, None]


def _ml_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _ml_maximize_from(entries, x0):
    z0 = np.log(x0 / (1.0 - x0))

    def neg(z):
        x = _ml_sigmoid(z)
        obj, grad = _ml_objective_and_grad(entries, x)
        return -obj, -grad * x * (1.0 - x)

    res = minimize(neg, z0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 5000, "ftol": 1e-17, "gtol": 1e-14})
    x = _ml_sigmoid(res.x)
    return x, _ml_objective(entries, x)


def _ml_solve(entries, seed=0):
    m = entries.shape[1]
    d = 1 + 4 * m
    fire = np.clip((entries != ABSTAIN).mean(axis=0), 0.05, 0.95)
    mv = np.clip(majority_vote(entries, 2).probs[:, 0].mean(), 0.1, 0.9)
    starts = [
        np.concatenate([[0.5], np.full(2 * m, 0.7), np.full(2 * m, 0.5)]),
        np.concatenate([[mv], np.full(2 * m, 0.85), fire, fire]),
        np.concatenate([[1.0 - mv], np.full(2 * m, 0.15), fire, fire]),
    ]
    rng = np.random.default_rng(seed + 1000)
    starts.extend(rng.uniform(0.1, 0.9, size=d) for _ in range(5))
    best = None
    for s in starts:
        x, val = _ml_maximize_from(entries, s)
        if best is None or val > best[1]:
            best = (x, val)
    return best


def _ml_enumerate_cases():
    cases = []
    for m, max_n in ((1, 6), (2, 3)):
        row_types = list(itertools.product([ABSTAIN, 0, 1], repeat=m))
        for n in range(1, max_n + 1):
            for rows in itertools.combinations_with_replacement(row_types, n):
                e = np.array(rows, dtype=np.int64).reshape(n, m)
                if (e != ABSTAIN).any():
                    cases.append(e)
    rng = np.random.default_rng(20240501)
    for m, n in ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)):
        drawn = 0
        while drawn < 20:
            e = rng.integers(-1, 2, size=(n, m))
            if (e != ABSTAIN).any():
                cases.append(e)
                drawn += 1
    return cases


def _posterior_gap(a, b):
    """Max absolute posterior difference, accepting a global class flip."""
    return min(np.abs(a - b).max(), np.abs(a - b[:, ::-1]).max())


def test_label_model_matches_independent_ml_oracle():
    start = time.monotonic()
    kind = LabelModelKind(em_max_iters=5000, em_tol=1e-13, em_restarts=1)
    cases = _ml_enumerate_cases()
    assert len(cases) > 400
    n_flat = 0
    for entries in cases:
        covered = (entries != ABSTAIN).any(axis=1)
        sub = entries[covered]
        ref_x, ref_obj = _ml_solve(sub)
        ref_post = _ml_posteriors(sub, ref_x)

        result = dawid_skene_em(entries, 2, kind)
        history = np.array(result.objective_history)
        assert (np.diff(history) >= -1e-9).all(), "EM objective decreased"
        em_obj = history[-1]
        scale = 1.0 + abs(ref_obj)
        assert em_obj >= ref_obj - 1e-8 * scale, \
            "EM objective %r below reference optimum %r" % (em_obj, ref_obj)

        em_post = result.problabels.probs[covered]
        if _posterior_gap(em_post, ref_post) <= 1e-3:
            continue
        # machine-precision-flat ridge: EM's value already matches the
        # optimum; its parameters must polish to the reference posterior
        # with no material objective gain.
        em_x = np.clip(np.concatenate([
            [result.prior[0]],
            result.confusions[:, 0, 0], result.confusions[:, 1, 1],
            result.propensities[:, 0], result.propensities[:, 1]]), 1e-9, 1 - 1e-9)
        polished_x, polished_obj = _ml_maximize_from(sub, em_x)
        assert polished_obj - em_obj <= 1e-8 * scale, \
            "EM stopped short of the optimum: gain %r" % (polished_obj - em_obj)
        assert _posterior_gap(_ml_posteriors(sub, polished_x), ref_post) <= 1e-3, \
            "EM landed in a different basin than the reference"
        n_flat += 1
    # the ridge clause must stay the exception, not the rule
    assert n_flat <= 0.1 * len(cases)
    assert time.monotonic() - start < 30.0


# --------------------------------------------------------------------------
# 3. Planted-matrix recovery: n = 5000, column accuracies {0.9, 0.7, 0.55},
#    balanced prior.
# --------------------------------------------------------------------------

def test_label_model_recovers_planted_parameters():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    n = 5000
    planted = np.array([0.9, 0.7, 0.55])
    truth = rng.integers(0, 2, n)
    columns = []
    for acc in planted:
        correct = rng.random(n) < acc
        columns.append(np.where(correct, truth, 1 - truth))
    entries = np.stack(columns, axis=1).astype(np.int64)

    result = dawid_skene_em(entries, 2, LabelModelKind(em_max_iters=500, em_tol=1e-10))
    ds_pred = result.problabels.hard_labels()
    if (ds_pred == truth).mean() < 0.5:  # class identities are exchangeable
        ds_pred = 1 - ds_pred
        diag = np.stack([result.confusions[:, 0, 1], result.confusions[:, 1, 0]], axis=1)
    else:
        diag = np.stack([result.confusions[:, 0, 0], result.confusions[:, 1, 1]], axis=1)

    assert np.abs(diag - planted[:, None]).max() <= 0.05
    ds_acc = (ds_pred == truth).mean()
    mv_acc = (majority_vote(entries, 2).hard_labels() == truth).mean()
    assert ds_acc > mv_acc
    assert time.monotonic() - start < 10.0


# --------------------------------------------------------------------------
# 4. Downstream classifier: analytic gradient vs central differences on 20
#    random problems (dim <= 20, C <= 4); perfect fit on separable data.
# --------------------------------------------------------------------------

def test_classifier_gradient_and_separable_fit():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 21))
        n_classes = int(rng.integers(2, 5))
        features = rng.normal(size=(n, dim))
        soft = rng.uniform(0.05, 1.0, size=(n, n_classes))
        soft /= soft.sum(axis=1, keepdims=True)
        weights = rng.normal(scale=0.5, size=(n_classes, dim))
        bias = rng.normal(scale=0.5, size=n_classes)
        l2 = float(rng.uniform(0.0, 0.1))
        _, grad_w, grad_b = loss_and_grad(weights, bias, features, soft, l2)

        eps = 1e-6
        num_w = np.zeros_like(weights)
        for idx in np.ndindex(*weights.shape):
            w = weights.copy()
            w[idx] += eps
            plus = loss_and_grad(w, bias, features, soft, l2)[0]
            w[idx] -= 2 * eps
            minus = loss_and_grad(w, bias, features, soft, l2)[0]
            num_w[idx] = (plus - minus) / (2 * eps)
        num_b = np.zeros_like(bias)
        for k in range(bias.size):
            b = bias.copy()
            b[k] += eps
            plus = loss_and_grad(weights, b, features, soft, l2)[0]
            b[k] -= 2 * eps
            minus = loss_and_grad(weights, b, features, soft, l2)[0]
            num_b[k] = (plus - minus) / (2 * eps)

        ref = max(np.abs(num_w).max(), np.abs(num_b).max(), 1.0)
        assert np.abs(grad_w - num_w).max() / ref < 1e-5
        assert np.abs(grad_b - num_b).max() / ref < 1e-5

    features = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.0],
                         [0.0, 1.0], [0.1, 0.9], [0.0, 0.8]])
    labels = [0, 0, 0, 1, 1, 1]
    model = train_logreg(features, labels, 2)
    preds = predict_proba(model, features).argmax(axis=1)
    assert list(preds) == labels
    assert time.monotonic() - start < 5.0


# --------------------------------------------------------------------------
# 5. Sampler exactness against brute force, plus the hand-computed
#    expected-utility example (8 vs 4.5 -> picks x1) and rescaling
#    invariance.
# --------------------------------------------------------------------------

def test_samplers_match_brute_force_references():
    start = time.monotonic()
    rng = np.random.default_rng(42)

    for _ in range(100):
        pool = sorted(rng.choice(1000, size=int(rng.integers(2, 30)), replace=False).tolist())
        dim = int(rng.integers(1, 5))
        n_classes = int(rng.integers(2, 4))
        model = LinearModel(weights=rng.normal(size=(n_classes, dim)),
                            bias=rng.normal(size=n_classes), l2=0.0)
        features = np.zeros((1000, dim))  # row r holds the features of instance r
        for row in pool:
            features[row] = rng.normal(size=dim)
        expected = None
        best = -1.0
        for row in pool:  # ascending: ties resolve to the lowest row
            h = entropy(predict_proba(model, features[row])[0])
            if h > best + 1e-15:
                best, expected = h, row
        state = SelectionState(pool=list(pool))
        assert uncertainty_sampler(state, model, features) == expected

    from weaklab.corpus import EmbeddingTable
    for _ in range(100):
        ids = sorted(rng.choice(1000, size=int(rng.integers(3, 20)), replace=False).tolist())
        query = ids[0]
        candidates = ids[1:]
        rows = {i: rng.normal(size=4) + 0.1 for i in ids}
        table = EmbeddingTable(rows=rows, dim=4)
        k = int(rng.integers(1, len(candidates) + 1))
        ranked = sorted(candidates,
                        key=lambda i: (cosine_distance(rows[query], rows[i]), i))
        assert kate_neighbors(query, candidates, table, k) == ranked[:k]

    # Hand-computed expected-utility case.  x1's only candidate has
    # validation accuracy 1.0 and would newly cover 8 instances: utility
    # 1.0 * 8 = 8.  x2's has accuracy 0.9 over 5 instances: 0.9 * 0.9 * 5
    # / 0.9 = 4.5.  The sampler must pick x1.
    assert expected_utility([(1.0, 8)]) == pytest.approx(8.0)
    assert expected_utility([(0.9, 5)]) == pytest.approx(4.5)
    # rows 0 and 1 are x1 and x2, labelled 1; the rest are uncovered
    texts = ["alpha", "beta"] + ["alpha"] * 8 + ["beta"] * 5
    index = KeywordIndex([Instance(id=row, text=text) for row, text in enumerate(texts)])
    labels = np.array([1, 1] + [0] * 13)
    uncovered = np.arange(len(texts)) >= 2
    accuracy = {("alpha", 1): 1.0, ("beta", 1): 0.9}
    assert seu_sampler(SelectionState(pool=[0, 1]), index, labels, uncovered, accuracy) == 0

    # positive rescaling of utilities (here: of the coverage counts) scales
    # every score linearly and cannot change the ranking
    for _ in range(20):
        cands = [(float(rng.uniform(0.05, 1.0)), int(rng.integers(0, 30)))
                 for _ in range(int(rng.integers(1, 6)))]
        lam = float(rng.uniform(0.1, 10.0))
        scaled = [(a, c * lam) for a, c in cands]
        assert expected_utility(scaled) == pytest.approx(lam * expected_utility(cands))
    assert time.monotonic() - start < 10.0


# --------------------------------------------------------------------------
# 6. Self-consistency: 10 responses by default, majority label with
#    lowest-index tie-break, payload union in first-occurrence order.
# --------------------------------------------------------------------------

def test_self_consistency_mechanics():
    start = time.monotonic()
    spec = PromptSpec(method="self_consistency")
    assert spec.n_responses == 10
    assert spec.temperature == 1.0

    responses = [ParsedResponse(label=1, keywords=["k%d" % i]) for i in range(6)]
    responses += [ParsedResponse(label=0, keywords=["k0", "extra"]) for _ in range(4)]
    label, keywords, _ = aggregate_sc(responses, 2)
    assert label == 1  # 6 votes vs 4
    assert keywords == ["k0", "k1", "k2", "k3", "k4", "k5", "extra"]

    responses = [ParsedResponse(label=1) for _ in range(5)]
    responses += [ParsedResponse(label=0) for _ in range(5)]
    assert aggregate_sc(responses, 2)[0] == 0  # 5/5 tie -> lowest class index
    assert time.monotonic() - start < 1.0


# --------------------------------------------------------------------------
# 7. End-to-end synthetic pipeline.  An accurate simulated annotator
#    (p_label = p_keyword = 0.9) must produce a strong downstream model over
#    5 seeds; a degraded annotator (p_label = 0.5, p_keyword = 0.2) under the
#    same admission filters must end with strictly fewer LFs, every retained
#    LF still meeting the validation-accuracy bound; and disabling the
#    accuracy filter must lower the average LF accuracy.
# --------------------------------------------------------------------------

def test_end_to_end_synthetic_pipeline(tmp_path):
    start = time.monotonic()
    dataset, signatures, annotations = generate_synthetic(
        n_train=2000, n_valid=200, n_test=500, q=0.8, seed=0)
    paths = write_synthetic(str(tmp_path), dataset, signatures, annotations)

    def config(**overrides):
        base = dict(
            train_path=paths["train_path"], valid_path=paths["valid_path"],
            test_path=paths["test_path"], schema_path=paths["schema_path"],
            annotations_path=paths["annotations_path"], mock_signatures=signatures,
            n_iterations=50, max_opt_iters=300, grad_tol=1e-4)
        base.update(overrides)
        return RunConfig.from_dict(base)

    def admitted_accuracies(report):
        out = []
        for record in report.final_lfs:
            lf = labelfns.lf_from_record(record, dataset.classes, dataset.task_kind)
            acc = labelfns.lf_stats(lf, dataset.valid).accuracy
            if acc is not None:
                out.append(acc)
        return out

    good_scores, good_counts = [], []
    degraded_counts = []
    for seed in range(5):
        good = run(config(seed=seed), dataset=dataset)
        assert good.complete
        good_scores.append(good.metrics["test_score"])
        good_counts.append(good.metrics["lf_num"])
        assert all(acc >= 0.6 for acc in admitted_accuracies(good))

        degraded = run(config(seed=seed, mock_p_label=0.5, mock_p_keyword=0.2),
                       dataset=dataset)
        assert degraded.complete
        degraded_counts.append(degraded.metrics["lf_num"])
        assert all(acc >= 0.6 for acc in admitted_accuracies(degraded))

    assert sum(good_scores) / 5 >= 0.85
    assert sum(degraded_counts) / 5 < sum(good_counts) / 5

    # ablation: with the accuracy filter off, inaccurate proposals survive
    # and drag the average admitted-LF accuracy down
    with_filter = run(config(seed=0, mock_p_label=0.5, mock_p_keyword=0.2),
                      dataset=dataset)
    without_filter = run(config(seed=0, mock_p_label=0.5, mock_p_keyword=0.2,
                                enable_accuracy=False), dataset=dataset)
    assert without_filter.metrics["lf_acc_avg"] < with_filter.metrics["lf_acc_avg"]
    assert time.monotonic() - start < 120.0


# --------------------------------------------------------------------------
# 8. Determinism and replay, byte-for-byte.
# --------------------------------------------------------------------------

def test_determinism_and_replay_byte_identical(tmp_path):
    start = time.monotonic()
    dataset, signatures, annotations = generate_synthetic(
        n_train=80, n_valid=40, n_test=40, q=0.8, seed=0)
    paths = write_synthetic(str(tmp_path), dataset, signatures, annotations)
    base = dict(
        train_path=paths["train_path"], valid_path=paths["valid_path"],
        test_path=paths["test_path"], schema_path=paths["schema_path"],
        annotations_path=paths["annotations_path"], mock_signatures=signatures,
        n_iterations=8, max_opt_iters=150, grad_tol=1e-4, seed=0)

    first = run(RunConfig.from_dict(base))
    second = run(RunConfig.from_dict(base))
    assert first.to_json().encode() == second.to_json().encode()

    transcript = str(tmp_path / "transcript.jsonl")
    recorded_path = tmp_path / "recorded.json"
    replayed_path = tmp_path / "replayed.json"
    run(RunConfig.from_dict({**base, "transcript_path": transcript,
                             "report_path": str(recorded_path)}))
    run(RunConfig.from_dict({**base, "backend": "replay", "transcript_path": transcript,
                             "report_path": str(replayed_path)}))
    assert recorded_path.read_bytes() == replayed_path.read_bytes()
    assert time.monotonic() - start < 30.0


# --------------------------------------------------------------------------
# 9. Metric definitions on a fully hand-computed 10-instance state.
# --------------------------------------------------------------------------

def test_metric_suite_hand_computed():
    start = time.monotonic()
    classes = ["HAM", "SPAM"]
    texts_and_gold = [
        ("free stuff", 1), ("free gift", 1), ("free ride", 1), ("free sample", 0),
        ("nice song", 0), ("sad song", 1), ("hello there", 0), ("general words", 0),
        ("more words", 1), ("plain text", 0),
    ]
    train = [Instance(id=i, text=t, gold_label=g)
             for i, (t, g) in enumerate(texts_and_gold)]
    # test gold [1,1,1,0,0] with model predictions [1,1,0,1,0]:
    # tp=2 fp=1 fn=1 -> F1 = 2*2 / (2*2 + 1 + 1) = 2/3
    test_gold = [1, 1, 1, 0, 0]
    test_pred = [1, 1, 0, 1, 0]
    test = [Instance(id=100 + i, text="t%d" % i, gold_label=g)
            for i, g in enumerate(test_gold)]
    dataset = Dataset(task_kind=TEXT_TASK, classes=classes, default_class=None,
                      train=train, valid=[Instance(id=50, text="v", gold_label=0)],
                      test=test)

    # "free"->SPAM: fires on rows 0-3, correct on 3 of 4 -> acc 0.75, cov 0.4
    # "song"->HAM:  fires on rows 4-5, correct on 1 of 2 -> acc 0.50, cov 0.2
    lfs = [labelfns.compile_lf(KEYWORD, "free", 1, classes, TEXT_TASK),
           labelfns.compile_lf(KEYWORD, "song", 0, classes, TEXT_TASK)]
    matrix = labelfns.build_matrix(lfs, train)
    problabels = aggregate.majority_vote(matrix, 2)

    records = [pipeline.IterationRecord(t=t, query_id=t, label=lab, gold_label=gold,
                                        proposed=1, admitted=0, verdicts=[])
               for t, (lab, gold) in enumerate([(1, 1), (0, 0), (1, 0), (1, 1)])]

    # one-hot features + identity weights make the model predict test_pred
    test_features = np.zeros((5, 2))
    test_features[np.arange(5), test_pred] = 1.0
    model = LinearModel(weights=np.eye(2), bias=np.zeros(2), l2=0.0)

    metrics = compute_metrics(dataset, lfs, matrix, problabels, model, None, records,
                              positive_class=1, test_features=test_features)
    assert metrics["plm_acc"] == pytest.approx(3 / 4)         # 3 of 4 labels correct
    assert metrics["lf_num"] == 2
    assert metrics["lf_acc_avg"] == pytest.approx((0.75 + 0.5) / 2)
    assert metrics["lf_cov_avg"] == pytest.approx((0.4 + 0.2) / 2)
    # covered rows 0-5: majority labels [1,1,1,1,0,0] vs gold [1,1,1,0,0,1]
    assert metrics["train_acc"] == pytest.approx(4 / 6)
    assert metrics["train_cov"] == pytest.approx(0.6)
    assert metrics["test_metric"] == "binary_f1"
    assert metrics["test_score"] == pytest.approx(2 / 3)
    assert time.monotonic() - start < 1.0


# --------------------------------------------------------------------------
# 10. JSONL ingestion at realistic split sizes; malformed input rejected.
# --------------------------------------------------------------------------

def test_ingestion_round_trip_and_rejection(tmp_path):
    start = time.monotonic()
    splits = {"train": 1586, "valid": 120, "test": 250}
    offset = 0
    files = {}
    for name, size in splits.items():
        rows = [{"id": offset + i, "text": "comment number %d" % (offset + i),
                 "label": i % 2} for i in range(size)]
        path = tmp_path / ("%s.jsonl" % name)
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        files[name] = str(path)
        offset += size
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"task": "text", "classes": ["HAM", "SPAM"]}))

    dataset = load_dataset(files["train"], files["valid"], files["test"], str(schema))
    assert (len(dataset.train), len(dataset.valid), len(dataset.test)) == (1586, 120, 250)

    out = tmp_path / "rt"
    out.mkdir()
    rt_paths = [str(out / p) for p in ("train.jsonl", "valid.jsonl", "test.jsonl",
                                       "schema.json")]
    save_dataset(dataset, *rt_paths)
    assert load_dataset(*rt_paths) == dataset

    bad_label = tmp_path / "bad_label.jsonl"
    bad_label.write_text(json.dumps({"id": 0, "text": "x", "label": 7}) + "\n")
    with pytest.raises(LoadError):
        load_dataset(files["train"], str(bad_label), files["test"], str(schema))

    rel_schema = tmp_path / "rel_schema.json"
    rel_schema.write_text(json.dumps({"task": "relation", "classes": ["NO", "YES"]}))
    bad_span = tmp_path / "bad_span.jsonl"
    bad_span.write_text(json.dumps({
        "id": 0, "text": "alice met bob", "label": 1,
        "entity1": {"text": "alice", "start": 0, "end": 5},
        "entity2": {"text": "bob", "start": 9, "end": 999}}) + "\n")
    with pytest.raises(LoadError):
        load_dataset(files["train"], str(bad_span), files["test"], str(rel_schema))
    assert time.monotonic() - start < 1.0
