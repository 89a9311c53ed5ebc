import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from reference import em_log_likelihood
from weaklab import aggregate
from weaklab.aggregate import (
    DawidSkeneResult,
    LabelModelKind,
    ProbLabels,
    dawid_skene_em,
    majority_vote,
    resolve_training_labels,
    weighted_vote,
)
from weaklab.corpus import Dataset, Instance, TEXT_TASK
from weaklab.labelfns import ABSTAIN

A = ABSTAIN


class TestMajorityVote:
    def test_hand_counts(self):
        entries = np.array([[1, 1, 0],
                            [A, A, A],
                            [0, A, A]])
        result = majority_vote(entries, 2)
        assert result.probs[0] == pytest.approx([1 / 3, 2 / 3])
        assert result.probs[1] == pytest.approx([0.5, 0.5])
        assert result.probs[2] == pytest.approx([1.0, 0.0])
        assert list(result.covered) == [True, False, True]

    def test_hard_label_tie_goes_to_lowest_class(self):
        entries = np.array([[0, 1]])
        assert majority_vote(entries, 2).hard_labels()[0] == 0

    @given(st.lists(st.lists(st.sampled_from([A, 0, 1, 2]), min_size=2, max_size=4),
                    min_size=1, max_size=15))
    def test_rows_are_distributions(self, rows):
        width = len(rows[0])
        entries = np.array([r[:width] + [A] * (width - len(r)) for r in rows])
        result = majority_vote(entries, 3)
        assert np.allclose(result.probs.sum(axis=1), 1.0)
        assert (result.probs >= 0).all()


class TestWeightedVote:
    def test_hand_computed_two_lf_conflict(self):
        entries = np.array([[1, 0]])
        result = weighted_vote(entries, 2, [0.9, 0.6])
        # weights ln(9) vs ln(1.5); softmax over both voted classes
        assert result.probs[0, 1] == pytest.approx(9.0 / 10.5)
        assert result.probs[0, 0] == pytest.approx(1.5 / 10.5)

    def test_accuracy_clipping(self):
        entries = np.array([[1, 0]])
        hard = weighted_vote(entries, 2, [1.0, 0.0])
        clipped = weighted_vote(entries, 2, [0.95, 0.05])
        assert np.allclose(hard.probs, clipped.probs)

    def test_unvoted_class_gets_zero_mass(self):
        entries = np.array([[1, 1]])
        result = weighted_vote(entries, 3, [0.8, 0.8])
        assert result.probs[0, 1] == pytest.approx(1.0)
        assert result.probs[0, 0] == 0.0 and result.probs[0, 2] == 0.0

    def test_uncovered_rows_uniform(self):
        entries = np.array([[A, A]])
        result = weighted_vote(entries, 2, [0.8, 0.8])
        assert result.probs[0] == pytest.approx([0.5, 0.5])
        assert not result.covered[0]

    def test_accuracy_count_mismatch(self):
        with pytest.raises(ValueError):
            weighted_vote(np.array([[1, 0]]), 2, [0.9])

    @pytest.mark.parametrize("n_classes", [2, 3, 9, 12])
    def test_matches_per_row_softmax_bit_for_bit(self, n_classes):
        # 9 and 12 classes let a row carry 8+ voted classes, where numpy
        # switches to pairwise summation
        rng = np.random.default_rng(n_classes)
        for _ in range(20):
            m = int(rng.integers(1, 40))
            entries = np.where(rng.random((30, m)) < 0.5, A,
                               rng.integers(0, n_classes, size=(30, m)))
            accuracies = rng.uniform(0.0, 1.0, size=m)
            result = weighted_vote(entries, n_classes, accuracies)
            assert np.array_equal(result.probs,
                                  reference.weighted_vote(entries, n_classes, accuracies).probs)


@st.composite
def vote_matrices(draw):
    """(entries, n_classes, accuracies): 0-12 rows by 0-8 LFs over 2-9
    classes, each LF voting any class, with some rows and some LFs blanked
    to all abstains; an accuracy below 1/C weighs its LF's votes negatively."""
    n_classes = draw(st.integers(2, 9))
    n, m = draw(st.integers(0, 12)), draw(st.integers(0, 8))
    cells = draw(st.lists(st.one_of(st.just(A), st.integers(0, n_classes - 1)),
                          min_size=n * m, max_size=n * m))
    entries = np.array(cells, dtype=np.int64).reshape(n, m)
    entries[draw(st.lists(st.booleans(), min_size=n, max_size=n)), :] = A
    entries[:, draw(st.lists(st.booleans(), min_size=m, max_size=m))] = A
    accuracies = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    return entries, n_classes, accuracies


def _bytes(result):
    return result.probs.shape, result.probs.tobytes(), result.covered.tobytes()


@settings(max_examples=300, deadline=None)
@given(vote_matrices())
@example((np.zeros((0, 3), dtype=np.int64), 4, [0.9, 0.1, 0.5]))
@example((np.zeros((3, 0), dtype=np.int64), 2, []))
# one LF voting three classes, one all-abstain LF, negative weights
@example((np.array([[0, A, 2, 1], [1, A, 2, A], [2, A, A, 0], [A, A, A, A]]), 3,
          [0.9, 0.7, 0.2, 0.05]))
def test_vote_models_match_the_loops_bit_for_bit(case):
    entries, n_classes, accuracies = case
    assert _bytes(majority_vote(entries, n_classes)) == _bytes(
        reference.majority_vote(entries, n_classes))
    assert _bytes(weighted_vote(entries, n_classes, accuracies)) == _bytes(
        reference.weighted_vote(entries, n_classes, accuracies))


def brute_force_objective(entries, prior, confusions, propensities, smoothing):
    """Independent likelihood computation by direct enumeration."""
    n, m = entries.shape
    n_classes = len(prior)
    total = 0.0
    for i in range(n):
        like = 0.0
        for k in range(n_classes):
            term = prior[k]
            for j in range(m):
                v = entries[i, j]
                if v == A:
                    term *= 1.0 - propensities[j, k]
                else:
                    term *= propensities[j, k] * confusions[j, k, v]
            like += term
        total += math.log(like)
    if smoothing > 0:
        for k in range(n_classes):
            total += smoothing * math.log(prior[k])
        for j in range(m):
            for k in range(n_classes):
                total += smoothing * (math.log(propensities[j, k])
                                      + math.log(1.0 - propensities[j, k]))
                for c in range(n_classes):
                    total += smoothing * math.log(confusions[j, k, c])
    return total


entries_strategy = st.lists(
    st.lists(st.sampled_from([A, 0, 1]), min_size=2, max_size=3),
    min_size=2, max_size=8,
).filter(lambda rows: len({len(r) for r in rows}) == 1
         and any(v != A for r in rows for v in r))


class TestLikelihood:
    @given(entries_strategy, st.floats(0.1, 0.9), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_enumeration(self, rows, p0, seed):
        entries = np.array(rows)
        m = entries.shape[1]
        rng = np.random.default_rng(seed)
        prior = np.array([p0, 1.0 - p0])
        confusions = rng.uniform(0.1, 0.9, size=(m, 2, 2))
        confusions /= confusions.sum(axis=2, keepdims=True)
        propensities = rng.uniform(0.1, 0.9, size=(m, 2))
        got, _ = em_log_likelihood(entries, prior, confusions, propensities, 1.0)
        want = brute_force_objective(entries, prior, confusions, propensities, 1.0)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-9)

    def test_smoothing_zero_is_plain_log_likelihood(self):
        entries = np.array([[0, 1], [1, A]])
        prior = np.array([0.4, 0.6])
        confusions = np.full((2, 2, 2), 0.5)
        propensities = np.full((2, 2), 0.5)
        got, _ = em_log_likelihood(entries, prior, confusions, propensities, 0.0)
        want = brute_force_objective(entries, prior, confusions, propensities, 0.0)
        assert got == pytest.approx(want)


def planted_matrix(n, accuracies, fire_prob, seed, n_classes=2):
    """Simulate LF votes with planted accuracies and fire probability."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, n_classes, size=n)
    entries = np.full((n, len(accuracies)), A, dtype=np.int64)
    for j, acc in enumerate(accuracies):
        fires = rng.random(n) < fire_prob
        correct = rng.random(n) < acc
        wrong = (truth + 1 + rng.integers(0, n_classes - 1, size=n)) % n_classes
        entries[:, j] = np.where(fires, np.where(correct, truth, wrong), A)
    return entries, truth


class TestDawidSkene:
    def test_objective_history_monotone(self):
        entries, _ = planted_matrix(200, [0.8, 0.7, 0.9, 0.6], 0.7, seed=7)
        result = dawid_skene_em(entries, 2)
        diffs = np.diff(result.objective_history)
        assert (diffs >= -1e-8).all()

    @given(entries_strategy)
    @settings(max_examples=40, deadline=None)
    def test_posteriors_are_distributions(self, rows):
        entries = np.array(rows)
        result = dawid_skene_em(entries, 2, LabelModelKind(em_max_iters=20))
        probs = result.problabels.probs
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_recovers_planted_labels_better_than_chance(self):
        entries, truth = planted_matrix(800, [0.9, 0.75, 0.85, 0.7, 0.8], 0.8, seed=3)
        result = dawid_skene_em(entries, 2)
        covered = result.problabels.covered
        hard = result.problabels.hard_labels()
        acc = (hard[covered] == truth[covered]).mean()
        assert acc > 0.9

    def test_confusion_diagonals_track_planted_accuracy(self):
        entries, _ = planted_matrix(3000, [0.9, 0.7, 0.8, 0.75, 0.85], 0.8, seed=11)
        result = dawid_skene_em(entries, 2)
        diag = result.confusions[:, [0, 1], [0, 1]].mean(axis=1)
        assert np.abs(diag - np.array([0.9, 0.7, 0.8, 0.75, 0.85])).max() < 0.08

    def test_uncovered_rows_are_uniform_and_flagged(self):
        entries = np.array([[1, 1], [A, A], [0, 0]])
        result = dawid_skene_em(entries, 2)
        assert result.problabels.probs[1] == pytest.approx([0.5, 0.5])
        assert not result.problabels.covered[1]

    def test_all_abstain_matrix_rejected(self):
        with pytest.raises(ValueError, match="covered"):
            dawid_skene_em(np.full((4, 2), A), 2)

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one LF"):
            dawid_skene_em(np.zeros((3, 0), dtype=np.int64), 2)

    def test_flat_ridge_converges_well_under_cap(self):
        # plain EM gains ~3e-11 per step here and silently ran into the cap
        kind = LabelModelKind(em_max_iters=5000, em_tol=1e-13)
        result = dawid_skene_em(np.zeros((4, 1), dtype=np.int64), 2, kind)
        assert result.converged
        assert result.n_iter == len(result.objective_history) < 500
        assert (np.diff(result.objective_history) >= -1e-12).all()

    def test_fit_stopped_at_cap_is_reported(self):
        kind = LabelModelKind(em_max_iters=2, em_tol=1e-13)
        result = dawid_skene_em(np.zeros((4, 1), dtype=np.int64), 2, kind)
        assert not result.converged
        assert result.n_iter == len(result.objective_history) == 2
        assert (np.diff(result.objective_history) >= -1e-12).all()

    def test_deterministic(self):
        entries, _ = planted_matrix(300, [0.8, 0.7, 0.9], 0.7, seed=5)
        r1 = dawid_skene_em(entries, 2)
        r2 = dawid_skene_em(entries, 2)
        assert np.array_equal(r1.problabels.probs, r2.problabels.probs)
        assert r1.objective_history == r2.objective_history


def _count_em_runs(monkeypatch):
    runs = []
    original = aggregate._em_run

    def counted(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(aggregate, "_em_run", counted)
    return runs


class TestWarmStart:
    # the first three columns fit, then two more are admitted
    ENTRIES, _ = planted_matrix(400, [0.8, 0.7, 0.9, 0.75, 0.85], 0.3, seed=13)

    def test_warm_fit_is_one_monotone_em_run(self, monkeypatch):
        last = dawid_skene_em(self.ENTRIES[:, :3], 2).problabels
        runs = _count_em_runs(monkeypatch)
        result = dawid_skene_em(self.ENTRIES, 2, warm=last)
        assert len(runs) == 1
        assert (np.diff(result.objective_history) >= 0).all()
        assert np.allclose(result.problabels.probs.sum(axis=1), 1.0)

    def test_rows_start_from_warm_posteriors_or_majority_vote(self, monkeypatch):
        last = dawid_skene_em(self.ENTRIES[:, :3], 2).problabels
        runs = _count_em_runs(monkeypatch)
        dawid_skene_em(self.ENTRIES, 2, warm=last)
        mv = majority_vote(self.ENTRIES, 2)
        (_, init, _), = runs
        newly = ~last.covered[mv.covered]
        assert newly.any() and not newly.all()
        assert np.array_equal(init[newly], mv.probs[mv.covered][newly])
        assert np.array_equal(init[~newly], last.probs[mv.covered][~newly])

    def test_nothing_covered_before_is_a_cold_fit(self):
        nothing = ProbLabels(probs=np.full((400, 2), 0.5), covered=np.zeros(400, dtype=bool))
        warm = dawid_skene_em(self.ENTRIES, 2, warm=nothing)
        cold = dawid_skene_em(self.ENTRIES, 2)
        assert np.array_equal(warm.problabels.probs, cold.problabels.probs)
        assert warm.objective_history == cold.objective_history

    def test_fit_from_its_own_fixed_point_converges_at_once(self):
        first = dawid_skene_em(self.ENTRIES, 2)
        again = dawid_skene_em(self.ENTRIES, 2, warm=first.problabels)
        assert again.converged and again.n_iter <= 2
        assert np.abs(again.problabels.probs - first.problabels.probs).max() < 1e-3

    @pytest.mark.parametrize("restarts", [0, 3, 5])
    def test_cold_fit_runs_every_restart(self, monkeypatch, restarts):
        runs = _count_em_runs(monkeypatch)
        dawid_skene_em(self.ENTRIES, 2, LabelModelKind(em_restarts=restarts))
        assert len(runs) == 1 + restarts

    @pytest.mark.parametrize("shape", [(399, 2), (400, 3)])
    def test_warm_of_the_wrong_shape_rejected(self, shape):
        warm = ProbLabels(probs=np.full(shape, 1.0 / shape[1]),
                          covered=np.ones(shape[0], dtype=bool))
        with pytest.raises(ValueError, match="warm posteriors"):
            dawid_skene_em(self.ENTRIES, 2, warm=warm)


class TestResolveTrainingLabels:
    def _dataset(self, default_class):
        train = [Instance(id=i, text="t") for i in range(3)]
        valid = [Instance(id=10, text="v", gold_label=0)]
        test = [Instance(id=20, text="w", gold_label=1)]
        return Dataset(task_kind=TEXT_TASK, classes=["N", "P"], default_class=default_class,
                       train=train, valid=valid, test=test)

    def _problabels(self):
        probs = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        covered = np.array([True, False, True])
        return ProbLabels(probs=probs, covered=covered)

    def test_uncovered_takes_default_class(self):
        rows, labels = resolve_training_labels(self._problabels(), self._dataset(0))
        assert rows.tolist() == [0, 1, 2] and labels.tolist() == [1, 0, 0]

    def test_uncovered_excluded_without_default(self):
        rows, labels = resolve_training_labels(self._problabels(), self._dataset(None))
        assert rows.tolist() == [0, 2] and labels.tolist() == [1, 0]


def test_label_model_kind_validation():
    with pytest.raises(ValueError):
        LabelModelKind(em_max_iters=0)
    with pytest.raises(ValueError):
        LabelModelKind(em_tol=0.0)
    with pytest.raises(ValueError):
        LabelModelKind(smoothing=-1.0)
    # a negative count once ran no cold fit at all and failed unpacking None
    with pytest.raises(ValueError, match="em_restarts"):
        LabelModelKind(em_restarts=-1)
    assert LabelModelKind(em_restarts=0).em_restarts == 0


@pytest.mark.parametrize("fit", [
    lambda entries, n_classes: majority_vote(entries, n_classes),
    lambda entries, n_classes: weighted_vote(entries, n_classes, [0.8, 0.8]),
    lambda entries, n_classes: dawid_skene_em(entries, n_classes),
], ids=["majority", "weighted", "dawid_skene"])
@pytest.mark.parametrize("bad", [-2, 3])
def test_entries_outside_abstain_and_the_classes_rejected(fit, bad):
    """An entry that is neither ABSTAIN nor one of the 3 classes is no vote;
    every label model refuses it with the allowed range."""
    entries = np.array([[0, A], [1, 2], [bad, 0]])
    with pytest.raises(ValueError, match=r"-1\.\.2"):
        fit(entries, 3)
