import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaklab.corpus import Dataset, EntitySpan, Instance, RELATION_TASK, TEXT_TASK
from weaklab.labelfns import ABSTAIN, KEYWORD, PATTERN, apply_lf
from weaklab.lfgate import (
    ADMITTED,
    REJECTED,
    STAGE_ACCURACY,
    STAGE_REDUNDANCY,
    STAGE_VALIDITY,
    AdmissionGate,
    CandidateSpec,
    FilterConfig,
    accuracy_filter,
    consensus,
    measure_accuracy,
    redundancy_filter,
    validity_filter,
)

votes_strategy = st.lists(st.sampled_from([ABSTAIN, 0, 1]), min_size=1, max_size=20)


def _votes(active_correct, active_wrong, inactive, gold_value=1, vote_value=1):
    votes = ([vote_value] * active_correct + [vote_value] * active_wrong
             + [ABSTAIN] * inactive)
    gold = ([gold_value] * active_correct + [1 - gold_value] * active_wrong
            + [gold_value] * inactive)
    return np.array(votes), np.array(gold)


class TestAccuracyFilter:
    def test_below_threshold_fails(self):
        votes, gold = _votes(11, 9, 0)  # accuracy 0.55
        passed, acc = accuracy_filter(votes, gold, FilterConfig())
        assert not passed and acc == pytest.approx(0.55)

    def test_exactly_at_threshold_passes(self):
        votes, gold = _votes(12, 8, 0)  # accuracy 0.60
        passed, acc = accuracy_filter(votes, gold, FilterConfig())
        assert passed and acc == pytest.approx(0.60)

    def test_above_threshold_passes(self):
        votes, gold = _votes(13, 7, 0)  # accuracy 0.65
        passed, acc = accuracy_filter(votes, gold, FilterConfig())
        assert passed and acc == pytest.approx(0.65)

    def test_never_active_passes_with_no_accuracy(self):
        votes = np.full(10, ABSTAIN)
        gold = np.ones(10, dtype=int)
        passed, acc = accuracy_filter(votes, gold, FilterConfig())
        assert passed and acc is None

    def test_measure_accuracy_ignores_inactive_rows(self):
        votes, gold = _votes(3, 1, 6)
        assert measure_accuracy(votes, gold) == pytest.approx(0.75)


class TestConsensus:
    def test_identical_vote_vectors(self):
        v = np.array([1, ABSTAIN, 0, 1])
        assert consensus(v, v) == 1.0

    def test_disjoint_active_sets(self):
        a = np.array([1, 1, ABSTAIN, ABSTAIN])
        b = np.array([ABSTAIN, ABSTAIN, 1, 1])
        assert consensus(a, b) == 0.0

    def test_both_always_abstain(self):
        a = np.full(5, ABSTAIN)
        assert consensus(a, a) == 0.0

    def test_hand_counted_union(self):
        # union of active rows = 4, agreement on 2
        a = np.array([1, 1, 1, ABSTAIN, ABSTAIN])
        b = np.array([1, 1, ABSTAIN, 1, ABSTAIN])
        assert consensus(a, b) == pytest.approx(0.5)

    def test_agreement_requires_equal_votes(self):
        a = np.array([1, 1])
        b = np.array([1, 0])
        assert consensus(a, b) == pytest.approx(0.5)

    @given(votes_strategy, votes_strategy)
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        va, vb = np.array(a[:n]), np.array(b[:n])
        assert consensus(va, vb) == consensus(vb, va)

    @given(votes_strategy)
    def test_bounded(self, a):
        v = np.array(a)
        assert 0.0 <= consensus(v, v) <= 1.0


class TestRedundancyFilter:
    def test_19_of_20_overlap_passes(self):
        # consensus 19/20 = 0.95: equal to the threshold, not above -> pass
        a = np.ones(20, dtype=int)
        b = np.concatenate([np.ones(19, dtype=int), [ABSTAIN]])
        passed, best = redundancy_filter(a, [b], FilterConfig())
        assert passed and best == pytest.approx(0.95)

    def test_96_of_100_overlap_fails(self):
        a = np.ones(100, dtype=int)
        b = np.concatenate([np.ones(96, dtype=int), np.full(4, ABSTAIN)])
        passed, best = redundancy_filter(a, [b], FilterConfig())
        assert not passed and best == pytest.approx(0.96)

    def test_empty_existing_set_passes(self):
        passed, best = redundancy_filter(np.ones(5, dtype=int), [], FilterConfig())
        assert passed and best == 0.0

    def test_max_over_existing_set(self):
        a = np.ones(4, dtype=int)
        low = np.array([1, ABSTAIN, ABSTAIN, ABSTAIN])
        high = np.ones(4, dtype=int)
        passed, best = redundancy_filter(a, [low, high], FilterConfig())
        assert not passed and best == 1.0


def _tiny_dataset():
    train = [Instance(id=i, text=t) for i, t in enumerate(
        ["free stuff here", "great song", "free click", "nice track", "free free"])]
    valid = [
        Instance(id=10, text="free spam offer", gold_label=1),
        Instance(id=11, text="free music for all", gold_label=0),
        Instance(id=12, text="free coupons inside", gold_label=1),
        Instance(id=13, text="lovely song", gold_label=0),
        Instance(id=14, text="free rewards now", gold_label=1),
    ]
    test = [Instance(id=20, text="free thing", gold_label=1)]
    return Dataset(task_kind=TEXT_TASK, classes=["HAM", "SPAM"], default_class=None,
                   train=train, valid=valid, test=test)


class TestAdmissionGate:
    def test_validity_rejection(self):
        gate = AdmissionGate(_tiny_dataset())
        lf, verdict = gate.admit_one(CandidateSpec(KEYWORD, "one two three four", 1))
        assert lf is None
        assert verdict.outcome == REJECTED and verdict.stage == STAGE_VALIDITY

    def test_accuracy_rejection(self):
        # "free" as SPAM hits valid ids 10,11,12,14 -> accuracy 3/4 = 0.75 passes;
        # as HAM the same hits give accuracy 0.25 -> rejected.
        gate = AdmissionGate(_tiny_dataset())
        lf, verdict = gate.admit_one(CandidateSpec(KEYWORD, "free", 0))
        assert lf is None
        assert verdict.stage == STAGE_ACCURACY
        assert "0.2500" in verdict.detail

    def test_admission_and_intra_batch_redundancy(self):
        gate = AdmissionGate(_tiny_dataset())
        new, verdicts = gate.admit([
            CandidateSpec(KEYWORD, "free", 1),
            CandidateSpec(KEYWORD, "free", 1),  # duplicate of the batch-mate
        ])
        assert len(new) == 1
        assert verdicts[0].outcome == ADMITTED
        assert verdicts[1].outcome == REJECTED
        assert verdicts[1].stage == STAGE_REDUNDANCY

    def test_zero_validation_activity_admitted(self):
        gate = AdmissionGate(_tiny_dataset())
        # "click" appears in train but in no validation instance
        lf, verdict = gate.admit_one(CandidateSpec(KEYWORD, "click", 1))
        assert lf is not None and verdict.outcome == ADMITTED

    def test_disabled_filters_admit_everything_valid(self):
        config = FilterConfig(enable_accuracy=False, enable_redundancy=False)
        gate = AdmissionGate(_tiny_dataset(), config)
        new, verdicts = gate.admit([
            CandidateSpec(KEYWORD, "free", 0),  # would fail accuracy
            CandidateSpec(KEYWORD, "free", 0),  # would fail redundancy
        ])
        assert len(new) == 2

    def test_train_matrix_columns_follow_admission_order(self):
        gate = AdmissionGate(_tiny_dataset())
        gate.admit([CandidateSpec(KEYWORD, "free", 1), CandidateSpec(KEYWORD, "song", 0)])
        matrix = gate.train_matrix()
        assert matrix.shape == (5, 2)
        assert list(matrix[:, 0]) == [1, ABSTAIN, 1, ABSTAIN, 1]
        assert list(matrix[:, 1]) == [ABSTAIN, 0, ABSTAIN, ABSTAIN, ABSTAIN]

    @pytest.mark.parametrize("enable_accuracy", [True, False])
    def test_valid_accuracies_recorded_for_admitted_lfs(self, enable_accuracy):
        dataset = _tiny_dataset()
        gate = AdmissionGate(dataset, FilterConfig(enable_accuracy=enable_accuracy))
        gate.admit([
            CandidateSpec(KEYWORD, "free", 1),  # valid accuracy 3/4
            CandidateSpec(KEYWORD, "one two three four", 1),  # invalid
            CandidateSpec(KEYWORD, "free", 1),  # redundant
            CandidateSpec(KEYWORD, "free", 0),  # valid accuracy 1/4
            CandidateSpec(KEYWORD, "song", 0),  # valid accuracy 1/1
            CandidateSpec(KEYWORD, "click", 1),  # never fires on valid
        ])
        admitted = [(lf.payload, lf.target_class) for lf in gate.admitted]
        if enable_accuracy:
            assert admitted == [("free", 1), ("song", 0), ("click", 1)]
            assert gate.valid_accuracies == [0.75, 1.0, None]
        else:
            assert admitted == [("free", 1), ("free", 0), ("song", 0), ("click", 1)]
            assert gate.valid_accuracies == [0.75, 0.25, 1.0, None]
        gold = np.array([inst.gold_label for inst in dataset.valid])
        assert gate.valid_accuracies == [
            measure_accuracy(np.array([apply_lf(lf, inst) for inst in dataset.valid]), gold)
            for lf in gate.admitted]

    def test_empty_gate_matrix_shape(self):
        gate = AdmissionGate(_tiny_dataset())
        assert gate.train_matrix().shape == (5, 0)


def _relation_dataset():
    """Rows whose entities turn the unsafe templates below into regex syntax."""
    def inst(i, text, e1, e2, label=None):
        s1, s2 = text.index(e1), text.index(e2)
        return Instance(id=i, text=text, gold_label=label,
                        entity1=EntitySpan(e1, s1, s1 + len(e1)),
                        entity2=EntitySpan(e2, s2, s2 + len(e2)))

    rows = [("qqab 3 x", "q", "3"), ("q1ab 3", "1", "3"), ("3 xzz 1", "3", "1"),
            ("aa b 1 3", "1", "3")]
    return Dataset(task_kind=RELATION_TASK, classes=["NONE", "REL"], default_class=None,
                   train=[inst(i, *row) for i, row in enumerate(rows)],
                   valid=[inst(10 + i, *row, label=1) for i, row in enumerate(rows)],
                   test=[])


@pytest.mark.parametrize("template", [
    r"(a)(?:\1)++ {{E1}} {{E2}}",  # backreference inside a possessive repeat
    r"{{E1}}(?:(?=b)x)*+ {{E2}}",  # lookahead inside a possessive repeat
    r"(q)\{{E1}}ab {{E2}}",  # E1 "1" makes the backreference (q)\1ab
    r"{{{E1}}}.zz {{E2}}",  # E1 "3" makes the repeat {3} with nothing to repeat
    r"{{E1}} [a-{{E2}}]",  # E2 "3" makes the bad range [a-3]
    r"[{{E1}}]+ song",  # the entity's characters join a class
    r"{{E1}}.{0,40}song{{E2}}?",  # the repeat takes only the entity's last character
    # set syntax that a later Python reads differently ("Possible nested set")
    r"{{E1}} [[a] {{E2}}",
    r"{{E1}} [a--b] {{E2}}",
    r"{{E1}} [a&&b] {{E2}}",
    r"{{E1}} [a||b] {{E2}}",
    r"{{E1}} [a~~b] {{E2}}",
])
def test_unsafe_pattern_templates_get_a_validity_verdict(template):
    gate = AdmissionGate(_relation_dataset(), FilterConfig(enable_accuracy=False))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        new, verdicts = gate.admit([CandidateSpec(PATTERN, template, 1)])
    assert caught == []
    assert new == []
    assert verdicts[0].outcome == REJECTED and verdicts[0].stage == STAGE_VALIDITY


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(accuracy_threshold=1.5)
    with pytest.raises(ValueError):
        FilterConfig(redundancy_threshold=-0.1)
