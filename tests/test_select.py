import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab.corpus import Instance, extract_ngrams, tokenize
from weaklab.downstream import LinearModel, predict_proba
from weaklab.labelfns import KeywordIndex
from weaklab.select import (
    PoolExhausted,
    SelectionState,
    SeuState,
    entropy,
    entropy_rows,
    expected_utility,
    random_sampler,
    seu_sampler,
    uncertainty_sampler,
)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2))

    def test_point_mass_is_zero(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_uniform_maximizes(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4))
        assert entropy([0.7, 0.1, 0.1, 0.1]) < math.log(4)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            entropy([0.7, 0.7])
        with pytest.raises(ValueError):
            entropy([-0.5, 1.5])

    def test_rows_match_the_vector_form(self):
        probs = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        assert entropy_rows(probs).tolist() == [entropy(p) for p in probs]

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    def test_nonnegative_and_bounded(self, raw):
        p = np.array(raw) / sum(raw)
        h = entropy(p)
        assert -1e-12 <= h <= math.log(len(raw)) + 1e-9


class TestSelectionState:
    def test_without_replacement(self):
        state = SelectionState(pool=[3, 1, 2])
        state.take(2)
        assert state.pool == [1, 3]
        assert state.queried == [2]

    def test_pool_is_sorted(self):
        assert SelectionState(pool=[9, 4, 7]).pool == [4, 7, 9]


class TestRandomSampler:
    def test_deterministic_given_seed(self):
        draws1 = []
        state = SelectionState(pool=list(range(10)))
        rng = random.Random(42)
        while state.pool:
            draws1.append(random_sampler(state, rng))
        state = SelectionState(pool=list(range(10)))
        rng = random.Random(42)
        draws2 = [random_sampler(state, rng) for _ in range(10)]
        assert draws1 == draws2
        assert sorted(draws1) == list(range(10))

    def test_empty_pool(self):
        with pytest.raises(PoolExhausted):
            random_sampler(SelectionState(pool=[]), random.Random(0))


def _scan_pick(pool, model, features_by_id):
    """The reference pick: one predict_proba and entropy call per pool row,
    in id order, keeping the first of scores within 1e-15 of each other."""
    best_id, best_score = None, -1.0
    for iid in sorted(pool):
        score = entropy(predict_proba(model, features_by_id[iid])[0])
        if score > best_score + 1e-15:
            best_id, best_score = iid, score
    return best_id


class TestUncertaintySampler:
    def _model(self):
        # P(class 1 | x) = sigmoid(w . x); entropy peaks where logits are equal
        return LinearModel(weights=np.array([[0.0], [1.0]]), bias=np.zeros(2), l2=0.0)

    def test_picks_highest_entropy(self):
        features = {0: np.array([5.0]), 1: np.array([0.1]), 2: np.array([-4.0])}
        state = SelectionState(pool=[0, 1, 2])
        assert uncertainty_sampler(state, self._model(), features) == 1

    def test_tie_breaks_to_lowest_id(self):
        features = {4: np.array([2.0]), 7: np.array([2.0])}
        state = SelectionState(pool=[7, 4])
        assert uncertainty_sampler(state, self._model(), features) == 4

    def test_duplicate_rows_pick_the_lowest_id(self):
        model = LinearModel(weights=np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
                            bias=np.zeros(3), l2=0.0)
        top = np.array([0.3, 0.2])
        features = {9: top.copy(), 3: np.array([4.0, 0.0]), 5: top.copy(),
                    7: np.array([0.0, -3.0]), 11: top.copy()}
        assert _scan_pick(features, model, features) == 5
        assert uncertainty_sampler(SelectionState(pool=list(features)), model, features) == 5

    def test_rows_with_exact_zero_probabilities(self):
        # a logit gap of 800 underflows exp to 0.0: id 6 scores (0, 1/2, 1/2),
        # the most uncertain row, and ids 2 and 8 carry exact zeros as well
        model = LinearModel(weights=np.array([[0.0, 0.0], [800.0, 0.0], [800.0, 1.0]]),
                            bias=np.zeros(3), l2=0.0)
        features = {1: np.array([0.0, 5.0]), 2: np.array([1.0, 30.0]),
                    4: np.array([0.0, 8.0]), 6: np.array([1.0, 0.0]),
                    8: np.array([-1.0, 0.0])}
        assert (predict_proba(model, features[6])[0] == [0.0, 0.5, 0.5]).all()
        assert _scan_pick(features, model, features) == 6
        assert uncertainty_sampler(SelectionState(pool=list(features)), model, features) == 6

    def test_matches_the_per_row_scan(self):
        # random 2- to 4-class models over small integer features, so rows
        # repeat; large weight scales drive some probabilities to exact zeros
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_classes, dim = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            scale = float(rng.choice([0.1, 1.0, 500.0]))
            model = LinearModel(weights=scale * rng.normal(size=(n_classes, dim)),
                                bias=rng.normal(size=n_classes), l2=0.0)
            ids = rng.choice(1000, size=int(rng.integers(1, 30)), replace=False).tolist()
            features = {iid: rng.integers(-2, 3, size=dim).astype(float) for iid in ids}
            want = _scan_pick(ids, model, features)
            assert uncertainty_sampler(SelectionState(pool=ids), model, features) == want

    def test_no_model_falls_back_to_random(self):
        state = SelectionState(pool=[5, 6, 7])
        rng = random.Random(0)
        picked = uncertainty_sampler(state, None, {}, rng)
        assert picked in (5, 6, 7)

    def test_no_model_no_rng_takes_lowest(self):
        state = SelectionState(pool=[5, 6, 7])
        assert uncertainty_sampler(state, None, {}) == 5

    def test_empty_pool(self):
        with pytest.raises(PoolExhausted):
            uncertainty_sampler(SelectionState(pool=[]), self._model(), {})


class TestExpectedUtility:
    def test_hand_computed(self):
        # accuracies 1.0 and 0.5; coverages 10 and 4.
        # P = (2/3, 1/3); utilities (10, 2); expectation 2/3*10 + 1/3*2 = 22/3... no:
        # weights 1.0/(1.5)=2/3 and 0.5/1.5=1/3; utility a*ncov = 10 and 2;
        # score = 2/3*10 + 1/3*2 = 7.333...
        assert expected_utility([(1.0, 10), (0.5, 4)]) == pytest.approx(22 / 3)

    def test_single_candidate(self):
        assert expected_utility([(0.9, 5)]) == pytest.approx(0.9 * 5)

    def test_empty_or_zero_accuracy(self):
        assert expected_utility([]) == 0.0
        assert expected_utility([(0.0, 9)]) == 0.0

    @given(st.lists(st.tuples(st.floats(0.01, 1.0), st.integers(0, 20)),
                    min_size=1, max_size=8))
    def test_bounded_by_best_utility(self, candidates):
        score = expected_utility(candidates)
        best = max(a * n for a, n in candidates)
        assert 0.0 <= score <= best + 1e-9


class TestSeuSampler:
    def _setup(self):
        train = {
            0: Instance(id=0, text="alpha beta"),
            1: Instance(id=1, text="gamma delta"),
            2: Instance(id=2, text="alpha gamma"),
        }
        return train

    def test_prefers_high_utility_instance(self):
        train = self._setup()
        # "alpha" is accurate and covers both uncovered instances; grams of
        # instance 1 are unknown (prior accuracy, low coverage).
        seu = SeuState(
            candidate_accuracy={("alpha", 1): 1.0},
            uncovered={0, 2},
            posteriors={0: [0.1, 0.9], 1: [0.1, 0.9], 2: [0.1, 0.9]},
        )
        state = SelectionState(pool=[0, 1, 2])
        assert seu_sampler(state, seu, train) in (0, 2)

    def test_tie_breaks_to_lowest_id(self):
        train = {0: Instance(id=0, text="same text"), 1: Instance(id=1, text="same text")}
        seu = SeuState(candidate_accuracy={}, uncovered={0, 1},
                       posteriors={0: [1.0, 0.0], 1: [1.0, 0.0]})
        state = SelectionState(pool=[0, 1])
        assert seu_sampler(state, seu, train) == 0

    def test_pool_cap_subsamples_deterministically(self):
        train = {i: Instance(id=i, text="tok%d" % i) for i in range(20)}
        seu = SeuState(candidate_accuracy={}, uncovered=set(range(20)),
                       posteriors={i: [1.0, 0.0] for i in range(20)})
        state = SelectionState(pool=list(range(20)))
        rng = random.Random(7)
        first = seu_sampler(state, seu, train, pool_cap=5, rng=rng)
        state2 = SelectionState(pool=list(range(20)))
        rng2 = random.Random(7)
        assert seu_sampler(state2, seu, train, pool_cap=5, rng=rng2) == first

    def test_coverage_drives_choice(self):
        # identical accuracies; instance 0's gram covers 2 uncovered
        # instances, instance 1's covers none.
        train = {
            0: Instance(id=0, text="shared"),
            1: Instance(id=1, text="unique"),
            2: Instance(id=2, text="shared"),
            3: Instance(id=3, text="shared"),
        }
        seu = SeuState(candidate_accuracy={}, uncovered={2, 3},
                       posteriors={i: [1.0, 0.0] for i in range(4)})
        state = SelectionState(pool=[0, 1])
        assert seu_sampler(state, seu, train) == 0

    def test_empty_pool(self):
        with pytest.raises(PoolExhausted):
            seu_sampler(SelectionState(pool=[]), SeuState({}, set(), {}), {})


def _reference_candidates(instance, seu, cover_count):
    cls = seu.posteriors.get(instance.id)
    label = int(np.argmax(cls)) if cls is not None else 0
    return [(seu.candidate_accuracy.get((gram, label), seu.accuracy_prior), cover_count(gram))
            for gram in extract_ngrams(tokenize(instance.text), 1, 3)]


def _reference_seu_pick(state, seu, train_by_id, pool_cap=None, rng=None):
    """The per-row SEU scan: tokenize every uncovered and every pool row, score
    each pool row with `expected_utility` in id order, and keep the first of
    scores within 1e-12 of each other."""
    pool = state.pool
    if pool_cap is not None and len(pool) > pool_cap:
        pool = pool[:pool_cap] if rng is None else sorted(rng.sample(pool, pool_cap))
    uncovered_grams = {}
    for iid in seu.uncovered:
        inst = train_by_id.get(iid)
        if inst is not None:
            for gram in set(extract_ngrams(tokenize(inst.text), 1, 3)):
                uncovered_grams[gram] = uncovered_grams.get(gram, 0) + 1
    best_id, best_score = None, -math.inf
    for iid in pool:
        score = expected_utility(_reference_candidates(
            train_by_id[iid], seu, lambda gram: uncovered_grams.get(gram, 0)))
        if score > best_score + 1e-12:
            best_id, best_score = iid, score
    return state.take(best_id)


# Few tokens and separators, so texts repeat, grams repeat within a row and
# punctuation splits tokens; accuracies include 0 and a prior of 0, so a
# row's accuracy total can be 0.
_TOKENS = ["alpha", "beta", "gamma", "Beta", "delta"]
_SEPARATORS = [" ", ", ", "! ", "-"]
_ACCURACIES = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.6, 2 / 3, 0.7, 0.9, 1.0])


@st.composite
def seu_cases(draw):
    n_classes = draw(st.sampled_from([2, 3]))
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True))
    texts = [draw(st.sampled_from(_SEPARATORS)).join(
        draw(st.lists(st.sampled_from(_TOKENS), max_size=6))) for _ in ids]
    if len(ids) > 1 and draw(st.booleans()):
        texts[-1] = texts[0]
    train = {iid: Instance(id=iid, text=text) for iid, text in zip(ids, texts)}
    probs = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n_classes,
                     max_size=n_classes)
    posteriors = {iid: draw(probs) for iid in ids if draw(st.booleans())}
    uncovered = {iid for iid in ids if draw(st.booleans())}
    uncovered |= set(draw(st.lists(st.integers(100, 110), max_size=3)))
    grams = sorted({g for text in texts for g in extract_ngrams(tokenize(text), 1, 3)})
    grams += ["zeta", "alpha zeta"]  # accuracy keys for grams no row holds
    keys = st.tuples(st.sampled_from(grams), st.integers(0, n_classes - 1))
    accuracy = draw(st.dictionaries(keys, _ACCURACIES, max_size=10))
    seu = SeuState(candidate_accuracy=accuracy, uncovered=uncovered, posteriors=posteriors,
                   accuracy_prior=draw(st.sampled_from([0.0, 0.5])))
    pool_cap = draw(st.one_of(st.none(), st.integers(1, len(ids))))
    order = draw(st.permutations(ids))
    return train, seu, pool_cap, draw(st.integers(0, 10)), order


class TestSeuMatchesPerRowScan:
    @settings(max_examples=300, deadline=None)
    @given(seu_cases(), st.booleans())
    def test_every_pick_of_a_drained_pool(self, case, with_index):
        train, seu, pool_cap, seed, order = case
        # the index may list the rows in any order; the sampler maps ids to rows
        index = KeywordIndex([train[iid] for iid in order]) if with_index else None
        want_state, got_state = SelectionState(pool=list(train)), SelectionState(pool=list(train))
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        while want_state.pool:
            want = _reference_seu_pick(want_state, seu, train, pool_cap, want_rng)
            got = seu_sampler(got_state, seu, train, pool_cap, got_rng, index=index)
            assert got == want
        assert got_state.queried == want_state.queried

    def test_duplicate_text_with_punctuation_picks_the_lowest_id(self):
        train = {5: Instance(id=5, text="beta, beta gamma!"), 2: Instance(id=2, text="beta gamma"),
                 9: Instance(id=9, text="Beta gamma"), 4: Instance(id=4, text="")}
        seu = SeuState(candidate_accuracy={("beta gamma", 1): 0.9}, uncovered={2, 9, 4, 77},
                       posteriors={2: [0.2, 0.8], 9: [0.2, 0.8], 5: [0.5, 0.5]})
        state = SelectionState(pool=list(train))
        picks = [seu_sampler(state, seu, train) for _ in range(4)]
        assert picks == [2, 9, 5, 4]
