import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab.corpus import Instance, extract_ngrams, tokenize
from weaklab.downstream import LinearModel, predict_proba
from weaklab.labelfns import KeywordIndex
from weaklab.select import (
    PoolExhausted,
    SelectionState,
    SeuScores,
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
        state.take(1)
        assert state.pool == [3, 2]
        assert state.queried == [1]


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


def _scan_pick(pool, model, features):
    """The reference pick: one predict_proba and entropy call per pool row,
    in pool order, keeping the first of scores within 1e-15 of each other."""
    best_row, best_score = None, -1.0
    for row in pool:
        score = entropy(predict_proba(model, features[row])[0])
        if score > best_score + 1e-15:
            best_row, best_score = row, score
    return best_row


class TestUncertaintySampler:
    def _model(self):
        # P(class 1 | x) = sigmoid(w . x); entropy peaks where logits are equal
        return LinearModel(weights=np.array([[0.0], [1.0]]), bias=np.zeros(2), l2=0.0)

    def test_picks_highest_entropy(self):
        features = np.array([[5.0], [0.1], [-4.0]])
        state = SelectionState(pool=[0, 1, 2])
        assert uncertainty_sampler(state, self._model(), features) == 1

    def test_tie_breaks_to_lowest_id(self):
        # rows 0 and 1 hold instances 7 and 4; the pool lists them in id order
        features = np.array([[2.0], [2.0]])
        state = SelectionState(pool=[1, 0])
        assert uncertainty_sampler(state, self._model(), features) == 1

    def test_duplicate_rows_pick_the_lowest_id(self):
        model = LinearModel(weights=np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
                            bias=np.zeros(3), l2=0.0)
        top = np.array([0.3, 0.2])
        features = np.zeros((12, 2))
        features[[9, 5, 11]] = top
        features[3], features[7] = [4.0, 0.0], [0.0, -3.0]
        pool = [3, 5, 7, 9, 11]
        assert _scan_pick(pool, model, features) == 5
        assert uncertainty_sampler(SelectionState(pool=pool), model, features) == 5

    def test_rows_with_exact_zero_probabilities(self):
        # a logit gap of 800 underflows exp to 0.0: row 6 scores (0, 1/2, 1/2),
        # the most uncertain row, and rows 2 and 8 carry exact zeros as well
        model = LinearModel(weights=np.array([[0.0, 0.0], [800.0, 0.0], [800.0, 1.0]]),
                            bias=np.zeros(3), l2=0.0)
        features = np.zeros((9, 2))
        features[[1, 2, 4, 6, 8]] = [[0.0, 5.0], [1.0, 30.0], [0.0, 8.0], [1.0, 0.0],
                                     [-1.0, 0.0]]
        pool = [1, 2, 4, 6, 8]
        assert (predict_proba(model, features[6])[0] == [0.0, 0.5, 0.5]).all()
        assert _scan_pick(pool, model, features) == 6
        assert uncertainty_sampler(SelectionState(pool=pool), model, features) == 6

    def test_matches_the_per_row_scan(self):
        # random 2- to 4-class models over small integer features, so rows
        # repeat; large weight scales drive some probabilities to exact zeros
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_classes, dim = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            scale = float(rng.choice([0.1, 1.0, 500.0]))
            model = LinearModel(weights=scale * rng.normal(size=(n_classes, dim)),
                                bias=rng.normal(size=n_classes), l2=0.0)
            pool = rng.choice(1000, size=int(rng.integers(1, 30)), replace=False).tolist()
            features = np.zeros((1000, dim))
            for row in pool:
                features[row] = rng.integers(-2, 3, size=dim)
            want = _scan_pick(pool, model, features)
            assert uncertainty_sampler(SelectionState(pool=pool), model, features) == want

    def test_no_model_falls_back_to_random(self):
        state = SelectionState(pool=[5, 6, 7])
        rng = random.Random(0)
        picked = uncertainty_sampler(state, None, None, rng)
        assert picked in (5, 6, 7)

    def test_no_model_no_rng_takes_lowest(self):
        state = SelectionState(pool=[5, 6, 7])
        assert uncertainty_sampler(state, None, None) == 5

    def test_empty_pool(self):
        with pytest.raises(PoolExhausted):
            uncertainty_sampler(SelectionState(pool=[]), self._model(), np.zeros((0, 1)))


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


def _index(*texts):
    return KeywordIndex([Instance(id=row, text=text) for row, text in enumerate(texts)])


def _rows(n, marked):
    mask = np.zeros(n, dtype=bool)
    mask[list(marked)] = True
    return mask


class TestSeuSampler:
    def test_prefers_high_utility_instance(self):
        index = _index("alpha beta", "gamma delta", "alpha gamma")
        # "alpha" is accurate and covers both uncovered rows; grams of row 1
        # are unknown (prior accuracy, low coverage).
        state = SelectionState(pool=[0, 1, 2])
        picked = seu_sampler(state, index, np.ones(3, dtype=np.int64), _rows(3, {0, 2}),
                             {("alpha", 1): 1.0})
        assert picked in (0, 2)

    def test_tie_breaks_to_lowest_id(self):
        # the pool lists the rows in id order
        index = KeywordIndex([Instance(id=1, text="same text"), Instance(id=0, text="same text")])
        state = SelectionState(pool=[1, 0])
        assert seu_sampler(state, index, np.zeros(2, dtype=np.int64), _rows(2, {0, 1}), {}) == 1

    def test_pool_cap_subsamples_deterministically(self):
        index = _index(*["tok%d" % i for i in range(20)])
        labels, uncovered = np.zeros(20, dtype=np.int64), _rows(20, range(20))
        state = SelectionState(pool=list(range(20)))
        first = seu_sampler(state, index, labels, uncovered, {}, pool_cap=5,
                            rng=random.Random(7))
        state2 = SelectionState(pool=list(range(20)))
        assert seu_sampler(state2, index, labels, uncovered, {}, pool_cap=5,
                           rng=random.Random(7)) == first

    def test_coverage_drives_choice(self):
        # identical accuracies; row 0's gram covers 2 uncovered rows, row 1's
        # covers none.
        index = _index("shared", "unique", "shared", "shared")
        state = SelectionState(pool=[0, 1])
        assert seu_sampler(state, index, np.zeros(4, dtype=np.int64), _rows(4, {2, 3}), {}) == 0

    def test_empty_pool(self):
        with pytest.raises(PoolExhausted):
            seu_sampler(SelectionState(pool=[]), _index(), np.zeros(0, dtype=np.int64),
                        np.zeros(0, dtype=bool), {})


def _reference_candidates(instance, label, accuracy, prior, cover_count):
    return [(accuracy.get((gram, label), prior), cover_count(gram))
            for gram in extract_ngrams(tokenize(instance.text), 1, 3)]


def _reference_scores(train, labels, uncovered, accuracy, prior, rows):
    """`expected_utility` of each of `rows`, from tokenizing every uncovered
    row and every scored row."""
    uncovered_grams = {}
    for row, inst in enumerate(train):
        if uncovered[row]:
            for gram in set(extract_ngrams(tokenize(inst.text), 1, 3)):
                uncovered_grams[gram] = uncovered_grams.get(gram, 0) + 1
    return [expected_utility(_reference_candidates(
        train[row], labels[row], accuracy, prior, lambda gram: uncovered_grams.get(gram, 0)))
        for row in rows]


def _reference_seu_pick(state, train, labels, uncovered, accuracy, prior, pool_cap=None,
                        rng=None):
    """The per-row SEU scan: score each pool row with `_reference_scores` in
    pool order, and keep the first of scores within 1e-12 of each other. A
    capped pool is an `rng.sample` of the pool, put back in pool order."""
    pool = state.pool
    if pool_cap is not None and len(pool) > pool_cap:
        pool = pool[:pool_cap] if rng is None else sorted(rng.sample(pool, pool_cap),
                                                          key=pool.index)
    scores = _reference_scores(train, labels, uncovered, accuracy, prior, pool)
    best_row, best_score = None, -math.inf
    for row, score in zip(pool, scores):
        if score > best_score + 1e-12:
            best_row, best_score = row, score
    return state.take(best_row)


# Few tokens and separators, so texts repeat, grams repeat within a row and
# punctuation splits tokens; accuracies include 0 and a prior of 0, so a
# row's accuracy total can be 0.
_TOKENS = ["alpha", "beta", "gamma", "Beta", "delta"]
_SEPARATORS = [" ", ", ", "! ", "-"]
_ACCURACIES = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.6, 2 / 3, 0.7, 0.9, 1.0])


@st.composite
def seu_cases(draw, uneven=False):
    """Train rows with unique ids in drawn order, and the pool as the rows in
    id order, as `pipeline.run` builds it. With `uneven`, one row has 20-40
    tokens and the others at most two."""
    n_classes = draw(st.sampled_from([2, 3]))
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True))
    sizes = [(0, 6)] * len(ids)
    if uneven:
        sizes = [(0, 2)] * len(ids)
        sizes[draw(st.integers(0, len(ids) - 1))] = (20, 40)
    texts = [draw(st.sampled_from(_SEPARATORS)).join(
        draw(st.lists(st.sampled_from(_TOKENS), min_size=lo, max_size=hi))) for lo, hi in sizes]
    if len(ids) > 1 and draw(st.booleans()):
        texts[-1] = texts[0]
    train = [Instance(id=iid, text=text) for iid, text in zip(ids, texts)]
    labels = np.array([draw(st.integers(0, n_classes - 1)) for _ in ids], dtype=np.int64)
    uncovered = np.array([draw(st.booleans()) for _ in ids])
    grams = sorted({g for text in texts for g in extract_ngrams(tokenize(text), 1, 3)})
    grams += ["zeta", "alpha zeta"]  # accuracy keys for grams no row holds
    keys = st.tuples(st.sampled_from(grams), st.integers(0, n_classes - 1))
    accuracy = draw(st.dictionaries(keys, _ACCURACIES, max_size=10))
    prior = draw(st.sampled_from([0.0, 0.5]))
    pool_cap = draw(st.one_of(st.none(), st.integers(1, len(ids))))
    pool = sorted(range(len(ids)), key=lambda row: ids[row])
    return train, labels, uncovered, accuracy, prior, pool_cap, draw(st.integers(0, 10)), pool


# `expected_utility` adds a row's terms left to right; numpy's `sum` pairs
# terms up instead, so these scores are compared with `==`
@settings(max_examples=200, deadline=None)
@given(seu_cases(uneven=True))
def test_scores_equal_expected_utility_bit_for_bit(case):
    train, labels, uncovered, accuracy, prior, _, _, pool = case
    want = _reference_scores(train, labels, uncovered, accuracy, prior, pool)
    scores = SeuScores(KeywordIndex(train), labels, uncovered, accuracy, prior)
    assert scores.of(np.array(pool, dtype=np.int64)) == want


def test_one_long_row_does_not_inflate_a_pick():
    # one 3,000-token row among 399 of 6 tokens: scoring the pool holds
    # arrays the size of its rows' grams, not rows x the longest row's grams
    rng = random.Random(0)
    words = ["w%d" % k for k in range(50)]
    texts = [" ".join(rng.choices(words, k=6)) for _ in range(399)]
    texts.insert(200, " ".join("long%d" % k for k in range(3000)))
    index = _index(*texts)
    index.ids  # interned before tracing: the split's index is built once per run
    labels = np.array([rng.randrange(2) for _ in texts], dtype=np.int64)
    uncovered = np.array([rng.random() < 0.5 for _ in texts])
    state = SelectionState(pool=list(range(len(texts))))
    tracemalloc.start()
    try:
        seu_sampler(state, index, labels, uncovered, {("w1", 0): 0.9})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, "SEU pick peaked at %.1f MB" % (peak / 2**20)


class TestSeuMatchesPerRowScan:
    @settings(max_examples=300, deadline=None)
    @given(seu_cases())
    def test_every_pick_of_a_drained_pool(self, case):
        self._drain(case)

    @settings(max_examples=100, deadline=None)
    @given(seu_cases(uneven=True))
    def test_every_pick_with_rows_of_very_uneven_length(self, case):
        self._drain(case)

    @staticmethod
    def _drain(case):
        train, labels, uncovered, accuracy, prior, pool_cap, seed, pool = case
        index = KeywordIndex(train)
        want_state, got_state = SelectionState(pool=list(pool)), SelectionState(pool=list(pool))
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        while want_state.pool:
            want = _reference_seu_pick(want_state, train, labels, uncovered, accuracy, prior,
                                       pool_cap, want_rng)
            got = seu_sampler(got_state, index, labels, uncovered, accuracy, pool_cap, got_rng,
                              prior)
            assert got == want
        assert got_state.queried == want_state.queried

    def test_duplicate_text_with_punctuation_picks_the_lowest_id(self):
        train = [Instance(id=5, text="beta, beta gamma!"), Instance(id=2, text="beta gamma"),
                 Instance(id=9, text="Beta gamma"), Instance(id=4, text="")]
        # rows in id order; ids 2 and 9 are labelled 1, and ids 2, 9 and 4 uncovered
        state = SelectionState(pool=[1, 3, 0, 2])
        labels, uncovered = np.array([0, 1, 1, 0]), _rows(4, {1, 2, 3})
        picks = [seu_sampler(state, KeywordIndex(train), labels, uncovered,
                             {("beta gamma", 1): 0.9}) for _ in range(4)]
        assert [train[row].id for row in picks] == [2, 9, 5, 4]


def _random_seu_inputs(seed, n=60, n_classes=3):
    """A seeded train index with repeated grams, each row's label, an
    uncovered mask and an accuracy map over grams the rows hold."""
    rng = random.Random(seed)
    words = ["w%d" % k for k in range(15)]
    index = _index(*[" ".join(rng.choices(words, k=rng.randint(1, 8))) for _ in range(n)])
    labels = np.array([rng.randrange(n_classes) for _ in range(n)], dtype=np.int64)
    uncovered = np.array([rng.random() < 0.6 for _ in range(n)])
    grams = sorted(index.gram_ids)
    accuracy = {(rng.choice(grams), rng.randrange(n_classes)): rng.choice([0.0, 0.3, 0.6, 0.9])
                for _ in range(25)}
    return index, labels, uncovered, accuracy


class TestSeuScoreReuse:
    """Picks on one `SelectionState`, whose kept scores are reused while the
    inputs hold, against scoring afresh on every call."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("change", [None, "labels", "uncovered", "accuracy", "prior"])
    def test_picks_equal_scoring_afresh(self, seed, capped, change):
        index, labels, uncovered, accuracy = _random_seu_inputs(seed)
        prior = 0.5
        cap = 12 if capped else None
        kept = SelectionState(pool=list(range(len(labels))))
        rng = random.Random(seed) if capped else None
        for step in range(30):
            if step == 10 and change == "labels":
                labels[::3] = (labels[::3] + 1) % 3  # in place: the kept copy must see it
            elif step == 10 and change == "uncovered":
                uncovered = ~uncovered
            elif step == 10 and change == "accuracy":
                accuracy = {key: 1.0 - acc for key, acc in accuracy.items()}
            elif step == 10 and change == "prior":
                prior = 0.2
            fresh_rng = None
            if rng is not None:
                fresh_rng = random.Random()
                fresh_rng.setstate(rng.getstate())
            want = seu_sampler(SelectionState(pool=list(kept.pool)), index, labels, uncovered,
                               accuracy, cap, fresh_rng, prior)
            assert seu_sampler(kept, index, labels, uncovered, accuracy, cap, rng, prior) == want
        assert kept.seu is not None

    def test_scores_are_reused_while_the_inputs_hold(self):
        index, labels, uncovered, accuracy = _random_seu_inputs(0)
        state = SelectionState(pool=list(range(len(labels))))
        seu_sampler(state, index, labels, uncovered, accuracy)
        kept = state.seu
        seu_sampler(state, index, labels.copy(), uncovered.copy(), dict(accuracy))
        assert state.seu is kept
        changed = dict(accuracy)
        key = next(iter(changed))
        changed[key] = 1.0 - changed[key]
        seu_sampler(state, index, labels, uncovered, changed)
        assert state.seu is not kept

    def test_capped_pool_scores_only_the_rows_drawn(self):
        index, labels, uncovered, accuracy = _random_seu_inputs(1)
        state = SelectionState(pool=list(range(len(labels))))
        rng = random.Random(3)
        seu_sampler(state, index, labels, uncovered, accuracy, pool_cap=5, rng=rng)
        assert int(state.seu.scored.sum()) == 5
        seu_sampler(state, index, labels, uncovered, accuracy, pool_cap=5, rng=rng)
        assert 5 < int(state.seu.scored.sum()) <= 10

    def test_a_changed_accuracy_moves_the_pick(self):
        # every gram covers one uncovered row, so a row scores its accuracy
        index = _index("alpha", "beta", "gamma")
        labels, uncovered = np.zeros(3, dtype=np.int64), _rows(3, {0, 1, 2})
        accuracy = {("alpha", 0): 0.9, ("beta", 0): 0.8, ("gamma", 0): 0.7}
        state = SelectionState(pool=[0, 1, 2])
        assert seu_sampler(state, index, labels, uncovered, accuracy) == 0
        accuracy[("gamma", 0)] = 0.95  # a kept score of 0.7 would pick row 1
        assert seu_sampler(state, index, labels, uncovered, accuracy) == 2
