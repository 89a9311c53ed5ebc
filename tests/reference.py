"""Reference implementations the tests check the program against.

Each is the plain, one-case-at-a-time form of something the program works
out in bulk: the Dawid-Skene objective at given parameters, the entropy of
one probability vector, the expected utility of one row's candidate LFs,
the samplers' pick loop over a pool's scores, the rows of a keyword index
that hold one gram, a split's interned n-grams, the TF-IDF fit and
featurization, one mock-oracle response, the admission gate over dense
vote columns, the majority vote counting one class at a time, and the
weighted vote adding one row's weights one LF at a time.
"""

import math

import numpy as np

from weaklab.aggregate import ProbLabels, _penalized_log_likelihood, _vote_design
from weaklab.corpus import extract_ngrams, tokenize
from weaklab.downstream import FeatureSpace
from weaklab.labelfns import ABSTAIN, apply_lf
from weaklab.lfgate import (ADMITTED, REJECTED, STAGE_ACCURACY, STAGE_REDUNDANCY,
                            STAGE_VALIDITY, FilterVerdict, accuracy_filter, redundancy_filter,
                            validity_filter)
from weaklab.plmclient import MockOracleConfig, _analyse_passage, _draw_response
from weaklab.select import entropy_rows


def em_log_likelihood(entries, prior, confusions, propensities, smoothing):
    """Penalized observed-data log-likelihood at the given parameters.

    Per LF and instance the likelihood factor is
    propensity[k] * confusion[k, vote] when the LF voted and
    1 - propensity[k] when it abstained. The penalty is the Dirichlet/Beta
    term matching additive smoothing in the M-step; at smoothing 0 this is
    the plain log-likelihood. Returns (objective, per-instance class
    log-likelihood matrix).
    """
    design = _vote_design(entries, prior.shape[0])
    ll, log_like, _ = _penalized_log_likelihood(design, prior, confusions, propensities,
                                                smoothing)
    return ll, log_like


def majority_vote(entries, n_classes) -> ProbLabels:
    """`aggregate.majority_vote` counting one class at a time."""
    counts = np.stack([(entries == c).sum(axis=1) for c in range(n_classes)], axis=1)
    totals = counts.sum(axis=1)
    covered = totals > 0
    probs = np.full((entries.shape[0], n_classes), 1.0 / n_classes)
    probs[covered] = counts[covered] / totals[covered, None]
    return ProbLabels(probs=probs, covered=covered)


def weighted_vote(entries, n_classes, lf_accuracies) -> ProbLabels:
    """`aggregate.weighted_vote` row by row: each row adds its LFs' weights
    one at a time, first to last, and takes the softmax over the classes it
    voted."""
    acc = np.clip(np.asarray(lf_accuracies, dtype=float), 0.05, 0.95)
    weights = np.log(acc * (n_classes - 1) / (1.0 - acc))
    probs = np.full((entries.shape[0], n_classes), 1.0 / n_classes)
    covered = np.zeros(entries.shape[0], dtype=bool)
    for i, row in enumerate(entries):
        scores = np.zeros(n_classes)
        voted = np.zeros(n_classes, dtype=bool)
        for j, vote in enumerate(row):
            if vote != ABSTAIN:
                scores[vote] += weights[j]
                voted[vote] = True
        if voted.any():
            z = np.exp(scores[voted] - scores[voted].max())
            probs[i] = 0.0
            probs[i, voted] = z / z.sum()
            covered[i] = True
    return ProbLabels(probs=probs, covered=covered)


def entropy(p) -> float:
    """Shannon entropy in nats of one probability vector."""
    p = np.asarray(p, dtype=float)
    if (p < 0).any() or abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError("not a probability vector: %r" % (p,))
    return float(entropy_rows(p.reshape(1, -1))[0])


def expected_utility(candidates) -> float:
    """Candidates are (accuracy, n_new_coverage) pairs.

    The candidate distribution is proportional to accuracy, each candidate's
    utility is accuracy * new coverage, and the score is the expectation.
    """
    total = sum(a for a, _ in candidates)
    if total <= 0:
        return 0.0
    return sum((a / total) * (a * ncov) for a, ncov in candidates)


def pick_loop(scores, eps) -> int:
    """The index of the pick among `scores`, in pool order: a later score
    displaces the best so far only when it is above it by more than eps, so
    the earliest of near-tied scores wins."""
    best = 0
    for k in range(1, len(scores)):
        if scores[k] > scores[best] + eps:
            best = k
    return best


def keyword_rows(index, gram) -> np.ndarray:
    """The rows of a `KeywordIndex` that hold gram id `gram`, ascending, from
    comparing every gram id of the split with it."""
    return np.searchsorted(index.indptr, np.flatnonzero(index.ids == gram), side="right") - 1


def interned(texts):
    """(gram_ids, ids, indptr) of the texts' 1-3-grams, from the per-row
    loop: each text's `extract_ngrams` grams, numbered in first-seen order
    through one gram -> id dict, with each text's ids in CSR form."""
    gram_ids: dict = {}
    ids, indptr = [], [0]
    for text in texts:
        ids.extend(gram_ids.setdefault(gram, len(gram_ids))
                   for gram in extract_ngrams(tokenize(text), 1, 3))
        indptr.append(len(ids))
    return gram_ids, np.array(ids, dtype=np.int32), np.array(indptr, dtype=np.int64)


def fit_tfidf(texts, min_df=1, max_features=50000) -> FeatureSpace:
    """The TF-IDF fit from a token -> document frequency dict, counted text
    by text over each text's distinct tokens."""
    df: dict = {}
    for text in texts:
        for token in set(tokenize(text)):
            df[token] = df.get(token, 0) + 1
    eligible = [t for t, d in df.items() if d >= min_df]
    eligible.sort(key=lambda t: (-df[t], t))
    eligible = eligible[:max_features]
    eligible.sort()
    n = len(texts)
    idf = np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in eligible])
    return FeatureSpace(vocabulary={t: i for i, t in enumerate(eligible)}, idf=idf,
                        dim=len(eligible))


def featurize_all(space, texts) -> np.ndarray:
    """The per-text TF-IDF loop: each row starts at zero, gains its token's
    idf once per occurrence, in token order, and is divided by its L2 norm."""
    out = np.zeros((len(texts), space.dim))
    for vec, text in zip(out, texts):
        for token in tokenize(text):
            idx = space.vocabulary.get(token)
            if idx is not None:
                vec[idx] += space.idf[idx]
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
    return out


def mock_oracle_respond(config: MockOracleConfig, instance, task_kind: str, cot: bool,
                        draw_index: int = 0) -> str:
    """One synthetic response, deterministic given (seed, query id, draw index)."""
    return _draw_response(config, _analyse_passage(config, instance), task_kind, cot,
                          draw_index)


def vote_column(lf, instances) -> np.ndarray:
    """One LF's int64 votes over a split, from `apply_lf` row by row."""
    return np.array([apply_lf(lf, inst) for inst in instances], dtype=np.int64)


class DenseAdmissionGate:
    """The admission gate that keeps every admitted LF's dense train vote
    column: the accuracy stage reads the candidate's whole valid column,
    and the redundancy stage compares its whole train column with every
    admitted LF's, in admission order."""

    def __init__(self, dataset, config):
        self.dataset = dataset
        self.config = config
        self.admitted, self.valid_accuracies, self.train_votes = [], [], []
        self._valid_gold = np.array([inst.gold_label for inst in dataset.valid], dtype=np.int64)

    def train_matrix(self) -> np.ndarray:
        if not self.train_votes:
            return np.zeros((len(self.dataset.train), 0), dtype=np.int64)
        return np.stack(self.train_votes, axis=1)

    def admit_one(self, candidate):
        lf, reason = validity_filter(candidate, self.dataset)
        if lf is None:
            return None, FilterVerdict(REJECTED, STAGE_VALIDITY, reason)
        passed, acc = accuracy_filter(vote_column(lf, self.dataset.valid), self._valid_gold,
                                      self.config)
        if self.config.enable_accuracy and not passed:
            return None, FilterVerdict(
                REJECTED, STAGE_ACCURACY,
                "validation accuracy %.4f < %.4f" % (acc, self.config.accuracy_threshold))
        cand_votes = vote_column(lf, self.dataset.train)
        if self.config.enable_redundancy:
            passed, best = redundancy_filter(cand_votes, self.train_votes, self.config)
            if not passed:
                return None, FilterVerdict(
                    REJECTED, STAGE_REDUNDANCY,
                    "max train consensus %.4f > %.4f" % (best, self.config.redundancy_threshold))
        self.admitted.append(lf)
        self.valid_accuracies.append(acc)
        self.train_votes.append(cand_votes)
        return lf, FilterVerdict(ADMITTED, STAGE_REDUNDANCY, "admitted")

    def admit(self, candidates):
        new_lfs, verdicts = [], []
        for candidate in candidates:
            lf, verdict = self.admit_one(candidate)
            if lf is not None:
                new_lfs.append(lf)
            verdicts.append(verdict)
        return new_lfs, verdicts
