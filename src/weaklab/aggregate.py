"""Label models: majority vote, accuracy-weighted vote and Dawid-Skene EM.

All aggregators consume a weak-label vote matrix with entries in
{0..C-1} | {ABSTAIN}, raise ValueError on any other entry and produce
row-stochastic per-instance class distributions plus a coverage mask.

The EM model factors each LF's behavior into a per-class vote propensity
(how often it fires given the true class) and a confusion matrix
conditioned on voting (which label it emits when it fires). The propensity
factor is essential: LFs built from keyword/pattern matches emit only their
own target class, so the identity of a vote carries no information and the
whole signal lives in who fires on what.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import Dataset
from .labelfns import ABSTAIN


@dataclass
class ProbLabels:
    probs: np.ndarray  # (n, C), each covered row sums to 1
    covered: np.ndarray  # (n,) bool

    @property
    def n(self):
        return self.probs.shape[0]

    @property
    def n_classes(self):
        return self.probs.shape[1]

    def hard_labels(self) -> np.ndarray:
        """Argmax labels, ties broken toward the lowest class index."""
        return self.probs.argmax(axis=1)


@dataclass
class LabelModelKind:
    em_max_iters: int = 100
    em_tol: float = 1e-6
    smoothing: float = 1.0
    em_restarts: int = 3  # cold fits: perturbed-init restarts on top of the majority-vote init

    def __post_init__(self):
        if self.em_max_iters < 1:
            raise ValueError("em_max_iters must be >= 1")
        if self.em_tol <= 0:
            raise ValueError("em_tol must be positive")
        if self.smoothing < 0:
            raise ValueError("smoothing must be >= 0")


def _check_votes(entries: np.ndarray, n_classes: int):
    """Raise ValueError unless every entry is ABSTAIN or a class index."""
    if entries.size and (entries.min() < ABSTAIN or entries.max() >= n_classes):
        raise ValueError("vote entries must lie in %d..%d" % (ABSTAIN, n_classes - 1))


def _vote_counts(entries: np.ndarray, n_classes: int) -> np.ndarray:
    n = entries.shape[0]
    counts = np.zeros((n, n_classes))
    for c in range(n_classes):
        counts[:, c] = (entries == c).sum(axis=1)
    return counts


def majority_vote(entries: np.ndarray, n_classes: int) -> ProbLabels:
    """Vote-fraction distribution over non-abstain votes per instance."""
    _check_votes(entries, n_classes)
    counts = _vote_counts(entries, n_classes)
    totals = counts.sum(axis=1)
    covered = totals > 0
    probs = np.full((entries.shape[0], n_classes), 1.0 / n_classes)
    probs[covered] = counts[covered] / totals[covered, None]
    return ProbLabels(probs=probs, covered=covered)


def weighted_vote(entries: np.ndarray, n_classes: int, lf_accuracies) -> ProbLabels:
    """Accuracy-weighted voting.

    Each LF votes with log-odds weight ln(a*(C-1)/(1-a)) after clipping its
    accuracy into [0.05, 0.95]; row distributions are the softmax of the
    accumulated per-class weights over classes that received at least one vote.
    """
    n, m = entries.shape
    if len(lf_accuracies) != m:
        raise ValueError("expected %d LF accuracies, got %d" % (m, len(lf_accuracies)))
    _check_votes(entries, n_classes)
    acc = np.clip(np.asarray(lf_accuracies, dtype=float), 0.05, 0.95)
    weights = np.log(acc * (n_classes - 1) / (1.0 - acc))
    scores = np.zeros((n, n_classes))
    voted = np.zeros((n, n_classes), dtype=bool)
    for j in range(m):
        votes = entries[:, j]
        active = votes != ABSTAIN
        scores[active, votes[active]] += weights[j]
        voted[active, votes[active]] = True
    covered = voted.any(axis=1)
    probs = np.full((n, n_classes), 1.0 / n_classes)
    # Rows with the same number k of voted classes are normalized together
    # over their k scores only, so each row sum adds the same k terms in the
    # same order as a per-row softmax would.
    n_voted = voted.sum(axis=1)
    for k in np.flatnonzero(np.bincount(n_voted[covered])):
        rows = n_voted == k
        mask = voted[rows]
        z = scores[rows][mask].reshape(-1, k)
        z = np.exp(z - z.max(axis=1, keepdims=True))
        block = np.zeros(mask.shape)
        block[mask] = (z / z.sum(axis=1, keepdims=True)).ravel()
        probs[rows] = block
    return ProbLabels(probs=probs, covered=covered)


def _vote_design(entries, n_classes):
    """One-hot vote design, built once per fit.

    Column j*C + c is 1 where LF j voted class c; the trailing m columns are 1
    where LF j abstained. One matmul of its transpose with the posteriors
    gives every M-step count, and one matmul with the log-parameters gives
    the per-instance class log-likelihood.
    """
    n, m = entries.shape
    onehot = (entries[:, :, None] == np.arange(n_classes)).reshape(n, m * n_classes)
    return np.concatenate([onehot, entries == ABSTAIN], axis=1).astype(float)


def _penalized_log_likelihood(design, prior, confusions, propensities, smoothing):
    """Objective, class log-likelihood matrix and E-step posteriors."""
    m, n_classes = propensities.shape
    log_prior = np.log(prior)
    log_conf = np.log(confusions)
    log_prop = np.log(propensities)
    log_abstain = np.log(1.0 - propensities)
    # row j*C + c, column k: log P(LF j votes c | class k)
    log_vote = (log_conf + log_prop[:, :, None]).transpose(0, 2, 1).reshape(m * n_classes,
                                                                              n_classes)
    log_like = design @ np.concatenate([log_vote, log_abstain]) + log_prior
    row_max = log_like.max(axis=1, keepdims=True)
    unnorm = np.exp(log_like - row_max)
    mass = unnorm.sum(axis=1, keepdims=True)
    ll = float((row_max + np.log(mass)).sum())
    if smoothing > 0:
        ll += smoothing * float(log_prior.sum() + log_conf.sum() + log_prop.sum()
                                + log_abstain.sum())
    return ll, log_like, unnorm / mass


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


def _em_mstep(design, posteriors, smoothing):
    """Smoothed M-step; returns the flat parameter vector (see _unpack)."""
    n, n_classes = posteriors.shape
    m = design.shape[1] // (n_classes + 1)
    counts = design[:, :m * n_classes].T @ posteriors
    votes = counts.reshape(m, n_classes, n_classes).transpose(0, 2, 1)  # [j, k, c]
    totals = votes.sum(axis=2)
    class_mass = posteriors.sum(axis=0)
    prior = (class_mass + smoothing) / (n + n_classes * smoothing)
    confusions = (votes + smoothing) / (totals[:, :, None] + n_classes * smoothing)
    propensities = (totals + smoothing) / (class_mass + 2 * smoothing)
    return np.concatenate([prior, confusions.ravel(), propensities.ravel()])


def _unpack(theta, m, n_classes):
    """Views of the flat parameter vector: prior, confusions, propensities."""
    split = n_classes + m * n_classes * n_classes
    return (theta[:n_classes], theta[n_classes:split].reshape(m, n_classes, n_classes),
            theta[split:].reshape(m, n_classes))


def _em_run(design, init_posteriors, kind: LabelModelKind):
    """SQUAREM-accelerated EM on a matrix whose every row has at least one vote.

    The first objective is taken at the M-step of the initial posteriors.
    Each later iteration applies the EM map F twice, theta1 = F(theta) and
    theta2 = F(theta1), then takes the squared extrapolation
    theta - 2a r + a^2 v with r = theta1 - theta, v = theta2 - theta1 - r
    and a = -|r| / |v| (Varadhan & Roland 2008, scheme S3). The extrapolated
    point is kept only when a < -1, every parameter lies inside (0, 1) and
    its penalized objective is at least that of theta2; otherwise the
    iteration ends at theta2. Either way the objective cannot decrease.

    One objective is recorded per iteration, so em_max_iters bounds
    len(history). The run stops early, and reports converged, once an
    iteration gains less than em_tol.
    """
    n_classes = init_posteriors.shape[1]
    m = design.shape[1] // (n_classes + 1)
    smoothing = kind.smoothing

    def evaluate(theta):
        return _penalized_log_likelihood(design, *_unpack(theta, m, n_classes), smoothing)

    theta = _em_mstep(design, init_posteriors, smoothing)
    objective, _, posteriors = evaluate(theta)
    history = [objective]
    converged = False
    while len(history) < kind.em_max_iters:
        theta1 = _em_mstep(design, posteriors, smoothing)
        _, _, posteriors1 = evaluate(theta1)
        theta2 = _em_mstep(design, posteriors1, smoothing)
        objective2, _, posteriors2 = evaluate(theta2)
        r = theta1 - theta
        v = theta2 - theta1 - r
        rr, vv = float(r @ r), float(v @ v)
        step = -np.sqrt(rr / vv) if vv > 0 else -1.0
        candidate = theta - 2.0 * step * r + step * step * v
        theta, objective, posteriors = theta2, objective2, posteriors2
        if step < -1.0 and ((candidate > 0.0) & (candidate < 1.0)).all():
            # a long step leaves rounding error in the sum-to-one constraints
            # that would inflate the objective; project back onto the simplex
            prior, confusions, _ = _unpack(candidate, m, n_classes)
            prior /= prior.sum()
            confusions /= confusions.sum(axis=2, keepdims=True)
            objective3, _, posteriors3 = evaluate(candidate)
            if objective3 >= objective2:
                theta, objective, posteriors = candidate, objective3, posteriors3
        history.append(objective)
        if history[-1] - history[-2] < kind.em_tol:
            converged = True
            break
    prior, confusions, propensities = _unpack(theta, m, n_classes)
    return posteriors, prior, confusions, propensities, history, converged


@dataclass
class DawidSkeneResult:
    problabels: ProbLabels
    confusions: np.ndarray  # (m, C, C); row k = P(vote | true class k, LF voted)
    prior: np.ndarray
    propensities: np.ndarray  # (m, C); P(LF votes | true class)
    objective_history: list  # penalized log-likelihood per EM iteration
    n_iter: int  # len(objective_history)
    converged: bool  # False when the fit stopped at em_max_iters


def _uniform(rng: random.Random, shape) -> np.ndarray:
    """Doubles uniform on [0, 1), 53 random bits each, drawn from the stdlib
    generator: numpy.random would load about 6 MB of modules for a few
    restart inits."""
    n = int(np.prod(shape))
    bits = np.frombuffer(rng.randbytes(8 * n), dtype="<u8") >> np.uint64(11)
    return (bits * 2.0 ** -53).reshape(shape)


def dawid_skene_em(entries: np.ndarray, n_classes: int, kind: Optional[LabelModelKind] = None,
                   *, warm: Optional[ProbLabels] = None) -> DawidSkeneResult:
    """Abstain-aware Dawid-Skene EM.

    A cold fit is initialized from majority-vote posteriors; em_restarts
    deterministic perturbed restarts guard against symmetric fixed points,
    and the run with the best penalized log-likelihood wins (ties go to the
    plain majority-vote init). Each restart adds noise uniform on [0, 0.2)
    to the majority-vote rows and renormalizes them; the noise comes from
    one stdlib `random.Random(12345)` per cold fit, drawn restart by
    restart.

    `warm` holds the posteriors of an earlier fit over the same rows, e.g.
    before the newest vote columns were added. A warm fit is one EM run and
    no restarts (incremental EM; Neal & Hinton 1998): rows that `warm`
    covers start from its posteriors, newly covered rows from their
    majority-vote rows. A `warm` that covers no row has no posteriors to
    start from, and the fit is cold.

    Each EM iteration is one SQUAREM cycle (see _em_run): two EM steps plus
    a squared extrapolation that is kept only when it does not lower the
    objective below the second EM step. The objective history therefore
    never decreases, and em_max_iters bounds its length. The winning run's
    iteration count and whether it met em_tol before em_max_iters are
    reported as n_iter and converged.
    """
    if kind is None:
        kind = LabelModelKind()
    if entries.shape[1] < 1:
        raise ValueError("need at least one LF column")
    mv = majority_vote(entries, n_classes)
    covered = mv.covered
    if not covered.any():
        raise ValueError("no covered instance: every LF abstained everywhere")
    # Uncovered rows carry no evidence; EM runs on the covered submatrix.
    design = _vote_design(entries[covered], n_classes)
    if warm is not None and (warm.probs.shape != mv.probs.shape
                             or warm.covered.shape != covered.shape):
        raise ValueError("warm posteriors have shape %r, expected %r"
                         % (warm.probs.shape, mv.probs.shape))
    if warm is not None and warm.covered.any():
        init = np.where(warm.covered[covered, None], warm.probs[covered], mv.probs[covered])
        best = _em_run(design, init, kind)
    else:
        best = None
        rng = random.Random(12345)
        for r in range(kind.em_restarts + 1):
            init = mv.probs[covered].copy()
            if r > 0:
                init = init + 0.2 * _uniform(rng, init.shape)
                init /= init.sum(axis=1, keepdims=True)
            result = _em_run(design, init, kind)
            if best is None or result[4][-1] > best[4][-1] + 1e-9:
                best = result
    sub_posteriors, prior, confusions, propensities, history, converged = best
    posteriors = np.full((entries.shape[0], n_classes), 1.0 / n_classes)
    posteriors[covered] = sub_posteriors
    problabels = ProbLabels(probs=posteriors, covered=covered)
    return DawidSkeneResult(problabels=problabels, confusions=confusions,
                            prior=prior, propensities=propensities,
                            objective_history=history, n_iter=len(history),
                            converged=converged)


def resolve_training_labels(problabels: ProbLabels, dataset: Dataset):
    """Hard labels for downstream training.

    Covered rows take the argmax (ties to the lowest class index); uncovered
    rows take the dataset's default class when defined and are otherwise
    excluded. Returns (rows, labels): the kept row indices in ascending order
    and their class indices.
    """
    covered = problabels.covered
    if dataset.default_class is None:
        rows = np.flatnonzero(covered)
        return rows, problabels.hard_labels()[rows]
    return (np.arange(problabels.n),
            np.where(covered, problabels.hard_labels(), dataset.default_class))
