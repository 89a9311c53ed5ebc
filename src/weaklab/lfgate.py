"""Three-stage LF admission filter: validity -> accuracy -> redundancy.

Boundary semantics are pinned: validation accuracy strictly below the
threshold fails (equal passes), pairwise consensus strictly above the
threshold fails (equal passes). An LF active on zero validation instances
passes the accuracy stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .corpus import Dataset
from .labelfns import (
    ABSTAIN,
    KeywordIndex,
    LabelFunction,
    LFError,
    Provenance,
    compile_lf,
)

STAGE_VALIDITY = "validity"
STAGE_ACCURACY = "accuracy"
STAGE_REDUNDANCY = "redundancy"

ADMITTED = "admitted"
REJECTED = "rejected"


@dataclass
class FilterConfig:
    accuracy_threshold: float = 0.6
    redundancy_threshold: float = 0.95
    enable_accuracy: bool = True
    enable_redundancy: bool = True

    def __post_init__(self):
        if not 0.0 <= self.accuracy_threshold <= 1.0:
            raise ValueError("accuracy_threshold outside [0, 1]")
        if not 0.0 <= self.redundancy_threshold <= 1.0:
            raise ValueError("redundancy_threshold outside [0, 1]")


@dataclass(frozen=True)
class FilterVerdict:
    outcome: str  # ADMITTED | REJECTED
    stage: str
    detail: str

    def to_record(self) -> dict:
        return {"outcome": self.outcome, "stage": self.stage, "detail": self.detail}


@dataclass(frozen=True)
class CandidateSpec:
    kind: str
    payload: str
    target_class: int
    provenance: Provenance = field(default_factory=Provenance)


def validity_filter(candidate: CandidateSpec, dataset: Dataset):
    """Compile the candidate; every compile failure is a validity failure.

    Returns (lf or None, reason or None).
    """
    try:
        lf = compile_lf(candidate.kind, candidate.payload, candidate.target_class,
                        dataset.classes, dataset.task_kind, candidate.provenance)
        return lf, None
    except LFError as exc:
        return None, str(exc)


def measure_accuracy(votes: np.ndarray, gold: np.ndarray):
    """Accuracy over active instances; None when the LF never fires."""
    active = votes != ABSTAIN
    n_active = int(active.sum())
    if n_active == 0:
        return None
    return float((votes[active] == gold[active]).mean())


def accuracy_filter(votes: np.ndarray, gold: np.ndarray, config: FilterConfig):
    """Returns (passed, measured accuracy or None)."""
    acc = measure_accuracy(votes, gold)
    if acc is None:
        return True, None
    return acc >= config.accuracy_threshold, acc


def consensus(votes_a: np.ndarray, votes_b: np.ndarray) -> float:
    """Agreement over the union of instances where either LF is active."""
    active_a = votes_a != ABSTAIN
    active_b = votes_b != ABSTAIN
    union = int((active_a | active_b).sum())
    if union == 0:
        return 0.0
    agree = int((active_a & active_b & (votes_a == votes_b)).sum())
    return agree / union


def redundancy_filter(candidate_votes: np.ndarray, existing_votes, config: FilterConfig):
    """Returns (passed, max consensus against the existing LF set)."""
    best = 0.0
    for votes in existing_votes:
        best = max(best, consensus(candidate_votes, votes))
        if best > config.redundancy_threshold:
            break
    return best <= config.redundancy_threshold, best


class AdmissionGate:
    """Stateful admission pipeline over a dataset.

    Admitted LFs, their validation accuracies and their cached train-split
    vote columns only ever grow; redundancy for later candidates is checked
    against the full admitted set including earlier admissions from the same
    batch.
    """

    def __init__(self, dataset: Dataset, config: Optional[FilterConfig] = None):
        self.dataset = dataset
        self.config = config or FilterConfig()
        self.admitted: list = []
        # per admitted LF: accuracy on the valid split, None when it never fires
        # there; measured even when the accuracy stage is disabled
        self.valid_accuracies: list = []
        self.train_votes: list = []  # one np.ndarray per admitted LF
        self._train_index = KeywordIndex(dataset.train)
        self._valid_index = KeywordIndex(dataset.valid)
        self._valid_gold = np.array([inst.gold_label for inst in dataset.valid], dtype=np.int64)

    def train_matrix(self) -> np.ndarray:
        if not self.train_votes:
            return np.zeros((len(self.dataset.train), 0), dtype=np.int64)
        return np.stack(self.train_votes, axis=1)

    def admit_one(self, candidate: CandidateSpec):
        """Run one candidate through the filter cascade.

        Returns (lf or None, FilterVerdict)."""
        lf, reason = validity_filter(candidate, self.dataset)
        if lf is None:
            return None, FilterVerdict(REJECTED, STAGE_VALIDITY, reason)
        passed, acc = accuracy_filter(self._valid_index.votes(lf), self._valid_gold, self.config)
        if self.config.enable_accuracy and not passed:
            return None, FilterVerdict(
                REJECTED, STAGE_ACCURACY,
                "validation accuracy %.4f < %.4f" % (acc, self.config.accuracy_threshold))
        cand_votes = self._train_index.votes(lf)
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
        """Process a batch in response order; returns (new LFs, verdicts)."""
        new_lfs = []
        verdicts = []
        for candidate in candidates:
            lf, verdict = self.admit_one(candidate)
            if lf is not None:
                new_lfs.append(lf)
            verdicts.append(verdict)
        return new_lfs, verdicts
