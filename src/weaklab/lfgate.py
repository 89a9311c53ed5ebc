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

from .corpus import Dataset, Tokens
from .labelfns import (
    ABSTAIN,
    KeywordIndex,
    LabelFunction,
    LFError,
    Provenance,
    build_matrix,
    compile_lf,
    measure_accuracy,
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


def accuracy_filter(votes: np.ndarray, gold: np.ndarray, config: FilterConfig):
    """Returns (passed, measured accuracy or None)."""
    acc = measure_accuracy(votes, gold)
    if acc is None:
        return True, None
    return acc >= config.accuracy_threshold, acc


def consensus(votes_a: np.ndarray, votes_b: np.ndarray) -> float:
    """Agreement over the union of instances where either LF is active."""
    active_a = votes_a != ABSTAIN
    union = np.count_nonzero(active_a | (votes_b != ABSTAIN))
    if union == 0:
        return 0.0
    # where `votes_a` is active, equal votes are active in both
    return np.count_nonzero(active_a & (votes_a == votes_b)) / union


def redundancy_filter(candidate_votes: np.ndarray, existing_votes, config: FilterConfig):
    """Returns (passed, consensus).

    The existing columns are scanned in order, and the scan stops at the
    first whose consensus with the candidate is above the threshold: a
    rejection reports that column's consensus, which need not be the
    highest in the set, and a pass reports the highest in the set.
    """
    best = 0.0
    for votes in existing_votes:
        best = max(best, consensus(candidate_votes, votes))
        if best > config.redundancy_threshold:
            break
    return best <= config.redundancy_threshold, best


_NO_ROWS = np.zeros(0, dtype=np.int64)


class AdmissionGate:
    """Stateful admission pipeline over a dataset.

    Admitted LFs and their validation accuracies only ever grow;
    redundancy for later candidates is checked against the full admitted
    set including earlier admissions from the same batch. An admitted LF's
    train rows are the train index's memo of its matches: the redundancy
    stage and `train_columns()` build dense columns from them through
    `KeywordIndex.votes`, and `train_matrix()` through `build_matrix`.
    """

    def __init__(self, dataset: Dataset, config: Optional[FilterConfig] = None,
                 train_tokens: Optional[Tokens] = None):
        self.dataset = dataset
        self.config = config or FilterConfig()
        self.admitted: list = []
        # per admitted LF: accuracy on the valid split, None when it never fires
        # there; measured even when the accuracy stage is disabled
        self.valid_accuracies: list = []
        # per class: the train rows of its admitted LFs, concatenated, and the
        # admission index of the LF each row belongs to
        self._class_rows: dict = {}
        # the samplers read it too; `train_tokens` are the train split's, when
        # the caller has tokenized it already
        self.train_index = KeywordIndex(dataset.train, train_tokens)
        self._valid_index = KeywordIndex(dataset.valid)
        self._valid_gold = np.array([inst.gold_label for inst in dataset.valid], dtype=np.int64)

    def train_columns(self):
        """Each admitted LF's train vote column in admission order, built one
        at a time."""
        return map(self.train_index.votes, self.admitted)

    def train_matrix(self) -> np.ndarray:
        """The (n, m) int64 train vote matrix, columns in admission order."""
        return build_matrix(self.admitted, self.dataset.train, self.train_index)

    def _sharing(self, target_class: int, rows: np.ndarray) -> list:
        """The admitted LFs of `target_class`, in admission order, that fire
        on one of train `rows`; one `np.bincount` over the class's stored
        rows that `rows` holds finds them all."""
        stored, owner = self._class_rows.get(target_class, (_NO_ROWS, _NO_ROWS))
        fires = np.zeros(len(self.dataset.train), dtype=bool)
        fires[rows] = True
        return [self.admitted[k] for k in np.bincount(owner[fires[stored]]).nonzero()[0]]

    def _keep(self, lf: LabelFunction, acc, rows: np.ndarray):
        stored, owner = self._class_rows.get(lf.target_class, (_NO_ROWS, _NO_ROWS))
        self._class_rows[lf.target_class] = (
            np.concatenate([stored, rows]),
            np.concatenate([owner, np.full(len(rows), len(self.admitted), dtype=np.int64)]))
        self.admitted.append(lf)
        self.valid_accuracies.append(acc)

    def admit_one(self, candidate: CandidateSpec):
        """Run one candidate through the filter cascade.

        Returns (lf or None, FilterVerdict)."""
        lf, reason = validity_filter(candidate, self.dataset)
        if lf is None:
            return None, FilterVerdict(REJECTED, STAGE_VALIDITY, reason)
        # an accuracy counts no abstain, so only the valid rows the LF fires on are passed
        hits = self._valid_index.rows(lf)
        passed, acc = accuracy_filter(np.full(len(hits), lf.target_class, dtype=np.int64),
                                      self._valid_gold[hits], self.config)
        if self.config.enable_accuracy and not passed:
            return None, FilterVerdict(
                REJECTED, STAGE_ACCURACY,
                "validation accuracy %.4f < %.4f" % (acc, self.config.accuracy_threshold))
        rows = self.train_index.rows(lf)
        if self.config.enable_redundancy:
            # only an admitted LF of the candidate's class that fires on one
            # of its rows can agree with it; every other has consensus 0.0,
            # which can neither raise the scan's best nor stop it
            passed, best = redundancy_filter(
                self.train_index.votes(lf),
                map(self.train_index.votes, self._sharing(lf.target_class, rows)), self.config)
            if not passed:
                return None, FilterVerdict(
                    REJECTED, STAGE_REDUNDANCY,
                    "max train consensus %.4f > %.4f" % (best, self.config.redundancy_threshold))
        self._keep(lf, acc, rows)
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
