"""Output checks computed apart from weaklab.

Every check takes the run's report (as its JSON dict), the benchmark's own
corpus records and, where needed, the captured label-model result or
classifier, recomputes the quantity with code of its own, and returns a
list of problems; an empty list means the check passed. Nothing here calls
into weaklab: LF matching, vote statistics, consensus and TF-IDF are
re-implemented from their documented definitions.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

import numpy as np

ABSTAIN = -1
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokens_of(text):
    """Lowercase tokens split on maximal runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def lf_fires(lf, record, tokens) -> bool:
    """Keyword LFs match as a contiguous token sequence; pattern LFs by
    `re.search` (case-insensitive) after substituting the escaped entities."""
    if lf["kind"] == "keyword":
        want = tokens_of(lf["payload"])
        k = len(want)
        return any(tokens[i:i + k] == want for i in range(len(tokens) - k + 1))
    source = (lf["payload"].replace("{{E1}}", re.escape(record["entity1"]["text"]))
              .replace("{{E2}}", re.escape(record["entity2"]["text"])))
    return re.search(source, record["text"], re.IGNORECASE) is not None


def vote_matrix(lfs, records) -> np.ndarray:
    """(rows, LFs) votes: the LF's class where it fires, ABSTAIN elsewhere."""
    out = np.full((len(records), len(lfs)), ABSTAIN, dtype=np.int64)
    for i, record in enumerate(records):
        tokens = tokens_of(record["text"])
        for j, lf in enumerate(lfs):
            if lf_fires(lf, record, tokens):
                out[i, j] = lf["class"]
    return out


def _gold(records) -> np.ndarray:
    return np.array([r["label"] for r in records], dtype=np.int64)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_lf_metrics(report, corpus, train_votes) -> list:
    """lf_num, lf_cov_avg, lf_acc_avg and train_cov from re-applied LFs."""
    metrics = report["metrics"]
    lfs = report["final_lfs"]
    gold = _gold(corpus.splits["train"])
    active = train_votes != ABSTAIN
    want = {"lf_num": len(lfs), "lf_cov_avg": None, "lf_acc_avg": None,
            "train_cov": float(active.any(axis=1).mean())}
    if lfs:
        hits = active.sum(axis=0)
        want["lf_cov_avg"] = float((hits / len(gold)).mean())
        correct = ((train_votes == gold[:, None]) & active).sum(axis=0)
        accs = [c / h for c, h in zip(correct, hits) if h > 0]
        want["lf_acc_avg"] = float(np.mean(accs)) if accs else None
    return ["%s: report %r, recomputed %r" % (name, metrics.get(name), value)
            for name, value in want.items() if not _close(metrics.get(name), value)]


def check_admissions(report, corpus, train_votes, valid_votes) -> list:
    """Admitted LFs pass the accuracy and redundancy rules; verdicts add up."""
    config = report["config"]
    problems = []
    if not report["complete"]:
        problems.append("report incomplete: %s" % report["warning"])
    if len(report["iterations"]) != config["n_iterations"]:
        problems.append("%d of %d iterations ran" % (len(report["iterations"]),
                                                     config["n_iterations"]))
    for record in report["iterations"]:
        outcomes = Counter(v["outcome"] for v in record["verdicts"])
        if sum(outcomes.values()) != record["proposed"]:
            problems.append("iteration %d: %d verdicts for %d proposed"
                            % (record["t"], sum(outcomes.values()), record["proposed"]))
        if outcomes["admitted"] != record["admitted"]:
            problems.append("iteration %d: %d admitted verdicts, record says %d"
                            % (record["t"], outcomes["admitted"], record["admitted"]))
    total = sum(r["admitted"] for r in report["iterations"])
    if total != len(report["final_lfs"]):
        problems.append("iterations admitted %d LFs, final_lfs holds %d"
                        % (total, len(report["final_lfs"])))

    gold = _gold(corpus.splits["valid"])
    active = valid_votes != ABSTAIN
    hits = active.sum(axis=0)
    correct = ((valid_votes == gold[:, None]) & active).sum(axis=0)
    for j in np.nonzero(hits)[0]:
        if correct[j] / hits[j] < config["accuracy_threshold"]:
            problems.append("LF %d: validation accuracy %.4f below %.4f"
                            % (j, correct[j] / hits[j], config["accuracy_threshold"]))

    # consensus(a, b) = rows where both fire with the same class / rows where either fires
    on = (train_votes != ABSTAIN).astype(float)
    agree = sum((train_votes == c).astype(float).T @ (train_votes == c).astype(float)
                for c in range(len(corpus.classes)))
    either = on.sum(axis=0)[:, None] + on.sum(axis=0)[None, :] - on.T @ on
    consensus = np.where(either > 0, agree / np.maximum(either, 1), 0.0)
    later, earlier = np.nonzero(np.tril(consensus, k=-1) > config["redundancy_threshold"])
    for j, i in zip(later, earlier):
        problems.append("LF %d: train consensus %.4f with earlier LF %d exceeds %.4f"
                        % (j, consensus[j, i], i, config["redundancy_threshold"]))
    return problems


def check_label_model(report, corpus, result, train_votes) -> list:
    """The last label-model fit: row-stochastic, covered mask, objective, train_acc."""
    problabels = getattr(result, "problabels", result)
    probs = np.asarray(problabels.probs)
    covered = np.asarray(problabels.covered)
    problems = []
    fires = (train_votes != ABSTAIN).any(axis=1)
    if not np.array_equal(covered, fires):
        problems.append("covered mask differs from 'some LF fires' on %d rows"
                        % int((covered != fires).sum()))
    rows = probs[covered]
    if (rows < 0).any() or not np.allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-9):
        problems.append("covered rows are not row-stochastic")
    history = getattr(result, "objective_history", None)
    if history is not None and any(b < a for a, b in zip(history, history[1:])):
        problems.append("Dawid-Skene objective_history decreases")
    gold = _gold(corpus.splits["train"])
    train_acc = None
    if covered.any():
        hard = probs.argmax(axis=1)
        train_acc = int((hard[covered] == gold[covered]).sum()) / int(covered.sum())
    if not _close(report["metrics"]["train_acc"], train_acc):
        problems.append("train_acc: report %r, recomputed from posteriors %r"
                        % (report["metrics"]["train_acc"], train_acc))
    return problems


def tfidf(train_texts, texts, min_df=1, max_features=50000) -> np.ndarray:
    """L2-normalised tf-idf rows, idf(t) = ln((1 + N) / (1 + df(t))) + 1, over the
    vocabulary of tokens with df >= min_df, capped at max_features by descending
    df then token, columns in token order."""
    df = Counter()
    for text in train_texts:
        df.update(set(tokens_of(text)))
    kept = sorted((t for t in df if df[t] >= min_df), key=lambda t: (-df[t], t))[:max_features]
    column = {t: j for j, t in enumerate(sorted(kept))}
    n = len(train_texts)
    idf = np.zeros(len(column))
    for t, j in column.items():
        idf[j] = math.log((1 + n) / (1 + df[t])) + 1.0
    out = np.zeros((len(texts), len(column)))
    for i, text in enumerate(texts):
        for t in tokens_of(text):
            j = column.get(t)
            if j is not None:
                out[i, j] += idf[j]
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return np.divide(out, norms, out=out, where=norms > 0)


def check_test_score(report, corpus, model) -> list:
    """test_score from the final classifier on independently built TF-IDF."""
    config = report["config"]
    train = [r["text"] for r in corpus.splits["train"]]
    test = corpus.splits["test"]
    features = tfidf(train, [r["text"] for r in test], config["min_df"], config["max_features"])
    if features.shape[1] != model.weights.shape[1]:
        return ["classifier has %d features, recomputed vocabulary %d"
                % (model.weights.shape[1], features.shape[1])]
    predicted = (features @ model.weights.T + model.bias).argmax(axis=1)
    score = int((predicted == _gold(test)).sum()) / len(test)
    if not _close(report["metrics"]["test_score"], score):
        return ["test_score: report %r, recomputed %r" % (report["metrics"]["test_score"], score)]
    return []


def masked(report) -> str:
    """The report's JSON with every *_path config value blanked."""
    config = {k: (None if k.endswith("_path") else v) for k, v in report["config"].items()}
    return json.dumps({**report, "config": config}, sort_keys=True, indent=2)


def check_repeats(reports) -> list:
    """Reports of one corpus and seed are byte-identical once paths are masked."""
    first = masked(reports[0])
    return ["repeat %d differs from the first report" % i
            for i, report in enumerate(reports[1:], start=1) if masked(report) != first]


def check_run(report, corpus, label_model, classifier) -> list:
    """Every single-report check of one pipeline run."""
    lfs = report["final_lfs"]
    train_votes = vote_matrix(lfs, corpus.splits["train"])
    valid_votes = vote_matrix(lfs, corpus.splits["valid"])
    problems = check_lf_metrics(report, corpus, train_votes)
    problems += check_admissions(report, corpus, train_votes, valid_votes)
    if label_model is None:
        problems.append("no label-model fit was captured")
    else:
        problems += check_label_model(report, corpus, label_model, train_votes)
    if classifier is None:
        problems.append("no classifier was captured")
    else:
        problems += check_test_score(report, corpus, classifier)
    return problems
