"""Iterative LF-development loop, metric suite, synthetic corpora, reports.

One iteration: select a query instance, prompt the backend, parse (and
self-consistency-aggregate) the responses into candidate LFs, run them
through the admission gate, then refit the label model and retrain the
downstream classifier. After the final iteration the full metric suite is
computed: PLM_acc, LF_num, LF_acc_avg, LF_cov_avg, Train_acc, Train_cov and
Test_acc/F1.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import aggregate, corpus, downstream, labelfns, lfgate, plmclient, prompting, select
from .corpus import Dataset, Instance, RELATION_TASK, TEXT_TASK
from .labelfns import ABSTAIN, KEYWORD, PATTERN, Provenance


@dataclass
class RunConfig:
    # dataset
    train_path: str = ""
    valid_path: str = ""
    test_path: str = ""
    schema_path: str = ""
    embeddings_path: Optional[str] = None
    annotations_path: Optional[str] = None
    task_description: Optional[str] = None
    positive_class: Optional[str] = None  # class name; switches Test_score to binary F1
    # prompting
    prompt_method: str = "few_shot"  # few_shot | cot | self_consistency
    n_responses: int = 0  # 0 = method default
    ic_mode: str = "balanced"  # balanced | kate
    k_per_class: int = 1
    k_total: int = 2
    temperature: float = -1.0  # negative = method default
    # selection
    sampler: str = "random"  # random | uncertainty | seu
    seu_pool_cap: Optional[int] = 2000
    # filters
    accuracy_threshold: float = 0.6
    redundancy_threshold: float = 0.95
    enable_accuracy: bool = True
    enable_redundancy: bool = True
    # label model
    label_model: str = "dawid_skene"  # majority | weighted | dawid_skene
    em_max_iters: int = 100
    em_tol: float = 1e-6
    smoothing: float = 1.0
    em_restarts: int = 3
    # downstream
    l2: float = 1e-4
    max_opt_iters: int = 1000
    grad_tol: float = 1e-6
    soft_labels: bool = False
    min_df: int = 1
    max_features: int = 50000
    # loop
    n_iterations: int = 50
    seed: int = 0
    lazy_retrain: bool = False  # refit label model / downstream only at the end
    # backend
    backend: str = "mock"  # mock | http | replay
    endpoint: Optional[str] = None
    model_name: str = "mock"
    api_key_env: str = "PLM_API_KEY"
    max_tokens: int = 512
    mock_p_label: float = 0.9
    mock_p_keyword: float = 0.9
    mock_signatures: dict = field(default_factory=dict)  # class name -> payload list
    mock_seed: Optional[int] = None
    transcript_path: Optional[str] = None
    report_path: Optional[str] = None

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError("unknown config fields: %s" % ", ".join(sorted(unknown)))
        return cls(**obj)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)

    # Transport and artifact-path settings may differ between a recording run
    # and its replay without changing the science; the report echoes only the
    # experiment-defining fields so equivalent runs serialize identically.
    _TRANSPORT_FIELDS = ("backend", "endpoint", "model_name", "api_key_env",
                         "transcript_path", "report_path")

    def experiment_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items()
                if k not in self._TRANSPORT_FIELDS}


@dataclass
class IterationRecord:
    t: int
    query_id: int
    label: Optional[int]  # SC-aggregated (or single parsed) label
    gold_label: Optional[int]
    proposed: int
    admitted: int
    verdicts: list

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class RunReport:
    config: dict
    seed: int
    metrics: dict
    iterations: list  # iteration record dicts
    final_lfs: list  # LF record dicts
    complete: bool = True
    warning: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


METRIC_NAMES = ("plm_acc", "lf_num", "lf_acc_avg", "lf_cov_avg",
                "train_acc", "train_cov", "test_score")


def compute_metrics(dataset: Dataset, lfs, train_matrix: np.ndarray,
                    problabels: Optional[aggregate.ProbLabels],
                    model, space, iteration_records, positive_class: Optional[int] = None,
                    test_features: Optional[np.ndarray] = None) -> dict:
    """The end-of-run metric suite; unavailable metrics are None."""
    train = dataset.train
    train_gold = [inst.gold_label for inst in train]
    have_train_gold = bool(train) and all(g is not None for g in train_gold)

    # PLM_acc: iteration-level label agreement with the query's gold label
    plm_acc = None
    if have_train_gold and iteration_records:
        hits = [1 if (r.gold_label is not None and r.label == r.gold_label) else 0
                for r in iteration_records]
        plm_acc = sum(hits) / len(hits)

    lf_num = len(lfs)
    lf_acc_avg = None
    lf_cov_avg = None
    if lfs:
        stats = [labelfns.lf_stats(lf, train, votes=train_matrix[:, j])
                 for j, lf in enumerate(lfs)]
        lf_cov_avg = sum(s.coverage for s in stats) / len(stats)
        if have_train_gold:
            accs = [s.accuracy for s in stats if s.accuracy is not None]
            lf_acc_avg = sum(accs) / len(accs) if accs else None

    train_acc = None
    train_cov = 0.0
    if problabels is not None and len(train):
        covered = problabels.covered
        train_cov = float(covered.mean())
        if have_train_gold and covered.any():
            hard = problabels.hard_labels()
            gold = np.array(train_gold)
            train_acc = float((hard[covered] == gold[covered]).mean())

    test_score = None
    test_metric = "accuracy"
    if model is not None:
        if positive_class is not None and dataset.n_classes == 2:
            test_metric = "binary_f1"
        if len(dataset.test):  # an empty test split has no score
            test_score = downstream.evaluate(model, space, dataset.test, test_metric,
                                             positive_class=positive_class,
                                             features=test_features)
    return {
        "plm_acc": plm_acc,
        "lf_num": lf_num,
        "lf_acc_avg": lf_acc_avg,
        "lf_cov_avg": lf_cov_avg,
        "train_acc": train_acc,
        "train_cov": train_cov,
        "test_score": test_score,
        "test_metric": test_metric,
    }


def _load_annotations(path) -> dict:
    annotations = {}
    for line_no, obj in corpus.read_jsonl(path):
        if "id" not in obj:
            raise corpus.LoadError("line %d of %s: annotation without an id" % (line_no, path))
        annotations[obj["id"]] = obj
    return annotations


def class_index(dataset: Dataset, field_name: str, name) -> int:
    """The index of the class that config field `field_name` names."""
    if name not in dataset.classes:
        raise ValueError("%s %r is not a class of the schema (classes: %s)"
                         % (field_name, name, ", ".join(dataset.classes)))
    return dataset.classes.index(name)


def build_backend(config: RunConfig, dataset: Dataset):
    if config.backend == "mock":
        gold = {inst.id: inst.gold_label for inst in dataset.all_instances()
                if inst.gold_label is not None}
        signatures = {class_index(dataset, "mock_signatures", name): list(sigs)
                      for name, sigs in config.mock_signatures.items()}
        mock_config = plmclient.MockOracleConfig(
            gold=gold, signatures=signatures, classes=list(dataset.classes),
            p_label=config.mock_p_label, p_keyword=config.mock_p_keyword,
            seed=config.mock_seed if config.mock_seed is not None else config.seed)
        return plmclient.MockBackend(mock_config, dataset.all_instances(), dataset.task_kind)
    if config.backend == "replay":
        if not config.transcript_path:
            raise ValueError("replay backend needs transcript_path")
        return plmclient.TranscriptBackend(plmclient.load_transcript(config.transcript_path))
    if config.backend == "http":
        if not config.endpoint:
            raise ValueError("http backend needs an endpoint")
        return plmclient.HttpBackend(config.endpoint, model_name=config.model_name,
                                     api_key_env=config.api_key_env)
    raise ValueError("unknown backend %r" % config.backend)


def label_model_kind(config: RunConfig) -> Optional[aggregate.LabelModelKind]:
    """The Dawid-Skene settings of `config`, None for the two vote models;
    raises ValueError for an unknown label model or a bad setting."""
    if config.label_model not in ("majority", "weighted", "dawid_skene"):
        raise ValueError("unknown label model %r" % config.label_model)
    if config.label_model != "dawid_skene":
        return None
    return aggregate.LabelModelKind(em_max_iters=config.em_max_iters, em_tol=config.em_tol,
                                    smoothing=config.smoothing, em_restarts=config.em_restarts)


def _fit_label_model(config: RunConfig, dataset: Dataset, gate: lfgate.AdmissionGate,
                     warm=None) -> aggregate.ProbLabels:
    n, n_classes = len(dataset.train), dataset.n_classes
    if not any((votes != ABSTAIN).any() for votes in gate.train_votes):
        return aggregate.ProbLabels(probs=np.full((n, n_classes), 1.0 / n_classes),
                                    covered=np.zeros(n, dtype=bool))
    train_matrix = gate.train_matrix()
    if config.label_model == "majority":
        return aggregate.majority_vote(train_matrix, n_classes)
    if config.label_model == "weighted":
        accs = [0.5 if acc is None else acc for acc in gate.valid_accuracies]
        return aggregate.weighted_vote(train_matrix, n_classes, accs)
    return aggregate.dawid_skene_em(train_matrix, n_classes, label_model_kind(config),
                                    warm=warm).problabels


def refit(config: RunConfig, dataset: Dataset, gate: lfgate.AdmissionGate, X_train: np.ndarray,
          previous=None, problabels=None, warm=None):
    """Fit the configured label model to the gate's train vote columns, then
    the classifier.

    The weighted vote weighs each column by the gate's validation accuracy
    (0.5 for an LF that never fires there). Without a single vote every row
    is uncovered. Every label-model fit is deterministic, so a caller whose
    gate admitted nothing since the fit that gave `problabels` passes them
    back to skip the fit; only a fit stacks the gate's columns. A caller
    whose gate only added columns since the fit that gave `warm` passes it
    to warm-start Dawid-Skene from those posteriors (the vote models ignore
    it). The classifier warm-starts from `previous` and is None when no row
    resolves to a training label. When `problabels` is passed back,
    `previous` must be the model fit from them; if that fit converged it is
    returned as is, since a warm start would train on the same rows and
    labels, stop before its first step and copy the weights. Returns
    (problabels, model).
    """
    if problabels is not None and previous is not None and previous.converged:
        return problabels, previous
    if problabels is None:
        problabels = _fit_label_model(config, dataset, gate, warm)
    rows, labels = aggregate.resolve_training_labels(problabels, dataset)
    if not len(rows):
        return problabels, None
    n_classes = dataset.n_classes
    if config.soft_labels:
        Y = np.eye(n_classes)[labels]
        covered = problabels.covered[rows]
        Y[covered] = problabels.probs[rows][covered]
    else:
        Y = labels
    # rows ascend, so when every row resolves X_train[rows] would be a copy of X_train
    features = X_train if len(rows) == len(X_train) else X_train[rows]
    model = downstream.train_logreg(features, Y, n_classes, l2=config.l2,
                                    max_iters=config.max_opt_iters, grad_tol=config.grad_tol,
                                    init=previous)
    return problabels, model


def _prepare(config: RunConfig, dataset: Optional[Dataset] = None):
    """The setup a run and `eval-lfs` share: the dataset (loaded from the
    config's paths unless given) with a train split that is not empty, the
    index of `positive_class` (None when unset), and the TF-IDF space fit on
    the train split with the train features. Returns (dataset,
    positive_class, space, X_train)."""
    if dataset is None:
        dataset = corpus.load_dataset(config.train_path, config.valid_path,
                                      config.test_path, config.schema_path)
    if not dataset.train:
        raise ValueError("the train split is empty: there is no instance to query or label "
                         "and no row to train on")
    positive_class = (class_index(dataset, "positive_class", config.positive_class)
                      if config.positive_class is not None else None)
    texts = [inst.text for inst in dataset.train]
    space = downstream.fit_tfidf(texts, min_df=config.min_df, max_features=config.max_features)
    return dataset, positive_class, space, downstream.featurize_all(space, texts)


def run(config: RunConfig, backend=None, dataset: Optional[Dataset] = None) -> RunReport:
    """Execute the full iterative loop and return the run report."""
    if config.lazy_retrain and config.sampler in ("seu", "uncertainty"):
        # these samplers score the pool with the label model or the classifier,
        # which lazy_retrain leaves unfitted until the loop ends
        raise ValueError("lazy_retrain needs sampler 'random', not sampler %r"
                         % config.sampler)
    if config.seu_pool_cap is not None and config.seu_pool_cap < 1:
        raise ValueError("seu_pool_cap must be at least 1 or None, not %r" % config.seu_pool_cap)
    spec = prompting.PromptSpec(method=config.prompt_method, n_responses=config.n_responses,
                                ic_mode=config.ic_mode, k_per_class=config.k_per_class,
                                k_total=config.k_total, temperature=config.temperature)
    label_model_kind(config)  # a bad label model fails here, not at its first fit
    dataset, positive_class, space, X_train = _prepare(config, dataset)
    if backend is None:
        backend = build_backend(config, dataset)
    transcript = None
    if config.transcript_path and config.backend != "replay":
        # a recorded live run answers a repeated request from its first
        # exchange, as its replay will; an unrecorded one asks the backend again
        transcript = plmclient.Transcript()
        backend = plmclient.TranscriptBackend(transcript, backend)

    rng = random.Random(config.seed)

    def ask(messages, temperature, n):
        request = plmclient.CompletionRequest(messages=messages, temperature=temperature, n=n,
                                              model_name=config.model_name,
                                              max_tokens=config.max_tokens)
        return [prompting.parse_response(text, dataset.task_kind, dataset.classes)
                for text in plmclient.complete(backend, request)]

    # in-context examples
    kate = None
    fixed_examples = None
    if spec.ic_mode == "kate":
        if not config.embeddings_path:
            raise ValueError("KATE selection needs embeddings_path")
        embeddings = corpus.load_embeddings(config.embeddings_path, dataset, ("train", "valid"))

        def annotate(instance, cot):
            parsed = ask(prompting.build_annotation_prompt(dataset, instance, cot,
                                                           config.task_description), 0.0, 1)[0]
            return parsed.keywords, parsed.patterns, parsed.rationale

        kate = prompting.KateSelector(dataset.valid, embeddings, annotate)
    else:
        if not config.annotations_path:
            raise ValueError("class-balanced selection needs annotations_path")
        annotations = _load_annotations(config.annotations_path)
        fixed_examples = prompting.select_ic_balanced(dataset.valid, spec.k_per_class, rng,
                                                      annotations, dataset.n_classes)

    gate = lfgate.AdmissionGate(dataset, lfgate.FilterConfig(
        accuracy_threshold=config.accuracy_threshold,
        redundancy_threshold=config.redundancy_threshold,
        enable_accuracy=config.enable_accuracy,
        enable_redundancy=config.enable_redundancy))
    problabels = model = None
    # train rows in instance-id order, so ties and random draws resolve by id
    selection = select.SelectionState(
        pool=sorted(range(len(dataset.train)), key=lambda row: dataset.train[row].id))
    records: list = []
    warning = None
    complete_run = True
    lf_kind = KEYWORD if dataset.task_kind == TEXT_TASK else PATTERN

    try:
        for t in range(1, config.n_iterations + 1):
            if not selection.pool:
                warning = "pool exhausted after %d iterations" % (t - 1)
                break
            query = dataset.train[_select_query(config, selection, problabels, model, rng,
                                                gate, X_train)]
            query_id = query.id
            examples = (kate.select(query, spec.k_total, spec.cot)
                        if kate is not None else fixed_examples)
            parsed = ask(prompting.build_task_prompt(dataset, query, examples, spec.cot,
                                                     config.task_description),
                         spec.temperature, spec.n_responses)
            label, keywords, patterns = prompting.aggregate_sc(parsed, dataset.n_classes)
            candidates = []
            if label is not None:
                first_response = {}  # payload -> index of the first response proposing it
                for i, r in enumerate(parsed):
                    for payload in (r.keywords if lf_kind == KEYWORD else r.patterns):
                        first_response.setdefault(payload, i)
                candidates = [lfgate.CandidateSpec(
                    kind=lf_kind, payload=payload, target_class=label,
                    provenance=Provenance(iteration=t, query_id=query_id,
                                          response_index=first_response[payload]))
                    for payload in (keywords if lf_kind == KEYWORD else patterns)]
            new_lfs, verdicts = gate.admit(candidates)
            records.append(IterationRecord(
                t=t, query_id=query_id, label=label, gold_label=query.gold_label,
                proposed=len(candidates), admitted=len(new_lfs),
                verdicts=[v.to_record() for v in verdicts]))
            if not config.lazy_retrain:
                # the label model's inputs change only when an LF is admitted,
                # and then only by new columns, so its fit starts from the last
                problabels, model = refit(config, dataset, gate, X_train, model,
                                          problabels=None if new_lfs else problabels,
                                          warm=problabels)
    except plmclient.BackendError as exc:
        warning = "backend error at iteration %d: %s" % (len(records) + 1, exc)
        complete_run = False
    finally:
        # every request is made in the loop: keep what was paid for however it
        # ends, but a crash before the first answer leaves an older file alone
        if transcript is not None and (transcript.records or sys.exc_info()[0] is None):
            plmclient.save_transcript(transcript, config.transcript_path)

    if complete_run and (config.lazy_retrain or problabels is None):
        problabels, model = refit(config, dataset, gate, X_train, model)
    del X_train  # the metric suite builds its own test blocks; hold one dense block at a time

    metrics = compute_metrics(dataset, gate.admitted, gate.train_matrix(), problabels,
                              model, space, records, positive_class)
    report = RunReport(config=config.experiment_dict(), seed=config.seed, metrics=metrics,
                       iterations=[r.to_record() for r in records],
                       final_lfs=[labelfns.lf_to_record(lf) for lf in gate.admitted],
                       complete=complete_run, warning=warning)
    if config.report_path:
        report.save(config.report_path)
    return report


def _select_query(config, selection, problabels, model, rng, gate, X_train) -> int:
    """The train row the configured sampler picks."""
    if config.sampler == "random":
        return select.random_sampler(selection, rng)
    if config.sampler == "uncertainty":
        return select.uncertainty_sampler(selection, model, X_train, rng=rng)
    if config.sampler == "seu":
        if problabels is None:  # before the first fit: label 0, every row uncovered
            n = len(X_train)
            labels, uncovered = np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool)
        else:
            labels, uncovered = problabels.hard_labels(), ~problabels.covered
        accuracy = {(" ".join(lf.tokens), lf.target_class): acc
                    for lf, acc in zip(gate.admitted, gate.valid_accuracies)
                    if lf.kind == KEYWORD and acc is not None}
        return select.seu_sampler(selection, gate.train_index, labels, uncovered, accuracy,
                                  pool_cap=config.seu_pool_cap, rng=rng)
    raise ValueError("unknown sampler %r" % config.sampler)


# --------------------------------------------------------------------------
# synthetic corpora


def generate_synthetic(n_train: int, n_valid: int, n_test: int, n_classes: int = 2,
                       q: float = 0.8, noise_vocab: int = 100, seed: int = 0,
                       noise_per_instance: int = 8, default_class: Optional[int] = None):
    """Planted-signature corpus plus a matching mock-oracle setup.

    Each instance draws a class uniformly, includes each of its class's three
    signature tokens independently with probability q, and pads with noise
    tokens shared across classes. Returns (dataset, signatures-by-class-name,
    annotations dict for the validation split).
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    rng = random.Random(seed)
    classes = ["class%d" % c for c in range(n_classes)]
    signatures = {c: ["sig%dx%d" % (c, j) for j in range(3)] for c in range(n_classes)}
    noise = ["noise%d" % i for i in range(noise_vocab)]

    next_id = [0]

    def make_split(count):
        out = []
        for _ in range(count):
            cls = rng.randrange(n_classes)
            tokens = [s for s in signatures[cls] if rng.random() < q]
            tokens += [rng.choice(noise) for _ in range(noise_per_instance)]
            rng.shuffle(tokens)
            out.append(Instance(id=next_id[0], text=" ".join(tokens), gold_label=cls))
            next_id[0] += 1
        return out

    dataset = Dataset(task_kind=TEXT_TASK, classes=classes, default_class=default_class,
                      train=make_split(n_train), valid=make_split(n_valid),
                      test=make_split(n_test))
    annotations = {}
    for inst in dataset.valid:
        present = [s for s in signatures[inst.gold_label] if s in inst.text.split()]
        annotations[inst.id] = {
            "id": inst.id,
            "keywords": present or list(signatures[inst.gold_label])[:1],
            "rationale": "the passage carries tokens typical of %s" % classes[inst.gold_label],
        }
    signatures_by_name = {classes[c]: sigs for c, sigs in signatures.items()}
    return dataset, signatures_by_name, annotations


def write_synthetic(out_dir, dataset: Dataset, signatures_by_name: dict, annotations: dict):
    """Persist a synthetic corpus in the standard file layout, plus a runnable
    `config.json` holding its five data paths and `mock_signatures`. Returns
    the five paths, as written into the config, and `config_path`."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {"%s_path" % name: os.path.join(out_dir, "%s.jsonl" % name)
             for name in ("train", "valid", "test", "annotations")}
    paths["schema_path"] = os.path.join(out_dir, "schema.json")
    corpus.save_dataset(dataset, paths["train_path"], paths["valid_path"], paths["test_path"],
                        paths["schema_path"])
    with open(paths["annotations_path"], "w", encoding="utf-8") as fh:
        for iid in sorted(annotations):
            fh.write(json.dumps(annotations[iid], sort_keys=True))
            fh.write("\n")
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({**paths, "mock_signatures": signatures_by_name}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return {**paths, "config_path": config_path}


# --------------------------------------------------------------------------
# multi-seed aggregation


def multi_seed(config: RunConfig, n_seeds: int = 5):
    """Run with seeds seed..seed+n_seeds-1; report mean and sample standard
    deviation per metric and the runs' test_metric. Returns (aggregate dict,
    list of reports)."""
    if n_seeds < 2:
        raise ValueError("need at least two seeds")
    if config.backend == "replay":
        raise ValueError("multi-seed cannot replay: a transcript holds one seed's requests")
    reports = []
    partial = False
    for offset in range(n_seeds):
        cfg = RunConfig.from_dict({**config.to_dict(),
                                   "seed": config.seed + offset,
                                   "report_path": None, "transcript_path": None})
        report = run(cfg)
        reports.append(report)
        if not report.complete:
            partial = True
    summary = {"n_seeds": n_seeds, "partial": partial, "metrics": {}}
    for name in METRIC_NAMES:
        values = [r.metrics.get(name) for r in reports]
        if any(v is None for v in values):
            summary["metrics"][name] = {"mean": None, "std": None}
        else:
            mean = sum(values) / len(values)
            std = statistics.stdev(values) if len(values) > 1 else 0.0
            summary["metrics"][name] = {"mean": mean, "std": std}
    summary["metrics"]["test_metric"] = reports[0].metrics["test_metric"]
    return summary, reports


def render_report_table(metrics: dict) -> str:
    """Human-readable percentage table of the metric suite: a run's values,
    or a multi-seed summary's {"mean", "std"} entries as mean ± std."""
    def fmt(name, value):
        if isinstance(value, dict):
            if value["mean"] is None:
                return "--"
            return "%s ± %s" % (fmt(name, value["mean"]), fmt(name, value["std"]))
        if value is None:
            return "--"
        if name == "lf_num":
            return "%g" % round(value, 2)
        return "%.2f" % (100.0 * value)

    rows = [("PLM_acc", "plm_acc"), ("LF_num", "lf_num"), ("LF_acc_avg", "lf_acc_avg"),
            ("LF_cov_avg", "lf_cov_avg"), ("Train_acc", "train_acc"),
            ("Train_cov", "train_cov"),
            ("Test_%s" % ("F1" if metrics.get("test_metric") == "binary_f1" else "acc"),
             "test_score")]
    width = max(len(label) for label, _ in rows)
    lines = ["%-*s  %s" % (width, label, fmt(key, metrics.get(key))) for label, key in rows]
    return "\n".join(lines)
