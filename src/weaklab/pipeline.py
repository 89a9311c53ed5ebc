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
import typing
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from . import aggregate, corpus, downstream, labelfns, lfgate, plmclient, prompting, select
from .corpus import Dataset, Instance, RELATION_TASK, TEXT_TASK
from .labelfns import KEYWORD, PATTERN, Provenance


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
        """The config `obj` holds; raises ValueError naming an unknown field
        or a value whose JSON type does not fit the field's annotation."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError("unknown config fields: %s" % ", ".join(sorted(unknown)))
        hints = typing.get_type_hints(cls)
        for name, value in obj.items():
            if not _fits(value, hints[name]):
                raise ValueError("config field %s takes %s, not %r"
                                 % (name, _type_name(hints[name]), value))
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


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation. `true` and `false`
    fit only bool fields, integers fit int and float fields, and null fits
    Optional ones."""
    if typing.get_origin(hint) is typing.Union:
        return any(_fits(value, arg) for arg in typing.get_args(hint))
    if hint is int:
        return corpus._is_int(value)
    if hint is float:
        return corpus._is_int(value) or isinstance(value, float)
    return isinstance(value, hint)


def _type_name(hint) -> str:
    if typing.get_origin(hint) is typing.Union:
        return " or ".join(_type_name(arg) for arg in typing.get_args(hint))
    return {type(None): "null", bool: "true or false", dict: "an object",
            str: "a string", int: "an integer", float: "a number"}[hint]


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
        return {"t": self.t, "query_id": self.query_id, "label": self.label,
                "gold_label": self.gold_label, "proposed": self.proposed,
                "admitted": self.admitted, "verdicts": self.verdicts}


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
        return json.dumps({"config": self.config, "seed": self.seed, "metrics": self.metrics,
                           "iterations": self.iterations, "final_lfs": self.final_lfs,
                           "complete": self.complete, "warning": self.warning},
                          sort_keys=True, indent=2)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


METRIC_NAMES = ("plm_acc", "lf_num", "lf_acc_avg", "lf_cov_avg",
                "train_acc", "train_cov", "test_score")


def compute_metrics(dataset: Dataset, lfs, train_votes,
                    problabels: Optional[aggregate.ProbLabels],
                    model, space, iteration_records, positive_class: Optional[int] = None) -> dict:
    """The end-of-run metric suite over `lfs` and their train vote columns,
    in the same order; unavailable metrics are None."""
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
        stats = [labelfns.lf_stats(lf, train, votes=votes)
                 for lf, votes in zip(lfs, train_votes, strict=True)]
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
                                             positive_class=positive_class)
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
    annotations, lines = {}, {}  # id -> annotation, id -> its line
    for line_no, obj in corpus.read_jsonl(path):
        if "id" not in obj:
            raise corpus.LoadError("line %d of %s: annotation without an id" % (line_no, path))
        if not corpus._is_int(obj["id"]):  # "0" would match no instance, true instance 1
            raise corpus.LoadError("line %d of %s: annotation id must be an integer, not %r"
                                   % (line_no, path, obj["id"]))
        for key in ("keywords", "patterns"):
            if key in obj and not (isinstance(obj[key], list)
                                   and all(isinstance(p, str) for p in obj[key])):
                raise corpus.LoadError("line %d of %s: %s must be a list of strings, not %r"
                                       % (line_no, path, key, obj[key]))
        if not isinstance(obj.get("rationale"), (str, type(None))):
            raise corpus.LoadError("line %d of %s: rationale must be a string or null, not %r"
                                   % (line_no, path, obj["rationale"]))
        if obj["id"] in lines:  # keeping either line would drop the other's payloads
            raise corpus.LoadError("lines %d and %d of %s: both annotate id %d"
                                   % (lines[obj["id"]], line_no, path, obj["id"]))
        annotations[obj["id"]], lines[obj["id"]] = obj, line_no
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
    if not any(len(gate.train_index.rows(lf)) for lf in gate.admitted):
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
    index of `positive_class` (None when unset), the train split's tokens,
    and the TF-IDF space fit on the train split with the train features.
    Each train row is tokenized once: the same `Tokens` feed the TF-IDF fit,
    the train features and the admission gate's train index. Returns
    (dataset, positive_class, tokens, space, X_train). Raises ValueError
    naming a classifier setting that cannot train (`l2` below 0 or NaN,
    `max_opt_iters` below 1) or a `positive_class` on a task without
    exactly two classes."""
    if not config.l2 >= 0:  # a negative l2 drives the weights to NaN
        raise ValueError("l2 must be at least 0, not %r" % config.l2)
    if config.max_opt_iters < 1:
        raise ValueError("max_opt_iters must be at least 1, not %r" % config.max_opt_iters)
    if dataset is None:
        dataset = corpus.load_dataset(config.train_path, config.valid_path,
                                      config.test_path, config.schema_path)
    if not dataset.train:
        raise ValueError("the train split is empty: there is no instance to query or label "
                         "and no row to train on")
    positive_class = None
    if config.positive_class is not None:
        positive_class = class_index(dataset, "positive_class", config.positive_class)
        if dataset.n_classes != 2:  # binary F1 scores one class against the other
            raise ValueError("positive_class needs a task with two classes, not %d (classes: %s)"
                             % (dataset.n_classes, ", ".join(dataset.classes)))
    tokens = corpus.tokenize_all(inst.text for inst in dataset.train)
    space = downstream.fit_tfidf(tokens, min_df=config.min_df, max_features=config.max_features)
    return dataset, positive_class, tokens, space, downstream.featurize_all(space, tokens)


def run(config: RunConfig, backend=None, dataset: Optional[Dataset] = None) -> RunReport:
    """Execute the full iterative loop and return the run report."""
    if config.lazy_retrain and config.sampler in ("seu", "uncertainty"):
        # these samplers score the pool with the label model or the classifier,
        # which lazy_retrain leaves unfitted until the loop ends
        raise ValueError("lazy_retrain needs sampler 'random', not sampler %r"
                         % config.sampler)
    if config.seu_pool_cap is not None and config.seu_pool_cap < 1:
        raise ValueError("seu_pool_cap must be at least 1 or None, not %r" % config.seu_pool_cap)
    if config.n_iterations < 0:
        raise ValueError("n_iterations must be at least 0, not %r" % config.n_iterations)
    spec = prompting.PromptSpec(method=config.prompt_method, n_responses=config.n_responses,
                                ic_mode=config.ic_mode, k_per_class=config.k_per_class,
                                k_total=config.k_total, temperature=config.temperature)
    label_model_kind(config)  # a bad label model fails here, not at its first fit
    dataset, positive_class, tokens, space, X_train = _prepare(config, dataset)
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
        embeddings = corpus.load_embeddings(config.embeddings_path, dataset)

        def annotate(instance):
            parsed = ask(prompting.build_annotation_prompt(dataset, instance, spec.cot,
                                                           config.task_description), 0.0, 1)[0]
            return parsed.payloads, parsed.rationale

        kate = prompting.KateSelector(dataset.valid, embeddings, annotate)
    else:
        if not config.annotations_path:
            raise ValueError("class-balanced selection needs annotations_path")
        annotations = _load_annotations(config.annotations_path)
        fixed_examples = prompting.select_ic_balanced(dataset.valid, spec.k_per_class, rng,
                                                      annotations, dataset.n_classes,
                                                      dataset.task_kind)

    gate = lfgate.AdmissionGate(dataset, lfgate.FilterConfig(
        accuracy_threshold=config.accuracy_threshold,
        redundancy_threshold=config.redundancy_threshold,
        enable_accuracy=config.enable_accuracy,
        enable_redundancy=config.enable_redundancy), train_tokens=tokens)
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
            examples = (kate.select(query, spec.k_total)
                        if kate is not None else fixed_examples)
            parsed = ask(prompting.build_task_prompt(dataset, query, examples, spec.cot,
                                                     config.task_description),
                         spec.temperature, spec.n_responses)
            label, payloads = prompting.aggregate_sc(parsed, dataset.n_classes)
            candidates = [] if label is None else [lfgate.CandidateSpec(
                kind=lf_kind, payload=payload, target_class=label,
                provenance=Provenance(iteration=t, query_id=query_id, response_index=i))
                for payload, i in payloads.items()]
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
    # the metric suite builds its own test blocks; hold one dense block at a
    # time (the selection state's kept entropies hold the train matrix too)
    del X_train, selection

    metrics = compute_metrics(dataset, gate.admitted, gate.train_columns(), problabels,
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
        return select.uncertainty_sampler(selection, model, X_train, rng)
    if config.sampler == "seu":
        if problabels is None:  # before the first fit: label 0, every row uncovered
            n = len(X_train)
            labels, uncovered = np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool)
        else:
            labels, uncovered = problabels.hard_labels(), ~problabels.covered
        accuracy = {(" ".join(lf.tokens), lf.target_class): acc
                    for lf, acc in zip(gate.admitted, gate.valid_accuracies)
                    if lf.kind == KEYWORD and acc is not None}
        return select.seu_sampler(selection, gate.train_index, labels, uncovered, accuracy, rng,
                                  pool_cap=config.seu_pool_cap)
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
