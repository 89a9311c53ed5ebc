import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from weaklab import aggregate, downstream, labelfns, lfgate, pipeline, plmclient, select
from weaklab.corpus import (Dataset, EntitySpan, Instance, LoadError, RELATION_TASK, TEXT_TASK,
                            load_dataset)
from weaklab.labelfns import ABSTAIN, KEYWORD
from weaklab.pipeline import (
    METRIC_NAMES,
    RunConfig,
    RunReport,
    compute_metrics,
    generate_synthetic,
    multi_seed,
    render_report_table,
    run,
    write_synthetic,
)


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    dataset, signatures, annotations = generate_synthetic(
        n_train=80, n_valid=40, n_test=40, q=0.8, seed=0)
    paths = write_synthetic(str(out), dataset, signatures, annotations)
    paths["signatures"] = signatures
    return paths


def _config(corpus_paths, **overrides):
    with open(corpus_paths["config_path"]) as fh:
        base = json.load(fh)
    base.update(n_iterations=8, max_opt_iters=150, grad_tol=1e-4, seed=0)
    base.update(overrides)
    return RunConfig.from_dict(base)


class TestRunConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            RunConfig.from_dict({"not_a_field": 1})

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 7, "n_iterations": 3}))
        config = RunConfig.from_file(path)
        assert config.seed == 7 and config.n_iterations == 3

    def test_round_trip(self):
        config = RunConfig(seed=3, sampler="seu")
        assert RunConfig.from_dict(config.to_dict()) == config


class TestSyntheticCorpus:
    def test_split_sizes_and_unique_ids(self):
        dataset, _, _ = generate_synthetic(30, 10, 5, seed=1)
        assert (len(dataset.train), len(dataset.valid), len(dataset.test)) == (30, 10, 5)
        ids = [i.id for i in dataset.all_instances()]
        assert len(ids) == len(set(ids))

    def test_deterministic_given_seed(self):
        a, _, _ = generate_synthetic(20, 5, 5, seed=4)
        b, _, _ = generate_synthetic(20, 5, 5, seed=4)
        assert a == b

    def test_signatures_concentrate_in_their_class(self):
        dataset, signatures, _ = generate_synthetic(400, 10, 10, q=0.8, seed=2)
        sig = signatures["class0"][0]
        in_class = [sig in i.text.split() for i in dataset.train if i.gold_label == 0]
        out_class = [sig in i.text.split() for i in dataset.train if i.gold_label != 0]
        assert sum(in_class) / len(in_class) > 0.6
        assert sum(out_class) == 0

    def test_annotations_cover_validation_split(self):
        dataset, _, annotations = generate_synthetic(5, 12, 5, seed=3)
        assert set(annotations) == {i.id for i in dataset.valid}
        assert all(a["keywords"] for a in annotations.values())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(5, 5, 5, n_classes=1)
        with pytest.raises(ValueError):
            generate_synthetic(5, 5, 5, q=0.0)

    @pytest.mark.parametrize("line, match", [
        ('["x"]', r"line 2 .*not a JSON object"),
        ('{"keywords": ["free"]}', r"line 2 .*without an id"),
        ('{"id": 3', r"line 2 .*invalid JSON"),
    ])
    def test_bad_annotation_line_is_named(self, tmp_path, line, match):
        path = tmp_path / "annotations.jsonl"
        path.write_text('{"id": 1, "keywords": ["free"]}\n' + line + "\n")
        with pytest.raises(LoadError, match=match):
            pipeline._load_annotations(path)

    def test_write_synthetic_round_trips(self, corpus_paths):
        dataset = load_dataset(corpus_paths["train_path"], corpus_paths["valid_path"],
                               corpus_paths["test_path"], corpus_paths["schema_path"])
        assert len(dataset.train) == 80
        assert os.path.exists(corpus_paths["annotations_path"])
        with open(corpus_paths["config_path"]) as fh:
            assert "mock_signatures" in json.load(fh)
        data_paths = {k: corpus_paths[k] for k in ("train_path", "valid_path", "test_path",
                                                   "schema_path", "annotations_path")}
        assert RunConfig.from_file(corpus_paths["config_path"]) == RunConfig.from_dict(
            {**data_paths, "mock_signatures": corpus_paths["signatures"]})


class TestRun:
    def test_end_to_end_report(self, corpus_paths):
        report = run(_config(corpus_paths))
        assert report.complete and report.warning is None
        assert len(report.iterations) == 8
        for name in METRIC_NAMES:
            assert name in report.metrics
        assert report.metrics["lf_num"] == len(report.final_lfs)
        assert report.metrics["lf_num"] >= 1
        assert report.metrics["test_score"] is not None

    def test_admitted_lfs_meet_accuracy_threshold(self, corpus_paths):
        config = _config(corpus_paths)
        report = run(config)
        dataset = load_dataset(config.train_path, config.valid_path,
                               config.test_path, config.schema_path)
        for record in report.final_lfs:
            lf = labelfns.lf_from_record(record, dataset.classes, dataset.task_kind)
            stats = labelfns.lf_stats(lf, dataset.valid)
            assert stats.accuracy is None or stats.accuracy >= 0.6

    def test_deterministic_byte_identical(self, corpus_paths):
        r1 = run(_config(corpus_paths))
        r2 = run(_config(corpus_paths))
        assert r1.to_json() == r2.to_json()

    def test_seed_changes_trajectory(self, corpus_paths):
        r1 = run(_config(corpus_paths, seed=0))
        r2 = run(_config(corpus_paths, seed=1))
        assert [i["query_id"] for i in r1.iterations] != \
            [i["query_id"] for i in r2.iterations]

    def test_lazy_retrain_matches_eager_final_state(self, corpus_paths):
        eager = run(_config(corpus_paths))
        lazy = run(_config(corpus_paths, lazy_retrain=True))
        assert lazy.metrics["lf_num"] == eager.metrics["lf_num"]
        assert lazy.metrics["train_acc"] == pytest.approx(eager.metrics["train_acc"])

    @pytest.mark.parametrize("sampler", ["seu", "uncertainty"])
    def test_lazy_retrain_rejects_model_based_sampler(self, corpus_paths, sampler):
        with pytest.raises(ValueError, match="lazy_retrain.*sampler %r" % sampler):
            run(_config(corpus_paths, lazy_retrain=True, sampler=sampler))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_seu_pool_cap_below_one_rejected_before_the_loop(self, corpus_paths, cap):
        class CountingBackend:
            name = "counting"
            calls = 0

            def complete(self, request):
                CountingBackend.calls += 1
                return ["LABEL: class0\nKEYWORDS: NONE"] * request.n

        with pytest.raises(ValueError, match="seu_pool_cap must be at least 1"):
            run(_config(corpus_paths, sampler="seu", seu_pool_cap=cap),
                backend=CountingBackend())
        assert CountingBackend.calls == 0

    @pytest.mark.parametrize("field, overrides", [
        ("positive_class", dict(positive_class="nope")),
        ("mock_signatures", dict(mock_signatures={"class0": ["sig0x0"], "nope": ["sig1x0"]})),
    ])
    def test_unknown_class_name_is_named_before_the_first_request(self, corpus_paths,
                                                                  monkeypatch, field, overrides):
        requests = []
        monkeypatch.setattr(plmclient, "complete",
                            lambda backend, request: requests.append(request))
        match = r"%s 'nope' is not a class of the schema \(classes: class0, class1\)" % field
        with pytest.raises(ValueError, match=match):
            run(_config(corpus_paths, **overrides))
        assert requests == []

    def test_pool_exhaustion_truncates_with_warning(self, corpus_paths):
        report = run(_config(corpus_paths, n_iterations=200))
        assert report.complete
        assert "pool exhausted" in report.warning
        assert len(report.iterations) == 80

    def test_backend_error_yields_partial_report(self, corpus_paths):
        class FailingBackend:
            name = "broken"

            def __init__(self):
                self.calls = 0

            def complete(self, request):
                self.calls += 1
                if self.calls > 3:
                    raise plmclient.BackendError("remote down")
                return ["LABEL: class0\nKEYWORDS: NONE"] * request.n

        report = run(_config(corpus_paths), backend=FailingBackend())
        assert not report.complete
        assert "backend error" in report.warning
        assert len(report.iterations) == 3

    def test_train_passages_that_span_lines_run_to_the_end(self, corpus_paths):
        dataset = load_dataset(corpus_paths["train_path"], corpus_paths["valid_path"],
                               corpus_paths["test_path"], corpus_paths["schema_path"])
        dataset.train = [dataclasses.replace(inst, text=inst.text.replace(" ", "\n", 1))
                         for inst in dataset.train]
        assert all("\n" in inst.text for inst in dataset.train)
        report = run(_config(corpus_paths, n_iterations=5), dataset=dataset)
        assert report.complete and report.warning is None
        assert len(report.iterations) == 5

    def test_a_class_without_signatures_is_answered_from_hallucinations(self, corpus_paths):
        signatures = {"class1": corpus_paths["signatures"]["class1"]}
        report = run(_config(corpus_paths, mock_signatures=signatures, n_iterations=5))
        assert report.complete and report.warning is None
        assert len(report.iterations) == 5

    def test_report_written_to_disk(self, corpus_paths, tmp_path):
        path = str(tmp_path / "report.json")
        report = run(_config(corpus_paths, report_path=path))
        with open(path) as fh:
            assert json.load(fh)["metrics"] == json.loads(report.to_json())["metrics"]

    def test_self_consistency_runs(self, corpus_paths):
        report = run(_config(corpus_paths, prompt_method="self_consistency",
                             n_responses=4, n_iterations=4))
        assert report.complete
        assert len(report.iterations) == 4

    def test_uncertainty_sampler_runs_deterministically(self, corpus_paths):
        r1 = run(_config(corpus_paths, sampler="uncertainty", n_iterations=5))
        r2 = run(_config(corpus_paths, sampler="uncertainty", n_iterations=5))
        assert r1.to_json() == r2.to_json()

    def test_seu_sampler_runs_deterministically(self, corpus_paths):
        r1 = run(_config(corpus_paths, sampler="seu", n_iterations=5))
        r2 = run(_config(corpus_paths, sampler="seu", n_iterations=5))
        assert r1.to_json() == r2.to_json()

    def test_majority_label_model_variant(self, corpus_paths):
        report = run(_config(corpus_paths, label_model="majority"))
        assert report.complete and report.metrics["test_score"] is not None

    def test_weighted_label_model_variant(self, corpus_paths):
        report = run(_config(corpus_paths, label_model="weighted"))
        assert report.complete and report.metrics["test_score"] is not None

    def test_soft_labels_variant(self, corpus_paths):
        report = run(_config(corpus_paths, soft_labels=True))
        assert report.complete and report.metrics["test_score"] is not None


class TestEmptySplits:
    def _config(self, tmp_path, n_train, n_test):
        dataset, signatures, annotations = generate_synthetic(n_train, 30, n_test, seed=0)
        paths = write_synthetic(str(tmp_path), dataset, signatures, annotations)
        return RunConfig.from_dict({
            **{k: paths[k] for k in ("train_path", "valid_path", "test_path", "schema_path",
                                     "annotations_path")},
            "mock_signatures": signatures, "n_iterations": 3, "max_opt_iters": 150,
            "grad_tol": 1e-4})

    def test_empty_test_split_reports_no_score(self, tmp_path):
        def reject(constant):
            raise ValueError("report holds %s, which is not JSON" % constant)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no mean-of-empty-slice RuntimeWarning
            report = run(self._config(tmp_path, 60, 0))
        assert report.metrics["lf_num"] >= 1  # a classifier was trained
        assert report.metrics["test_score"] is None
        assert json.loads(report.to_json(), parse_constant=reject)["metrics"]["test_score"] \
            is None
        assert render_report_table(report.metrics).splitlines()[-1].split() == ["Test_acc", "--"]

    def test_empty_train_split_rejected_before_the_loop(self, tmp_path):
        with pytest.raises(ValueError, match="train split is empty"):
            run(self._config(tmp_path, 0, 30))


def test_run_loads_neither_openssl_nor_numpy_random(tmp_path):
    """A mock run with a cold Dawid-Skene fit (restarts drawn) and the
    uncertainty sampler never imports hashlib's OpenSSL module or
    numpy.random. The test suite itself imports numpy.random, so the run is
    made in a fresh interpreter."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, %r)
        import weaklab
        from weaklab.pipeline import RunConfig, generate_synthetic, run, write_synthetic

        dataset, signatures, annotations = generate_synthetic(60, 30, 30, seed=0)
        paths = write_synthetic(%r, dataset, signatures, annotations)
        config = RunConfig.from_dict({
            **{k: paths[k] for k in ("train_path", "valid_path", "test_path", "schema_path",
                                     "annotations_path")},
            "mock_signatures": signatures, "n_iterations": 3, "label_model": "dawid_skene",
            "em_restarts": 3, "sampler": "uncertainty"})
        report = run(config)
        assert report.metrics["lf_num"] >= 1, "no label-model fit was made"
        print(" ".join(sorted(name for name in ("_hashlib", "numpy.random", "secrets")
                              if name in sys.modules)))
    """) % (package_root, str(tmp_path))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def _count_calls(monkeypatch, module, name, calls=None):
    """Replace module.name with a wrapper that records each call, in `calls`
    when given."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestIterationCost:
    # an unreliable annotator, so some iterations admit nothing
    DEGRADED = dict(sampler="uncertainty", n_iterations=12, mock_p_label=0.5,
                    mock_p_keyword=0.2)

    @pytest.mark.parametrize("label_model, fit", [("dawid_skene", "dawid_skene_em"),
                                                  ("weighted", "weighted_vote"),
                                                  ("majority", "majority_vote")])
    def test_label_model_fits_once_per_admitting_iteration(self, corpus_paths, monkeypatch,
                                                           label_model, fit):
        calls = _count_calls(monkeypatch, aggregate, fit)
        report = run(_config(corpus_paths, label_model=label_model, **self.DEGRADED))
        admitted = [r["admitted"] for r in report.iterations]
        first = next(t for t, a in enumerate(admitted) if a)
        assert 0 in admitted[first:]  # an iteration the fit is skipped for
        assert len(calls) == sum(1 for a in admitted if a)

    @pytest.mark.parametrize("label_model", ["dawid_skene", "weighted"])
    def test_reused_fit_matches_refitting_every_iteration(self, corpus_paths, monkeypatch,
                                                          label_model):
        config = _config(corpus_paths, label_model=label_model, **self.DEGRADED)
        reused = run(config).to_json()
        original = pipeline.refit
        monkeypatch.setattr(pipeline, "refit",
                            lambda *args, problabels=None, **kwargs: original(*args, **kwargs))
        assert run(config).to_json() == reused

    # 150 steps: every fit converges; 2 steps: every fit is capped
    @pytest.mark.parametrize("max_opt_iters", [150, 2])
    @pytest.mark.parametrize("label_model, fit", [("dawid_skene", "dawid_skene_em"),
                                                  ("weighted", "weighted_vote")])
    def test_classifier_retrains_only_after_a_fit_or_a_capped_fit(self, corpus_paths, monkeypatch,
                                                                  label_model, fit,
                                                                  max_opt_iters):
        config = _config(corpus_paths, label_model=label_model,
                         **{**self.DEGRADED, "max_opt_iters": max_opt_iters})
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, select, "uncertainty_sampler")
            _count_calls(patch, aggregate, fit, calls)
            _count_calls(patch, downstream, "train_logreg", calls)
            report = run(config)
        iterations = []  # the calls each iteration makes from its pick on
        for name in calls:
            if name == "uncertainty_sampler":
                iterations.append(set())
            else:
                iterations[-1].add(name)
        assert len(iterations) == len(report.iterations)
        fitted = [fit in names for names in iterations]
        trained = ["train_logreg" in names for names in iterations]
        first = fitted.index(True)
        assert not all(fitted[first:])  # an idle iteration after the first fit
        if max_opt_iters == 2:
            assert trained == [t >= first for t in range(len(iterations))]
        else:
            assert trained == fitted

        original = pipeline.refit
        monkeypatch.setattr(pipeline, "refit",
                            lambda *args, problabels=None, **kwargs: original(*args, **kwargs))
        assert run(config).to_json() == report.to_json()

    def test_each_fit_warm_starts_from_the_last(self, corpus_paths, monkeypatch):
        calls = []
        original = aggregate.dawid_skene_em

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((kwargs.get("warm"), result.problabels))
            return result

        monkeypatch.setattr(aggregate, "dawid_skene_em", recording)
        run(_config(corpus_paths, **self.DEGRADED))
        assert len(calls) > 2
        for (warm, _), (_, last) in zip(calls[1:], calls):
            assert warm is last

    @pytest.mark.parametrize("label_model", ["dawid_skene", "weighted", "majority"])
    def test_gate_columns_are_stacked_once_per_fit_and_once_for_the_metrics(
            self, corpus_paths, monkeypatch, label_model):
        calls = _count_calls(monkeypatch, lfgate.AdmissionGate, "train_matrix")
        report = run(_config(corpus_paths, label_model=label_model, **self.DEGRADED))
        admitting = sum(1 for r in report.iterations if r["admitted"])
        assert 0 < admitting < len(report.iterations)
        assert len(calls) == admitting + 1

    # lfbench times iterations from the entries of the sampler attribute
    @pytest.mark.parametrize("sampler", ["random", "uncertainty", "seu"])
    def test_run_enters_the_sampler_attribute_once_per_iteration(self, corpus_paths,
                                                                 monkeypatch, sampler):
        calls = _count_calls(monkeypatch, select, sampler + "_sampler")
        report = run(_config(corpus_paths, sampler=sampler))
        assert len(calls) == len(report.iterations) == 8


class TestRecordReplay:
    def test_replayed_metrics_match_recorded_run(self, corpus_paths, tmp_path):
        transcript = str(tmp_path / "transcript.jsonl")
        recorded = run(_config(corpus_paths, transcript_path=transcript))
        replayed = run(_config(corpus_paths, backend="replay", transcript_path=transcript))
        assert replayed.to_json() == recorded.to_json()

    def test_replay_requires_transcript(self, corpus_paths):
        with pytest.raises(ValueError, match="transcript_path"):
            run(_config(corpus_paths, backend="replay", transcript_path=None))

    def test_replay_miss_is_partial_report(self, corpus_paths, tmp_path):
        transcript = str(tmp_path / "transcript.jsonl")
        run(_config(corpus_paths, transcript_path=transcript))
        report = run(_config(corpus_paths, backend="replay", transcript_path=transcript,
                             seed=99))  # different queries -> unseen requests
        assert not report.complete

    def test_repeated_passage_replays_byte_identical(self, tmp_path):
        """A train file that repeats a passage sends one request twice. The
        recording answers the repeat from its first exchange, so a backend
        that answers every call differently is asked once and the replay
        serves what the recording saw."""
        class EachCallDiffers:
            name = "each-call-differs"

            def __init__(self):
                self.requests = []

            def complete(self, request):
                self.requests.append(plmclient.request_hash(request))
                keywords = "; ".join("w%d" % i for i in range(len(self.requests)))
                return ["LABEL: A\nKEYWORDS: %s" % keywords] * request.n

        texts = ["alpha beta", "gamma delta", "alpha beta", "epsilon zeta"]
        dataset = Dataset(task_kind=TEXT_TASK, classes=["A", "B"], default_class=0,
                          train=[Instance(id=i, text=t, gold_label=0)
                                 for i, t in enumerate(texts)],
                          valid=[Instance(id=20 + c, text="alpha", gold_label=c)
                                 for c in (0, 1)],
                          test=[Instance(id=30, text="beta", gold_label=0)])
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text("".join(json.dumps({"id": inst.id}) + "\n"
                                       for inst in dataset.valid))
        transcript = str(tmp_path / "transcript.jsonl")
        config = RunConfig(annotations_path=str(annotations), n_iterations=4,
                           max_opt_iters=50, transcript_path=transcript)
        inner = EachCallDiffers()
        recorded = run(config, backend=inner, dataset=dataset)
        assert sorted(it["query_id"] for it in recorded.iterations) == [0, 1, 2, 3]
        assert len(inner.requests) == len(set(inner.requests)) == 3
        assert len(plmclient.load_transcript(transcript).records) == 3
        replay = RunConfig.from_dict({**config.to_dict(), "backend": "replay"})
        assert run(replay, dataset=dataset).to_json() == recorded.to_json()

    def test_transcript_is_saved_when_the_loop_raises(self, corpus_paths, monkeypatch,
                                                     tmp_path):
        """Iteration 3's refit raises after its request is answered: the
        transcript still holds every exchange made, and they replay."""
        transcript = str(tmp_path / "transcript.jsonl")
        uninterrupted = run(_config(corpus_paths))
        original = pipeline.refit
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("refit failed")
            return original(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "refit", failing)
            with pytest.raises(RuntimeError, match="refit failed"):
                run(_config(corpus_paths, transcript_path=transcript))
        assert len(plmclient.load_transcript(transcript).records) == 3
        replayed = run(_config(corpus_paths, backend="replay", transcript_path=transcript))
        assert not replayed.complete
        assert replayed.warning.startswith("backend error at iteration 4")
        assert replayed.iterations == uninterrupted.iterations[:3]

    def test_a_crash_before_the_first_answer_keeps_an_older_transcript(
            self, corpus_paths, monkeypatch, tmp_path):
        transcript = tmp_path / "transcript.jsonl"
        run(_config(corpus_paths, transcript_path=str(transcript)))
        older = transcript.read_bytes()

        def failing(*args, **kwargs):
            raise RuntimeError("pick failed")

        monkeypatch.setattr(pipeline, "_select_query", failing)
        with pytest.raises(RuntimeError, match="pick failed"):
            run(_config(corpus_paths, transcript_path=str(transcript)))
        assert transcript.read_bytes() == older


class TestMisconfiguredRun:
    """A config that cannot run fails before the backend is asked anything."""

    @pytest.mark.parametrize("overrides, match", [
        (dict(label_model="dawid-skene", lazy_retrain=True), "unknown label model"),
        (dict(label_model="dawid-skene"), "unknown label model"),
        (dict(em_max_iters=0), "em_max_iters"),
        (dict(ic_mode="KATE"), "in-context example mode"),
    ])
    def test_fails_before_the_first_request(self, corpus_paths, monkeypatch, tmp_path,
                                            overrides, match):
        calls = _count_calls(monkeypatch, plmclient, "complete")
        transcript = tmp_path / "transcript.jsonl"
        with pytest.raises(ValueError, match=match):
            run(_config(corpus_paths, transcript_path=str(transcript), **overrides))
        assert calls == []
        assert not transcript.exists()


@pytest.mark.parametrize("method", ["few_shot", "self_consistency"])
def test_a_payload_listed_twice_is_proposed_once(corpus_paths, method):
    """Every response list goes through self-consistency aggregation, so a
    single response that repeats a keyword proposes it once."""
    class Repeating:
        name = "repeating"

        def complete(self, request):
            return ["LABEL: class0\nKEYWORDS: sig0x0; sig0x0"] * request.n

    report = run(_config(corpus_paths, prompt_method=method, n_iterations=1,
                         enable_redundancy=False), backend=Repeating())
    assert report.iterations[0]["proposed"] == 1
    assert [lf["payload"] for lf in report.final_lfs] == ["sig0x0"]


class TestComputeMetrics:
    def _fixture(self):
        train = [Instance(id=i, text=t, gold_label=g) for i, (t, g) in enumerate([
            ("free stuff now", 1), ("great song", 0), ("free gift", 1),
            ("nice track", 0), ("other words", 0)])]
        valid = [Instance(id=10, text="v", gold_label=0)]
        test = [Instance(id=20, text="w", gold_label=1)]
        dataset = Dataset(task_kind=TEXT_TASK, classes=["HAM", "SPAM"], default_class=None,
                          train=train, valid=valid, test=test)
        lfs = [labelfns.compile_lf(KEYWORD, "free", 1, dataset.classes, TEXT_TASK),
               labelfns.compile_lf(KEYWORD, "song", 0, dataset.classes, TEXT_TASK)]
        matrix = labelfns.build_matrix(lfs, train)
        return dataset, lfs, matrix

    def test_hand_computed_lf_and_train_metrics(self):
        dataset, lfs, matrix = self._fixture()
        problabels = aggregate.majority_vote(matrix, 2)
        metrics = compute_metrics(dataset, lfs, matrix, problabels,
                                  model=None, space=None, iteration_records=[])
        assert metrics["lf_num"] == 2
        # "free": coverage 2/5, accuracy 1.0; "song": coverage 1/5, accuracy 1.0
        assert metrics["lf_cov_avg"] == pytest.approx((0.4 + 0.2) / 2)
        assert metrics["lf_acc_avg"] == pytest.approx(1.0)
        assert metrics["train_cov"] == pytest.approx(0.6)
        assert metrics["train_acc"] == pytest.approx(1.0)
        assert metrics["test_score"] is None
        assert metrics["plm_acc"] is None

    def test_plm_acc_from_iteration_records(self):
        dataset, lfs, matrix = self._fixture()
        records = [
            pipeline.IterationRecord(t=1, query_id=0, label=1, gold_label=1,
                                     proposed=1, admitted=1, verdicts=[]),
            pipeline.IterationRecord(t=2, query_id=1, label=1, gold_label=0,
                                     proposed=0, admitted=0, verdicts=[]),
        ]
        metrics = compute_metrics(dataset, lfs, matrix, None, None, None, records)
        assert metrics["plm_acc"] == pytest.approx(0.5)

    def test_empty_lf_set_metrics(self):
        dataset, _, _ = self._fixture()
        empty = np.zeros((5, 0), dtype=np.int64)
        metrics = compute_metrics(dataset, [], empty, None, None, None, [])
        assert metrics["lf_num"] == 0
        assert metrics["lf_acc_avg"] is None and metrics["lf_cov_avg"] is None
        assert metrics["train_cov"] == 0.0


class TestMultiSeed:
    def test_summary_structure(self, corpus_paths):
        summary, reports = multi_seed(_config(corpus_paths, n_iterations=4), n_seeds=2)
        assert len(reports) == 2
        assert summary["n_seeds"] == 2 and not summary["partial"]
        assert [r.seed for r in reports] == [0, 1]
        for name in METRIC_NAMES:
            entry = summary["metrics"][name]
            assert set(entry) == {"mean", "std"}
        values = [r.metrics["test_score"] for r in reports]
        assert summary["metrics"]["test_score"]["mean"] == pytest.approx(sum(values) / 2)

    def test_requires_two_seeds(self, corpus_paths):
        with pytest.raises(ValueError):
            multi_seed(_config(corpus_paths), n_seeds=1)

    def test_replay_refused_before_the_first_run(self, corpus_paths, monkeypatch, tmp_path):
        """A transcript holds one seed's requests, so no seed after the first
        could replay from it."""
        transcript = str(tmp_path / "transcript.jsonl")
        run(_config(corpus_paths, n_iterations=2, transcript_path=transcript))
        calls = _count_calls(monkeypatch, pipeline, "run")
        with pytest.raises(ValueError, match="one seed"):
            multi_seed(_config(corpus_paths, backend="replay", transcript_path=transcript),
                       n_seeds=2)
        assert calls == []

    def test_summary_names_the_runs_test_metric(self, corpus_paths):
        summary, _ = multi_seed(_config(corpus_paths, n_iterations=2, positive_class="class1"),
                                n_seeds=2)
        assert summary["metrics"]["test_metric"] == "binary_f1"
        assert "Test_F1" in render_report_table(summary["metrics"])


class TestReportRendering:
    def test_percentages_and_missing_values(self):
        metrics = {"plm_acc": 0.875, "lf_num": 12, "lf_acc_avg": None, "lf_cov_avg": 0.301,
                   "train_acc": 0.5, "train_cov": 1.0, "test_score": 0.9412,
                   "test_metric": "accuracy"}
        table = render_report_table(metrics)
        assert "87.50" in table
        assert "12" in table
        assert "--" in table
        assert "94.12" in table
        assert "Test_acc" in table

    def test_f1_label(self):
        metrics = {name: None for name in METRIC_NAMES}
        metrics["test_metric"] = "binary_f1"
        assert "Test_F1" in render_report_table(metrics)


def _relation_dataset():
    def split(start, count):
        rows = []
        for i in range(count):
            label = i % 2
            e1, e2 = "Ann%s" % "abcdefgh"[i % 8], "Bob%s" % "abcdefgh"[(i + 3) % 8]
            text = "%s %s %s today" % (e1, "works for" if label else "met with", e2)
            rows.append(Instance(id=start + i, text=text, gold_label=label,
                                 entity1=EntitySpan(e1, 0, len(e1)),
                                 entity2=EntitySpan(e2, text.index(e2),
                                                    text.index(e2) + len(e2))))
        return rows

    return Dataset(task_kind=RELATION_TASK, classes=["OTHER", "EMPLOYER"],
                   default_class=None, train=split(0, 30), valid=split(100, 10),
                   test=split(200, 10))


def _relation_config(tmp_path, dataset):
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text("".join(json.dumps({"id": inst.id}) + "\n"
                                   for inst in dataset.valid))
    return RunConfig(annotations_path=str(annotations), sampler="random", n_iterations=6,
                     mock_signatures={"OTHER": ["met with"], "EMPLOYER": ["works for"]},
                     max_opt_iters=50)


def test_relation_run_never_interns_ngrams(tmp_path, monkeypatch):
    """Pattern LFs match by regex, so no KeywordIndex of a relation run
    tokenizes its split into n-grams."""
    dataset = _relation_dataset()
    interned = []
    monkeypatch.setattr(labelfns, "extract_ngrams",
                        lambda *args: interned.append(args) or [])
    report = run(_relation_config(tmp_path, dataset), dataset=dataset)
    assert report.complete and report.final_lfs
    assert interned == []


def test_relation_run_survives_a_placeholder_in_a_class(tmp_path):
    """`[a-{{E2}}]` reads the bad range `[a-B]` with entity2 `Bob…`; the
    template gets a validity verdict and the run goes on."""
    class RangeBackend:
        name = "range"

        def complete(self, request):
            return ["LABEL: EMPLOYER\nPATTERNS:\n- {{E1}} [a-{{E2}}]"] * request.n

    dataset = _relation_dataset()
    report = run(_relation_config(tmp_path, dataset), backend=RangeBackend(), dataset=dataset)
    assert report.complete and len(report.iterations) == 6
    assert {v["stage"] for it in report.iterations for v in it["verdicts"]} == {"validity"}


@pytest.mark.parametrize("sampler, picks", [
    # the empty rows score x = 0, the most uncertain row under a model fit
    # to class 0 alone; the first pick is a random draw
    ("uncertainty", [4, 6, 8]),
    # "alpha beta" holds the grams that cover most of the uncovered rows
    ("seu", [5, 9, 7]),
])
def test_sampler_ties_resolve_to_the_lowest_id(tmp_path, sampler, picks):
    """Each pair of identical texts lists the higher id first, so a pool in
    file order would pick the higher id of the tie."""
    class LabelOnly:
        name = "label-only"

        def complete(self, request):  # a label and no keyword: nothing is admitted
            return ["LABEL: A\nKEYWORDS: NONE"] * request.n

    texts = [(7, "alpha gamma"), (9, "alpha beta"), (5, "alpha beta"), (8, ""), (6, ""),
             (4, "delta")]
    dataset = Dataset(task_kind=TEXT_TASK, classes=["A", "B"], default_class=0,
                      train=[Instance(id=i, text=t, gold_label=0) for i, t in texts],
                      valid=[Instance(id=20 + c, text="alpha", gold_label=c) for c in (0, 1)],
                      test=[Instance(id=30, text="beta", gold_label=0)])
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text("".join(json.dumps({"id": inst.id}) + "\n"
                                   for inst in dataset.valid))
    config = RunConfig(annotations_path=str(annotations), sampler=sampler, n_iterations=3,
                       max_opt_iters=50)
    report = run(config, backend=LabelOnly(), dataset=dataset)
    assert [it["query_id"] for it in report.iterations] == picks
