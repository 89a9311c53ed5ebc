import json
import os

import numpy as np
import pytest

from weaklab import aggregate, labelfns, pipeline, plmclient
from weaklab.corpus import Dataset, Instance, TEXT_TASK, load_dataset
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
    base = dict(
        train_path=corpus_paths["train_path"],
        valid_path=corpus_paths["valid_path"],
        test_path=corpus_paths["test_path"],
        schema_path=corpus_paths["schema_path"],
        annotations_path=corpus_paths["annotations_path"],
        mock_signatures=corpus_paths["signatures"],
        n_iterations=8,
        max_opt_iters=150,
        grad_tol=1e-4,
        seed=0,
    )
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

    def test_write_synthetic_round_trips(self, corpus_paths):
        dataset = load_dataset(corpus_paths["train_path"], corpus_paths["valid_path"],
                               corpus_paths["test_path"], corpus_paths["schema_path"])
        assert len(dataset.train) == 80
        assert os.path.exists(corpus_paths["annotations_path"])
        with open(corpus_paths["oracle_path"]) as fh:
            assert "mock_signatures" in json.load(fh)


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
        problabels = aggregate.majority_vote(matrix.entries, 2,
                                             [i.id for i in dataset.train])
        metrics = compute_metrics(dataset, lfs, matrix.entries, problabels,
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
        metrics = compute_metrics(dataset, lfs, matrix.entries, None, None, None, records)
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
