import json

import numpy as np
import pytest

from weaklab import aggregate, labelfns, lfgate
from weaklab.cli import main
from weaklab.corpus import TEXT_TASK, load_dataset
from weaklab.labelfns import KEYWORD


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    assert main(["synth", "--out", str(corpus_dir), "--n-train", "60",
                 "--n-valid", "30", "--n-test", "20", "--seed", "0"]) == 0
    with open(corpus_dir / "oracle.json") as fh:
        signatures = json.load(fh)["mock_signatures"]
    config = {
        "train_path": str(corpus_dir / "train.jsonl"),
        "valid_path": str(corpus_dir / "valid.jsonl"),
        "test_path": str(corpus_dir / "test.jsonl"),
        "schema_path": str(corpus_dir / "schema.json"),
        "annotations_path": str(corpus_dir / "annotations.jsonl"),
        "mock_signatures": signatures,
        "n_iterations": 5,
        "max_opt_iters": 100,
        "grad_tol": 1e-4,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    return {"root": root, "config": str(config_path), "corpus": corpus_dir,
            "config_dict": config}


def test_synth_writes_loadable_corpus(workdir):
    dataset = load_dataset(str(workdir["corpus"] / "train.jsonl"),
                           str(workdir["corpus"] / "valid.jsonl"),
                           str(workdir["corpus"] / "test.jsonl"),
                           str(workdir["corpus"] / "schema.json"))
    assert len(dataset.train) == 60 and len(dataset.valid) == 30 and len(dataset.test) == 20


def test_run_writes_report(workdir, capsys):
    report_path = workdir["root"] / "report.json"
    assert main(["run", "--config", workdir["config"],
                 "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "Test_acc" in out
    payload = json.loads(report_path.read_text())
    assert payload["complete"] is True
    assert "metrics" in payload and "final_lfs" in payload


def test_run_seed_override(workdir):
    a = workdir["root"] / "a.json"
    b = workdir["root"] / "b.json"
    main(["run", "--config", workdir["config"], "--seed", "3", "--report", str(a)])
    main(["run", "--config", workdir["config"], "--seed", "3", "--report", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["seed"] == 3


def test_record_then_replay_subcommand(workdir):
    transcript = workdir["root"] / "transcript.jsonl"
    recorded = workdir["root"] / "recorded.json"
    replayed = workdir["root"] / "replayed.json"
    assert main(["run", "--config", workdir["config"], "--transcript", str(transcript),
                 "--report", str(recorded)]) == 0
    assert main(["replay", "--config", workdir["config"], "--transcript", str(transcript),
                 "--report", str(replayed)]) == 0
    assert recorded.read_bytes() == replayed.read_bytes()


def test_multi_seed_subcommand(workdir, capsys):
    summary_path = workdir["root"] / "summary.json"
    assert main(["multi-seed", "--config", workdir["config"], "--seeds", "2",
                 "--report", str(summary_path)]) == 0
    summary = json.loads(summary_path.read_text())
    assert summary["n_seeds"] == 2
    assert "test_score" in summary["metrics"]
    assert "test_score" in capsys.readouterr().out


def test_eval_lfs_subcommand(workdir, capsys):
    config = workdir["config_dict"]
    dataset = load_dataset(config["train_path"], config["valid_path"],
                           config["test_path"], config["schema_path"])
    lfs = [labelfns.compile_lf(KEYWORD, sig, dataset.classes.index(name), dataset.classes,
                               TEXT_TASK)
           for name, sigs in config["mock_signatures"].items() for sig in sigs]
    lf_path = workdir["root"] / "lfs.jsonl"
    labelfns.save_lfs(lfs, lf_path)
    metrics_path = workdir["root"] / "lf_metrics.json"
    assert main(["eval-lfs", "--config", workdir["config"], "--lfs", str(lf_path),
                 "--report", str(metrics_path)]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["lf_num"] == len(lfs)
    assert metrics["test_score"] is not None
    assert "LF_num" in capsys.readouterr().out


@pytest.fixture(scope="module")
def noisy_lfs(tmp_path_factory):
    """A low-signal corpus and an LF set mixing signatures with noise keywords.

    The last two LFs are train bigrams that never occur on the valid split,
    so their validation accuracy is None.
    """
    root = tmp_path_factory.mktemp("noisy")
    corpus_dir = root / "corpus"
    assert main(["synth", "--out", str(corpus_dir), "--n-train", "60", "--n-valid", "30",
                 "--n-test", "20", "--q", "0.3", "--noise-vocab", "30", "--seed", "0"]) == 0
    with open(corpus_dir / "oracle.json") as fh:
        signatures = json.load(fh)["mock_signatures"]
    config = {"train_path": str(corpus_dir / "train.jsonl"),
              "valid_path": str(corpus_dir / "valid.jsonl"),
              "test_path": str(corpus_dir / "test.jsonl"),
              "schema_path": str(corpus_dir / "schema.json"),
              "max_opt_iters": 100, "grad_tol": 1e-4}
    dataset = load_dataset(config["train_path"], config["valid_path"],
                           config["test_path"], config["schema_path"])
    payloads = [(sig, dataset.classes.index(name))
                for name, sigs in sorted(signatures.items()) for sig in sigs]
    payloads += [("noise%d" % k, k % 2) for k in range(6)]
    payloads += [("noise29 noise12", 1), ("noise10 noise15", 1)]
    lfs = [labelfns.compile_lf(KEYWORD, payload, cls, dataset.classes, TEXT_TASK)
           for payload, cls in payloads]
    lf_path = root / "lfs.jsonl"
    labelfns.save_lfs(lfs, lf_path)
    train = labelfns.build_matrix(lfs, dataset.train).entries
    valid = labelfns.build_matrix(lfs, dataset.valid).entries
    gold = np.array([inst.gold_label for inst in dataset.valid])
    accuracies = [lfgate.measure_accuracy(valid[:, j], gold) for j in range(len(lfs))]
    assert accuracies[-2:] == [None, None]
    assert (train[:, -2:] != labelfns.ABSTAIN).any(axis=0).all()

    def eval_lfs(**overrides):
        config_path = root / "config.json"
        config_path.write_text(json.dumps({**config, **overrides}))
        report_path = root / "metrics.json"
        assert main(["eval-lfs", "--config", str(config_path), "--lfs", str(lf_path),
                     "--report", str(report_path)]) == 0
        return json.loads(report_path.read_text())

    return {"dataset": dataset, "train": train, "accuracies": accuracies,
            "eval_lfs": eval_lfs}


def _train_acc(problabels, dataset):
    gold = np.array([inst.gold_label for inst in dataset.train])
    covered = problabels.covered
    return float((problabels.hard_labels()[covered] == gold[covered]).mean())


def test_eval_lfs_weighted_uses_validation_accuracies(noisy_lfs):
    dataset, train = noisy_lfs["dataset"], noisy_lfs["train"]

    def weighted(unmeasured):
        weights = [unmeasured if acc is None else acc for acc in noisy_lfs["accuracies"]]
        return _train_acc(aggregate.weighted_vote(train, dataset.n_classes, weights), dataset)

    expected = weighted(0.5)
    dawid_skene = _train_acc(aggregate.dawid_skene_em(train, dataset.n_classes).problabels,
                             dataset)
    # the corpus separates the weighted vote from Dawid-Skene, and an
    # unmeasured LF weighted as 0.5 from one weighted above or below it
    assert expected not in (dawid_skene, weighted(0.3), weighted(0.9))
    assert noisy_lfs["eval_lfs"](label_model="weighted")["train_acc"] == expected
    assert noisy_lfs["eval_lfs"](label_model="dawid_skene")["train_acc"] == dawid_skene


def test_eval_lfs_passes_em_restarts(noisy_lfs, monkeypatch):
    kinds = []
    fit = aggregate.dawid_skene_em

    def recording_fit(entries, n_classes, kind=None, instance_ids=None):
        kinds.append(kind)
        return fit(entries, n_classes, kind, instance_ids)

    monkeypatch.setattr(aggregate, "dawid_skene_em", recording_fit)
    noisy_lfs["eval_lfs"](label_model="dawid_skene", em_restarts=5, em_max_iters=40)
    assert [(k.em_restarts, k.em_max_iters) for k in kinds] == [(5, 40)]


def test_report_subcommand(workdir, capsys):
    report_path = workdir["root"] / "for_table.json"
    main(["run", "--config", workdir["config"], "--report", str(report_path)])
    capsys.readouterr()
    assert main(["report", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "LF_num" in out and "Train_cov" in out


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])
