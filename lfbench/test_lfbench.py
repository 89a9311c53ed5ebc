"""The benchmark's own tests: every workload at a tiny size, every output
check fed a planted wrong answer, and the command refusing to run without
the program's sources.

Run from the repository root:

    python3 -m pytest -q lfbench
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess

import numpy as np
import pytest

from weaklab import select

from lfbench import checks, harness, run
from lfbench.tracer import Probe
from lfbench.workloads import CORPORA, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    workload = WORKLOADS[name].shrunk()
    result = harness.run_workload(workload, seed=1, seconds=0, traced=True,
                                  work_dir=str(tmp_path / "traced"))
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    # two untraced and two traced rounds over every corpus
    assert result["attempted"] == 4 * CORPORA * workload.config["n_iterations"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["select.picks"]["value"] == (
        CORPORA * workload.config["n_iterations"])
    assert os.path.isfile(tmp_path / "traced" / "trace.json")

    result = harness.run_workload(workload, seed=1, seconds=0, traced=False,
                                  work_dir=str(tmp_path / "plain"))
    assert result["correct"] and result["problems"] == []
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        units = {**harness.END_TO_END, **harness.PER_LAYER}
        assert metric["unit"] == units[metric["name"]]


def test_probe_restores_the_program():
    original = select.__dict__["random_sampler"]
    with Probe(traced=True):
        assert select.random_sampler is not original
    assert select.random_sampler is original


def _sample(name, tmp_path_factory):
    workload = WORKLOADS[name].shrunk()
    corpora, configs = harness.prepare(workload, 3, str(tmp_path_factory.mktemp(name)))
    sample = harness.timed_run(configs[0], 0, traced=False)
    assert checks.check_run(sample.report, corpora[0], sample.probe.label_model,
                            sample.probe.classifier) == []
    return sample, corpora[0]


@pytest.fixture(scope="module")
def text_run(tmp_path_factory):
    return _sample("text-refit", tmp_path_factory)


@pytest.fixture(scope="module")
def relation_run(tmp_path_factory):
    return _sample("relation-wide", tmp_path_factory)


def _problems(sample, corpus, report=None, label_model=None, classifier=None):
    return checks.check_run(report or sample.report, corpus,
                            label_model or sample.probe.label_model,
                            classifier or sample.probe.classifier)


@pytest.mark.parametrize("run", ["text_run", "relation_run"])
def test_dropped_lf_fails(run, request):
    sample, corpus = request.getfixturevalue(run)
    report = copy.deepcopy(sample.report)
    assert report["final_lfs"]
    report["final_lfs"].pop()
    assert any("lf_num" in p for p in _problems(sample, corpus, report=report))


@pytest.mark.parametrize("metric", ["lf_cov_avg", "lf_acc_avg", "train_cov", "train_acc",
                                    "test_score"])
def test_altered_metric_fails(metric, text_run):
    sample, corpus = text_run
    report = copy.deepcopy(sample.report)
    report["metrics"][metric] *= 1.01
    assert any(metric in p for p in _problems(sample, corpus, report=report))


def test_swapped_gold_label_fails(text_run):
    sample, corpus = text_run
    train = copy.deepcopy(corpus.splits["train"])
    problabels = sample.probe.label_model.problabels
    gold = np.array([r["label"] for r in train])
    row = int(np.nonzero(problabels.covered & (problabels.hard_labels() == gold))[0][0])
    train[row]["label"] = (train[row]["label"] + 1) % len(corpus.classes)
    swapped = dataclasses.replace(corpus, splits={**corpus.splits, "train": train})
    problems = _problems(sample, swapped)
    assert any("train_acc" in p for p in problems)


def test_inaccurate_admission_fails(text_run):
    sample, corpus = text_run
    report = copy.deepcopy(sample.report)
    valid_votes = checks.vote_matrix(report["final_lfs"], corpus.splits["valid"])
    j = int(np.nonzero((valid_votes != checks.ABSTAIN).any(axis=0))[0][0])
    lf = report["final_lfs"][j]
    lf["class"] = (lf["class"] + 1) % len(corpus.classes)
    assert any("validation accuracy" in p for p in _problems(sample, corpus, report=report))


def test_redundant_admission_fails(text_run):
    sample, corpus = text_run
    report = copy.deepcopy(sample.report)
    train_votes = checks.vote_matrix(report["final_lfs"], corpus.splits["train"])
    j = int(np.nonzero((train_votes != checks.ABSTAIN).any(axis=0))[0][0])
    report["final_lfs"].append(dict(report["final_lfs"][j]))
    report["iterations"][-1]["admitted"] += 1
    assert any("consensus" in p for p in _problems(sample, corpus, report=report))


def test_verdicts_not_adding_up_fail(text_run):
    sample, corpus = text_run
    report = copy.deepcopy(sample.report)
    record = next(r for r in report["iterations"] if r["verdicts"])
    record["verdicts"].pop()
    assert any("verdicts for" in p for p in _problems(sample, corpus, report=report))


def test_incomplete_report_fails(text_run):
    sample, corpus = text_run
    report = copy.deepcopy(sample.report)
    report["complete"] = False
    report["iterations"].pop()
    problems = _problems(sample, corpus, report=report)
    assert any("incomplete" in p for p in problems)
    assert any("iterations ran" in p for p in problems)


def test_label_model_faults_fail(text_run):
    sample, corpus = text_run
    result = sample.probe.label_model
    problabels = result.problabels
    covered = np.nonzero(problabels.covered)[0]

    probs = problabels.probs.copy()
    probs[covered[0]] *= 2.0
    bad = dataclasses.replace(result, problabels=dataclasses.replace(problabels, probs=probs))
    assert any("row-stochastic" in p for p in _problems(sample, corpus, label_model=bad))

    mask = problabels.covered.copy()
    mask[covered[0]] = False
    bad = dataclasses.replace(result, problabels=dataclasses.replace(problabels, covered=mask))
    assert any("covered mask" in p for p in _problems(sample, corpus, label_model=bad))

    history = list(result.objective_history) + [result.objective_history[-1] - 1.0]
    bad = dataclasses.replace(result, objective_history=history)
    assert any("decreases" in p for p in _problems(sample, corpus, label_model=bad))

    probs = problabels.probs[:, ::-1].copy()
    bad = dataclasses.replace(result, problabels=dataclasses.replace(problabels, probs=probs))
    assert any("train_acc" in p for p in _problems(sample, corpus, label_model=bad))


def test_altered_classifier_fails(text_run):
    sample, corpus = text_run
    model = sample.probe.classifier
    bad = dataclasses.replace(model, weights=model.weights[::-1].copy(), bias=model.bias[::-1])
    assert any("test_score" in p for p in _problems(sample, corpus, classifier=bad))


def test_differing_repeat_fails(text_run):
    sample, _ = text_run
    moved = copy.deepcopy(sample.report)
    moved["config"]["train_path"] = "elsewhere/train.jsonl"
    assert checks.check_repeats([sample.report, moved]) == []
    changed = copy.deepcopy(sample.report)
    changed["iterations"][0]["query_id"] += 1
    assert checks.check_repeats([sample.report, moved, changed]) == [
        "repeat 2 differs from the first report"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "lfbench"), tmp_path / "lfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(SPEC["command"] + ["--workload", "text-refit", "--seed", "0",
                                            "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode != 0
    assert out.stdout == ""


def test_command_exits_nonzero_on_a_failed_check(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(WORKLOADS, "text-refit", WORKLOADS["text-refit"].shrunk())
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    monkeypatch.setattr(checks, "check_run", lambda *args: ["planted failure"])
    status = run.main(["--workload", "text-refit", "--seed", "1", "--seconds", "0"])
    assert status != 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert "CHECK FAILED: corpus 0: planted failure" in printed
    assert json.loads(printed[-1])["correct"] is False
