#!/usr/bin/env python3
"""Print a digest of the run report for each point of a configuration grid.

Two checkouts that print the same lines produce byte-identical reports
(`RunReport.to_json()`, with the corpus directory masked) on every point.
The grid crosses the three label models, the three samplers, few-shot and
self-consistency prompting and hard and soft labels; it adds `lazy_retrain`
with the random sampler, runs with the accuracy filter off, a corpus with a
default class and a three-class corpus. Relation points, which exercise the
regex LF path, run the three label models with the random and SEU samplers
and chain-of-thought prompting on the benchmark's relation corpus of seed 0
(`lfbench.corpora.relation_corpus`, 80/40/40, 200 entity names). SEU runs
with `seu_pool_cap` 25, below the 80-row pool, score a seeded sample of the
pool with each label model. A copy of the binary corpus whose train file
lists its rows in shuffled id order runs each sampler, SEU both uncapped
and at `seu_pool_cap` 25. The uncertainty and SEU samplers run with the
weighted vote and Dawid-Skene at `max_opt_iters` 3, where no classifier fit
converges and an iteration that admits nothing still retrains the
classifier. Last come `weaklab eval-lfs` reports, one per label model:
over a low-signal corpus, for its signature LFs plus six noise-keyword
LFs; then over the relation corpus, for six hand-written pattern LFs: the
mock's shape and five it never writes (a multi-word gram, a placeholder
inside an atomic group, a top-level branch, no literal, a verbose
template). Text corpora come from `generate_synthetic` at the size the
test suite uses (80/40/40). On the binary corpus three more points run the
paths the grid above leaves out: KATE in-context selection with
chain-of-thought prompting, over embeddings the script writes from fixed
arithmetic on each instance; binary F1 with `positive_class` "class1"; and
a self-consistency run recorded to a transcript, then replayed from it,
whose two digests must be equal: the script exits 1 when they differ,
after printing every line.

Run from the root of a checkout; `src` may come from another checkout:
    PYTHONPATH=src python3 scripts/report_digests.py > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile

from weaklab import cli, labelfns
from weaklab.corpus import RELATION_TASK, TEXT_TASK
from weaklab.labelfns import KEYWORD, PATTERN
from weaklab.pipeline import RunConfig, generate_synthetic, run, write_synthetic

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LABEL_MODELS = ("majority", "weighted", "dawid_skene")
SAMPLERS = ("random", "uncertainty", "seu")
PROMPTS = ("few_shot", "self_consistency")


def write_corpus(root, name, shuffle_train=False, **kwargs):
    out = os.path.join(root, name)
    dataset, signatures, annotations = generate_synthetic(80, 40, 40, seed=0, **kwargs)
    if shuffle_train:  # the train file then lists its ids out of order
        random.Random(0).shuffle(dataset.train)
    config_path = write_synthetic(out, dataset, signatures, annotations)["config_path"]
    with open(config_path, "r", encoding="utf-8") as fh:
        return out, dataset, signatures, json.load(fh)


def write_relation_corpus(root, name):
    sys.path.append(ROOT)  # the benchmark package sits at the root of the checkout
    from lfbench import corpora

    out = os.path.join(root, name)
    corpus = corpora.relation_corpus(0, n_train=80, n_valid=40, n_test=40, n_names=200)
    paths = corpora.write_corpus(corpus, out)
    return out, corpus, corpus.signatures, {**paths, "mock_signatures": corpus.signatures}


def write_embeddings(out, dataset):
    """One vector per instance: a constant, its id mod 7 and its count of
    each class's signature tokens."""
    path = os.path.join(out, "embeddings.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for inst in dataset.all_instances():
            tokens = inst.text.split()
            vector = [1, inst.id % 7] + [sum(t.startswith("sig%dx" % c) for t in tokens)
                                         for c in range(dataset.n_classes)]
            fh.write(json.dumps({"id": inst.id, "vector": vector}) + "\n")
    return path


def digest(text, mask):
    return hashlib.sha256(text.replace(mask, "<corpus>").encode()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=8)
    args = parser.parse_args()
    common = dict(n_iterations=args.iterations, max_opt_iters=150, grad_tol=1e-4, seed=0)

    with tempfile.TemporaryDirectory(prefix="weaklab-digests-") as root:
        corpora = {"binary": write_corpus(root, "binary"),
                   "default0": write_corpus(root, "default0", default_class=0),
                   "three": write_corpus(root, "three", n_classes=3),
                   "sparse": write_corpus(root, "sparse", q=0.3, noise_vocab=30),
                   "shuffled": write_corpus(root, "shuffled", shuffle_train=True),
                   "relation": write_relation_corpus(root, "relation")}

        points = [("binary", dict(label_model=lm, sampler=s, prompt_method=p, soft_labels=soft))
                  for lm, s, p, soft in itertools.product(LABEL_MODELS, SAMPLERS, PROMPTS,
                                                          (False, True))]
        points += [("binary", dict(label_model=lm, sampler="random", prompt_method=p,
                                   soft_labels=soft, lazy_retrain=True))
                   for lm, p, soft in itertools.product(LABEL_MODELS, PROMPTS, (False, True))]
        points += [("binary", dict(label_model=lm, sampler=s, enable_accuracy=False))
                   for lm, s in itertools.product(LABEL_MODELS, ("random", "seu"))]
        points += [("default0", dict(label_model=lm, soft_labels=soft))
                   for lm, soft in itertools.product(LABEL_MODELS, (False, True))]
        points += [("three", dict(label_model=lm, sampler="seu")) for lm in LABEL_MODELS]
        points += [("relation", dict(label_model=lm, sampler=s, prompt_method="cot"))
                   for lm, s in itertools.product(LABEL_MODELS, ("random", "seu"))]
        # a cap below the 80-row pool: SEU scores an rng.sample of the pool
        points += [("binary", dict(label_model=lm, sampler="seu", seu_pool_cap=25))
                   for lm in LABEL_MODELS]
        # train ids that do not ascend: ties and random draws still go by id
        points += [("shuffled", dict(sampler=s)) for s in SAMPLERS]
        points += [("shuffled", dict(sampler="seu", seu_pool_cap=25))]
        # a classifier capped at 3 steps never converges, so idle iterations retrain it
        points += [("binary", dict(label_model=lm, sampler=s, max_opt_iters=3))
                   for lm, s in itertools.product(("weighted", "dawid_skene"),
                                                  ("uncertainty", "seu"))]

        out, dataset, _, _ = corpora["binary"]
        points += [("binary", dict(ic_mode="kate", prompt_method="cot",
                                   embeddings_path=write_embeddings(out, dataset))),
                   ("binary", dict(positive_class="class1"))]

        for corpus_name, overrides in points:
            out, _, _, base = corpora[corpus_name]
            report = run(RunConfig.from_dict({**base, **common, **overrides}))
            label = " ".join("%s=%s" % kv for kv in sorted(overrides.items()))
            print("run %-8s %-90s %s" % (corpus_name, label.replace(out, "<corpus>"),
                                         digest(report.to_json(), out)))

        # the replay serves every request from the transcript the first run wrote
        out, _, _, base = corpora["binary"]
        transcript = os.path.join(root, "transcript.jsonl")
        replay_digests = []
        for backend, label in (("mock", "recorded"), ("replay", "replayed")):
            report = run(RunConfig.from_dict({**base, **common, "backend": backend,
                                              "prompt_method": "self_consistency",
                                              "transcript_path": transcript}))
            replay_digests.append(digest(report.to_json(), out))
            label = "prompt_method=self_consistency transcript=%s" % label
            print("run %-8s %-90s %s" % ("binary", label, replay_digests[-1]))

        out, dataset, signatures, base = corpora["sparse"]
        payloads = [(sig, dataset.classes.index(name))
                    for name, sigs in sorted(signatures.items()) for sig in sigs]
        payloads += [("noise%d" % k, k % 2) for k in range(6)]
        lfs = [labelfns.compile_lf(KEYWORD, payload, cls, dataset.classes, TEXT_TASK)
               for payload, cls in payloads]
        for lm, line in eval_lfs(root, "sparse", corpora["sparse"], lfs, common):
            print("eval-lfs label_model=%s %s" % (lm, line))

        out, corpus, signatures, base = corpora["relation"]
        # one phrase of each class, split into its three words
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = (signatures[name][0].split()
                                                    for name in corpus.classes)
        templates = [(r"{{E1}}.{0,40}%s.{0,40}{{E2}}" % a1, 0),
                     (r"{{E1}}.{0,40}%s\W+%s\W+%s.{0,40}{{E2}}" % (b1, b2, b3), 1),
                     (r"(?>{{E1}}\W+).{0,40}%s.{0,40}{{E2}}" % c1, 2),
                     (r"{{E1}}.{0,40}%s|%s.{0,40}{{E2}}" % (a2, a3), 0),
                     (r"{{E1}}.{0,40}{{E2}}", 1),
                     (r"(?x) {{E1}} .{0,40} %s \W+ %s .{0,40} {{E2}}" % (c2, c3), 2)]
        lfs = [labelfns.compile_lf(PATTERN, payload, cls, corpus.classes, RELATION_TASK)
               for payload, cls in templates]
        for lm, line in eval_lfs(root, "relation", corpora["relation"], lfs, common):
            print("eval-lfs relation label_model=%s %s" % (lm, line))

    if replay_digests[0] != replay_digests[1]:
        print("the replayed report differs from the recorded one", file=sys.stderr)
        return 1
    return 0


def eval_lfs(root, name, corpus, lfs, common):
    """(label model, report digest) of `weaklab eval-lfs` on the corpus for
    each label model."""
    out, _, _, base = corpus
    lf_path = os.path.join(root, "%s-lfs.jsonl" % name)
    labelfns.save_lfs(lfs, lf_path)
    for lm in LABEL_MODELS:
        config_path = os.path.join(root, "eval-%s-%s.json" % (name, lm))
        report_path = os.path.join(root, "eval-%s-%s-report.json" % (name, lm))
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({**base, **common, "label_model": lm}, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["eval-lfs", "--config", config_path, "--lfs", lf_path,
                      "--report", report_path])
        with open(report_path, "r", encoding="utf-8") as fh:
            yield lm, digest(fh.read(), out)


if __name__ == "__main__":
    sys.exit(main())
