#!/usr/bin/env python3
"""Print a digest of the run report for each point of a configuration grid.

Two checkouts that print the same lines produce byte-identical reports
(`RunReport.to_json()`, with the corpus directory masked) on every point.
The grid crosses the three label models, the three samplers, few-shot and
self-consistency prompting and hard and soft labels; it adds `lazy_retrain`
with the random sampler, runs with the accuracy filter off, a corpus with a
default class and a three-class corpus. Last come `weaklab eval-lfs`
reports over a low-signal corpus, for its signature LFs plus six
noise-keyword LFs. Corpora come from `generate_synthetic` at the size the
test suite uses (80/40/40).

Example:
    PYTHONPATH=src python3 scripts/report_digests.py > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import tempfile

from weaklab import cli, labelfns
from weaklab.corpus import TEXT_TASK
from weaklab.labelfns import KEYWORD
from weaklab.pipeline import RunConfig, generate_synthetic, run, write_synthetic

LABEL_MODELS = ("majority", "weighted", "dawid_skene")
SAMPLERS = ("random", "uncertainty", "seu")
PROMPTS = ("few_shot", "self_consistency")


def write_corpus(root, name, **kwargs):
    out = os.path.join(root, name)
    dataset, signatures, annotations = generate_synthetic(80, 40, 40, seed=0, **kwargs)
    paths = write_synthetic(out, dataset, signatures, annotations)
    base = dict(train_path=paths["train_path"], valid_path=paths["valid_path"],
                test_path=paths["test_path"], schema_path=paths["schema_path"],
                annotations_path=paths["annotations_path"], mock_signatures=signatures)
    return out, dataset, signatures, base


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
                   "sparse": write_corpus(root, "sparse", q=0.3, noise_vocab=30)}

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

        for corpus_name, overrides in points:
            out, _, _, base = corpora[corpus_name]
            report = run(RunConfig.from_dict({**base, **common, **overrides}))
            label = " ".join("%s=%s" % kv for kv in sorted(overrides.items()))
            print("run %-8s %-90s %s" % (corpus_name, label, digest(report.to_json(), out)))

        out, dataset, signatures, base = corpora["sparse"]
        payloads = [(sig, dataset.classes.index(name))
                    for name, sigs in sorted(signatures.items()) for sig in sigs]
        payloads += [("noise%d" % k, k % 2) for k in range(6)]
        lfs = [labelfns.compile_lf(KEYWORD, payload, cls, dataset.classes, TEXT_TASK)
               for payload, cls in payloads]
        lf_path = os.path.join(root, "lfs.jsonl")
        labelfns.save_lfs(lfs, lf_path)
        for lm in LABEL_MODELS:
            config_path = os.path.join(root, "eval-%s.json" % lm)
            report_path = os.path.join(root, "eval-%s-report.json" % lm)
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump({**base, **common, "label_model": lm}, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["eval-lfs", "--config", config_path, "--lfs", lf_path,
                          "--report", report_path])
            with open(report_path, "r", encoding="utf-8") as fh:
                print("eval-lfs label_model=%s %s" % (lm, digest(fh.read(), out)))


if __name__ == "__main__":
    main()
