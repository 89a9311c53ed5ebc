"""Seeded corpus generators for the benchmark, independent of weaklab.

Each generator returns a `Corpus`: the three splits as plain records, the
schema, the planted signatures the mock annotator draws on, and validation
annotations for the in-context examples. `write_corpus` lays it out in the
file format `weaklab.corpus.load_dataset` reads, so the program under test
sees the corpus only through the paths in its `RunConfig`.

Every passage is unique within a corpus: the mock backend finds a query
instance by its passage text.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@dataclass
class Corpus:
    task: str  # "text" | "relation"
    classes: list
    splits: dict  # split name -> list of record dicts (id, text, label[, entity1, entity2])
    signatures: dict  # class name -> planted payloads (mock_signatures)
    annotations: dict  # validation id -> {"id", "keywords" | "patterns", "rationale"}


def _words(rng, count, syllables, taken):
    """`count` distinct pseudo-words of the given syllable counts, none in `taken`."""
    out = []
    while len(out) < count:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                       for _ in range(rng.choice(syllables)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _unique_splits(sizes, make_one):
    """Fill each split with records from make_one(id), rejecting repeated passages."""
    seen = set()
    splits = {}
    next_id = 0
    for name, size in sizes:
        records = []
        while len(records) < size:
            record = make_one(next_id)
            if record["text"] in seen:
                continue
            seen.add(record["text"])
            records.append(record)
            next_id += 1
        splits[name] = records
    return splits


def text_corpus(seed, n_train, n_valid, n_test, n_classes=3, sigs_per_class=3,
                noise_vocab=200, q=0.6, cross=0.3, length=(8, 14)):
    """Planted-keyword corpus.

    Each class has `sigs_per_class` signature phrases of three words found
    in no other phrase, so the only n-gram of at most three words holding a
    whole phrase is the phrase itself. A passage draws its class uniformly, carries each of its
    class's phrases with probability q, with probability `cross` carries one
    phrase of another class, and is padded with noise words drawn uniformly
    from a vocabulary of `noise_vocab` words.
    """
    rng = random.Random(seed)
    taken = set()
    classes = ["topic%d" % c for c in range(n_classes)]
    sigs = [[" ".join(_words(rng, 3, (3,), taken)) for _ in range(sigs_per_class)]
            for _ in range(n_classes)]
    noise = _words(rng, noise_vocab, (2, 3), taken)

    def make_one(iid):
        cls = rng.randrange(n_classes)
        parts = [p for p in sigs[cls] if rng.random() < q]
        if rng.random() < cross:
            other = rng.choice([c for c in range(n_classes) if c != cls])
            parts.append(rng.choice(sigs[other]))
        parts += [rng.choice(noise) for _ in range(rng.randint(*length))]
        rng.shuffle(parts)
        return {"id": iid, "text": " ".join(parts), "label": cls}

    splits = _unique_splits((("train", n_train), ("valid", n_valid), ("test", n_test)),
                            make_one)
    annotations = {}
    for record in splits["valid"]:
        present = [p for p in sigs[record["label"]] if " %s " % p in " %s " % record["text"]]
        annotations[record["id"]] = {
            "id": record["id"],
            "keywords": present or sigs[record["label"]][:1],
            "rationale": "the passage uses phrases typical of %s" % classes[record["label"]],
        }
    return Corpus(task="text", classes=classes, splits=splits,
                  signatures={classes[c]: list(sigs[c]) for c in range(n_classes)},
                  annotations=annotations)


def relation_corpus(seed, n_train, n_valid, n_test, n_names, n_classes=3, phrases_per_class=2,
                    filler_vocab=150, q=0.8, cross=0.15):
    """Relation corpus with two entity mentions per passage.

    A passage reads `<filler> E1 <gap> <phrase> <gap> E2 <filler>.`, with E1
    and E2 two distinct names from a pool of `n_names` capitalised
    pseudo-words. The phrase is one of the class's three-word relation phrases
    with probability q, else with probability `cross` one of another class's,
    else filler. Filler words have one to three syllables (two to six
    letters). Gaps are one or two filler words, so every phrase lies within
    the 40 characters the mock's patterns allow on either side.
    """
    rng = random.Random(seed)
    taken = set()
    classes = ["rel%d" % c for c in range(n_classes)]
    phrases = [[" ".join(_words(rng, 3, (2, 3), taken))
                for _ in range(phrases_per_class)] for _ in range(n_classes)]
    filler = _words(rng, filler_vocab, (1, 2, 3), taken)
    names = [w.capitalize() for w in _words(rng, n_names, (3, 4), taken)]

    def fill(lo, hi):
        return [rng.choice(filler) for _ in range(rng.randint(lo, hi))]

    def make_one(iid):
        cls = rng.randrange(n_classes)
        e1, e2 = rng.sample(names, 2)
        draw = rng.random()
        if draw < q:
            phrase = rng.choice(phrases[cls])
        elif draw < q + cross:
            phrase = rng.choice(phrases[rng.choice([c for c in range(n_classes) if c != cls])])
        else:
            phrase = " ".join(fill(1, 2))
        head = " ".join(fill(0, 4) + [""])
        middle = " ".join([""] + fill(1, 2) + [phrase] + fill(1, 2) + [""])
        tail = " ".join([""] + fill(0, 4))
        text = head + e1 + middle + e2 + tail + "."
        start1 = len(head)
        start2 = start1 + len(e1) + len(middle)
        return {"id": iid, "text": text, "label": cls,
                "entity1": {"text": e1, "start": start1, "end": start1 + len(e1)},
                "entity2": {"text": e2, "start": start2, "end": start2 + len(e2)}}

    splits = _unique_splits((("train", n_train), ("valid", n_valid), ("test", n_test)),
                            make_one)
    annotations = {}
    for record in splits["valid"]:
        present = [p for p in phrases[record["label"]] if " %s " % p in record["text"]]
        chosen = present or phrases[record["label"]][:1]
        annotations[record["id"]] = {
            "id": record["id"],
            "patterns": [r"{{E1}}.{0,40}%s.{0,40}{{E2}}" % p.replace(" ", r"\W+")
                         for p in chosen],
            "rationale": "the words between the entities signal %s" % classes[record["label"]],
        }
    return Corpus(task="relation", classes=classes, splits=splits,
                  signatures={classes[c]: list(phrases[c]) for c in range(n_classes)},
                  annotations=annotations)


def write_corpus(corpus: Corpus, out_dir) -> dict:
    """Write schema, splits and annotations; return the RunConfig path fields."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"schema_path": os.path.join(out_dir, "schema.json"),
             "annotations_path": os.path.join(out_dir, "annotations.jsonl")}
    with open(paths["schema_path"], "w", encoding="utf-8") as fh:
        json.dump({"task": corpus.task, "classes": corpus.classes}, fh, sort_keys=True)
        fh.write("\n")
    for name, records in corpus.splits.items():
        paths["%s_path" % name] = os.path.join(out_dir, "%s.jsonl" % name)
        with open(paths["%s_path" % name], "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
    with open(paths["annotations_path"], "w", encoding="utf-8") as fh:
        for iid in sorted(corpus.annotations):
            fh.write(json.dumps(corpus.annotations[iid], sort_keys=True))
            fh.write("\n")
    return paths
