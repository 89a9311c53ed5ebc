"""Dataset ingestion, tokenization, n-gram extraction and embedding loading."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

TEXT_TASK = "text"
RELATION_TASK = "relation"

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class LoadError(ValueError):
    """Malformed dataset, schema or embedding file."""


@dataclass(frozen=True)
class EntitySpan:
    """An entity mention with a half-open character span into the passage."""

    text: str
    start: int
    end: int


@dataclass(frozen=True)
class Instance:
    id: int
    text: str
    entity1: Optional[EntitySpan] = None
    entity2: Optional[EntitySpan] = None
    gold_label: Optional[int] = None


@dataclass
class Dataset:
    task_kind: str  # TEXT_TASK | RELATION_TASK
    classes: list
    default_class: Optional[int]
    train: list = field(default_factory=list)
    valid: list = field(default_factory=list)
    test: list = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def split(self, name):
        if name not in ("train", "valid", "test"):
            raise ValueError("unknown split %r" % name)
        return getattr(self, name)

    def all_instances(self):
        return list(self.train) + list(self.valid) + list(self.test)


def tokenize(text: str):
    """Lowercase tokens split on maximal runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def extract_ngrams(tokens, n_min: int = 1, n_max: int = 3):
    """All contiguous n-grams with n in [n_min, n_max], deduplicated,
    in first-occurrence order. N-grams are space-joined strings."""
    if not 1 <= n_min <= n_max:
        raise ValueError("require 1 <= n_min <= n_max")
    seen = set()
    out = []
    for i in range(len(tokens)):
        for n in range(n_min, n_max + 1):
            if i + n > len(tokens):
                break
            gram = " ".join(tokens[i : i + n])
            if gram not in seen:
                seen.add(gram)
                out.append(gram)
    return out


def _parse_entity(obj, text, line_no, which):
    if not isinstance(obj, dict):
        raise LoadError("line %d: %s is not an object" % (line_no, which))
    try:
        surface, start, end = obj["text"], obj["start"], obj["end"]
    except KeyError as exc:
        raise LoadError("line %d: %s missing field %s" % (line_no, which, exc))
    if not (isinstance(start, int) and isinstance(end, int)):
        raise LoadError("line %d: %s span must be integers" % (line_no, which))
    if not (0 <= start < end <= len(text)):
        raise LoadError("line %d: %s span [%d, %d) out of bounds" % (line_no, which, start, end))
    if text[start:end] != surface:
        raise LoadError("line %d: %s surface text does not match span" % (line_no, which))
    return EntitySpan(text=surface, start=start, end=end)


def _parse_instance(record, n_classes, task_kind, line_no, require_gold):
    if "id" not in record or not isinstance(record["id"], int):
        raise LoadError("line %d: missing or non-integer id" % line_no)
    if "text" not in record or not isinstance(record["text"], str):
        raise LoadError("line %d: missing text" % line_no)
    text = record["text"]
    label = record.get("label")
    if label is not None:
        if not isinstance(label, int) or not 0 <= label < n_classes:
            raise LoadError("line %d: label %r out of range [0, %d)" % (line_no, label, n_classes))
    elif require_gold:
        raise LoadError("line %d: record without gold label in a labeled split" % line_no)
    e1 = record.get("entity1")
    e2 = record.get("entity2")
    if task_kind == RELATION_TASK:
        if e1 is None or e2 is None:
            raise LoadError("line %d: relation-task instance needs entity1 and entity2" % line_no)
    else:
        if e1 is not None or e2 is not None:
            raise LoadError("line %d: text-task instance must not carry entities" % line_no)
    return Instance(
        id=record["id"],
        text=text,
        entity1=_parse_entity(e1, text, line_no, "entity1") if e1 is not None else None,
        entity2=_parse_entity(e2, text, line_no, "entity2") if e2 is not None else None,
        gold_label=label,
    )


def read_jsonl(path, error=LoadError):
    """Yield (line number, object) for each non-blank line of a JSONL file.

    A line that is not valid JSON, or whose JSON is not an object, raises
    `error` naming the line. Callers raise the same `error`, with the line
    number, for an object they cannot use.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error("line %d of %s: invalid JSON (%s)" % (line_no, path, exc))
            if not isinstance(record, dict):
                raise error("line %d of %s: not a JSON object" % (line_no, path))
            yield line_no, record


def load_schema(schema_path):
    with open(schema_path, "r", encoding="utf-8") as fh:
        try:
            schema = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LoadError("schema %s: invalid JSON (%s)" % (schema_path, exc))
    if not isinstance(schema, dict):
        raise LoadError("schema %s: not a JSON object" % schema_path)
    task = schema.get("task")
    if task not in (TEXT_TASK, RELATION_TASK):
        raise LoadError("schema: task must be 'text' or 'relation', got %r" % task)
    classes = schema.get("classes")
    if not isinstance(classes, list) or len(classes) < 2:
        raise LoadError("schema: need at least two classes")
    folded = {}  # parse_response matches a response's label case-insensitively
    for name in classes:
        if not isinstance(name, str):
            raise LoadError("schema: class name %r is not a string" % (name,))
        if name.lower() in folded:
            raise LoadError("schema: duplicate class names %r and %r (case-insensitive)"
                            % (folded[name.lower()], name))
        folded[name.lower()] = name
    default_name = schema.get("default_class")
    default_class = None
    if default_name is not None:
        if default_name not in classes:
            raise LoadError("schema: default_class %r not in classes" % default_name)
        default_class = classes.index(default_name)
    return task, classes, default_class


def _load_split(path, n_classes, task_kind, require_gold):
    instances = []
    seen_ids = set()
    for line_no, record in read_jsonl(path):
        inst = _parse_instance(record, n_classes, task_kind, line_no, require_gold)
        if inst.id in seen_ids:
            raise LoadError("line %d: duplicate id %d" % (line_no, inst.id))
        seen_ids.add(inst.id)
        instances.append(inst)
    return instances


def load_dataset(train_path, valid_path, test_path, schema_path) -> Dataset:
    """Load the three JSONL splits under the declared schema.

    Valid and test records must carry gold labels; train labels are optional.
    """
    task_kind, classes, default_class = load_schema(schema_path)
    ds = Dataset(
        task_kind=task_kind,
        classes=classes,
        default_class=default_class,
        train=_load_split(train_path, len(classes), task_kind, require_gold=False),
        valid=_load_split(valid_path, len(classes), task_kind, require_gold=True),
        test=_load_split(test_path, len(classes), task_kind, require_gold=True),
    )
    all_ids = [i.id for i in ds.all_instances()]
    if len(set(all_ids)) != len(all_ids):
        raise LoadError("instance ids are not unique across splits")
    return ds


def instance_to_record(inst: Instance) -> dict:
    record = {"id": inst.id, "text": inst.text}
    if inst.gold_label is not None:
        record["label"] = inst.gold_label
    for name, ent in (("entity1", inst.entity1), ("entity2", inst.entity2)):
        if ent is not None:
            record[name] = {"text": ent.text, "start": ent.start, "end": ent.end}
    return record


def save_dataset(dataset: Dataset, train_path, valid_path, test_path, schema_path):
    """Serialize a dataset back to the JSONL + schema layout (round-trippable)."""
    schema = {"task": dataset.task_kind, "classes": list(dataset.classes)}
    if dataset.default_class is not None:
        schema["default_class"] = dataset.classes[dataset.default_class]
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, sort_keys=True)
        fh.write("\n")
    for path, split in ((train_path, dataset.train), (valid_path, dataset.valid), (test_path, dataset.test)):
        with open(path, "w", encoding="utf-8") as fh:
            for inst in split:
                fh.write(json.dumps(instance_to_record(inst), sort_keys=True))
                fh.write("\n")


@dataclass
class EmbeddingTable:
    dim: int
    rows: dict  # instance id -> np.ndarray of shape (dim,)

    def vector(self, instance_id) -> np.ndarray:
        try:
            return self.rows[instance_id]
        except KeyError:
            raise LoadError("embedding missing for instance %d" % instance_id)


def load_embeddings(path, dataset: Dataset, splits=("train", "valid")) -> EmbeddingTable:
    """Load per-instance dense vectors for the requested splits.

    Every required instance must have exactly one row, all rows one shared
    dimensionality, and no row may be the zero vector.
    """
    required = []
    for name in splits:
        required.extend(inst.id for inst in dataset.split(name))
    required_set = set(required)
    rows = {}
    dim = None
    for line_no, record in read_jsonl(path):
        iid = record.get("id")
        vec = record.get("vector")
        if not isinstance(iid, int) or not isinstance(vec, list):
            raise LoadError("line %d: embedding record needs integer id and vector list" % line_no)
        if iid not in required_set:
            continue
        arr = np.asarray(vec, dtype=float)
        if dim is None:
            dim = arr.shape[0]
        elif arr.shape[0] != dim:
            raise LoadError("embedding dimension mismatch for instance %d: %d != %d" % (iid, arr.shape[0], dim))
        if not np.any(arr):
            raise LoadError("embedding for instance %d is the zero vector" % iid)
        if iid in rows:
            raise LoadError("duplicate embedding for instance %d" % iid)
        rows[iid] = arr
    for iid in required:
        if iid not in rows:
            raise LoadError("embedding missing for instance %d" % iid)
    return EmbeddingTable(dim=dim if dim is not None else 0, rows=rows)
