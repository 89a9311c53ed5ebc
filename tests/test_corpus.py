import json

import pytest
from hypothesis import given, strategies as st

from weaklab import corpus
from weaklab.corpus import LoadError, extract_ngrams, tokenize

from conftest import write_jsonl


def test_tokenize_basic():
    assert tokenize("Check out MY channel!") == ["check", "out", "my", "channel"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_punctuation_split():
    assert tokenize("e-mail 2day") == ["e", "mail", "2day"]


@given(st.text())
def test_tokenize_idempotent_on_joined_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


def test_extract_ngrams_exhaustive():
    assert extract_ngrams(["a", "b", "c"], 1, 3) == ["a", "a b", "a b c", "b", "b c", "c"] or \
        set(extract_ngrams(["a", "b", "c"], 1, 3)) == {"a", "b", "c", "a b", "b c", "a b c"}
    assert len(extract_ngrams(["a", "b", "c"], 1, 3)) == 6


def test_extract_ngrams_empty():
    assert extract_ngrams([], 1, 3) == []


def test_extract_ngrams_dedup():
    assert extract_ngrams(["a", "a"], 1, 2) == ["a", "a a"]


def test_extract_ngrams_bad_bounds():
    with pytest.raises(ValueError):
        extract_ngrams(["a"], 2, 1)


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=30))
def test_extract_ngrams_count_bound(tokens):
    assert len(extract_ngrams(tokens, 1, 3)) <= 3 * len(tokens)


def _schema(tmp_path, task="text", classes=("HAM", "SPAM"), default=None):
    schema = {"task": task, "classes": list(classes)}
    if default is not None:
        schema["default_class"] = default
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema))
    return str(path)


def _paths(tmp_path, train, valid, test):
    return (write_jsonl(tmp_path / "train.jsonl", train),
            write_jsonl(tmp_path / "valid.jsonl", valid),
            write_jsonl(tmp_path / "test.jsonl", test))


def test_load_dataset_happy_path(tmp_path):
    train = [{"id": 0, "text": "hello there"}, {"id": 1, "text": "spam spam", "label": 1}]
    valid = [{"id": 2, "text": "ok", "label": 0}]
    test = [{"id": 3, "text": "fine", "label": 1}]
    ds = corpus.load_dataset(*_paths(tmp_path, train, valid, test), _schema(tmp_path))
    assert ds.n_classes == 2
    assert len(ds.train) == 2 and len(ds.valid) == 1 and len(ds.test) == 1
    assert ds.train[0].gold_label is None
    assert ds.valid[0].gold_label == 0


def test_load_dataset_empty_train_is_legal(tmp_path):
    ds = corpus.load_dataset(*_paths(tmp_path, [],
                                     [{"id": 1, "text": "a", "label": 0}],
                                     [{"id": 2, "text": "b", "label": 1}]),
                             _schema(tmp_path))
    assert ds.train == []


def test_load_dataset_label_out_of_range_names_line(tmp_path):
    test = [{"id": 3, "text": "x", "label": 0}, {"id": 4, "text": "y", "label": 4}]
    with pytest.raises(LoadError, match="line 2"):
        corpus.load_dataset(*_paths(tmp_path, [], [{"id": 1, "text": "a", "label": 0}], test),
                            _schema(tmp_path, classes=("A", "B", "C", "D")))


def test_load_dataset_valid_without_gold_fails(tmp_path):
    with pytest.raises(LoadError, match="gold label"):
        corpus.load_dataset(*_paths(tmp_path, [], [{"id": 1, "text": "a"}],
                                    [{"id": 2, "text": "b", "label": 0}]),
                            _schema(tmp_path))


def test_load_dataset_bad_entity_span(tmp_path):
    rec = {"id": 1, "text": "alice met bob", "label": 0,
           "entity1": {"text": "alice", "start": 0, "end": 5},
           "entity2": {"text": "bob", "start": 9, "end": 13}}
    with pytest.raises(LoadError, match="entity2"):
        corpus.load_dataset(*_paths(tmp_path, [], [rec], [dict(rec, id=2, label=1)]),
                            _schema(tmp_path, task="relation"))


def test_load_dataset_entity_surface_mismatch(tmp_path):
    rec = {"id": 1, "text": "alice met bob", "label": 0,
           "entity1": {"text": "alicia", "start": 0, "end": 5},
           "entity2": {"text": "bob", "start": 10, "end": 13}}
    with pytest.raises(LoadError, match="surface"):
        corpus.load_dataset(*_paths(tmp_path, [], [rec], []), _schema(tmp_path, task="relation"))


def test_load_dataset_text_task_rejects_entities(tmp_path):
    rec = {"id": 1, "text": "alice met bob", "label": 0,
           "entity1": {"text": "alice", "start": 0, "end": 5},
           "entity2": {"text": "bob", "start": 10, "end": 13}}
    with pytest.raises(LoadError, match="must not carry entities"):
        corpus.load_dataset(*_paths(tmp_path, [], [rec], []), _schema(tmp_path))


# JSON's true and false load as Python bools, which are ints
@pytest.mark.parametrize("field, value, match", [
    ("id", True, "non-integer id"),
    ("id", False, "non-integer id"),
    ("label", False, "label False out of range"),
    ("label", True, "label True out of range"),
])
def test_load_dataset_rejects_a_boolean_id_or_label(tmp_path, field, value, match):
    test = [{"id": 5, "text": "b", "label": 0}, {"id": 6, "text": "c", "label": 1, field: value}]
    with pytest.raises(LoadError, match="line 2: .*" + match):
        corpus.load_dataset(*_paths(tmp_path, [], [{"id": 1, "text": "a", "label": 0}], test),
                            _schema(tmp_path))


@pytest.mark.parametrize("bound, value", [("start", False), ("end", True)])
def test_load_dataset_rejects_a_boolean_entity_span(tmp_path, bound, value):
    # false and true stand for 0 and 1, the span of "a"
    rec = {"id": 1, "text": "a met bob", "label": 0,
           "entity1": {"text": "a", "start": 0, "end": 1, bound: value},
           "entity2": {"text": "bob", "start": 6, "end": 9}}
    with pytest.raises(LoadError, match="line 1: entity1 span must be integers"):
        corpus.load_dataset(*_paths(tmp_path, [], [rec], []), _schema(tmp_path, task="relation"))


@pytest.mark.parametrize("task, classes, default, match", [
    ("image", ("HAM", "SPAM"), None, "task must be"),
    ("text", ("HAM",), None, "at least two classes"),
    ("text", ("HAM", "HAM"), None, "duplicate class names"),
    ("text", (0, 1), None, "class name 0 is not a string"),
    ("relation", ("NONE", ["REL"]), None, r"class name \['REL'\] is not a string"),
    ("text", ("HAM", "SPAM"), "EGGS", "default_class 'EGGS' not in classes"),
    # responses name their label case-insensitively, so these two would collide
    ("text", ("Spam", "spam"), None, "duplicate class names 'Spam' and 'spam'"),
])
def test_load_schema_rejects(tmp_path, task, classes, default, match):
    with pytest.raises(LoadError, match=match):
        corpus.load_schema(_schema(tmp_path, task=task, classes=classes, default=default))


def test_load_schema_rejects_a_schema_that_is_not_an_object(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text('["text"]')
    with pytest.raises(LoadError, match="not a JSON object"):
        corpus.load_schema(path)


def test_default_class_resolved_from_name(tmp_path):
    ds = corpus.load_dataset(*_paths(tmp_path, [], [{"id": 1, "text": "a", "label": 0}],
                                     [{"id": 2, "text": "b", "label": 1}]),
                             _schema(tmp_path, default="HAM"))
    assert ds.default_class == 0


def test_dataset_round_trip(tmp_path, text_dataset):
    out = tmp_path / "rt"
    out.mkdir()
    paths = [str(out / p) for p in ("train.jsonl", "valid.jsonl", "test.jsonl", "schema.json")]
    corpus.save_dataset(text_dataset, *paths)
    reloaded = corpus.load_dataset(*paths)
    assert reloaded == text_dataset


def _embed_file(tmp_path, rows):
    return write_jsonl(tmp_path / "emb.jsonl", rows)


def test_load_embeddings_ok(tmp_path, text_dataset):
    rows = [{"id": inst.id, "vector": [1.0, float(inst.id)]}
            for inst in text_dataset.train + text_dataset.valid]
    table = corpus.load_embeddings(_embed_file(tmp_path, rows), text_dataset)
    assert table.dim == 2
    assert len(table.rows) == len(rows)


def test_load_embeddings_missing_id(tmp_path, text_dataset):
    rows = [{"id": inst.id, "vector": [1.0]} for inst in text_dataset.train if inst.id != 3]
    with pytest.raises(LoadError, match="missing for instance 3"):
        corpus.load_embeddings(_embed_file(tmp_path, rows), text_dataset)


def test_load_embeddings_dim_mismatch(tmp_path, text_dataset):
    rows = [{"id": 0, "vector": [1.0, 2.0]}, {"id": 1, "vector": [1.0, 2.0, 3.0]}]
    with pytest.raises(LoadError, match="dimension mismatch"):
        corpus.load_embeddings(_embed_file(tmp_path, rows), text_dataset)


def test_load_embeddings_zero_vector(tmp_path, text_dataset):
    rows = [{"id": inst.id, "vector": [0.0, 0.0]} for inst in text_dataset.train]
    with pytest.raises(LoadError, match="zero vector"):
        corpus.load_embeddings(_embed_file(tmp_path, rows), text_dataset)


def test_load_embeddings_line_that_is_not_an_object(tmp_path, text_dataset):
    rows = [{"id": 0, "vector": [1.0, 2.0]}, ["x"]]
    with pytest.raises(LoadError, match="line 2 .*not a JSON object"):
        corpus.load_embeddings(_embed_file(tmp_path, rows), text_dataset)


@pytest.mark.parametrize("line, match", [
    ('{"id": true, "vector": [1.0, 2.0]}', "integer id"),  # would load as instance 1's row
    ('{"id": "1", "vector": [1.0, 2.0]}', "integer id"),
    ('{"id": 1, "vector": [1, null]}', "finite numbers"),
    ('{"id": 1, "vector": [1e400, 1]}', "finite numbers"),  # JSON reads it as inf
    ('{"id": 1, "vector": [NaN, 1]}', "finite numbers"),
    pytest.param('{"id": 1, "vector": [%s, 1]}' % ("9" * 400), "finite numbers",
                 id="an-integer-past-the-float-range"),
    ('{"id": 1, "vector": [[1, 2]]}', "finite numbers"),
    ('{"id": 1, "vector": ["a", 1]}', "finite numbers"),
    ('{"id": 1, "vector": [true, 1]}', "finite numbers"),
])
def test_load_embeddings_rejects_a_bad_line(tmp_path, text_dataset, line, match):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": 0, "vector": [1.0, 2.0]}\n' + line + "\n")
    with pytest.raises(LoadError, match="line 2: .*" + match):
        corpus.load_embeddings(path, text_dataset)
