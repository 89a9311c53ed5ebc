import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reference import interned, keyword_rows, vote_column
from weaklab import labelfns
from weaklab.corpus import (
    Dataset,
    EntitySpan,
    Instance,
    RELATION_TASK,
    TEXT_TASK,
    extract_ngrams,
    tokenize,
    tokenize_all,
)
from weaklab.labelfns import (
    ABSTAIN,
    KEYWORD,
    PATTERN,
    KeywordIndex,
    LFError,
    apply_lf,
    build_matrix,
    compile_lf,
    lf_stats,
)

CLASSES = ["NEGATIVE", "POSITIVE"]


def kw(payload, cls=1):
    return compile_lf(KEYWORD, payload, cls, CLASSES, TEXT_TASK)


def pat(payload, cls=1):
    return compile_lf(PATTERN, payload, cls, CLASSES, RELATION_TASK)


def rel_instance(text, e1, e2, iid=0, label=None):
    s1 = text.index(e1)
    s2 = text.index(e2)
    return Instance(id=iid, text=text, gold_label=label,
                    entity1=EntitySpan(e1, s1, s1 + len(e1)),
                    entity2=EntitySpan(e2, s2, s2 + len(e2)))


class TestCompile:
    def test_valid_keyword(self):
        lf = kw("subscribe")
        assert lf.tokens == ("subscribe",)

    def test_four_token_keyword_rejected(self):
        with pytest.raises(LFError, match="1-3"):
            kw("check out my channel")

    def test_bad_regex_rejected(self):
        with pytest.raises(LFError):
            pat("([")

    def test_class_out_of_range(self):
        with pytest.raises(LFError, match="classes"):
            kw("free", cls=7)

    # JSON's true and false load as Python bools, which are ints
    @pytest.mark.parametrize("compile_as", [kw, pat])
    @pytest.mark.parametrize("cls", [True, False])
    def test_boolean_class_rejected(self, compile_as, cls):
        with pytest.raises(LFError, match="classes"):
            compile_as("{{E1}} wed {{E2}}" if compile_as is pat else "free", cls=cls)

    def test_keyword_on_relation_task_rejected(self):
        with pytest.raises(LFError, match="text classification"):
            compile_lf(KEYWORD, "free", 1, CLASSES, RELATION_TASK)

    def test_pattern_on_text_task_rejected(self):
        with pytest.raises(LFError, match="relation classification"):
            compile_lf(PATTERN, "a+", 1, CLASSES, TEXT_TASK)

    def test_backreference_rejected(self):
        with pytest.raises(LFError, match="forbidden"):
            pat(r"(\w+) \1")

    def test_lookahead_rejected(self):
        with pytest.raises(LFError, match="forbidden"):
            pat(r"foo(?=bar)")

    def test_lookbehind_rejected(self):
        with pytest.raises(LFError, match="forbidden"):
            pat(r"(?<=foo)bar")

    def test_empty_match_pattern_rejected(self):
        with pytest.raises(LFError, match="empty string"):
            pat(r"a*")

    def test_oversized_pattern_rejected(self):
        with pytest.raises(LFError, match="exceeds"):
            pat("a" * (labelfns.MAX_PATTERN_SOURCE + 1))

    @pytest.mark.parametrize("template", [r"(a)(?:\1)++ {{E1}} {{E2}}",
                                          r"{{E1}}(?:(?=b)x)*+ {{E2}}"])
    def test_forbidden_construct_in_possessive_repeat_rejected(self, template):
        with pytest.raises(LFError, match="forbidden"):
            pat(template)

    # an entity after an odd run of backslashes joins the escape (with E1 "1"
    # the first is the backreference `(q)\1ab`); one after `{` or `,` can
    # complete a repeat count (`{3}` with E1 "3"); one in a class can end a
    # range (`[a-0]`); a quantified one repeats only its last character, or
    # nothing when empty; a group the template names like a mark is no mark
    @pytest.mark.parametrize("template", [r"(q)\{{E1}}ab {{E2}}", r"a\\\{{E1}}ab {{E2}}",
                                          r"{{{E1}}}.zz {{E2}}", r"{{E1}}.{0,40}x{{{E2}}}",
                                          r"{{E1}} a{2,{{E2}}}", r"{{E1}} [a-{{E2}}]",
                                          r"[{{E1}}]+ song", r"{{E1}}.{0,40}song{{E2}}?",
                                          r"(?P<lfmark0>x)[a-{{E1}}]"])
    def test_placeholder_substitution_could_reread_rejected(self, template):
        with pytest.raises(LFError, match="placeholder"):
            pat(template)

    # the position is the template's, which marks its placeholders as groups
    # with longer names before parsing it
    @pytest.mark.parametrize("template, message", [
        ("{{E1}} (ab {{E2}}", "missing ), unterminated subpattern at position 7"),
        ("{{E1}} [[a] {{E2}}", "Possible nested set at position 8"),
        ("{{E1}}{{E2}} a)", "unbalanced parenthesis at position 14"),
        ("(?x)\n{{E1}} (ab\n {{E2}}", "at position 12 (line 2, column 8)"),
    ])
    def test_parse_errors_name_the_position_in_the_template(self, template, message):
        with pytest.raises(LFError) as caught:
            pat(template)
        assert str(caught.value).endswith(message)

    def test_placeholder_after_escaped_backslash_accepted(self):
        lf = pat(r"\\{{E1}}ab {{E2}}")
        assert apply_lf(lf, rel_instance(r"\1ab 2", "1", "2")) == 1
        assert apply_lf(lf, rel_instance("1ab 2", "1", "2")) == ABSTAIN


class TestApply:
    def test_keyword_hit(self):
        lf = kw("come again")
        assert apply_lf(lf, Instance(id=0, text="will never come again")) == 1

    def test_keyword_miss(self):
        lf = kw("my channel")
        assert apply_lf(lf, Instance(id=0, text="great song")) == ABSTAIN

    def test_keyword_no_substring_false_positive(self):
        # "art" must not match inside "start"
        lf = kw("art")
        assert apply_lf(lf, Instance(id=0, text="start the engine")) == ABSTAIN
        assert apply_lf(lf, Instance(id=0, text="modern art museum")) == 1

    def test_keyword_case_insensitive(self):
        upper = kw("FREE")
        lower = kw("free")
        for text in ("FREE stuff", "free stuff", "nothing here"):
            inst = Instance(id=0, text=text)
            assert apply_lf(upper, inst) == apply_lf(lower, inst)

    def test_pattern_with_entity_placeholders(self):
        lf = pat(r"{{E1}}\s+\w+\s+induced\s+{{E2}}")
        miss = rel_instance("aspirin - induced bleeding was observed", "aspirin", "bleeding")
        hit = rel_instance("aspirin therapy induced bleeding in two patients",
                           "aspirin", "bleeding")
        assert apply_lf(lf, miss) == ABSTAIN
        assert apply_lf(lf, hit) == 1

    def test_pattern_requires_entities(self):
        lf = pat(r"{{E1}} and {{E2}}")
        with pytest.raises(LFError, match="without entities"):
            apply_lf(lf, Instance(id=0, text="no entities here"))

    def test_entity_text_is_regex_escaped(self):
        lf = pat(r"{{E1}} hit {{E2}}")
        inst = rel_instance("a.b hit c", "a.b", "c")
        assert apply_lf(lf, inst) == 1
        # the dot in the entity must not act as a wildcard
        other = rel_instance("axb hit c ( a.b )", "a.b", "c")
        assert apply_lf(lf, other) == ABSTAIN

    @given(st.lists(st.sampled_from(["spam", "song", "free", "channel", "click"]),
                    min_size=0, max_size=12),
           st.sampled_from(["free", "free stuff", "my channel"]))
    def test_keyword_agrees_with_naive_join_scan(self, tokens, payload):
        inst = Instance(id=0, text=" ".join(tokens))
        lf = kw(payload)
        padded = " %s " % " ".join(tokenize(inst.text))
        naive = (" %s " % payload) in padded
        assert (apply_lf(lf, inst) == 1) == naive

    def test_apply_is_pure(self):
        lf = kw("free")
        inst = Instance(id=0, text="free stuff for free people")
        assert all(apply_lf(lf, inst) == 1 for _ in range(5))


# Pattern templates for KeywordIndex's literal prefilter: the mock's form, a
# multi-word gram, no literal, a top-level branch, a placeholder in an atomic
# group, a possessive repeat, and verbose and ASCII flags.
INDEX_TEMPLATES = [
    r"{{E1}}.{0,40}song.{0,40}{{E2}}",
    r"{{E1}}.{0,40}kind\W+song.{0,40}{{E2}}",
    r"{{E1}}.{0,40}{{E2}}",
    r"{{E1}} song|kind {{E2}}",
    r"(?>{{E1}}\W+)song.{0,40}{{E2}}",
    r"{{E1}} \w*+ song",
    r"(?x) {{E1}} \s+ kind \s+ song .{0,40} {{E2}}",
    r"(?a){{E1}}.{0,40}song.{0,40}{{E2}}",
]

# Template pieces for random templates: placeholders, literals, repeats,
# classes, group openers, escapes and verbose-mode syntax; entities mix
# characters that are regex syntax in a class or after a backslash.
TEMPLATE_TOKENS = [r"{{E1}}", r"{{E2}}", "a", "song", " ", ".", "*", "+", "?", "{2}", "{0,3}",
                   "{", "}", ",", "0", "|", "(", "(?:", "(?>", ")", "[", "]", "[a-", "-", "^",
                   "\\", r"\W+", r"\s", "(?x)", "#"]
ENTITIES = st.text(alphabet=["0", "-", "]", "\\", "{", " ", "é", "ſ", "K"], max_size=3)

INDEX_ENTITIES = [("Bob", "Ann"), ("a.b", "x{y"), ("ſam", "Kurt"), ("Bob", "3"), ("Bob", "")]
INDEX_MIDDLES = ["song", "ſong", "SONG", "kind song", "Kind  ſONG", "kind, song",
                 "sang a song to", "no match here", "xxx", "x{3}", "sing", "sonnet"]


# Keyword rows and phrases: repeated tokens, punctuation and case inside a
# phrase or a row, an empty row, and phrases no row holds.
KEYWORD_ROWS = ["free stuff for free people", "Free, stuff!", "stuff-for free", "",
                "free free free", "people for free stuff now", "FREE", "free stuff free stuff"]
# Rows for the interning property: empty and punctuation-only rows,
# one-token rows, a token repeated four or more times, grams repeated
# within and across rows, and "İ", whose lowercase ("i" and a combining
# dot) is longer than it.
INTERN_TEXTS = st.one_of(
    st.sampled_from(["", "!!", ".. ,", "q", "İ", "q q q q q", "a b a b a b a", "İi"]),
    st.builds(lambda tokens, sep: sep.join(tokens),
              st.lists(st.sampled_from(["a", "b", "i", "İ", "q", "A"]), max_size=12),
              st.sampled_from([" ", ", ", "-"])))
KEYWORD_PHRASES = ["free", "free stuff", "stuff for free", "free free", "free free free",
                   "Free, STUFF", "for", "absent", "free absent", "stuff free stuff", "now!"]


def index_rows():
    rows = []
    for e1, e2 in INDEX_ENTITIES:
        for middle in INDEX_MIDDLES:
            for text in ("%s %s %s" % (e1, middle, e2), "%s then %s %s" % (e2, e1, middle)):
                rows.append(rel_instance(text, e1, e2, iid=len(rows)))
    return rows


class TestKeywordIndex:
    @pytest.mark.parametrize("template", INDEX_TEMPLATES)
    def test_pattern_votes_equal_apply_lf(self, template):
        rows = index_rows()
        lf = pat(template)
        assert KeywordIndex(rows).votes(lf).tolist() == [apply_lf(lf, r) for r in rows]

    @pytest.mark.parametrize("make", [lambda c: pat(r"{{E1}}.{0,40}song.{0,40}{{E2}}", c),
                                      lambda c: kw("song", c)], ids=["pattern", "keyword"])
    def test_same_payload_two_classes(self, make):
        rows = index_rows()
        index = KeywordIndex(rows)
        for cls in (0, 1, 0):
            lf = make(cls)
            assert index.votes(lf).tolist() == [apply_lf(lf, r) for r in rows]

    @pytest.mark.parametrize("phrase", KEYWORD_PHRASES)
    def test_keyword_votes_equal_apply_lf(self, phrase):
        rows = [Instance(id=i, text=text) for i, text in enumerate(KEYWORD_ROWS)]
        lf = kw(phrase)
        assert KeywordIndex(rows).votes(lf).tolist() == [apply_lf(lf, r) for r in rows]

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=7), min_size=1,
                    max_size=8),
           st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3))
    def test_keyword_votes_equal_apply_lf_on_random_rows(self, rows, phrase):
        rows = [Instance(id=i, text="  ".join(tokens)) for i, tokens in enumerate(rows)]
        lf = kw(" ".join(phrase))
        assert KeywordIndex(rows).votes(lf).tolist() == [apply_lf(lf, r) for r in rows]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=6), max_size=10),
           st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3),
                    max_size=4))
    def test_keyword_votes_equal_the_gram_id_scan(self, rows, phrases):
        # grams repeat within and across rows, rows may be empty, and a
        # phrase with "d" or an unseen order is missing from the split
        rows = [Instance(id=i, text=" ".join(tokens)) for i, tokens in enumerate(rows)]
        index = KeywordIndex(rows)
        gram_ids = interned([row.text for row in rows])[0]
        grams = list(gram_ids) + [" ".join(phrase) for phrase in phrases]
        for gram in grams:
            gram_id = gram_ids.get(gram, len(gram_ids))
            hits = np.flatnonzero(index.votes(kw(gram)) != ABSTAIN)
            assert hits.tolist() == keyword_rows(index, gram_id).tolist()

    def test_rows_hold_their_grams_in_first_occurrence_order(self):
        rows = [Instance(id=i, text=text) for i, text in enumerate(KEYWORD_ROWS)]
        index = KeywordIndex(rows)
        gram_ids = interned(KEYWORD_ROWS)[0]  # numbered in first-seen order
        assert index.n_grams == len(gram_ids)
        grams = list(gram_ids)
        for i, row in enumerate(rows):
            want = extract_ngrams(tokenize(row.text), 1, 3)
            ids = index.ids[index.indptr[i]:index.indptr[i + 1]]
            assert [grams[k] for k in ids] == want
        assert [index.gram_id(gram.split(" ")) for gram in grams] == list(range(len(grams)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(INTERN_TEXTS, max_size=10),
           st.lists(st.lists(st.sampled_from(["a", "b", "i", "q", "zz"]), min_size=1,
                             max_size=4), max_size=4),
           st.booleans())
    @example(["", "!!", "q", "q q q q q", "a b a b a b", "İ"], [["zz"], ["zz", "a"]], True)
    def test_interning_equals_the_per_row_loop(self, texts, phrases, given_tokens):
        # ids, indptr and every gram's lookup equal the loop's; a phrase of
        # tokens the split lacks, or of four tokens, is no gram
        rows = [Instance(id=i, text=text) for i, text in enumerate(texts)]
        index = KeywordIndex(rows, tokenize_all(texts) if given_tokens else None)
        gram_ids, ids, indptr = interned(texts)
        assert index.ids.dtype == ids.dtype and index.ids.tolist() == ids.tolist()
        assert index.indptr.dtype == indptr.dtype and index.indptr.tolist() == indptr.tolist()
        assert index.n_grams == len(gram_ids)
        for gram, gram_id in gram_ids.items():
            assert index.gram_id(gram.split(" ")) == gram_id
        for phrase in phrases:
            assert index.gram_id(phrase) == gram_ids.get(" ".join(phrase))
            if len(phrase) <= 3:
                lf = kw(" ".join(phrase))
                assert index.votes(lf).tolist() == [apply_lf(lf, r) for r in rows]

    def test_tokens_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="tokens of 2 texts for 1 instances"):
            KeywordIndex([Instance(id=0, text="a")], tokenize_all(["a", "b"]))

    def test_repeated_votes_are_memoized_per_index(self, monkeypatch):
        calls = []

        def counting(lf, inst):
            calls.append(inst.id)
            return apply_lf(lf, inst)

        monkeypatch.setattr(labelfns, "apply_lf", counting)
        rows = index_rows()
        index = KeywordIndex(rows)
        first = index.votes(pat(r"{{E1}}.{0,40}song.{0,40}{{E2}}", 1))
        n_first = len(calls)
        assert 0 < n_first < len(rows)
        again = index.votes(pat(r"{{E1}}.{0,40}song.{0,40}{{E2}}", 0))
        assert len(calls) == n_first
        assert (again == np.where(first == 1, 0, ABSTAIN)).all()
        KeywordIndex(rows).votes(pat(r"{{E1}}.{0,40}song.{0,40}{{E2}}", 1))
        assert len(calls) == 2 * n_first

    def test_placeholder_in_a_group_keeps_the_prefilter(self, monkeypatch):
        calls = []

        def counting(lf, inst):
            calls.append(inst.id)
            return apply_lf(lf, inst)

        monkeypatch.setattr(labelfns, "apply_lf", counting)
        rows = index_rows()
        KeywordIndex(rows).votes(pat(r"(?>{{E1}}\W+)song.{0,40}{{E2}}"))
        assert 0 < len(calls) < len(rows)

    # whatever the entities, an accepted template compiles once substituted,
    # and the prefilter drops no row that the pattern matches
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(TEMPLATE_TOKENS), min_size=1, max_size=10),
           st.lists(st.tuples(ENTITIES, ENTITIES), min_size=1, max_size=3))
    @example([r"{{E1}}", " ", "[a-", r"{{E2}}", "]"], [("Bob", "0")])
    def test_accepted_templates_apply_to_any_entities(self, tokens, entities):
        try:
            lf = pat("".join(tokens))
        except LFError:
            return
        rows = [rel_instance(text % (e1, e2), e1, e2, iid=2 * k + j)
                for k, (e1, e2) in enumerate(entities)
                for j, text in enumerate(("%s song %s", "a-0 %s, a song {2} %s"))]
        votes = [apply_lf(lf, row) for row in rows]
        assert set(votes) <= {lf.target_class, ABSTAIN}
        assert KeywordIndex(rows).votes(lf).tolist() == votes

    def test_votes_require_entities_where_the_literal_is_absent(self):
        rows = [rel_instance("Bob song Ann", "Bob", "Ann"), Instance(id=1, text="no entities here")]
        with pytest.raises(LFError, match="without entities"):
            KeywordIndex(rows).votes(pat(r"{{E1}} song {{E2}}"))


class TestMatrix:
    def test_empty_lf_set(self):
        matrix = build_matrix([], [Instance(id=i, text="x") for i in range(4)])
        assert matrix.shape == (4, 0)

    def test_saturating_lf(self):
        lf = kw("free")
        matrix = build_matrix([lf], [Instance(id=i, text="free thing") for i in range(3)])
        assert (matrix[:, 0] == 1).all()

    def test_identical_lfs_identical_columns(self):
        lfs = [kw("free"), kw("free")]
        insts = [Instance(id=0, text="free stuff"), Instance(id=1, text="other")]
        matrix = build_matrix(lfs, insts)
        assert (matrix[:, 0] == matrix[:, 1]).all()

    def test_column_purity(self):
        lfs = [kw("free", 1), kw("song", 0)]
        insts = [Instance(id=i, text=t) for i, t in
                 enumerate(["free song", "free stuff", "nice song", "nothing"])]
        matrix = build_matrix(lfs, insts)
        for j, lf in enumerate(lfs):
            col = matrix[:, j]
            assert set(col[col != ABSTAIN]) <= {lf.target_class}


MATRIX_WORDS = ["a", "b", "c"]
MATRIX_PAYLOADS = {
    KEYWORD: ["a", "b", "c", "a b", "b a c", "zz"],
    PATTERN: ["a", "{{E1}} b", "c {{E2}}", "{{E1}}.{0,20}{{E2}}", "zz"],
}


@st.composite
def matrix_cases(draw):
    """(instances, LFs): 0-10 rows of words (a relation row between two
    entities) and 0-6 keyword or pattern LFs over 2-4 classes, where a
    payload may repeat with another class."""
    kind = draw(st.sampled_from([KEYWORD, PATTERN]))
    classes = ["C%d" % c for c in range(draw(st.integers(2, 4)))]
    rows = draw(st.lists(st.lists(st.sampled_from(MATRIX_WORDS), max_size=4), max_size=10))
    if kind == KEYWORD:
        instances = [Instance(id=i, text=" ".join(words)) for i, words in enumerate(rows)]
    else:
        instances = [rel_instance(" ".join(["Ann"] + words + ["Bob"]), "Ann", "Bob", iid=i)
                     for i, words in enumerate(rows)]
    task_kind = TEXT_TASK if kind == KEYWORD else RELATION_TASK
    specs = draw(st.lists(st.tuples(st.sampled_from(MATRIX_PAYLOADS[kind]),
                                    st.integers(0, len(classes) - 1)), max_size=6))
    return instances, [compile_lf(kind, payload, cls, classes, task_kind) for payload, cls in specs]


@settings(max_examples=200, deadline=None)
@given(matrix_cases(), st.booleans())
def test_build_matrix_equals_the_stacked_vote_columns(case, given_index):
    instances, lfs = case
    matrix = build_matrix(lfs, instances, KeywordIndex(instances) if given_index else None)
    want = np.array([vote_column(lf, instances) for lf in lfs],
                    dtype=np.int64).reshape(len(lfs), len(instances)).T
    assert (matrix.shape, matrix.dtype, matrix.tobytes()) == (want.shape, want.dtype,
                                                              want.tobytes())


class TestStats:
    def test_hand_counted(self):
        # 100 instances; LF fires on 20, correct on 13
        insts = []
        for i in range(100):
            if i < 13:
                insts.append(Instance(id=i, text="free stuff", gold_label=1))
            elif i < 20:
                insts.append(Instance(id=i, text="free stuff", gold_label=0))
            else:
                insts.append(Instance(id=i, text="nothing", gold_label=0))
        stats = lf_stats(kw("free"), insts)
        assert stats.coverage == pytest.approx(0.20)
        assert stats.accuracy == pytest.approx(0.65)
        assert stats.n_active == 20

    def test_inactive_lf(self):
        insts = [Instance(id=0, text="nothing", gold_label=0)]
        stats = lf_stats(kw("free"), insts)
        assert stats.coverage == 0.0
        assert stats.accuracy is None

    def test_all_active_all_correct(self):
        insts = [Instance(id=i, text="free", gold_label=1) for i in range(5)]
        stats = lf_stats(kw("free"), insts)
        assert stats.coverage == 1.0
        assert stats.accuracy == 1.0

    def test_accuracy_unavailable_without_gold(self):
        insts = [Instance(id=0, text="free")]
        stats = lf_stats(kw("free"), insts)
        assert stats.coverage == 1.0
        assert stats.accuracy is None


def test_lf_serialization_round_trip(tmp_path):
    lfs = [kw("free"), kw("my channel", 0)]
    path = tmp_path / "lfs.jsonl"
    labelfns.save_lfs(lfs, path)
    reloaded = labelfns.load_lfs(path, CLASSES, TEXT_TASK)
    assert [(lf.payload, lf.target_class) for lf in reloaded] == \
        [("free", 1), ("my channel", 0)]


@pytest.mark.parametrize("line, match", [
    ('{"kind": "keyword", "payload": "a b c d", "class": 1}', r"line 2 .*ngram length 4"),
    ('["x"]', r"line 2 .*not a JSON object"),
    ('{"kind": "keyword"', r"line 2 .*invalid JSON"),
    ('{"kind": "keyword", "payload": 5, "class": 1}', r"line 2 .*payload 5 is not a string"),
])
def test_load_lfs_names_the_bad_line(tmp_path, line, match):
    path = tmp_path / "lfs.jsonl"
    path.write_text('{"kind": "keyword", "payload": "free", "class": 1}\n' + line + "\n")
    with pytest.raises(LFError, match=match):
        labelfns.load_lfs(path, CLASSES, TEXT_TASK)
