import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaklab.corpus import (
    Dataset,
    EmbeddingTable,
    EntitySpan,
    Instance,
    RELATION_TASK,
    TEXT_TASK,
)
from weaklab.prompting import (
    ICExample,
    KateSelector,
    ParsedResponse,
    PromptSpec,
    aggregate_sc,
    build_annotation_prompt,
    build_task_prompt,
    cosine_distance,
    kate_neighbors,
    parse_response,
    render_response,
    select_ic_balanced,
    system_message,
)

CLASSES = ["HAM", "SPAM"]


def _dataset(task=TEXT_TASK):
    return Dataset(task_kind=task, classes=list(CLASSES), default_class=None,
                   train=[], valid=[], test=[])


class TestPromptSpec:
    def test_defaults(self):
        spec = PromptSpec()
        assert spec.n_responses == 1 and spec.temperature == 0.0 and not spec.cot

    def test_self_consistency_defaults(self):
        spec = PromptSpec(method="self_consistency")
        assert spec.n_responses == 10 and spec.temperature == 1.0 and spec.cot

    def test_cot_flag(self):
        assert PromptSpec(method="cot").cot
        assert PromptSpec(method="cot").n_responses == 1

    def test_explicit_overrides_survive(self):
        spec = PromptSpec(method="self_consistency", n_responses=5, temperature=0.7)
        assert spec.n_responses == 5 and spec.temperature == 0.7

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            PromptSpec(method="zero_shot")


class TestPromptConstruction:
    def test_message_shape(self):
        ds = _dataset()
        ex = [ICExample(instance=Instance(id=1, text="great song", gold_label=0), label=0),
              ICExample(instance=Instance(id=2, text="sub my channel", gold_label=1), label=1)]
        messages = build_task_prompt(ds, Instance(id=9, text="free stuff"), ex, cot=False)
        assert [m.role for m in messages] == \
            ["system", "user", "assistant", "user", "assistant", "user"]
        assert messages[-1].content == "PASSAGE: free stuff"
        assert "LABEL:" in messages[2].content

    def test_system_message_lists_classes_and_format(self):
        msg = system_message(_dataset(), cot=False)
        assert "- HAM" in msg.content and "- SPAM" in msg.content
        assert "LABEL:" in msg.content and "KEYWORDS:" in msg.content

    def test_cot_system_message_requests_reasoning(self):
        msg = system_message(_dataset(), cot=True)
        assert "REASONING:" in msg.content
        assert "step-by-step" in msg.content

    def test_cot_prompt_requires_rationales(self):
        ds = _dataset()
        ex = [ICExample(instance=Instance(id=1, text="x", gold_label=0), label=0)]
        with pytest.raises(ValueError, match="rationale"):
            build_task_prompt(ds, Instance(id=9, text="y"), ex, cot=True)

    def test_relation_query_includes_entities(self):
        ds = _dataset(RELATION_TASK)
        inst = Instance(id=1, text="alice married bob", gold_label=None,
                        entity1=EntitySpan("alice", 0, 5), entity2=EntitySpan("bob", 14, 17))
        messages = build_task_prompt(ds, inst, [], cot=False)
        assert "ENTITY1: alice" in messages[-1].content
        assert "ENTITY2: bob" in messages[-1].content
        assert "PATTERNS:" in messages[0].content

    def test_annotation_prompt_carries_gold_label(self):
        ds = _dataset()
        messages = build_annotation_prompt(ds, Instance(id=1, text="free gift", gold_label=1),
                                           cot=False)
        assert len(messages) == 2
        assert "LABEL: SPAM" in messages[1].content

    def test_annotation_prompt_needs_gold(self):
        with pytest.raises(ValueError, match="gold"):
            build_annotation_prompt(_dataset(), Instance(id=1, text="x"), cot=False)


class TestParse:
    def test_basic_text_response(self):
        parsed = parse_response("LABEL: SPAM\nKEYWORDS: free gift; my channel",
                                TEXT_TASK, CLASSES)
        assert parsed.label == 1
        assert parsed.payloads == ["free gift", "my channel"]

    def test_case_insensitive(self):
        parsed = parse_response("label: spam\nkeywords: FREE", TEXT_TASK, CLASSES)
        assert parsed.label == 1 and parsed.payloads == ["FREE"]

    def test_keywords_none(self):
        parsed = parse_response("LABEL: HAM\nKEYWORDS: NONE", TEXT_TASK, CLASSES)
        assert parsed.label == 0 and parsed.payloads == []

    def test_missing_label_is_unparseable(self):
        parsed = parse_response("KEYWORDS: free", TEXT_TASK, CLASSES)
        assert not parsed.parseable

    def test_unknown_class_is_unparseable(self):
        parsed = parse_response("LABEL: MAYBE\nKEYWORDS: free", TEXT_TASK, CLASSES)
        assert not parsed.parseable

    def test_garbage_never_raises(self):
        assert not parse_response("", TEXT_TASK, CLASSES).parseable
        assert not parse_response("%%%\n\x00", TEXT_TASK, CLASSES).parseable

    def test_reasoning_captured(self):
        parsed = parse_response(
            "REASONING: promotional language\nand a link\nLABEL: SPAM\nKEYWORDS: NONE",
            TEXT_TASK, CLASSES)
        assert parsed.rationale == "promotional language and a link"

    def test_pattern_block(self):
        text = "LABEL: SPAM\nPATTERNS:\n- {{E1}} married {{E2}}\n- {{E1}} and {{E2}} wed"
        parsed = parse_response(text, RELATION_TASK, CLASSES)
        assert parsed.payloads == ["{{E1}} married {{E2}}", "{{E1}} and {{E2}} wed"]

    def test_patterns_none(self):
        parsed = parse_response("LABEL: HAM\nPATTERNS: NONE\n- stray", RELATION_TASK, CLASSES)
        assert parsed.payloads == []

    def test_text_response_ignores_a_pattern_block(self):
        text = "LABEL: SPAM\nPATTERNS:\n- {{E1}} wed {{E2}}\nKEYWORDS: free gift"
        assert parse_response(text, TEXT_TASK, CLASSES).payloads == ["free gift"]

    def test_relation_response_ignores_a_keywords_line(self):
        text = "LABEL: SPAM\nKEYWORDS: free; gift\nPATTERNS:\n- {{E1}} wed {{E2}}"
        assert parse_response(text, RELATION_TASK, CLASSES).payloads == ["{{E1}} wed {{E2}}"]

    def test_round_trip_with_renderer(self):
        text = render_response("SPAM", TEXT_TASK, ["free gift", "click here"],
                               rationale="looks promotional")
        parsed = parse_response(text, TEXT_TASK, CLASSES)
        assert parsed.label == 1
        assert parsed.payloads == ["free gift", "click here"]
        assert parsed.rationale == "looks promotional"

    @given(st.text(max_size=200))
    def test_never_raises_on_arbitrary_text(self, text):
        parse_response(text, TEXT_TASK, CLASSES)


class TestSelfConsistency:
    def test_majority_label(self):
        responses = [ParsedResponse(label=1), ParsedResponse(label=1), ParsedResponse(label=0)]
        label, _ = aggregate_sc(responses, 2)
        assert label == 1

    def test_tie_goes_to_lowest_class(self):
        responses = [ParsedResponse(label=1), ParsedResponse(label=0)]
        assert aggregate_sc(responses, 2)[0] == 0

    def test_unparseable_ignored_in_vote(self):
        responses = [ParsedResponse(label=None), ParsedResponse(label=None),
                     ParsedResponse(label=1)]
        assert aggregate_sc(responses, 2)[0] == 1

    def test_all_unparseable_yields_none(self):
        assert aggregate_sc([ParsedResponse(label=None)], 2)[0] is None

    def test_payload_union_first_occurrence_order(self):
        responses = [
            ParsedResponse(label=1, payloads=["free", "gift"]),
            ParsedResponse(label=0, payloads=["gift", "click"]),
        ]
        _, payloads = aggregate_sc(responses, 2)
        assert list(payloads) == ["free", "gift", "click"]

    def test_payloads_collected_from_minority_responses(self):
        responses = [
            ParsedResponse(label=1, payloads=["free"]),
            ParsedResponse(label=1, payloads=[]),
            ParsedResponse(label=0, payloads=["melody"]),
        ]
        label, payloads = aggregate_sc(responses, 2)
        assert label == 1 and list(payloads) == ["free", "melody"]

    def test_payloads_map_to_their_first_proposing_response(self):
        responses = [
            ParsedResponse(label=None),
            ParsedResponse(label=1, payloads=["free"]),
            ParsedResponse(label=0, payloads=["melody", "free"]),
            ParsedResponse(label=1, payloads=["gift", "melody"]),
        ]
        label, payloads = aggregate_sc(responses, 2)
        assert label == 1
        # "melody" is first proposed by the minority-label response 2
        assert list(payloads.items()) == [("free", 1), ("melody", 2), ("gift", 3)]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate_sc([], 2)


class TestBalancedSelection:
    def _valid(self):
        return [Instance(id=i, text="t%d" % i, gold_label=i % 2) for i in range(8)]

    def test_one_per_class(self):
        annotations = {i: {"keywords": ["k%d" % i]} for i in range(8)}
        examples = select_ic_balanced(self._valid(), 1, random.Random(0), annotations, 2, TEXT_TASK)
        assert len(examples) == 2
        assert [e.label for e in examples] == [0, 1]

    def test_deterministic_given_seed(self):
        annotations = {i: {} for i in range(8)}
        a = select_ic_balanced(self._valid(), 2, random.Random(5), annotations, 2, TEXT_TASK)
        b = select_ic_balanced(self._valid(), 2, random.Random(5), annotations, 2, TEXT_TASK)
        assert [e.instance.id for e in a] == [e.instance.id for e in b]

    def test_only_annotated_instances_used(self):
        annotations = {0: {}, 1: {}}
        examples = select_ic_balanced(self._valid(), 1, random.Random(0), annotations, 2, TEXT_TASK)
        assert {e.instance.id for e in examples} == {0, 1}

    def test_insufficient_class_examples(self):
        annotations = {0: {}}
        with pytest.raises(ValueError, match="class 1"):
            select_ic_balanced(self._valid(), 1, random.Random(0), annotations, 2, TEXT_TASK)


class TestKate:
    def _embeddings(self):
        rows = {
            1: np.array([1.0, 0.0]),
            2: np.array([0.9, 0.1]),
            3: np.array([0.0, 1.0]),
            9: np.array([1.0, 0.05]),
        }
        return EmbeddingTable(rows=rows, dim=2)

    def test_cosine_distance(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(0.0)
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_nearest_neighbors(self):
        assert kate_neighbors(9, [1, 2, 3], self._embeddings(), 2) == [1, 2]

    def test_tie_breaks_to_lowest_id(self):
        rows = {1: np.array([1.0, 0.0]), 2: np.array([1.0, 0.0]), 9: np.array([1.0, 0.0])}
        table = EmbeddingTable(rows=rows, dim=2)
        assert kate_neighbors(9, [2, 1], table, 1) == [1]

    def test_selector_caches_annotations(self):
        calls = []

        def annotate(inst):
            calls.append(inst.id)
            return (["kw"], None)

        valid = [Instance(id=i, text="v", gold_label=0) for i in (1, 2, 3)]
        selector = KateSelector(valid, self._embeddings(), annotate)
        query = Instance(id=9, text="q")
        first = selector.select(query, 2)
        second = selector.select(query, 2)
        assert [e.instance.id for e in first] == [1, 2]
        assert [e.instance.id for e in second] == [1, 2]
        assert calls == [1, 2]  # second pass served from cache
        assert first[0].payloads == ["kw"]
