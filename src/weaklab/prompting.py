"""Prompt construction, response parsing and self-consistency aggregation.

Responses follow a line-oriented grammar declared to the model in the
system message:

    REASONING: <free text, optional, required under chain-of-thought>
    LABEL: <class name>
    KEYWORDS: k1; k2          (text tasks; NONE for an empty list)
    PATTERNS:                 (relation tasks; NONE for an empty list)
    - <regex>

A response without a recognizable LABEL line is recorded as unparseable,
never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .corpus import RELATION_TASK, TEXT_TASK, Dataset, EmbeddingTable, Instance


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant
    content: str


@dataclass
class PromptSpec:
    method: str = "few_shot"  # few_shot | cot | self_consistency
    n_responses: int = 0  # 0 = method default (1, or 10 for self-consistency)
    ic_mode: str = "balanced"  # balanced | kate
    k_per_class: int = 1
    k_total: int = 2
    temperature: float = -1.0  # negative = method default (0.0, or 1.0 for SC)

    def __post_init__(self):
        if self.method not in ("few_shot", "cot", "self_consistency"):
            raise ValueError("unknown prompting method %r" % self.method)
        if self.ic_mode not in ("balanced", "kate"):
            raise ValueError("unknown in-context example mode %r" % self.ic_mode)
        if self.n_responses == 0:
            self.n_responses = 10 if self.method == "self_consistency" else 1
        if self.n_responses < 1:
            raise ValueError("n_responses must be >= 1")
        if self.k_per_class < 1 or self.k_total < 1:
            raise ValueError("in-context example counts must be >= 1")
        if self.temperature < 0:
            self.temperature = 1.0 if self.method == "self_consistency" else 0.0

    @property
    def cot(self) -> bool:
        # self-consistency samples on top of chain-of-thought prompting
        return self.method in ("cot", "self_consistency")


@dataclass
class ICExample:
    instance: Instance
    label: int
    keywords: list = field(default_factory=list)
    patterns: list = field(default_factory=list)
    rationale: Optional[str] = None


@dataclass
class ParsedResponse:
    label: Optional[int]  # None = unparseable
    keywords: list = field(default_factory=list)
    patterns: list = field(default_factory=list)
    rationale: Optional[str] = None

    @property
    def parseable(self) -> bool:
        return self.label is not None


def _class_block(dataset: Dataset) -> str:
    return "\n".join("- %s" % name for name in dataset.classes)


def _format_contract(task_kind: str, cot: bool) -> str:
    lines = ["Answer using exactly this format:"]
    if cot:
        lines.append("REASONING: <step-by-step reasoning leading to your label>")
    lines.append("LABEL: <one class name from the list above>")
    if task_kind == TEXT_TASK:
        lines.append("KEYWORDS: <up to three short indicative phrases of 1-3 words, "
                     "separated by ';', or NONE>")
    else:
        lines.append("PATTERNS:")
        lines.append("- <a regular expression matching the passage; use {{E1}} and {{E2}} "
                     "as placeholders for the two entities; write 'PATTERNS: NONE' if none>")
    if cot:
        lines.append("Provide a step-by-step reasoning process before predicting the label.")
    return "\n".join(lines)


def system_message(dataset: Dataset, cot: bool, task_description: Optional[str] = None) -> ChatMessage:
    description = task_description
    if description is None:
        if dataset.task_kind == TEXT_TASK:
            description = "Classify the passage into one of the classes below."
        else:
            description = ("Classify the relationship between the two marked entities "
                           "in the passage into one of the classes below.")
    content = "%s\nClasses:\n%s\n%s" % (description, _class_block(dataset),
                                        _format_contract(dataset.task_kind, cot))
    return ChatMessage(role="system", content=content)


def render_instance(instance: Instance, task_kind: str) -> str:
    """What a prompt shows of an instance: its passage and, for a relation
    task instance with entities, both entities and the question."""
    lines = ["PASSAGE: %s" % instance.text]
    if task_kind == RELATION_TASK and instance.entity1 is not None:
        lines.append("ENTITY1: %s" % instance.entity1.text)
        lines.append("ENTITY2: %s" % instance.entity2.text)
        lines.append("What is the relationship between ENTITY1 and ENTITY2?")
    return "\n".join(lines)


def render_response(label_name: str, task_kind: str, keywords=(), patterns=(),
                    rationale: Optional[str] = None) -> str:
    lines = []
    if rationale:
        lines.append("REASONING: %s" % rationale)
    lines.append("LABEL: %s" % label_name)
    if task_kind == TEXT_TASK:
        lines.append("KEYWORDS: %s" % ("; ".join(keywords) if keywords else "NONE"))
    else:
        if patterns:
            lines.append("PATTERNS:")
            lines.extend("- %s" % p for p in patterns)
        else:
            lines.append("PATTERNS: NONE")
    return "\n".join(lines)


def build_task_prompt(dataset: Dataset, query: Instance, ic_examples, cot: bool,
                      task_description: Optional[str] = None):
    """System + alternating example user/assistant turns + the query turn."""
    messages = [system_message(dataset, cot, task_description)]
    for example in ic_examples:
        if cot and not example.rationale:
            raise ValueError("chain-of-thought prompting needs a rationale for every "
                             "in-context example (instance %d)" % example.instance.id)
        messages.append(ChatMessage(role="user",
                                    content=render_instance(example.instance, dataset.task_kind)))
        messages.append(ChatMessage(role="assistant", content=render_response(
            dataset.classes[example.label], dataset.task_kind,
            keywords=example.keywords, patterns=example.patterns,
            rationale=example.rationale if cot else None)))
    messages.append(ChatMessage(role="user", content=render_instance(query, dataset.task_kind)))
    return messages


def build_annotation_prompt(dataset: Dataset, example: Instance, cot: bool,
                            task_description: Optional[str] = None):
    """Ask for payloads (and a rationale under CoT) justifying a given gold label."""
    if example.gold_label is None:
        raise ValueError("annotation prompt needs a gold-labeled example")
    want = "keywords" if dataset.task_kind == TEXT_TASK else "patterns"
    lines = [render_instance(example, dataset.task_kind),
             "LABEL: %s" % dataset.classes[example.gold_label]]
    if cot:
        lines.append("The label above is correct. Provide a REASONING line explaining it, "
                     "then repeat the LABEL line and give indicative %s in the declared format." % want)
    else:
        lines.append("The label above is correct. Repeat the LABEL line and give indicative "
                     "%s in the declared format." % want)
    return [system_message(dataset, cot, task_description),
            ChatMessage(role="user", content="\n".join(lines))]


_KEYS = ("reasoning:", "label:", "keywords:", "patterns:")


def _key_of(line: str):
    low = line.strip().lower()
    for key in _KEYS:
        if low.startswith(key):
            return key, line.strip()[len(key):].strip()
    return None, None


def parse_response(text: str, task_kind: str, classes) -> ParsedResponse:
    """Line-oriented, case-insensitive parse; never raises."""
    lower_classes = {name.lower(): idx for idx, name in enumerate(classes)}
    label = None
    keywords: list = []
    patterns: list = []
    rationale_lines: list = []
    mode = None
    for line in text.splitlines():
        key, value = _key_of(line)
        if key == "label:":
            mode = None
            label = lower_classes.get(value.lower())
            if label is None:
                return ParsedResponse(label=None)
        elif key == "reasoning:":
            mode = "reasoning"
            if value:
                rationale_lines.append(value)
        elif key == "keywords:":
            mode = None
            if task_kind == TEXT_TASK and value.upper() != "NONE":
                keywords.extend(k.strip() for k in value.split(";") if k.strip())
        elif key == "patterns:":
            mode = "patterns" if task_kind == RELATION_TASK else None
            if value.upper() == "NONE":
                mode = None
        elif mode == "patterns" and line.strip().startswith("- "):
            patterns.append(line.strip()[2:].strip())
        elif mode == "reasoning" and line.strip():
            rationale_lines.append(line.strip())
    if label is None:
        return ParsedResponse(label=None)
    rationale = " ".join(rationale_lines) if rationale_lines else None
    return ParsedResponse(label=label, keywords=keywords, patterns=patterns, rationale=rationale)


def aggregate_sc(responses, n_classes: int):
    """Self-consistency aggregation over parsed responses.

    Majority vote over parseable labels (ties to the lowest class index; no
    parseable label at all yields None) and the first-occurrence union of
    every response's payloads regardless of that response's own label.
    """
    if not responses:
        raise ValueError("need at least one response")
    counts = [0] * n_classes
    for r in responses:
        if r.parseable:
            counts[r.label] += 1
    label = None
    if any(counts):
        label = counts.index(max(counts))
    keywords: list = []
    patterns: list = []
    seen_k: set = set()
    seen_p: set = set()
    for r in responses:
        for k in r.keywords:
            if k not in seen_k:
                seen_k.add(k)
                keywords.append(k)
        for p in r.patterns:
            if p not in seen_p:
                seen_p.add(p)
                patterns.append(p)
    return label, keywords, patterns


def select_ic_balanced(valid_split, k_per_class: int, rng, annotations: dict, n_classes: int):
    """A fixed, seeded class-balanced example set from annotated validation
    instances. annotations maps instance id to a dict with optional
    keywords/patterns/rationale."""
    examples = []
    for cls in range(n_classes):
        candidates = [inst for inst in valid_split
                      if inst.gold_label == cls and inst.id in annotations]
        if len(candidates) < k_per_class:
            raise ValueError("class %d has %d annotated validation examples, need %d"
                             % (cls, len(candidates), k_per_class))
        candidates.sort(key=lambda inst: inst.id)
        chosen = rng.sample(candidates, k_per_class)
        for inst in chosen:
            ann = annotations[inst.id]
            examples.append(ICExample(instance=inst, label=cls,
                                      keywords=list(ann.get("keywords") or []),
                                      patterns=list(ann.get("patterns") or []),
                                      rationale=ann.get("rationale")))
    return examples


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    return 1.0 - float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def kate_neighbors(query_id: int, candidate_ids, embeddings: EmbeddingTable, k_total: int):
    """The k candidates nearest to the query under cosine distance, ties to
    the lowest id. Exact full scan, no approximation."""
    q = embeddings.vector(query_id)
    scored = sorted((cosine_distance(q, embeddings.vector(cid)), cid) for cid in candidate_ids)
    return [cid for _, cid in scored[:k_total]]


class KateSelector:
    """Nearest-neighbor in-context example selection with cached automatic
    annotation of the chosen validation instances."""

    def __init__(self, valid_split, embeddings: EmbeddingTable, annotate):
        # annotate(instance, cot) -> (keywords, patterns, rationale)
        self.valid_by_id = {inst.id: inst for inst in valid_split}
        self.embeddings = embeddings
        self.annotate = annotate
        self._cache: dict = {}

    def select(self, query: Instance, k_total: int, cot: bool):
        ids = kate_neighbors(query.id, sorted(self.valid_by_id), self.embeddings, k_total)
        examples = []
        for iid in ids:
            key = (iid, cot)
            if key not in self._cache:
                self._cache[key] = self.annotate(self.valid_by_id[iid], cot)
            keywords, patterns, rationale = self._cache[key]
            examples.append(ICExample(instance=self.valid_by_id[iid],
                                      label=self.valid_by_id[iid].gold_label,
                                      keywords=keywords, patterns=patterns, rationale=rationale))
        return examples
