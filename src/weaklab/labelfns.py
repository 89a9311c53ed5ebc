"""Label functions: compilation, application, weak-label matrices, statistics.

Two LF kinds exist: keyword LFs (a 1-3 token phrase implies a class, text
tasks only) and pattern LFs (a regex with {{E1}}/{{E2}} entity placeholders
implies a class, relation tasks only). Regex payloads are untrusted input
and are restricted to a linear-time-matchable subset.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .corpus import RELATION_TASK, TEXT_TASK, Instance, extract_ngrams, read_jsonl, tokenize

try:  # the sre modules moved under re in 3.11
    from re import _constants as sre_constants
    from re import _parser as sre_parser
except ImportError:  # pragma: no cover
    import sre_constants
    import sre_parse as sre_parser

ABSTAIN = -1

KEYWORD = "keyword"
PATTERN = "pattern"

# Source-length cap standing in for a compiled-program size cap; CPython does
# not expose the compiled size, and program size is linear in source length
# once backreferences and lookaround are excluded.
MAX_PATTERN_SOURCE = 100_000

_E1 = "{{E1}}"
_E2 = "{{E2}}"
_PLACEHOLDER = re.compile(r"\{\{E[12]\}\}")
_MARK = "(?P<%s>)"  # what a placeholder becomes in its template's parse
# An entity right after `{`, `,` or a digit could become or extend a repeat
# count or an octal escape; one next to a `{{E` that is no placeholder could
# complete an `{{E2}}`, which the second substitution then replaces. The
# template parse cannot see either: `{{{E1}}}` parses with its group intact.
_UNSAFE_PLACEMENT = re.compile(r"[{,0-9]\{\{E[12]\}\}|\{\{E(?![12]\}\})")

_REPEAT_OPS = {sre_constants.MAX_REPEAT, sre_constants.MIN_REPEAT,
               getattr(sre_constants, "POSSESSIVE_REPEAT", None)}  # the last from 3.11
_FORBIDDEN_OPS = {
    sre_constants.GROUPREF,
    sre_constants.GROUPREF_EXISTS,
    sre_constants.ASSERT,
    sre_constants.ASSERT_NOT,
}


class LFError(ValueError):
    """Invalid label-function specification or misuse."""


@dataclass(frozen=True)
class Provenance:
    iteration: int = -1
    query_id: int = -1
    response_index: int = -1


@dataclass(frozen=True)
class LabelFunction:
    kind: str  # KEYWORD | PATTERN
    payload: str
    target_class: int
    provenance: Provenance = field(default_factory=Provenance)
    tokens: tuple = ()  # keyword LFs: the tokenized phrase

    def __str__(self):
        return "%s(%r -> %d)" % (self.kind, self.payload, self.target_class)


def _walk_parsed(parsed, marks):
    for op, av in parsed:
        if op in _FORBIDDEN_OPS:
            raise LFError("regex uses forbidden construct %s (backreference/lookaround)" % op)
        if op is sre_constants.SUBPATTERN:
            _walk_parsed(av[3], marks)
        elif op is sre_constants.BRANCH:
            for branch in av[1]:
                _walk_parsed(branch, marks)
        elif op in _REPEAT_OPS:
            body = av[2]
            if len(body) == 1 and body[0][0] is sre_constants.SUBPATTERN and body[0][1][0] in marks:
                raise LFError("a repeat quantifies an entity placeholder")
            _walk_parsed(body, marks)
        elif op is getattr(sre_constants, "ATOMIC_GROUP", None):
            _walk_parsed(av, marks)


def _parse_template(payload: str):
    """Parse a pattern template with each placeholder as an empty named group.

    Raises LFError unless every placeholder leaves its group in the parse
    (not inside a class, after a backslash or in a comment), no repeat
    quantifies one directly, no construct is forbidden, the parse warns of
    no future change of meaning (a nested set such as `[[a]`) and
    `_UNSAFE_PLACEMENT` finds nothing. Substitution then only puts escaped
    literals where the groups stand, whatever the entities.
    """
    if len(payload) > MAX_PATTERN_SOURCE:
        raise LFError("regex source exceeds %d characters" % MAX_PATTERN_SOURCE)
    if _UNSAFE_PLACEMENT.search(payload):
        raise LFError("entity placeholder where substitution would change the regex")
    prefix = "lfmark"
    while prefix in payload:  # so no group the template names itself can pass for a mark
        prefix += "_"
    names = ["%s%d" % (prefix, k) for k in range(len(_PLACEHOLDER.findall(payload)))]
    marked = iter(names)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", FutureWarning)
            parsed = sre_parser.parse(
                _PLACEHOLDER.sub(lambda m: _MARK % next(marked), payload), re.IGNORECASE)
    except re.error as exc:  # re-raised at the position in the template, with its line
        pos = None if exc.pos is None else _template_position(payload, names, exc.pos)
        raise LFError("regex fails to compile with each placeholder as a group: %s"
                      % re.error(exc.msg, payload, pos))
    except FutureWarning as exc:  # e.g. "Possible nested set": a later Python reads it otherwise
        message = re.sub(r"(?<=at position )\d+",
                         lambda m: str(_template_position(payload, names, int(m.group()))),
                         str(exc))
        raise LFError("regex whose meaning changes in a later Python: %s" % message)
    marks = {parsed.state.groupdict.get(name) for name in names}
    if None in marks:
        raise LFError("entity placeholder inside a class, an escape or a comment")
    _walk_parsed(parsed, marks)
    return parsed


def _template_position(payload: str, names, pos: int) -> int:
    """The position in `payload` of position `pos` of its marked parse
    source, where the k-th placeholder stands as group `names[k]`; a
    position inside a group is its placeholder's."""
    shift = 0  # marked length minus template length, up to the last group passed
    for name, m in zip(names, _PLACEHOLDER.finditer(payload)):
        start = m.start() + shift
        if pos < start:
            break
        width = len(_MARK % name)
        if pos < start + width:
            return m.start()
        shift += width - len(m.group())
    return pos - shift


def _substitute_entities(source: str, e1: str, e2: str) -> str:
    return source.replace(_E1, re.escape(e1)).replace(_E2, re.escape(e2))


def _required_literal(payload: str):
    """A compiled search for text that every match of the pattern contains,
    whatever the entities, or None when the template proves no such text.

    The text is the longest run of top-level LITERAL ops in the template's
    parse (`_parse_template`). Each entity goes in as escaped atoms where its
    placeholder's group stands, so it breaks a run but cannot change one.
    The search uses the template's global flags, so it folds case as the
    pattern does.
    """
    parsed = _parse_template(payload)
    runs = ["".join(chr(av) for _, av in run) for literal, run in
            itertools.groupby(parsed, key=lambda item: item[0] is sre_constants.LITERAL) if literal]
    best = max(runs, key=len, default="")
    return re.compile(re.escape(best), parsed.state.flags) if best else None


def compile_lf(kind, payload, target_class, classes, task_kind, provenance=None) -> LabelFunction:
    """Validate and compile a candidate LF; raises LFError on any violation."""
    if provenance is None:
        provenance = Provenance()
    if not isinstance(target_class, int) or not 0 <= target_class < len(classes):
        raise LFError("label not in candidate classes: %r" % (target_class,))
    if kind == KEYWORD:
        if task_kind != TEXT_TASK:
            raise LFError("keyword LFs apply only to text classification tasks")
        tokens = tuple(tokenize(payload))
        if not 1 <= len(tokens) <= 3:
            raise LFError("ngram length %d outside 1-3" % len(tokens))
        return LabelFunction(kind=KEYWORD, payload=payload, target_class=target_class,
                             provenance=provenance, tokens=tokens)
    if kind == PATTERN:
        if task_kind != RELATION_TASK:
            raise LFError("pattern LFs apply only to relation classification tasks")
        if not isinstance(payload, str) or not payload:
            raise LFError("empty pattern payload")
        _parse_template(payload)
        if re.compile(_substitute_entities(payload, "x", "x"), re.IGNORECASE).search("") is not None:
            raise LFError("pattern matches the empty string")
        return LabelFunction(kind=PATTERN, payload=payload, target_class=target_class,
                             provenance=provenance)
    raise LFError("unknown LF kind %r" % (kind,))


def _contains_seq(tokens, sub) -> bool:
    n, k = len(tokens), len(sub)
    if k == 0 or k > n:
        return False
    first = sub[0]
    for i in range(n - k + 1):
        if tokens[i] == first and tuple(tokens[i : i + k]) == sub:
            return True
    return False


def apply_lf(lf: LabelFunction, instance: Instance) -> int:
    """Evaluate one LF on one instance, returning a class index or ABSTAIN."""
    if lf.kind == KEYWORD:
        if _contains_seq(tokenize(instance.text), lf.tokens):
            return lf.target_class
        return ABSTAIN
    if instance.entity1 is None or instance.entity2 is None:
        raise LFError("pattern LF applied to an instance without entities")
    source = _substitute_entities(lf.payload, instance.entity1.text, instance.entity2.text)
    if re.compile(source, re.IGNORECASE).search(instance.text) is not None:
        return lf.target_class
    return ABSTAIN


class KeywordIndex:
    """One split's interned n-grams and a memo of LF matches.

    Each instance's 1-3-grams (`extract_ngrams` order, so first occurrence
    first and no repeats) are stored as integer ids in CSR form: row i holds
    `ids[indptr[i]:indptr[i + 1]]`, and `gram_ids` maps a gram to its id.
    A keyword LF fires on the rows that hold its gram's id. A pattern LF
    goes through `apply_lf` only on instances that contain its template's
    required literal (`_required_literal`), plus those without entities, on
    which `apply_lf` raises; every instance when the template proves no
    literal. Whether an LF fires depends on its kind and payload alone, so
    each (kind, payload) is matched once per index and its vote column is
    then one `np.where`, whatever the target class.

    The n-grams are interned on first use of `gram_ids`, `ids` or `indptr`,
    so an index that only matches pattern LFs never tokenizes its split.
    """

    def __init__(self, instances):
        self.instances = list(instances)
        self._matches = {}  # (kind, payload) -> bool array over instances

    @functools.cached_property
    def _interned(self):
        gram_ids: dict = {}  # gram -> id, numbered in first-seen order
        ids, indptr = [], [0]
        for inst in self.instances:
            ids.extend(gram_ids.setdefault(gram, len(gram_ids))
                       for gram in extract_ngrams(tokenize(inst.text), 1, 3))
            indptr.append(len(ids))
        return gram_ids, np.array(ids, dtype=np.int32), np.array(indptr, dtype=np.int64)

    gram_ids = property(lambda self: self._interned[0])
    ids = property(lambda self: self._interned[1])
    indptr = property(lambda self: self._interned[2])

    def _match(self, lf: LabelFunction) -> np.ndarray:
        hits = np.zeros(len(self.instances), dtype=bool)
        if lf.kind == KEYWORD:
            gram = self.gram_ids.get(" ".join(lf.tokens))
            if gram is not None:
                hits[np.searchsorted(self.indptr, np.flatnonzero(self.ids == gram),
                                     side="right") - 1] = True
            return hits
        literal = _required_literal(lf.payload)
        for i, inst in enumerate(self.instances):
            if (literal is None or inst.entity1 is None or inst.entity2 is None
                    or literal.search(inst.text) is not None):
                hits[i] = apply_lf(lf, inst) != ABSTAIN
        return hits

    def votes(self, lf: LabelFunction) -> np.ndarray:
        key = (lf.kind, lf.payload)
        if key not in self._matches:
            self._matches[key] = self._match(lf)
        return np.where(self._matches[key], lf.target_class, ABSTAIN)


def build_matrix(lfs, instances, index: Optional[KeywordIndex] = None) -> np.ndarray:
    """Apply every LF to every instance: the (n, m) vote array, entries in
    {0..C-1} | {ABSTAIN}, columns in LF admission order."""
    instances = list(instances)
    if index is None:
        index = KeywordIndex(instances)
    if lfs:
        return np.stack([index.votes(lf) for lf in lfs], axis=1)
    return np.zeros((len(instances), 0), dtype=np.int64)


@dataclass(frozen=True)
class LFStats:
    coverage: float
    accuracy: Optional[float]  # None when no active instance or gold missing
    n_active: int


def measure_accuracy(votes: np.ndarray, gold: np.ndarray):
    """Accuracy over active instances; None when the LF never fires."""
    active = votes != ABSTAIN
    return float((votes[active] == gold[active]).mean()) if active.any() else None


def lf_stats(lf: LabelFunction, instances, votes: Optional[np.ndarray] = None) -> LFStats:
    """Coverage and accuracy of one LF over a split (accuracy needs gold labels)."""
    instances = list(instances)
    if votes is None:
        votes = np.array([apply_lf(lf, inst) for inst in instances])
    active = np.flatnonzero(votes != ABSTAIN)
    golds = [instances[i].gold_label for i in active]
    accuracy = None if None in golds else measure_accuracy(votes[active], np.array(golds))
    return LFStats(coverage=len(active) / len(instances) if instances else 0.0,
                   accuracy=accuracy, n_active=len(active))


def lf_to_record(lf: LabelFunction) -> dict:
    return {
        "kind": lf.kind,
        "payload": lf.payload,
        "class": lf.target_class,
        "iteration": lf.provenance.iteration,
        "query_id": lf.provenance.query_id,
        "response_index": lf.provenance.response_index,
    }


def lf_from_record(record, classes, task_kind) -> LabelFunction:
    prov = Provenance(
        iteration=record.get("iteration", -1),
        query_id=record.get("query_id", -1),
        response_index=record.get("response_index", -1),
    )
    if not isinstance(record["payload"], str):
        raise LFError("payload %r is not a string" % (record["payload"],))
    return compile_lf(record["kind"], record["payload"], record["class"], classes, task_kind, prov)


def save_lfs(lfs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for lf in lfs:
            fh.write(json.dumps(lf_to_record(lf), sort_keys=True))
            fh.write("\n")


def load_lfs(path, classes, task_kind):
    """The LFs of a JSONL file written by `save_lfs`; a line that is not an
    LF record, or whose LF is invalid, raises LFError naming the line."""
    lfs = []
    for line_no, record in read_jsonl(path, LFError):
        try:
            lfs.append(lf_from_record(record, classes, task_kind))
        except (KeyError, LFError) as exc:
            raise LFError("line %d of %s: bad LF record (%s)" % (line_no, path, exc))
    return lfs
