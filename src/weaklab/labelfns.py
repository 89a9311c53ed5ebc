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

from .corpus import (RELATION_TASK, TEXT_TASK, Instance, Tokens, _is_int, read_jsonl, tokenize,
                     tokenize_all)

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
    if not _is_int(target_class) or not 0 <= target_class < len(classes):
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


def _dense(keys: np.ndarray):
    """Each key's rank among the distinct keys, and the distinct keys, ascending."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, ordered[new]


@dataclass(frozen=True)
class _Grams:
    """A split's interned 1-3-grams (`_intern`)."""

    token_ids: dict  # token -> token id
    ids: np.ndarray  # int32 gram ids, CSR
    indptr: np.ndarray  # int64
    keys: tuple  # per length 2 and 3: the sorted distinct keys of that length's grams
    offsets: tuple  # per length 1 to 3: the first class of that length
    gram_of: np.ndarray  # gram class -> gram id


def _intern(tokens: Tokens) -> _Grams:
    """Number the 1-3-grams of each row of `tokens` as `extract_ngrams`
    lists them, and every distinct gram of the split in first-seen order,
    from integer keys alone.

    A gram's class is its token id for one token. A longer gram's key is
    its prefix's dense id at the shorter length times the number of tokens,
    plus its last token; the key's rank among that length's distinct keys
    is the gram's dense id, and its class is that id past the classes of
    the shorter lengths. A key is below (grams of the shorter length) x
    (tokens), so it cannot overflow at any vocabulary size.

    The occurrence of length n at position p has slot 3p + n - 1, which
    orders occurrences as `extract_ngrams` lists them. One sort of
    class x slots + slot groups the occurrences by class, each class's
    slots (so its rows) ascending: a gram a row repeats sits next to its
    first occurrence there, and the first of each class is its first
    occurrence in the split. Classes and slots are both below 3 x tokens,
    so the product stays within int64 while gram ids fit in int32.
    """
    tok = tokens.ids.astype(np.int64)
    n_tokens, n_slots = len(tokens.token_ids), 3 * len(tok)
    row = tokens.rows()
    left = tokens.indptr[1:][row] - np.arange(len(tok))  # tokens from each position on in its row
    classes, slots = [tok], [np.arange(0, n_slots, 3)]
    prefix, offsets, keys = tok, [0, n_tokens], []
    for n in (2, 3):
        at = np.flatnonzero(left >= n)
        dense, distinct = _dense(prefix[at] * n_tokens + tok[at + n - 1])
        classes.append(offsets[-1] + dense)
        slots.append(3 * at + n - 1)
        prefix = np.empty(len(tok), dtype=np.int64)
        prefix[at] = dense  # a longer gram's positions are among these
        offsets.append(offsets[-1] + len(distinct))
        keys.append(distinct)
    packed = np.concatenate(classes)
    packed *= n_slots
    packed += np.concatenate(slots)
    del classes, slots, prefix, left
    packed.sort()
    cls = packed // n_slots
    slot = packed - cls * n_slots
    del packed
    owner = row[slot // 3]
    new = np.ones(len(cls), dtype=bool)
    new[1:] = cls[1:] != cls[:-1]
    kept = np.ones(len(cls), dtype=bool)
    kept[1:] = new[1:] | (owner[1:] != owner[:-1])
    # every class occurs, each having come from a row: its id is the rank of its first slot
    first = np.zeros(n_slots, dtype=bool)
    first[slot[new]] = True
    gram_of = (np.cumsum(first, dtype=np.int32) - 1)[slot[new]]
    by_slot = np.full(n_slots, -1, dtype=np.int32)
    by_slot[slot[kept]] = gram_of[cls[kept]]
    indptr = np.zeros(tokens.n_texts + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[kept], minlength=tokens.n_texts), out=indptr[1:])
    return _Grams(token_ids=tokens.token_ids, ids=by_slot[by_slot >= 0], indptr=indptr,
                  keys=tuple(keys), offsets=tuple(offsets[:3]), gram_of=gram_of)


class KeywordIndex:
    """One split's interned n-grams, their postings and a memo of LF matches.

    Each instance's 1-3-grams (`extract_ngrams` order, so first occurrence
    first and no repeats) are stored as integer ids in CSR form: row i holds
    `ids[indptr[i]:indptr[i + 1]]`, and the split's `n_grams` distinct grams
    are numbered in first-seen order. They are interned from the split's
    token ids (`_intern`), so no gram string is built; `gram_id` looks a
    gram up by its tokens. The postings list is the CSR transpose, built on
    the first keyword match: the rows that hold gram id g, ascending, are
    `rows[starts[g]:starts[g + 1]]`, so the rows a keyword LF fires on
    are one slice of it, and its arrays are the size of `ids`. A pattern LF
    goes through `apply_lf` only on instances that contain its template's
    required literal (`_required_literal`), plus those without entities, on
    which `apply_lf` raises; every instance when the template proves no
    literal. Whether an LF fires depends on its kind and payload alone, so
    each (kind, payload) is matched once per index, whatever the target
    class, and kept as the read-only array of the rows it fires on.

    `tokens`, when given, is the split's `Tokens`, so a split tokenized
    once per run is not tokenized again. The n-grams are interned on first
    use of `ids`, `indptr`, `n_grams` or `gram_id`, so an index that only
    matches pattern LFs never interns, nor tokenizes its split when not
    given its tokens.
    """

    def __init__(self, instances, tokens: Optional[Tokens] = None):
        self.instances = list(instances)
        if tokens is not None and tokens.n_texts != len(self.instances):
            raise ValueError("tokens of %d texts for %d instances"
                             % (tokens.n_texts, len(self.instances)))
        self._tokens = tokens
        self._rows = {}  # (kind, payload) -> the rows it fires on, ascending

    @functools.cached_property
    def _interned(self) -> _Grams:
        tokens = self._tokens
        if tokens is None:
            tokens = tokenize_all(inst.text for inst in self.instances)
        return _intern(tokens)

    ids = property(lambda self: self._interned.ids)
    indptr = property(lambda self: self._interned.indptr)
    n_grams = property(lambda self: len(self._interned.gram_of))

    def gram_id(self, tokens) -> Optional[int]:
        """The id of the gram made of `tokens` (one to three token strings),
        None when no row holds it."""
        grams = self._interned
        if not 1 <= len(tokens) <= 3:
            return None
        ids = [grams.token_ids.get(token) for token in tokens]
        if None in ids:
            return None
        dense = ids[0]
        for distinct, token in zip(grams.keys, ids[1:]):
            key = dense * len(grams.token_ids) + token
            dense = int(np.searchsorted(distinct, key))
            if dense == len(distinct) or distinct[dense] != key:
                return None
        return int(grams.gram_of[grams.offsets[len(ids) - 1] + dense])

    @functools.cached_property
    def _postings(self):
        """(rows, starts): the rows of each gram id, grouped by id with a
        stable sort of `ids`, so each group lists its rows in order."""
        owner = np.repeat(np.arange(len(self.instances), dtype=np.int32), np.diff(self.indptr))
        starts = np.zeros(self.n_grams + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.ids, minlength=self.n_grams), out=starts[1:])
        return owner[np.argsort(self.ids, kind="stable")], starts

    def _match(self, lf: LabelFunction) -> np.ndarray:
        if lf.kind == KEYWORD:
            gram = self.gram_id(lf.tokens)
            if gram is None:
                return np.zeros(0, dtype=np.intp)
            rows, starts = self._postings
            return rows[starts[gram]:starts[gram + 1]].astype(np.intp)
        literal = _required_literal(lf.payload)
        hits = np.zeros(len(self.instances), dtype=bool)
        for i, inst in enumerate(self.instances):
            if (literal is None or inst.entity1 is None or inst.entity2 is None
                    or literal.search(inst.text) is not None):
                hits[i] = apply_lf(lf, inst) != ABSTAIN
        return np.flatnonzero(hits)

    def rows(self, lf: LabelFunction) -> np.ndarray:
        """The rows `lf` fires on, ascending, as a read-only integer array."""
        key = (lf.kind, lf.payload)
        if key not in self._rows:
            rows = self._match(lf)
            rows.flags.writeable = False
            self._rows[key] = rows
        return self._rows[key]

    def votes(self, lf: LabelFunction) -> np.ndarray:
        votes = np.full(len(self.instances), ABSTAIN, dtype=np.int64)
        votes[self.rows(lf)] = lf.target_class
        return votes


def build_matrix(lfs, instances, index: Optional[KeywordIndex] = None) -> np.ndarray:
    """Apply every LF to every instance: the (n, m) vote array, entries in
    {0..C-1} | {ABSTAIN}, columns in LF admission order. Each LF's class
    goes in at the rows `index` matches it on, so no column is built."""
    instances = list(instances)
    if index is None:
        index = KeywordIndex(instances)
    matrix = np.full((len(instances), len(lfs)), ABSTAIN, dtype=np.int64)
    for j, lf in enumerate(lfs):
        matrix[index.rows(lf), j] = lf.target_class
    return matrix


@dataclass(frozen=True)
class LFStats:
    coverage: float
    accuracy: Optional[float]  # None when no active instance or gold missing
    n_active: int


def measure_accuracy(votes: np.ndarray, gold: np.ndarray):
    """Accuracy over active instances; None when the LF never fires."""
    active = votes != ABSTAIN
    correct = votes[active] == gold[active]
    # the bits of correct.mean() (an exact count over an exact length),
    # without np.mean's per-call cost, which the gate pays once per candidate
    return np.count_nonzero(correct) / len(correct) if len(correct) else None


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
