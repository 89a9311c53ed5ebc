"""Chat-completion backends: live HTTP, deterministic mock oracle, transcript.

Every request is hashed over its canonicalized (messages, temperature, n)
payload; transcripts keyed by that hash make any run replayable bit-for-bit
without network access.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

# sha256 from the interpreter's builtin module: hashlib would load OpenSSL's
# libcrypto (about 3.5 MB resident) for the same digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .corpus import RELATION_TASK, extract_ngrams, read_jsonl, tokenize
from .prompting import render_instance, render_response


class BackendError(RuntimeError):
    """The backend could not produce a completion."""


class ReplayMissError(BackendError):
    """A replayed request was never recorded."""


@dataclass
class CompletionRequest:
    messages: list
    temperature: float = 0.0
    n: int = 1
    model_name: str = "mock"
    max_tokens: int = 512

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not self.messages or self.messages[0].role != "system":
            raise ValueError("first message must be a system message")
        if any(not m.content for m in self.messages):
            raise ValueError("messages must have nonempty content")


def request_to_dict(request: CompletionRequest) -> dict:
    return {
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": request.temperature,
        "n": request.n,
        "model_name": request.model_name,
        "max_tokens": request.max_tokens,
    }


def request_hash(request: CompletionRequest) -> str:
    """Deterministic hash over the messages, temperature and n entries of
    `request_to_dict`, insensitive to JSON field ordering."""
    fields = request_to_dict(request)
    canonical = json.dumps({key: fields[key] for key in ("messages", "temperature", "n")},
                           sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class TranscriptRecord:
    hash: str
    request: dict
    responses: list
    backend: str = ""
    elapsed: float = 0.0


@dataclass
class Transcript:
    records: list = field(default_factory=list)


def save_transcript(transcript: Transcript, path):
    with open(path, "w", encoding="utf-8") as fh:
        for r in transcript.records:
            fh.write(json.dumps(asdict(r), sort_keys=True))
            fh.write("\n")


def load_transcript(path) -> Transcript:
    transcript = Transcript()
    for line_no, obj in read_jsonl(path, BackendError):
        try:
            record = TranscriptRecord(
                hash=obj["hash"], request=obj["request"], responses=obj["responses"],
                backend=obj.get("backend", ""), elapsed=obj.get("elapsed", 0.0))
        except KeyError as exc:
            raise BackendError("transcript line %d of %s is corrupt (missing %s)"
                               % (line_no, path, exc))
        if not (isinstance(record.hash, str) and isinstance(record.request, dict)
                and isinstance(record.responses, list)
                and all(isinstance(r, str) for r in record.responses)):
            raise BackendError("transcript line %d of %s is corrupt (hash must be a string, "
                               "request an object and responses a list of strings)"
                               % (line_no, path))
        transcript.records.append(record)
    return transcript


# --------------------------------------------------------------------------
# mock oracle


def _stable_seed(*parts) -> int:
    digest = sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class MockOracleConfig:
    gold: dict  # instance id -> class index
    signatures: dict  # class index -> list of planted payloads
    classes: list  # class names, for rendering LABEL lines
    p_label: float = 0.9
    p_keyword: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_label <= 1.0 or not 0.0 <= self.p_keyword <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        for cls, sigs in self.signatures.items():
            if not sigs:
                raise ValueError("class %r has no planted signatures" % cls)


def mock_oracle_respond(config: MockOracleConfig, instance, task_kind: str, cot: bool,
                        draw_index: int = 0) -> str:
    """One synthetic response, deterministic given (seed, query id, draw index)."""
    return _draw_response(config, _analyse_passage(config, instance), task_kind, cot,
                          draw_index)


def _analyse_passage(config: MockOracleConfig, instance):
    """What every draw for the query reads: its id, its gold label, the
    passage n-grams carrying one of the gold class's signatures and the
    pool of hallucinated payloads."""
    if instance.id not in config.gold:
        raise ValueError("query id %d unknown to the mock oracle" % instance.id)
    gold = config.gold[instance.id]
    grams = extract_ngrams(tokenize(instance.text), 1, 3)
    gram_set = set(grams)
    all_signatures = {s for sigs in config.signatures.values() for s in sigs}
    present_sigs = [s for s in config.signatures.get(gold, []) if s in gram_set]
    # Grounded payloads: any passage n-gram carrying one of the gold class's
    # signatures (a competent annotator varies the surrounding context).
    # Hallucinated payloads: single passage tokens, frequent enough to be
    # observable (and filterable) on the validation split.
    sig_bearing = [g for g in grams
                   if any(" %s " % s in " %s " % g for s in present_sigs)]
    non_sigs = [g for g in grams
                if " " not in g and not any(" %s " % s in " %s " % g
                                            for s in all_signatures if s in gram_set)]
    if not non_sigs:
        non_sigs = [g for g in grams if g not in all_signatures]
    return instance.id, gold, sig_bearing, non_sigs


def _draw_response(config: MockOracleConfig, analysis, task_kind: str, cot: bool,
                   draw_index: int) -> str:
    """`mock_oracle_respond` from the passage's `_analyse_passage`."""
    instance_id, gold, sig_bearing, non_sigs = analysis
    rng = random.Random(_stable_seed(config.seed, instance_id, draw_index))
    if rng.random() < config.p_label:
        label = gold
    else:
        label = rng.choice([c for c in range(len(config.classes)) if c != gold])
    payloads = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < config.p_keyword and sig_bearing:
            pick = rng.choice(sig_bearing)
        elif non_sigs:
            pick = rng.choice(non_sigs)
        elif sig_bearing:
            pick = rng.choice(sig_bearing)
        else:
            continue
        if pick not in payloads:
            payloads.append(pick)
    return _mock_response(config.classes[label], task_kind, payloads, cot)


def _mock_response(label_name: str, task_kind: str, payloads, cot: bool) -> str:
    """A response naming the label and proposing the payloads as LFs of the
    task's kind, a phrase becoming a pattern that spans it between the two
    entities; its rationale quotes the first payload."""
    if task_kind == RELATION_TASK:
        payloads = [r"{{E1}}.{0,40}%s.{0,40}{{E2}}" % p.replace(" ", r"\W+") for p in payloads]
    rationale = None
    if cot:
        rationale = ("the passage mentions %s, which indicates the %s class."
                     % (payloads[0] if payloads else "nothing specific", label_name))
    # render_response reads the keywords or the patterns, as the task kind says
    return render_response(label_name, task_kind, keywords=payloads, patterns=payloads,
                           rationale=rationale)


class MockBackend:
    """Deterministic offline stand-in for a hosted chat model.

    The query instance is recovered from the final user message, which is
    the instance's `prompting.render_instance` for a task request. For an
    annotation request it is that rendering, then a LABEL line, then one
    instruction line; the request is answered with the given label and the
    planted signatures found in the passage. A model cannot tell apart
    instances whose renderings are identical, so the mock answers all of
    them as the one with the lowest id.
    """

    name = "mock"

    def __init__(self, config: MockOracleConfig, instances, task_kind: str):
        self.config = config
        self.task_kind = task_kind
        self._by_rendering = {}
        for inst in sorted(instances, key=lambda inst: inst.id):
            self._by_rendering.setdefault(render_instance(inst, task_kind), inst)

    def _lookup(self, request: CompletionRequest):
        last_user = None
        for message in request.messages:
            if message.role == "user":
                last_user = message.content
        if last_user is None:
            raise BackendError("request has no user message")
        if last_user in self._by_rendering:
            return self._by_rendering[last_user], None
        rendering, _, rest = last_user.rpartition("\nLABEL: ")
        if rendering not in self._by_rendering:
            raise BackendError("mock backend cannot identify the query instance")
        return self._by_rendering[rendering], rest.partition("\n")[0]

    def complete(self, request: CompletionRequest):
        instance, given_label = self._lookup(request)
        cot = "REASONING" in request.messages[0].content
        if given_label is not None:
            return [self._annotate(instance, given_label)] * request.n
        analysis = _analyse_passage(self.config, instance)  # once for all n draws
        return [_draw_response(self.config, analysis, self.task_kind, cot, i)
                for i in range(request.n)]

    def _annotate(self, instance, label_name) -> str:
        cls = self.config.classes.index(label_name)
        grams = set(extract_ngrams(tokenize(instance.text), 1, 3))
        payloads = [s for s in self.config.signatures.get(cls, []) if s in grams]
        if not payloads:
            payloads = list(self.config.signatures.get(cls, []))[:1]
        return _mock_response(label_name, self.task_kind, payloads, cot=True)


class HttpBackend:
    """POST `request_to_dict` of a request, with `model` for `model_name`, to
    an OpenAI-style /chat/completions endpoint with bounded retry."""

    name = "http"

    RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}

    def __init__(self, endpoint: str, model_name: str = "", api_key_env: str = "PLM_API_KEY",
                 max_attempts: int = 3, backoff: float = 1.0, timeout: float = 60.0,
                 session=None):
        self.endpoint = endpoint.rstrip("/")
        self.model_name = model_name
        self.api_key_env = api_key_env
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def complete(self, request: CompletionRequest):
        body = dict(request_to_dict(request), model=self.model_name or request.model_name)
        del body["model_name"]
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = "Bearer %s" % api_key
        last_error = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                resp = self.session.post(self.endpoint + "/chat/completions",
                                         json=body, headers=headers, timeout=self.timeout)
            except Exception as exc:  # connection-level failures are retryable
                last_error = str(exc)
                continue
            if resp.status_code in self.RETRYABLE_STATUS:
                last_error = "status %d" % resp.status_code
                continue
            if resp.status_code != 200:
                raise BackendError("endpoint returned status %d: %s"
                                   % (resp.status_code, resp.text[:200]))
            try:
                choices = resp.json()["choices"]
                texts = [c["message"]["content"] for c in choices]
            except (KeyError, TypeError, ValueError) as exc:
                raise BackendError("malformed completion response: %s" % exc)
            if not isinstance(choices, list) or not all(isinstance(t, str) for t in texts):
                raise BackendError("malformed completion response: no string message content")
            if len(texts) < request.n:
                raise BackendError("endpoint returned %d responses, expected %d"
                                   % (len(texts), request.n))
            return texts[: request.n]
        raise BackendError("retries exhausted: %s" % last_error)


class TranscriptBackend:
    """Serve each request whose hash `transcript` holds with its recorded
    responses; send any other to `inner` and append the exchange, or raise
    ReplayMissError when there is no `inner`. A request sent twice is thus
    answered from its first exchange, both while recording and while
    replaying, and `inner` sees it once. A live backend used without this
    wrapper (a run with no transcript_path) is asked again for a repeat."""

    def __init__(self, transcript: Transcript, inner=None):
        self.transcript = transcript
        self.inner = inner
        # the first record of a hash answers it, as it did while recording
        self._responses = {r.hash: r.responses for r in reversed(transcript.records)}

    def complete(self, request: CompletionRequest):
        key = request_hash(request)
        if key not in self._responses:
            if self.inner is None:
                raise ReplayMissError("no recorded response for request hash %s" % key)
            start = time.monotonic()
            responses = list(self.inner.complete(request))
            self.transcript.records.append(TranscriptRecord(
                hash=key, request=request_to_dict(request), responses=responses,
                backend=getattr(self.inner, "name", "unknown"),
                elapsed=time.monotonic() - start))
            self._responses[key] = responses
        return list(self._responses[key])


def complete(backend, request: CompletionRequest):
    """Dispatch one completion request; always returns exactly n texts."""
    responses = backend.complete(request)
    if len(responses) != request.n:
        raise BackendError("backend returned %d responses, expected %d"
                           % (len(responses), request.n))
    return responses
