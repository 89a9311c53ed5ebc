import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from weaklab import plmclient
from weaklab.corpus import Dataset, EntitySpan, Instance, TEXT_TASK, RELATION_TASK
from weaklab.plmclient import (
    BackendError,
    CompletionRequest,
    HttpBackend,
    MockBackend,
    MockOracleConfig,
    ReplayMissError,
    Transcript,
    TranscriptBackend,
    TranscriptRecord,
    complete,
    load_transcript,
    mock_oracle_respond,
    request_hash,
    request_to_dict,
    save_transcript,
)
from weaklab.pipeline import RunConfig, run
from weaklab.prompting import (ChatMessage, build_annotation_prompt, parse_response,
                               render_instance)


def _request(text="PASSAGE: free stuff", n=1, temperature=0.0):
    return CompletionRequest(
        messages=[ChatMessage("system", "Classify."), ChatMessage("user", text)],
        temperature=temperature, n=n)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompletionRequest(messages=[ChatMessage("user", "hi")])
        with pytest.raises(ValueError):
            CompletionRequest(messages=[ChatMessage("system", "")])
        with pytest.raises(ValueError):
            _request(n=0)
        with pytest.raises(ValueError):
            _request(temperature=-1.0)

    def test_dict_round_trip(self):
        req = _request(n=3, temperature=0.7)
        fields = request_to_dict(req)
        messages = [ChatMessage(**m) for m in fields.pop("messages")]
        assert CompletionRequest(messages=messages, **fields) == req

    def test_hash_stable_and_sensitive(self):
        base = request_hash(_request())
        assert base == request_hash(_request())
        assert base != request_hash(_request(text="PASSAGE: other"))
        assert base != request_hash(_request(n=2))
        assert base != request_hash(_request(temperature=1.0))

    def test_hash_ignores_model_name_and_max_tokens(self):
        a = _request()
        b = _request()
        b.model_name = "other-model"
        b.max_tokens = 9
        assert request_hash(a) == request_hash(b)

    def test_hash_of_a_fixed_request_is_pinned(self):
        # transcripts store this hash, so it must never move
        request = CompletionRequest(
            messages=[ChatMessage("system", "Classify."),
                      ChatMessage("user", "PASSAGE: caf\u00e9 \u2014 na\u00efve \u6771\u4eac")],
            temperature=0.7, n=3)
        assert request_hash(request) == (
            "a0f67675ced54ab7db00f017a4d88cb33bc9f178ae118f569a2c4881b81fd294")
        assert plmclient._stable_seed(0, 17, 2) == 15210598042336150413

    @given(st.text(min_size=1), st.text(min_size=1), st.integers(1, 5))
    def test_hash_equals_hashlib_sha256(self, system, user, n):
        request = CompletionRequest(
            messages=[ChatMessage("system", system), ChatMessage("user", user)], n=n)
        canonical = json.dumps(
            {"messages": [{"role": "system", "content": system},
                          {"role": "user", "content": user}],
             "temperature": 0.0, "n": n},
            sort_keys=True, separators=(",", ":"))
        assert request_hash(request) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @given(st.lists(st.one_of(st.text(), st.integers()), max_size=4))
    def test_stable_seed_equals_hashlib_sha256(self, parts):
        joined = "|".join(str(p) for p in parts).encode("utf-8")
        expected = int.from_bytes(hashlib.sha256(joined).digest()[:8], "big")
        assert plmclient._stable_seed(*parts) == expected


def _oracle_config(**overrides):
    defaults = dict(
        gold={0: 1, 1: 0},
        signatures={0: ["great song"], 1: ["free stuff"]},
        classes=["HAM", "SPAM"],
        p_label=1.0, p_keyword=1.0, seed=0)
    defaults.update(overrides)
    return MockOracleConfig(**defaults)


class TestMockOracle:
    def test_deterministic_per_draw(self):
        config = _oracle_config(p_label=0.5, p_keyword=0.5)
        inst = Instance(id=0, text="free stuff here")
        r1 = mock_oracle_respond(config, inst, TEXT_TASK, cot=False, draw_index=2)
        r2 = mock_oracle_respond(config, inst, TEXT_TASK, cot=False, draw_index=2)
        assert r1 == r2

    def test_different_draws_can_differ(self):
        config = _oracle_config(p_label=0.5)
        inst = Instance(id=0, text="free stuff here and more tokens to vary")
        responses = {mock_oracle_respond(config, inst, TEXT_TASK, False, i) for i in range(10)}
        assert len(responses) > 1

    def test_reliable_oracle_emits_gold_label_and_signature(self):
        config = _oracle_config()
        inst = Instance(id=0, text="get free stuff today")
        parsed = parse_response(mock_oracle_respond(config, inst, TEXT_TASK, False),
                                TEXT_TASK, config.classes)
        assert parsed.label == 1
        assert "free stuff" in parsed.keywords

    def test_cot_response_has_reasoning(self):
        config = _oracle_config()
        inst = Instance(id=0, text="free stuff")
        text = mock_oracle_respond(config, inst, TEXT_TASK, cot=True)
        assert text.startswith("REASONING:")

    def test_unknown_instance_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            mock_oracle_respond(_oracle_config(), Instance(id=99, text="x"), TEXT_TASK, False)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _oracle_config(p_label=1.5)
        with pytest.raises(ValueError):
            _oracle_config(signatures={0: []})


class TestMockBackend:
    def _backend(self, **overrides):
        instances = [Instance(id=0, text="get free stuff today", gold_label=1),
                     Instance(id=1, text="what a great song", gold_label=0)]
        return MockBackend(_oracle_config(**overrides), instances, TEXT_TASK)

    def test_task_request(self):
        backend = self._backend()
        responses = complete(backend, _request("PASSAGE: get free stuff today"))
        assert len(responses) == 1
        assert "LABEL: SPAM" in responses[0]

    def test_n_responses(self):
        backend = self._backend(p_label=0.5)
        responses = complete(backend, _request("PASSAGE: get free stuff today", n=10,
                                               temperature=1.0))
        assert len(responses) == 10

    def test_annotation_request(self):
        backend = self._backend()
        text = "PASSAGE: what a great song\nLABEL: HAM\nThe label above is correct."
        responses = complete(backend, _request(text))
        assert "LABEL: HAM" in responses[0]
        assert "great song" in responses[0]

    def test_unknown_passage(self):
        with pytest.raises(BackendError, match="identify"):
            self._backend().complete(_request("PASSAGE: never seen before"))

    def test_identical_passages_are_answered_as_the_lowest_id(self):
        # instances 1 (SPAM) and 2 (HAM) share a text; the mock answers as id 1
        instances = [Instance(id=1, text="free stuff or a great song", gold_label=1),
                     Instance(id=2, text="free stuff or a great song", gold_label=0)]
        backend = MockBackend(_oracle_config(gold={1: 1, 2: 0}), instances, TEXT_TASK)
        request = _request(render_instance(instances[1], TEXT_TASK))
        assert backend.complete(request) == [
            mock_oracle_respond(backend.config, instances[0], TEXT_TASK, cot=False)]
        assert parse_response(backend.complete(request)[0], TEXT_TASK,
                              backend.config.classes).label == 1

    def test_relation_passage_is_answered_for_its_entity_pair(self):
        text = "alice married bob while carol met dave"
        pairs = [("alice", "bob"), ("carol", "dave")]
        instances = [Instance(id=row, text=text, gold_label=1 - row,
                              entity1=EntitySpan(e1, text.index(e1), text.index(e1) + len(e1)),
                              entity2=EntitySpan(e2, text.index(e2), text.index(e2) + len(e2)))
                     for row, (e1, e2) in enumerate(pairs)]
        config = MockOracleConfig(gold={0: 1, 1: 0}, signatures={0: ["met"], 1: ["married"]},
                                  classes=["NONE", "SPOUSE"], p_label=1.0, p_keyword=1.0)
        backend = MockBackend(config, instances, RELATION_TASK)
        for inst in instances:
            responses = backend.complete(_request(render_instance(inst, RELATION_TASK)))
            assert responses == [mock_oracle_respond(config, inst, RELATION_TASK, cot=False)]
            assert parse_response(responses[0], RELATION_TASK, config.classes).label == \
                inst.gold_label

    @pytest.mark.parametrize("task_kind", [TEXT_TASK, RELATION_TASK])
    def test_passages_that_span_lines_are_answered_as_their_own_instance(self, task_kind):
        # both passages start with the same line; only the lines after it differ
        texts = ["alice met bob\nget free stuff today", "alice met bob\nwhat a great song"]
        entities = {}
        if task_kind == RELATION_TASK:
            entities = dict(entity1=EntitySpan("alice", 0, 5), entity2=EntitySpan("bob", 10, 13))
        instances = [Instance(id=row, text=text, gold_label=1 - row, **entities)
                     for row, text in enumerate(texts)]
        config = _oracle_config()
        backend = MockBackend(config, instances, task_kind)
        dataset = Dataset(task_kind=task_kind, classes=config.classes, default_class=None)
        for inst in instances:
            responses = backend.complete(_request(render_instance(inst, task_kind)))
            assert responses == [mock_oracle_respond(config, inst, task_kind, cot=False)]
            annotation = build_annotation_prompt(dataset, inst, cot=False)
            responses = backend.complete(CompletionRequest(messages=annotation))
            assert responses == [backend._annotate(inst, config.classes[inst.gold_label])]
            assert parse_response(responses[0], task_kind, config.classes).label == \
                inst.gold_label

    @pytest.mark.parametrize("task_kind", [TEXT_TASK, RELATION_TASK])
    @pytest.mark.parametrize("cot", [False, True])
    def test_n_draws_equal_the_per_draw_responses(self, task_kind, cot):
        config = _oracle_config(p_label=0.5, p_keyword=0.5)
        inst = Instance(id=0, text="get free stuff today, not a great song", gold_label=1)
        backend = MockBackend(config, [inst], task_kind)
        system = "Give REASONING, then the label." if cot else "Classify."
        request = CompletionRequest(messages=[ChatMessage("system", system),
                                              ChatMessage("user", "PASSAGE: " + inst.text)],
                                    temperature=1.0, n=10)
        want = [mock_oracle_respond(config, inst, task_kind, cot, draw_index=i) for i in range(10)]
        assert len(set(want)) > 1
        assert backend.complete(request) == want


class TestTranscript:
    def test_round_trip(self, tmp_path):
        req = _request()
        transcript = Transcript([TranscriptRecord(hash=request_hash(req),
                                                  request=request_to_dict(req),
                                                  responses=["LABEL: SPAM"], backend="mock",
                                                  elapsed=0.01)])
        path = tmp_path / "t.jsonl"
        save_transcript(transcript, path)
        assert load_transcript(path) == transcript

    def test_corrupt_line_reports_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"hash": "a", "request": {}, "responses": []}\nnot json\n')
        with pytest.raises(BackendError, match="line 2"):
            load_transcript(path)

    @pytest.mark.parametrize("line, match", [
        ('["x"]', r"line 2 .*not a JSON object"),
        ('{"hash": "b", "request": {}}', r"line 2 .*missing 'responses'"),
        # replay would serve a string's characters as responses
        ('{"hash": "b", "request": {}, "responses": "LABEL: A"}', r"line 2 .*list of strings"),
        ('{"hash": "b", "request": {}, "responses": ["LABEL: A", 3]}',
         r"line 2 .*list of strings"),
        ('{"hash": 7, "request": {}, "responses": []}', r"line 2 .*hash must be a string"),
        ('{"hash": "b", "request": [], "responses": []}', r"line 2 .*request an object"),
    ])
    def test_record_that_is_no_transcript_entry_names_the_line(self, tmp_path, line, match):
        path = tmp_path / "t.jsonl"
        path.write_text('{"hash": "a", "request": {}, "responses": []}\n' + line + "\n")
        with pytest.raises(BackendError, match=match):
            load_transcript(path)


class _Counter:
    """A backend that answers every call differently."""

    name = "counter"

    def __init__(self):
        self.requests = []

    def complete(self, request):
        self.requests.append(request_hash(request))
        return ["LABEL: HAM\nKEYWORDS: call%d" % len(self.requests)] * request.n


class TestReplay:
    def test_replay_hit(self):
        req = _request()
        backend = TranscriptBackend(Transcript([TranscriptRecord(
            hash=request_hash(req), request=request_to_dict(req),
            responses=["LABEL: HAM\nKEYWORDS: NONE"])]))
        assert complete(backend, req) == ["LABEL: HAM\nKEYWORDS: NONE"]

    def test_replay_miss(self):
        backend = TranscriptBackend(Transcript())
        with pytest.raises(ReplayMissError):
            backend.complete(_request())

    def test_record_then_replay(self):
        instances = [Instance(id=0, text="get free stuff today", gold_label=1)]
        mock = MockBackend(_oracle_config(), instances, TEXT_TASK)
        transcript = Transcript()
        recorder = TranscriptBackend(transcript, mock)
        req = _request("PASSAGE: get free stuff today")
        original = complete(recorder, req)
        assert [r.hash for r in transcript.records] == [request_hash(req)]
        assert transcript.records[0].backend == "mock"
        replayed = complete(TranscriptBackend(transcript), req)
        assert replayed == original

    def test_repeated_request_gets_its_first_answer(self):
        inner = _Counter()
        transcript = Transcript()
        recorder = TranscriptBackend(transcript, inner)
        a, b = _request("PASSAGE: a"), _request("PASSAGE: b")
        recorded = [complete(recorder, r) for r in (a, b, a)]
        assert recorded[2] == recorded[0] != recorded[1]
        assert inner.requests == [request_hash(a), request_hash(b)]
        assert len(transcript.records) == 2
        replay = TranscriptBackend(transcript)
        assert [complete(replay, r) for r in (a, b, a)] == recorded

    def test_hit_is_served_and_miss_sent_on(self):
        a, b = _request("PASSAGE: a"), _request("PASSAGE: b")
        transcript = Transcript([TranscriptRecord(hash=request_hash(a), request={},
                                                  responses=["LABEL: SPAM"])])
        inner = _Counter()
        backend = TranscriptBackend(transcript, inner)
        assert complete(backend, a) == ["LABEL: SPAM"]
        assert complete(backend, b) == ["LABEL: HAM\nKEYWORDS: call1"]
        assert inner.requests == [request_hash(b)]
        assert [r.hash for r in transcript.records] == [request_hash(a), request_hash(b)]

    def test_a_hash_recorded_twice_is_served_its_first_record(self):
        req = _request()
        transcript = Transcript([
            TranscriptRecord(hash=request_hash(req), request={}, responses=[text])
            for text in ("LABEL: HAM", "LABEL: SPAM")])
        assert complete(TranscriptBackend(transcript), req) == ["LABEL: HAM"]


class _FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def _ok(texts):
    return _FakeResponse(200, {"choices": [{"message": {"content": t}} for t in texts]})


class TestHttpBackend:
    def _backend(self, session, **kwargs):
        kwargs.setdefault("backoff", 0.0)
        kwargs.setdefault("model_name", "m")
        return HttpBackend("http://example.test/v1", session=session, **kwargs)

    def test_success(self):
        session = _FakeSession([_ok(["LABEL: SPAM"])])
        backend = self._backend(session)
        assert backend.complete(_request()) == ["LABEL: SPAM"]
        assert session.calls[0]["url"] == "http://example.test/v1/chat/completions"
        assert session.calls[0]["json"]["model"] == "m"

    def test_retries_on_retryable_status_then_succeeds(self):
        session = _FakeSession([_FakeResponse(429), _FakeResponse(503), _ok(["ok"])])
        backend = self._backend(session)
        assert backend.complete(_request()) == ["ok"]
        assert len(session.calls) == 3

    def test_retries_exhausted(self):
        session = _FakeSession([_FakeResponse(500)] * 3)
        backend = self._backend(session)
        with pytest.raises(BackendError, match="retries exhausted"):
            backend.complete(_request())

    def test_non_retryable_status_fails_fast(self):
        session = _FakeSession([_FakeResponse(400, text="bad request")])
        backend = self._backend(session)
        with pytest.raises(BackendError, match="status 400"):
            backend.complete(_request())
        assert len(session.calls) == 1

    def test_connection_error_is_retryable(self):
        session = _FakeSession([ConnectionError("boom"), _ok(["ok"])])
        backend = self._backend(session)
        assert backend.complete(_request()) == ["ok"]

    def test_api_key_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("PLM_API_KEY", "secret-token")
        session = _FakeSession([_ok(["ok"])])
        self._backend(session).complete(_request())
        assert session.calls[0]["headers"]["Authorization"] == "Bearer secret-token"

    def test_no_key_no_auth_header(self, monkeypatch):
        monkeypatch.delenv("PLM_API_KEY", raising=False)
        session = _FakeSession([_ok(["ok"])])
        self._backend(session).complete(_request())
        assert "Authorization" not in session.calls[0]["headers"]

    def test_malformed_body(self):
        session = _FakeSession([_FakeResponse(200, {"unexpected": 1})])
        backend = self._backend(session)
        with pytest.raises(BackendError, match="malformed"):
            backend.complete(_request())

    def test_too_few_choices(self):
        session = _FakeSession([_ok(["only one"])])
        backend = self._backend(session)
        with pytest.raises(BackendError, match="expected 2"):
            backend.complete(_request(n=2))

    @pytest.mark.parametrize("body", [
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": "ok"}}, {"message": {"content": None}}]},
        {"choices": "oops"},
        {"choices": ""},
        {"choices": {"message": {"content": "ok"}}},
        {"choices": [None]},
        {"choices": [{"message": "ok"}]},
        {"choices": [{"message": {"content": ["ok"]}}]},
        ["choices"],
    ], ids=["null-content", "one-null-of-two", "string", "empty-string", "object",
            "null-choice", "string-message", "list-content", "list-body"])
    def test_malformed_choices(self, body):
        """Only a list of objects whose message content is a string is a
        completion; anything else fails like a bad request."""
        backend = self._backend(_FakeSession([_FakeResponse(200, body)]))
        with pytest.raises(BackendError, match="malformed"):
            backend.complete(_request(n=2))

    @pytest.mark.parametrize("model_name, expected", [("m", "m"), ("", "mock")])
    def test_posts_exactly_the_request_fields(self, model_name, expected):
        """The body is the request's dict with `model`, from the backend or
        else the request, in place of `model_name`."""
        session = _FakeSession([_ok(["ok", "ok"])])
        self._backend(session, model_name=model_name).complete(_request(n=2, temperature=0.7))
        assert session.calls[0]["json"] == {
            "model": expected,
            "messages": [{"role": "system", "content": "Classify."},
                         {"role": "user", "content": "PASSAGE: free stuff"}],
            "temperature": 0.7, "n": 2, "max_tokens": 512}

    def test_null_content_mid_run_is_a_partial_report(self, text_dataset, tmp_path):
        """The second request's reply has a null content: the run ends
        incomplete with a backend error, and its transcript loads and holds
        the first exchange."""
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text("".join(json.dumps({"id": inst.id}) + "\n"
                                       for inst in text_dataset.valid))
        transcript = tmp_path / "transcript.jsonl"
        config = RunConfig(annotations_path=str(annotations), n_iterations=3, max_opt_iters=50,
                           backend="http", transcript_path=str(transcript))
        session = _FakeSession([_ok(["LABEL: SPAM\nKEYWORDS: subscribe"]),
                                _FakeResponse(200, {"choices": [{"message": {"content": None}}]})])
        report = run(config, backend=self._backend(session), dataset=text_dataset)
        assert not report.complete
        assert report.warning.startswith("backend error at iteration 2: malformed")
        assert len(report.iterations) == 1
        records = load_transcript(transcript).records
        assert [r.responses for r in records] == [["LABEL: SPAM\nKEYWORDS: subscribe"]]
        assert records[0].request["messages"] == session.calls[0]["json"]["messages"]


def test_complete_enforces_response_count():
    class Broken:
        def complete(self, request):
            return []

    with pytest.raises(BackendError, match="expected 1"):
        complete(Broken(), _request())


def test_relation_oracle_emits_patterns():
    config = MockOracleConfig(gold={0: 1}, signatures={1: ["married"]},
                              classes=["NONE", "SPOUSE"], p_label=1.0, p_keyword=1.0)
    inst = Instance(id=0, text="alice married bob")
    text = mock_oracle_respond(config, inst, RELATION_TASK, cot=False)
    parsed = parse_response(text, RELATION_TASK, config.classes)
    assert parsed.label == 1
    assert parsed.patterns and "{{E1}}" in parsed.patterns[0]
