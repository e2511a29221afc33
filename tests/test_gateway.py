import json
import sys
import threading

import pytest

from synthex.annotator import MissingKeyError
from synthex.gateway import (
    MAX_JSON_DEPTH,
    CacheMissError,
    ChatGateway,
    EndpointError,
    GatewayError,
    GenerationParams,
    NoJsonFoundError,
    NoVerdictError,
    ResponseSyntaxError,
    TransportError,
    UnreadableResponseError,
    cache_key,
    extract_boxed,
    extract_json_block,
    map_contained,
)

from conftest import BROKEN_REPLIES, ChatStubHandler, RawReplyHandler, chat_ok


PARAMS = GenerationParams(temperature=0.0, model_name="m1")


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("p", PARAMS) == cache_key("p", PARAMS)

    def test_max_tokens_excluded(self):
        with_tokens = GenerationParams(temperature=0.0, model_name="m1", max_tokens=64)
        assert cache_key("p", PARAMS) == cache_key("p", with_tokens)

    def test_sensitive_to_inputs(self):
        assert cache_key("p", PARAMS) != cache_key("q", PARAMS)
        assert cache_key("p", PARAMS) != cache_key(
            "p", GenerationParams(temperature=0.2, model_name="m1")
        )
        assert cache_key("p", PARAMS) != cache_key(
            "p", GenerationParams(temperature=0.0, model_name="m2")
        )


class TestGenerationParams:
    @pytest.mark.parametrize("temperature", [-0.1, 2.5])
    def test_temperature_bounds(self, temperature):
        with pytest.raises(ValueError):
            GenerationParams(temperature=temperature, model_name="m")

    def test_valid_range(self):
        GenerationParams(temperature=0.0, model_name="m")
        GenerationParams(temperature=2.0, model_name="m")


class TestReplay:
    def test_replay_returns_stored_response(self, tmp_path):
        gateway = ChatGateway(cache_dir=tmp_path, mode="replay")
        gateway.store("hello", PARAMS, "stored bytes é")
        assert gateway.complete("hello", PARAMS) == "stored bytes é"

    def test_replay_miss(self, tmp_path):
        gateway = ChatGateway(cache_dir=tmp_path, mode="replay")
        with pytest.raises(CacheMissError):
            gateway.complete("never seen", PARAMS)

    def test_record_mode_reads_through_cache(self, tmp_path):
        gateway = ChatGateway(cache_dir=tmp_path, mode="record")  # no endpoint at all
        gateway.store("hello", PARAMS, "cached")
        assert gateway.complete("hello", PARAMS) == "cached"

    def test_cache_requires_directory(self):
        with pytest.raises(ValueError):
            ChatGateway(cache_dir=None, mode="replay")

    def test_live_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown gateway mode"):
            ChatGateway(cache_dir=tmp_path, mode="live")

    def test_concurrent_stores_leave_one_whole_entry(self, tmp_path):
        gateway = ChatGateway(cache_dir=tmp_path, mode="replay")
        responses = [f"response {i} " * 200 for i in range(8)]
        errors = []

        def writer(response):
            try:
                for _ in range(30):
                    gateway.store("ping", PARAMS, response)
            except OSError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(r,)) for r in responses]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [p.name for p in tmp_path.iterdir()] == [f"{cache_key('ping', PARAMS)}.json"]
        assert gateway.complete("ping", PARAMS) in responses


class TestLiveTransport:
    def test_stub_server_round_trip(self, stub_server, tmp_path):
        gateway = ChatGateway(cache_dir=tmp_path, mode="record", base_url=stub_server, api_key="sk-test")
        assert gateway.complete("ping", PARAMS) == "canned reply"
        path, body, headers = ChatStubHandler.requests[0]
        assert path == "/chat/completions"
        assert body["model"] == "m1"
        assert body["temperature"] == 0.0
        assert body["messages"] == [{"role": "user", "content": "ping"}]
        assert headers["Authorization"] == "Bearer sk-test"

    def test_record_mode_caches_live_response(self, stub_server, tmp_path):
        gateway = ChatGateway(cache_dir=tmp_path, mode="record", base_url=stub_server)
        gateway.complete("ping", PARAMS)
        # Cached now: the same call answers even with the endpoint gone.
        offline = ChatGateway(cache_dir=tmp_path, mode="replay")
        assert offline.complete("ping", PARAMS) == "canned reply"

    def test_server_error_retried_then_raised(self, stub_server, tmp_path, monkeypatch):
        monkeypatch.setattr("synthex.gateway.BACKOFF", 0.0)
        ChatStubHandler.status = 500
        gateway = ChatGateway(cache_dir=tmp_path, mode="record", base_url=stub_server)
        with pytest.raises(EndpointError, match="500"):
            gateway.complete("ping", PARAMS)
        assert len(ChatStubHandler.requests) == 3  # transient status exhausted the retries

    def test_client_error_not_retried(self, stub_server, tmp_path, monkeypatch):
        monkeypatch.setattr("synthex.gateway.BACKOFF", 0.0)
        ChatStubHandler.status = 400
        gateway = ChatGateway(cache_dir=tmp_path, mode="record", base_url=stub_server)
        with pytest.raises(EndpointError, match="400"):
            gateway.complete("ping", PARAMS)
        assert len(ChatStubHandler.requests) == 1

    def test_unreachable_is_transport_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr("synthex.gateway.MAX_RETRIES", 2)
        monkeypatch.setattr("synthex.gateway.BACKOFF", 0.0)
        gateway = ChatGateway(
            cache_dir=tmp_path,
            mode="record",
            base_url="http://127.0.0.1:9",  # discard port, nothing listens
        )
        with pytest.raises(TransportError):
            gateway.complete("ping", PARAMS)

    @pytest.mark.parametrize("broken, error, attempts", [
        ("truncated", TransportError, 3),
        ("truncated-503", EndpointError, 3),
        ("bad-status-line", TransportError, 3),
        ("not-utf8", EndpointError, 1),
        ("huge-integer", EndpointError, 1),
    ])
    def test_broken_response_is_a_gateway_error(self, raw_server, tmp_path, monkeypatch, broken, error, attempts):
        monkeypatch.setattr("synthex.gateway.BACKOFF", 0.0)
        RawReplyHandler.reply = lambda body: BROKEN_REPLIES[broken]
        gateway = ChatGateway(cache_dir=tmp_path, mode="record", base_url=raw_server)
        with pytest.raises(error):
            gateway.complete("ping", PARAMS)
        assert len(RawReplyHandler.requests) == attempts

    def test_broken_response_retried_then_answered(self, raw_server, tmp_path, monkeypatch):
        monkeypatch.setattr("synthex.gateway.BACKOFF", 0.0)
        replies = [BROKEN_REPLIES["truncated"], BROKEN_REPLIES["bad-status-line"], chat_ok("pong")]
        RawReplyHandler.reply = lambda body: replies.pop(0)
        gateway = ChatGateway(cache_dir=tmp_path, mode="record", base_url=raw_server)
        assert gateway.complete("ping", PARAMS) == "pong"

    def test_deeply_nested_completion_body_is_endpoint_error(self):
        with pytest.raises(EndpointError, match="malformed completion response"):
            ChatGateway._parse_completion(b"[" * 100_000)

    def test_live_mode_without_endpoint(self, tmp_path):
        gateway = ChatGateway(cache_dir=tmp_path, mode="record")  # empty cache, no endpoint
        with pytest.raises(TransportError, match="no endpoint"):
            gateway.complete("ping", PARAMS)


def _truncate_entry(path):
    path.write_bytes(path.read_bytes()[:40])


def _change_prompt(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    data["prompt"] = "some other prompt"
    path.write_text(json.dumps(data), encoding="utf-8")


def _nest_entry(path):
    path.write_text("[" * 100_000, encoding="utf-8")


def _add_huge_integer(path):
    path.write_bytes(path.read_bytes()[:-1] + b', "n": ' + b"7" * 5000 + b"}")


CORRUPTIONS = {
    "truncated": (_truncate_entry, "does not parse"),
    "other prompt": (_change_prompt, "prompt"),
    "nested": (_nest_entry, "does not parse"),
    "huge integer": (_add_huge_integer, "does not parse"),
}


class TestCacheIntegrity:
    """An entry that does not parse, lacks a field or stores another request
    is a miss: fetched again in record mode, an error in replay mode."""

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_record_mode_fetches_again_and_overwrites(self, stub_server, tmp_path, corruption):
        corrupt, _ = CORRUPTIONS[corruption]
        gateway = ChatGateway(cache_dir=tmp_path, mode="record", base_url=stub_server)
        gateway.store("ping", PARAMS, "stale")
        corrupt(tmp_path / f"{cache_key('ping', PARAMS)}.json")
        assert gateway.complete("ping", PARAMS) == "canned reply"
        assert len(ChatStubHandler.requests) == 1
        offline = ChatGateway(cache_dir=tmp_path, mode="replay")
        assert offline.complete("ping", PARAMS) == "canned reply"

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_replay_mode_raises_cache_miss(self, tmp_path, corruption):
        corrupt, reason = CORRUPTIONS[corruption]
        gateway = ChatGateway(cache_dir=tmp_path, mode="replay")
        gateway.store("ping", PARAMS, "stale")
        key = cache_key("ping", PARAMS)
        corrupt(tmp_path / f"{key}.json")
        with pytest.raises(CacheMissError, match=reason) as info:
            gateway.complete("ping", PARAMS)
        assert key[:12] in str(info.value)

    def test_entry_without_response_is_a_miss(self, tmp_path):
        gateway = ChatGateway(cache_dir=tmp_path, mode="replay")
        gateway.store("ping", PARAMS, "stale")
        path = tmp_path / f"{cache_key('ping', PARAMS)}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        del data["response_text"]
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CacheMissError, match="response_text"):
            gateway.complete("ping", PARAMS)


class TestMapContained:
    def test_results_in_input_order_when_later_items_finish_first(self):
        finished = []
        later_done = threading.Event()

        def fn(item):
            if item == 0:
                later_done.wait(timeout=10)
            finished.append(item)
            if item == 2:
                later_done.set()
            return item * 10

        results = map_contained(fn, [0, 1, 2], parallelism=2)
        assert later_done.is_set()
        assert finished == [1, 2, 0]
        assert results == [(0, None), (10, None), (20, None)]

    def test_gateway_error_costs_only_its_item(self):
        def fn(item):
            if item == "bad":
                raise CacheMissError("no entry")
            return item.upper()

        results = map_contained(fn, ["a", "bad", "c"], parallelism=2)
        assert results[0] == ("A", None) and results[2] == ("C", None)
        assert results[1][0] is None and isinstance(results[1][1], CacheMissError)

    def test_other_exception_propagates(self):
        def fn(item):
            if item == 1:
                raise ValueError("not a model-call failure")
            return item

        with pytest.raises(ValueError, match="not a model-call failure"):
            map_contained(fn, [0, 1, 2], parallelism=2)


    def test_one_worker_runs_in_the_calling_thread(self):
        threads = []

        def fn(item):
            threads.append(threading.current_thread())
            if item == "bad":
                raise CacheMissError("no entry")
            if item == "boom":
                raise ValueError("not a model-call failure")
            return item.upper()

        results = map_contained(fn, ["a", "bad", "c"], parallelism=1)
        assert results[0] == ("A", None) and results[2] == ("C", None)
        assert results[1][0] is None and isinstance(results[1][1], CacheMissError)
        assert threads == [threading.current_thread()] * 3
        with pytest.raises(ValueError, match="not a model-call failure"):
            map_contained(fn, ["a", "boom", "c"], parallelism=1)


class TestExtractJsonBlock:
    def test_fenced_block(self):
        assert extract_json_block('text ```json\n{"a": 1}\n``` tail') == {"a": 1}

    def test_balanced_brace_fallback(self):
        assert extract_json_block('prefix {"a": {"b": 2}} suffix') == {"a": {"b": 2}}

    def test_braces_inside_strings(self):
        assert extract_json_block('x {"a": "}{"} y') == {"a": "}{"}

    def test_no_braces(self):
        with pytest.raises(NoJsonFoundError):
            extract_json_block("no braces at all")

    def test_unbalanced(self):
        with pytest.raises(ResponseSyntaxError):
            extract_json_block('oops {"a": 1')

    def test_single_quotes_are_not_tolerated(self):
        with pytest.raises(ResponseSyntaxError):
            extract_json_block("{'a': 1}")

    def test_unreadable_responses_share_one_error_type(self):
        for error in (NoJsonFoundError, ResponseSyntaxError, MissingKeyError):
            assert issubclass(error, UnreadableResponseError)
        assert not issubclass(UnreadableResponseError, GatewayError)

    def test_fenced_block_with_bad_json(self):
        with pytest.raises(ResponseSyntaxError):
            extract_json_block("```json\n{'a': 1}\n```")

    @staticmethod
    def _nested(depth: int) -> str:
        return '{"a": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"

    def test_nesting_at_the_cap_is_accepted(self):
        blob = self._nested(MAX_JSON_DEPTH)
        for response in (f"x {blob} y", f"```json\n{blob}\n```"):
            assert extract_json_block(response) == json.loads(blob)

    def test_nesting_past_the_cap_is_a_syntax_error_on_any_stack(self):
        blob = self._nested(MAX_JSON_DEPTH + 1)
        responses = [f"x {blob} y", f"```json\n{blob}\n```"]

        def outcome(response):
            try:
                return extract_json_block(response)
            except ResponseSyntaxError:
                return "syntax_error"

        assert [outcome(r) for r in responses] == ["syntax_error"] * 2
        assert map_contained(outcome, responses, parallelism=2) == [("syntax_error", None)] * 2

    def test_brackets_inside_strings_do_not_count_toward_the_cap(self):
        blob = '{"a": "' + "[{" * MAX_JSON_DEPTH + '", "b": [1]}'
        assert extract_json_block(f"x {blob} y") == json.loads(blob)
        assert extract_json_block(f'x {blob} {self._nested(MAX_JSON_DEPTH + 1)}') == json.loads(blob)

    def test_result_always_parses(self):
        import random

        rng = random.Random(11)
        for _ in range(100):
            obj = {f"k{i}": rng.choice([1, "s", [1, 2], {"x": "y"}]) for i in range(rng.randint(1, 4))}
            blob = json.dumps(obj)
            response = rng.choice(
                [f"Sure! ```json\n{blob}\n``` done", f"Answer: {blob} trailing", blob]
            )
            assert extract_json_block(response) == obj


class TestExtractBoxed:
    def test_simple(self):
        assert extract_boxed("reasoning … \\boxed{A}") == "A"

    def test_invalid_letter(self):
        with pytest.raises(NoVerdictError):
            extract_boxed("\\boxed{X}")

    def test_last_occurrence_wins(self):
        assert extract_boxed("\\boxed{B} … final: \\boxed{C}") == "C"

    def test_whitespace_tolerated(self):
        assert extract_boxed("\\boxed{ B }") == "B"

    def test_lowercase_normalized(self):
        assert extract_boxed("\\boxed{c}") == "C"

    def test_missing(self):
        with pytest.raises(NoVerdictError):
            extract_boxed("no verdict anywhere")
