"""Chat client: wire shape, retry policy, mock determinism."""

from __future__ import annotations

import sys
import threading

import pytest
import requests

from hatmem import ChatRequest, LlmClient, MockTransport, mock_client, request_digest
from hatmem.errors import (
    ConfigurationError,
    InvalidParameterError,
    ProtocolError,
    RemoteUnavailableError,
)
from hatmem.llm import heuristic_reply, live_client


def ok_body(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}], "usage": {"total_tokens": 5}}


class FlakyTransport:
    """Replays a scripted list of responses; an exception instance raises."""

    def __init__(self, script):
        self.script = list(script)
        self.sent = []

    def send(self, payload):
        self.sent.append(payload)
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def make_client(script, **kwargs):
    sleeps = []
    client = LlmClient(FlakyTransport(script), model="m", sleep=sleeps.append, **kwargs)
    return client, sleeps


def simple_request() -> ChatRequest:
    return ChatRequest(model="m", messages=[{"role": "user", "content": "hi"}])


class TestValidation:
    def test_needs_messages(self):
        with pytest.raises(InvalidParameterError):
            ChatRequest(model="m", messages=[]).validate()

    def test_rejects_bad_role_and_content(self):
        with pytest.raises(InvalidParameterError):
            ChatRequest(model="m", messages=[{"role": "robot", "content": "x"}]).validate()
        with pytest.raises(InvalidParameterError):
            ChatRequest(model="m", messages=[{"role": "user", "content": 7}]).validate()

    def test_rejects_negative_temperature(self):
        with pytest.raises(InvalidParameterError):
            ChatRequest(model="m", messages=[{"role": "user", "content": "x"}],
                        temperature=-0.5).validate()

    def test_payload_wire_shape(self):
        request = ChatRequest(model="m", messages=[{"role": "user", "content": "hi"}],
                              temperature=0.25)
        assert request.payload() == {
            "model": "m",
            "messages": [{"role": "user", "content": "hi"}],
            "temperature": 0.25,
        }
        request.max_tokens = 64
        assert request.payload()["max_tokens"] == 64


class TestRetries:
    def test_two_429s_then_success(self):
        client, sleeps = make_client([(429, {}), (429, {}), (200, ok_body("done"))])
        reply = client.complete(simple_request())
        assert reply.content == "done"
        assert reply.attempts == 3
        assert sleeps == [1.0, 2.0]

    def test_5xx_then_success(self):
        client, sleeps = make_client([(503, {}), (200, ok_body("ok"))])
        assert client.complete(simple_request()).attempts == 2
        assert sleeps == [1.0]

    def test_transport_error_then_success(self):
        client, _ = make_client([requests.ConnectionError("refused"), (200, ok_body("ok"))])
        assert client.complete(simple_request()).content == "ok"

    def test_exhausted_retries(self):
        client, sleeps = make_client([(500, {}), (500, {}), (500, {})])
        with pytest.raises(RemoteUnavailableError):
            client.complete(simple_request())
        assert sleeps == [1.0, 2.0]

    def test_non_retryable_rejection(self):
        client, sleeps = make_client([(400, {"error": "bad"})])
        with pytest.raises(ProtocolError):
            client.complete(simple_request())
        assert sleeps == []

    def test_non_json_body(self):
        client, _ = make_client([(200, "<html>oops</html>")])
        with pytest.raises(ProtocolError):
            client.complete(simple_request())

    def test_missing_choices(self):
        client, _ = make_client([(200, {"usage": {}})])
        with pytest.raises(ProtocolError):
            client.complete(simple_request())


class TestLiveConfig:
    def test_missing_credential_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            live_client(env={})
        with pytest.raises(ConfigurationError):
            live_client(endpoint="http://x", env={})

    def test_env_fallback(self):
        env = {"HATMEM_ENDPOINT": "http://x/v1/chat", "HATMEM_API_KEY": "k",
               "HATMEM_MODEL": "gpt-test"}
        client = live_client(env=env)
        assert client.model == "gpt-test"
        assert client.transport.endpoint == "http://x/v1/chat"


class TestMock:
    def test_fixture_reply_by_digest(self):
        messages = [{"role": "user", "content": "anything"}]
        client = mock_client({request_digest(messages): "fixed"})
        reply = client.complete(ChatRequest(model="mock-chat", messages=messages))
        assert reply.content == "fixed"
        assert reply.attempts == 1

    def test_deterministic_replies(self):
        messages = [{"role": "user", "content": "tell me something"}]
        first = mock_client().complete(ChatRequest(model="m", messages=messages))
        second = mock_client().complete(ChatRequest(model="m", messages=messages))
        assert first.content == second.content
        assert first.usage == second.usage

    def test_counts_calls_without_network(self):
        transport = MockTransport()
        client = LlmClient(transport, model="m", sleep=lambda _s: None)
        client.complete(simple_request())
        client.complete(simple_request())
        assert transport.calls == 2

    def test_call_count_exact_across_threads(self):
        transport = MockTransport()
        payload = simple_request().payload()

        def send_many():
            for _ in range(300):
                transport.send(payload)

        threads = [threading.Thread(target=send_many) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert transport.calls == 1200


class TestHeuristicReplies:
    def test_sufficiency_yes_and_no(self):
        def judge(passage, query):
            return heuristic_reply([{
                "role": "user",
                "content": f"QUESTION: {query}\nPASSAGE:\n{passage}\nDoes the passage contain "
                           "enough information to answer the question? Reply YES or NO.",
            }])
        assert judge("I keep a zephyrite crystal on my desk", "Which crystal is on my desk?") == "YES"
        assert judge("we talked about pasta", "Which crystal is on my desk?") == "NO"

    def test_agent_accepts_when_covered(self):
        content = ("QUESTION: where is the spare key?\nCURRENT NODE:\n"
                   "user: the spare key is under the mat\nMOVES SO FAR: none yet\n"
                   "Reply with exactly one action token.")
        assert heuristic_reply([{"role": "user", "content": content}]) == "ACCEPT"

    def test_agent_descends_otherwise(self):
        content = ("QUESTION: where is the spare key?\nCURRENT NODE:\nweather chat\n"
                   "MOVES SO FAR: none yet\nReply with exactly one action token.")
        assert heuristic_reply([{"role": "user", "content": content}]) == "DOWN"

    def test_response_quotes_best_memory_line(self):
        content = ("MEMORY:\nuser: my bike is blue\nuser: my car is red\n\n"
                   "USER MESSAGE: what color is my car?")
        assert heuristic_reply([{"role": "user", "content": content}]) == "my car is red"

    def test_response_without_matching_memory(self):
        content = "MEMORY:\nnothing useful\n\nUSER MESSAGE: what color is my car?"
        assert heuristic_reply([{"role": "user", "content": content}]) == "I do not have that in my notes."

    def test_unknown_prompt_fixed_reply(self):
        assert heuristic_reply([{"role": "user", "content": "free-form chatter"}]) == "OK."
