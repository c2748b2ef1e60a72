"""Chat client: wire shape, retry policy, mock determinism."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import hatmem
from hatmem import ChatRequest, HttpTransport, LlmClient, MockTransport, mock_client
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
                              temperature=0.25, stage="oracle")
        assert request.payload() == {
            "model": "m",
            "messages": [{"role": "user", "content": "hi"}],
            "temperature": 0.25,
        }
        request.max_tokens = 64
        assert request.payload()["max_tokens"] == 64


class TestRetries:
    def test_success_on_first_attempt(self):
        client, sleeps = make_client([(200, ok_body("fixed"))])
        reply = client.complete(simple_request())
        assert (reply.content, reply.attempts, sleeps) == ("fixed", 1, [])

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
        client, _ = make_client([ConnectionError("refused"), (200, ok_body("ok"))])
        assert client.complete(simple_request()).content == "ok"

    def test_exhausted_retries(self):
        client, sleeps = make_client([(500, {}), (500, {}), (500, {})])
        with pytest.raises(RemoteUnavailableError) as failure:
            client.complete(simple_request())
        assert sleeps == [1.0, 2.0]
        assert failure.value.stage is None

    def test_exhausted_retries_name_the_stage(self):
        client, _ = make_client([(500, {}), OSError("reset"), (503, {})])
        request = simple_request()
        request.stage = "generate"
        with pytest.raises(RemoteUnavailableError, match="generate call gave up") as failure:
            client.complete(request)
        assert failure.value.stage == "generate"
        assert RemoteUnavailableError("no stage given").stage is None

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
        with pytest.raises(ProtocolError, match="chat response") as failure:
            client.complete(simple_request())
        assert failure.value.stage is None


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


class TestHttpTransport:
    """`LlmClient` over the real transport, against a loopback server."""

    def client(self, url, timeout=5.0):
        sleeps = []
        client = LlmClient(HttpTransport(url, "secret-key", timeout=timeout), model="m",
                           sleep=sleeps.append)
        return client, sleeps

    def test_ok_sends_bearer_key_and_json_payload(self, chat_server):
        chat_server.script = [(200, ok_body("hello back"))]
        client, sleeps = self.client(chat_server.url)
        request = simple_request()
        request.stage = "generate"
        reply = client.complete(request)
        assert (reply.content, reply.attempts, reply.usage) == ("hello back", 1, {"total_tokens": 5})
        ((headers, payload),) = chat_server.seen
        assert headers["Authorization"] == "Bearer secret-key"
        assert headers["Content-Type"] == "application/json"
        assert payload == request.payload()
        assert sleeps == []

    def test_429_then_503_then_ok(self, chat_server):
        chat_server.script = [(429, {"error": "slow down"}), (503, "busy"), (200, ok_body("ok"))]
        client, sleeps = self.client(chat_server.url)
        reply = client.complete(simple_request())
        assert (reply.content, reply.attempts) == ("ok", 3)
        assert sleeps == [1.0, 2.0]
        assert len(chat_server.seen) == 3

    def test_400_is_protocol_error_after_one_request(self, chat_server):
        chat_server.script = [(400, {"error": "bad"}), (400, {"error": "bad"})]
        client, sleeps = self.client(chat_server.url)
        assert client.transport.send({"x": 1}) == (400, {"error": "bad"})
        request = simple_request()
        request.stage = "aggregate"
        with pytest.raises(ProtocolError, match="HTTP 400") as failure:
            client.complete(request)
        assert failure.value.stage == "aggregate"
        assert "aggregate request" in str(failure.value)
        assert len(chat_server.seen) == 2 and sleeps == []

    def test_non_json_body(self, chat_server):
        chat_server.script = [(200, "<html>oops</html>")]
        client, _ = self.client(chat_server.url)
        assert client.transport.send({}) == (200, "<html>oops</html>")
        chat_server.script = [(200, "<html>oops</html>")]
        request = simple_request()
        request.stage = "generate"
        with pytest.raises(ProtocolError, match="not JSON") as failure:
            client.complete(request)
        assert failure.value.stage == "generate"
        assert "generate response" in str(failure.value)

    def test_missing_choices(self, chat_server):
        chat_server.script = [(200, {"usage": {}})]
        client, _ = self.client(chat_server.url)
        request = simple_request()
        request.stage = "oracle"
        with pytest.raises(ProtocolError, match="choices") as failure:
            client.complete(request)
        assert failure.value.stage == "oracle"
        assert "oracle response" in str(failure.value)
        assert len(chat_server.seen) == 1

    def test_read_timeout_is_retried_then_unavailable(self, chat_server):
        chat_server.delay_s = 0.3
        client, sleeps = self.client(chat_server.url, timeout=0.2)
        request = simple_request()
        request.stage = "oracle"
        with pytest.raises(RemoteUnavailableError, match="transport failure") as failure:
            client.complete(request)
        assert failure.value.stage == "oracle"
        assert len(chat_server.seen) == 3 and sleeps == [1.0, 2.0]

    def test_refused_port(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client, sleeps = self.client(f"http://127.0.0.1:{port}/v1/chat", timeout=1.0)
        with pytest.raises(RemoteUnavailableError, match="transport failure"):
            client.complete(simple_request())
        assert sleeps == [1.0, 2.0]

    def test_only_http_and_https_endpoints(self):
        for endpoint in ("file:///tmp/reply.json", "ftp://example.com/chat", "notaurl", "",
                         "http://", "https:///v1/chat"):
            with pytest.raises(ConfigurationError):
                HttpTransport(endpoint, "k")
        HttpTransport("https://example.com/v1/chat", "k")


def test_importing_the_package_leaves_requests_unloaded():
    code = "import sys, hatmem, hatmem.cli; print('requests' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(hatmem.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"


def test_importing_and_building_a_live_client_leave_the_http_stack_unloaded():
    code = ("import sys, hatmem, hatmem.cli\n"
            "hatmem.live_client('https://example.com/v1/chat', 'k', 'm')\n"
            "print(sorted({'http.client', 'urllib.request', 'ssl', 'email'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(hatmem.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


class TestMock:

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
