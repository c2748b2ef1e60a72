"""Chat client: wire shape, retry policy, mock determinism."""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import ThreadLoggingAggregator, every_pool_worker

import hatmem
from hatmem import (
    ChatRequest,
    HatTree,
    HttpTransport,
    LlmAgent,
    LlmClient,
    LlmOracle,
    LlmPersonaAggregator,
    MockTransport,
    TraversalConfig,
    bfs_search,
    dfs_search,
    mock_client,
    traverse,
)
from hatmem.errors import (
    ConfigurationError,
    InvalidParameterError,
    ProtocolError,
    RemoteUnavailableError,
)
from hatmem.llm import MAX_CONCURRENT_CALLS, call_concurrently, heuristic_reply, live_client, remembered


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
    return ChatRequest([{"role": "user", "content": "hi"}])


class TestValidation:
    def test_needs_messages(self):
        with pytest.raises(InvalidParameterError):
            ChatRequest([]).validate()

    def test_rejects_bad_role_and_content(self):
        with pytest.raises(InvalidParameterError):
            ChatRequest([{"role": "robot", "content": "x"}]).validate()
        with pytest.raises(InvalidParameterError):
            ChatRequest([{"role": "user", "content": 7}]).validate()

    @pytest.mark.parametrize("model", [None, 5, b"m"])
    def test_client_refuses_a_model_that_is_not_a_string(self, model):
        with pytest.raises(InvalidParameterError, match="model must be a string"):
            LlmClient(FlakyTransport([]), model)

    def test_payload_wire_shape(self):
        # The model is the client's, the temperature is always 0.0, and
        # max_tokens is sent only when the request sets it.
        client, _ = make_client([(200, ok_body("a")), (200, ok_body("b"))])
        client.complete(ChatRequest([{"role": "user", "content": "hi"}], stage="oracle"))
        client.complete(ChatRequest([{"role": "user", "content": "hi"}], max_tokens=64))
        assert [json.dumps(payload) for payload in client.transport.sent] == [
            '{"model": "m", "messages": [{"role": "user", "content": "hi"}], "temperature": 0.0}',
            '{"model": "m", "messages": [{"role": "user", "content": "hi"}], "temperature": 0.0, '
            '"max_tokens": 64}',
        ]

    @pytest.mark.parametrize("request_", [
        ChatRequest(["hi"]),
        ChatRequest([{"role": "user", "content": "hi"}], max_tokens="5"),
        ChatRequest([{"role": "user", "content": "hi"}], max_tokens=True),
        ChatRequest([{"role": "user", "content": "hi"}], max_tokens=0),
    ], ids=["message-not-a-dict", "max-tokens-str", "max-tokens-bool", "max-tokens-0"])
    def test_malformed_request_is_refused_before_it_is_sent(self, request_):
        client, _ = make_client([])
        for send in (client.complete, lambda request: remembered(client, request)):
            with pytest.raises(InvalidParameterError):
                send(request_)
        assert client.transport.sent == []


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

    def test_content_that_is_not_a_string(self):
        client, sleeps = make_client([(200, ok_body(["hi"]))])
        request = simple_request()
        request.stage = "generate"
        with pytest.raises(ProtocolError, match="^generate reply content is not a string$") as failure:
            client.complete(request)
        assert failure.value.stage == "generate" and sleeps == []

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
        with pytest.raises(ConfigurationError, match="no model configured"):
            live_client(endpoint="http://x", api_key="k", env={})

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
        assert payload == {"model": "m", "messages": [{"role": "user", "content": "hi"}],
                           "temperature": 0.0}
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

    def test_body_nested_too_deep_is_protocol_error(self, chat_server):
        nested = "[" * 100_000 + "]" * 100_000
        chat_server.script = [(200, nested)]
        client, _ = self.client(chat_server.url)
        assert client.transport.send({}) == (200, nested)
        chat_server.script = [(200, nested)]
        request = simple_request()
        request.stage = "agent"
        with pytest.raises(ProtocolError, match="agent response body is not JSON"):
            client.complete(request)
        assert len(chat_server.seen) == 2

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

    def test_malformed_status_line_is_retried_then_unavailable(self):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5.0)
        answered = []

        def serve():
            # Reads each whole request, then answers with no HTTP status line.
            for _ in range(3):
                connection, _ = listener.accept()
                with connection:
                    request = b""
                    while b"\r\n\r\n" not in request:
                        request += connection.recv(65536)
                    head, _, body = request.partition(b"\r\n\r\n")
                    length = int(re.search(rb"content-length: *(\d+)", head, re.IGNORECASE)[1])
                    while len(body) < length:
                        body += connection.recv(65536)
                    connection.sendall(b"NOT-HTTP garbage\r\n\r\n")
                    answered.append(body)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            client, sleeps = self.client(f"http://127.0.0.1:{listener.getsockname()[1]}/v1/chat")
            request = simple_request()
            request.stage = "agent"
            with pytest.raises(RemoteUnavailableError,
                               match="agent call gave up after 3 attempts .*malformed HTTP response"):
                client.complete(request)
        finally:
            thread.join(timeout=10)
            listener.close()
        assert len(answered) == 3 and sleeps == [1.0, 2.0]

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


def test_a_run_never_loads_hashlib_and_loads_the_call_pool_only_for_a_chat_batch():
    # hashlib maps OpenSSL's libcrypto and concurrent.futures imports logging:
    # a local tree must load none of them, a chat flush only the pool's
    # queue, and the memo of a walk and a reply keys with the built-in hash,
    # no SHA-256.
    code = """
import sys, hatmem, hatmem.cli
from hatmem import (ConcatAggregator, HatTree, LlmAgent, LlmOracle, LlmPersonaAggregator,
                    bfs_search, generate_response, mock_client, traverse)

def loaded():
    print([m for m in ("hashlib", "_hashlib", "_sha2", "_sha256", "concurrent.futures",
                       "logging", "queue")
           if m in sys.modules])

tree = HatTree(3, ConcatAggregator())
for i in range(30):
    tree.append_leaf(f"t{i}")
tree.flush()
copy = HatTree.deserialize(tree.serialize())
for k, row in enumerate(copy.layers):
    for i in range(len(row)):
        copy.node_at(k, i)
loaded()
persona = HatTree(3, LlmPersonaAggregator(mock_client()))
for i in range(30):
    persona.append_leaf(f"t{i}")
persona.flush()
loaded()
bfs_search(persona, LlmOracle(mock_client()), "t7")
traverse(persona, LlmAgent(mock_client()), "t7")
generate_response("user: t7", "t7", mock_client())
loaded()
"""
    env = dict(os.environ, PYTHONPATH=str(Path(hatmem.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.splitlines() == [
        "[]",
        "['queue']",
        "['queue']",
    ]


@pytest.mark.stress
class TestCallPool:
    def test_batches_share_one_pool_of_workers(self):
        threads_before = threading.active_count()
        first = every_pool_worker()
        assert len(first) == MAX_CONCURRENT_CALLS
        agg = ThreadLoggingAggregator(LlmPersonaAggregator(mock_client()))
        tree = HatTree(3, agg)
        oracle, agent = LlmOracle(mock_client()), LlmAgent(mock_client())
        config = TraversalConfig(step_budget=16)
        for i in range(50):
            for j in range(4):
                tree.append_leaf(f"t{i}.{j}")
            tree.flush()  # layer 1 aggregates two parents at once
            for search in (bfs_search, dfs_search):
                search(tree, oracle, f"zebra {i}", config)  # NO everywhere: waves of 8
            traverse(tree, agent, f"zebra {i}", config)  # DOWN everywhere: one chain
        assert threading.active_count() - threads_before <= MAX_CONCURRENT_CALLS
        assert set(agg.threads) - {threading.get_ident()} <= {thread.ident for thread in first}
        assert every_pool_worker() == first

    def test_batch_started_inside_a_pooled_call_completes(self):
        # Twice as many outer calls as workers, each starting a batch of its
        # own: on the shared pool those batches would wait behind calls that
        # wait for them.
        def outer(i):
            return call_concurrently(lambda j: (i, j, threading.get_ident()), [0, 1, 2])

        results = []
        runner = threading.Thread(target=lambda: results.append(
            call_concurrently(outer, list(range(2 * MAX_CONCURRENT_CALLS)))))
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        (batches,) = results
        assert [[(i, j) for i, j, _ in batch] for batch in batches] == \
            [[(i, j) for j in range(3)] for i in range(2 * MAX_CONCURRENT_CALLS)]
        assert all(len({thread for *_, thread in batch}) == 1 for batch in batches)

    @pytest.mark.parametrize("exception", [KeyboardInterrupt, SystemExit])
    def test_a_call_that_raises_a_base_exception_costs_the_pool_no_worker(self, exception):
        # A worker whose loop let the exception end it would be gone for
        # good and would never report its call, so the batch would hang.
        workers = every_pool_worker()
        started, returned, raised = [], [], []

        def call(i):
            if i == 0:
                raise exception
            started.append(i)
            time.sleep(0.05)
            returned.append(i)

        def batch():
            with pytest.raises(exception):
                call_concurrently(call, list(range(2 * MAX_CONCURRENT_CALLS)))
            raised.append(sorted(returned) == sorted(started))

        runner = threading.Thread(target=batch, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert raised == [True]
        assert every_pool_worker() == workers

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
    def test_an_interrupted_batch_stops_starting_calls(self):
        # Ctrl-C 50 ms into a batch three times the size of the pool, whose
        # first call hangs: the calls that started are all the batch ever
        # starts, and exit does not wait for the hanging one.
        code = """
import signal, threading, time
from hatmem.llm import MAX_CONCURRENT_CALLS, call_concurrently
started = []

def call(i):
    started.append(i)
    time.sleep(60 if i == 0 else 0.3)

threading.Timer(0.05, signal.pthread_kill, (threading.main_thread().ident, signal.SIGINT)).start()
try:
    call_concurrently(call, list(range(3 * MAX_CONCURRENT_CALLS)))
except KeyboardInterrupt:
    time.sleep(1.0)  # the other started calls return, and a worker would take the next
    print(len(started), MAX_CONCURRENT_CALLS)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(hatmem.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=30, check=True)
        started, workers = map(int, result.stdout.split())
        assert started <= workers


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_pool(self):
        # The parent's pool is full and idle when it forks; a child that kept
        # it would queue its batch for workers it does not have.
        code = """
import os, signal, sys, time
from hatmem.llm import MAX_CONCURRENT_CALLS, call_concurrently
items = list(range(MAX_CONCURRENT_CALLS))
call_concurrently(lambda _: time.sleep(0.01), items)
time.sleep(0.1)
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    os._exit(0 if call_concurrently(lambda x: x * 3, items) == [x * 3 for x in items] else 1)
print(os.waitpid(pid, 0)[1])
"""
        env = dict(os.environ, PYTHONPATH=str(Path(hatmem.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60, check=True)
        assert result.stdout.strip() == "0"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_while_the_lock_is_held_can_remember(self):
        # The memos share the pool's lock, which the child replaces: the
        # thread that holds it in the parent does not exist in the child.
        code = """
import os, signal, threading
from hatmem import llm
from hatmem.llm import ChatRequest, mock_client, remembered
held, release = threading.Event(), threading.Event()

def hold():
    with llm._lock:
        held.set()
        release.wait()

holder = threading.Thread(target=hold)
holder.start()
held.wait()
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    request = ChatRequest([{"role": "user", "content": "hi"}])
    os._exit(0 if remembered(mock_client(), request) == "OK." else 1)
release.set()
holder.join()
print(os.waitpid(pid, 0)[1])
"""
        env = dict(os.environ, PYTHONPATH=str(Path(hatmem.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60, check=True)
        assert result.stdout.strip() == "0"


class TestMock:

    def test_deterministic_replies(self):
        messages = [{"role": "user", "content": "tell me something"}]
        first = mock_client().complete(ChatRequest(messages))
        second = mock_client().complete(ChatRequest(messages))
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
        payload = {"model": "m", "messages": [{"role": "user", "content": "hi"}], "temperature": 0.0}

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
