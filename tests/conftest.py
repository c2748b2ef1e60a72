"""Shared test doubles and tree builders."""

from __future__ import annotations

import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from hatmem import ChatReply, ConcatAggregator, HatTree, MockTransport, TraversalAction
from hatmem.errors import ContractViolationError, InvalidParameterError, RemoteUnavailableError
from hatmem.llm import MAX_CONCURRENT_CALLS, call_concurrently


def build_tree(n: int, memory_length: int = 2, separator: str = " | ",
               texts=None) -> HatTree:
    tree = HatTree(memory_length, ConcatAggregator(separator))
    for i in range(n):
        tree.insert_leaf(texts[i] if texts else f"t{i}")
    return tree


class FailingAggregator(ConcatAggregator):
    """Concat that starts failing after a set number of successful calls."""

    def __init__(self, separator: str = " | ", fail_after: int = 0):
        super().__init__(separator)
        self.fail_after = fail_after
        self.calls = 0
        self.armed = True

    def aggregate(self, children_texts):
        if self.armed:
            self.calls += 1
            if self.calls > self.fail_after:
                raise RemoteUnavailableError("injected aggregation failure")
        return super().aggregate(children_texts)


class ThreadLoggingAggregator:
    """Forwards to an aggregator and records the thread of every call."""

    def __init__(self, aggregator):
        self.aggregator = aggregator
        self.kind = aggregator.kind
        self.threads = []

    def spec(self) -> dict:
        return self.aggregator.spec()

    def aggregate(self, children_texts):
        self.threads.append(threading.get_ident())
        return self.aggregator.aggregate(children_texts)


class BarrierTransport:
    """Mock replies; after the first `skip` calls, the next `parties` calls
    each wait until all of them have started.

    Calls sent one at a time break the barrier when its timeout expires, and
    the waiting call raises `threading.BrokenBarrierError`.
    """

    def __init__(self, parties: int = 2, timeout: float = 5.0, skip: int = 0):
        self._mock = MockTransport()
        self._barrier = threading.Barrier(parties, timeout=timeout)
        self._lock = threading.Lock()
        self._held = range(skip + 1, skip + parties + 1)
        self._calls = 0

    def send(self, payload):
        with self._lock:
            self._calls += 1
            hold = self._calls in self._held
        if hold:
            self._barrier.wait()
        return self._mock.send(payload)


class LoggingTransport:
    """Mock replies after a short delay, with each call's start and end logged.

    `calls` holds one record per returned call: its prompt, its reply, and
    the positions of its start and end on one clock shared by all threads.
    A call whose prompt contains `fail_on` raises a connection error;
    `failed` counts those. `sent` counts every call begun and `in_flight`
    those not yet returned or raised.
    """

    def __init__(self, delay_s: float = 0.005):
        self._mock = MockTransport()
        self.delay_s = delay_s
        self.fail_on = None
        self.failed = 0
        self.sent = 0
        self.in_flight = 0
        self.calls = []
        self._clock = 0
        self._lock = threading.Lock()

    def _tick(self) -> int:
        with self._lock:
            self._clock += 1
            return self._clock

    def send(self, payload):
        with self._lock:
            self.sent += 1
            self.in_flight += 1
        try:
            return self._send(payload)
        finally:
            with self._lock:
                self.in_flight -= 1

    def _send(self, payload):
        prompt = payload["messages"][-1]["content"]
        start = self._tick()
        time.sleep(self.delay_s)
        if self.fail_on is not None and self.fail_on in prompt:
            with self._lock:
                self.failed += 1
            raise ConnectionError("injected connection failure")
        status, body = self._mock.send(payload)
        reply = body["choices"][0]["message"]["content"]
        record = {"prompt": prompt, "reply": reply, "start": start, "end": self._tick()}
        with self._lock:
            self.calls.append(record)
        return status, body


class ClippingTransport:
    """Mock replies cut to the request's `max_tokens` words, as a model's
    would be. Each call first waits `delay_s`."""

    def __init__(self, delay_s: float = 0.0):
        self._mock = MockTransport()
        self.delay_s = delay_s

    def send(self, payload):
        if self.delay_s:
            time.sleep(self.delay_s)
        status, body = self._mock.send(payload)
        if payload.get("max_tokens") is not None:
            message = body["choices"][0]["message"]
            message["content"] = " ".join(message["content"].split()[:payload["max_tokens"]])
        return status, body


def assert_no_call_running(transport: LoggingTransport, settle_s: float = 0.05):
    """Nothing the returned or raising caller started still talks to the transport."""
    assert transport.in_flight == 0
    sent = transport.sent
    time.sleep(settle_s)
    assert transport.sent == sent


def every_pool_worker() -> set:
    """The shared call pool's worker threads, starting any it lacks.

    Runs one batch of MAX_CONCURRENT_CALLS calls that wait for each other,
    so each must run on a worker of its own.
    """
    barrier = threading.Barrier(MAX_CONCURRENT_CALLS, timeout=10)

    def hold(_):
        barrier.wait()
        return threading.current_thread()

    return set(call_concurrently(hold, list(range(MAX_CONCURRENT_CALLS))))


class TextSetOracle:
    """Sufficient exactly when the passage is in a fixed set.

    Calls are counted, and the passages of each call recorded as one list
    in `asked`, under a lock.
    """

    def __init__(self, texts=()):
        self.texts = set(texts)
        self.calls = 0
        self.asked = []
        self._lock = threading.Lock()

    def sufficient(self, passages, query):
        with self._lock:
            self.calls += 1
            self.asked.append(list(passages))
        return [text in self.texts for text in passages]


class OracleAgent:
    """Accepts when the oracle is satisfied, else cycles a fixed move list.

    The move depends only on the length of the visited path, not on call
    order, because a walk may ask ahead.
    """

    def __init__(self, oracle, moves=None):
        self.oracle = oracle
        self.moves = list(moves) if moves else [TraversalAction.DOWN, TraversalAction.RIGHT]

    def propose_action(self, node_text, query, visited_path):
        if self.oracle.sufficient([node_text], query)[0]:
            return TraversalAction.ACCEPT
        return self.moves[len(visited_path) % len(self.moves)]


class CountingAgent:
    """Wraps an agent and counts how often the walk consults it, under a lock."""

    def __init__(self, agent):
        self.agent = agent
        self.calls = 0
        self._lock = threading.Lock()

    def propose_action(self, node_text, query, visited_path):
        with self._lock:
            self.calls += 1
        return self.agent.propose_action(node_text, query, visited_path)


class ConstOracle:
    """The same verdict for every passage; calls are counted, as in TextSetOracle."""

    def __init__(self, value: bool):
        self.value = value
        self.calls = 0
        self._lock = threading.Lock()

    def sufficient(self, passages, query):
        with self._lock:
            self.calls += 1
        return [self.value] * len(passages)


class SubstringOracle:
    """True for a passage iff a fixed phrase occurs in it."""

    def __init__(self, phrase: str, case_sensitive: bool = False):
        if not phrase:
            raise InvalidParameterError("phrase must be nonempty")
        self.phrase = phrase
        self.case_sensitive = case_sensitive

    def sufficient(self, passages, query):
        if self.case_sensitive:
            return [self.phrase in text for text in passages]
        return [self.phrase.lower() in text.lower() for text in passages]


class ScriptedAgent:
    """Answers the n-th step of a walk, counted by the length of the visited
    path, with the n-th action of a fixed list; with cycle=True the list
    repeats forever. A walk that asks ahead gets the same answers as one
    that asks one node at a time."""

    def __init__(self, actions, cycle: bool = False):
        if not actions:
            raise InvalidParameterError("ScriptedAgent needs at least one action")
        self.actions = list(actions)
        self.cycle = cycle

    def propose_action(self, node_text, query, visited_path):
        step = len(visited_path)
        if step >= len(self.actions):
            if not self.cycle:
                raise ContractViolationError("scripted actions exhausted")
            step %= len(self.actions)
        return self.actions[step]


class ScriptedClient:
    """Duck-typed chat client replying with a fixed list of contents."""

    def __init__(self, replies, model: str = "scripted"):
        self.replies = list(replies)
        self.model = model
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        if not self.replies:
            raise AssertionError("ScriptedClient ran out of replies")
        return ChatReply(content=self.replies.pop(0))


class DownTransport:
    """Every call is refused with HTTP 503 while `down` is set, so a real
    client gives up; once `down` is cleared it answers as the mock. `calls`
    counts every request, refused or answered, under a lock."""

    def __init__(self):
        self._mock = MockTransport()
        self.down = True
        self.calls = 0
        self._lock = threading.Lock()

    def send(self, payload):
        with self._lock:
            self.calls += 1
        if self.down:
            return 503, "unavailable"
        return self._mock.send(payload)


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.seen.append((dict(self.headers), payload))
            status, body = server.script.pop(0) if server.script else server.fallback(payload)
        time.sleep(server.delay_s)
        data = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


class ChatServer(ThreadingHTTPServer):
    """A chat endpoint on a loopback port.

    Requests get the `script` replies in order, (status, body) each with a
    str body sent as is and anything else as JSON; after that `fallback`
    answers, by default with the mock transport's replies. Every reply waits
    `delay_s` first. `seen` holds the headers and JSON payload of each
    request. Closing the server waits for every request it has taken.
    """

    daemon_threads = False

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.url = f"http://127.0.0.1:{self.server_port}/v1/chat/completions"
        self.script = []
        self.fallback = MockTransport().send
        self.delay_s = 0.0
        self.seen = []
        self.lock = threading.Lock()

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed its socket


@pytest.fixture
def chat_server():
    server = ChatServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
