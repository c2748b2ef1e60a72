"""Chat-completion client with retries, an HTTP transport on the standard
library, and a fully offline mock transport.

The wire shape is the common JSON one: POST {model, messages, temperature}
and read choices[0].message.content back. A `ChatRequest` carries only what
its caller varies, the messages, a max_tokens cap and a stage; the model is
the client's, and the temperature is always 0.0. The package relies on one
fixed answer per request: a tree flush stops at the first layer whose texts
did not change, a document reloads to what a re-flush would give, and the
reply memo below serves a repeated request. The transport is injectable so
every caller (aggregation, traversal agent and oracle, response generation)
runs against either a live HTTP endpoint or the in-memory mock; nothing else
in the package knows which. A transport that gets no answer raises
`OSError`; `LlmClient` retries that, 429 and 5xx (MAX_ATTEMPTS in all,
backing off from BACKOFF_S), then raises one `RemoteUnavailableError` that
names the request's stage.

The mock is deterministic: a small heuristic that understands this
package's own prompt layouts answers every request, so end-to-end runs work
offline without canned transcripts. Only `HttpTransport.send` loads the
HTTP stack (`http.client`, `urllib.request`, and through them `ssl` and
`email`), so importing the package or building a client does not.

`call_concurrently` runs every batch of two or more calls on one pool of
MAX_CONCURRENT_CALLS daemon worker threads that take jobs from one queue,
shared by all batches and kept for the life of the process. The first such
batch starts them, and only then is `queue` imported. Exit does not wait for
an idle worker, and a batch whose caller is interrupted (say by Ctrl-C)
skips its calls that have not started.

`remembered(client, request)` is the one reply memo of the package: the
walks' agent and oracle and the reply step send through it, each client
object keeps its last MEMO_ENTRIES replies, and a request it has already
answered costs no call. Aggregation sends through `complete` alone, so that
the tree counts every aggregation it makes. A reply is filed under the
built-in `hash` of the request as sent, a tuple of the client's model, the
repr of max_tokens, and each message's (role, content), so the
parts stay apart; only the int key and the reply's content are kept, so an
entry costs the same whatever the length of its texts. CPython hashes
strings with keyed SipHash, seeded per process, into `sys.hash_info.width`
bits (64 on a 64-bit build): against at most MEMO_ENTRIES keys, a lookup
finds another request's reply with probability below 2^-52 there. A memo
lives as long as its client; a client that cannot be weakly referenced gets
none. A call that raises stores nothing, and two threads that miss on the
same request at once both send it. The memo assumes that the endpoint
answers an identical request, at temperature 0, the same way every time.

The call pool and the memos are the module's only process-wide state, and
both sit behind one lock, which a forked child replaces along with the pool:
a thread of the parent that held it at the fork does not exist in the child.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import urllib.parse
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ConfigurationError, InvalidParameterError, ProtocolError, RemoteUnavailableError
from .metrics import informative_tokens, tokenize

ENV_ENDPOINT = "HATMEM_ENDPOINT"
ENV_API_KEY = "HATMEM_API_KEY"
ENV_MODEL = "HATMEM_MODEL"
# Workers of the one shared call pool, and so the most calls that all
# concurrent batches of the process together have in flight at once: one cap
# on what a single endpoint sees, however many threads start batches.
MAX_CONCURRENT_CALLS = 8
MAX_ATTEMPTS = 3
BACKOFF_S = 1.0

_ROLES = ("system", "user", "assistant")


def is_int(value) -> bool:
    """An int that is not a bool: JSON's true and false do not count as 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_max_tokens(value) -> bool:
    """None (no cap) or an int >= 1 that is not a bool."""
    return value is None or (is_int(value) and value >= 1)


@dataclass
class ChatRequest:
    """What a caller varies in a chat call; the client adds its model and temperature 0.0."""

    messages: list[dict]
    max_tokens: Optional[int] = None
    stage: Optional[str] = None  # aggregate, agent, oracle or generate; never sent

    def validate(self) -> None:
        if not self.messages:
            raise InvalidParameterError("request needs at least one message")
        for message in self.messages:
            if not isinstance(message, dict):
                raise InvalidParameterError(f"message must be a dict, got {message!r}")
            if message.get("role") not in _ROLES:
                raise InvalidParameterError(f"bad message role {message.get('role')!r}")
            if not isinstance(message.get("content"), str):
                raise InvalidParameterError("message content must be a string")
        if not is_max_tokens(self.max_tokens):
            raise InvalidParameterError(f"max_tokens must be a positive integer or None, got {self.max_tokens!r}")


@dataclass
class ChatReply:
    content: str
    usage: dict = field(default_factory=dict)
    attempts: int = 1


class HttpTransport:
    """Live JSON-over-HTTP backend on `urllib.request`, for http(s) URLs only.

    Returns (status, body) for every status, the body parsed as JSON when it
    parses and as text otherwise, as when it is nested too deep for the
    parser. No answer at all raises `OSError`: a
    `URLError`, a timeout, or `ConnectionError` for a malformed response.
    """

    def __init__(self, endpoint: str, api_key: str, timeout: float = 30.0):
        parts = urllib.parse.urlsplit(endpoint)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigurationError(f"endpoint must be an http:// or https:// URL, got {endpoint!r}")
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout

    def send(self, payload: dict):
        import http.client
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Authorization": f"Bearer {self.api_key}",
                     "Content-Type": "application/json"},
            method="POST",
        )
        try:
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    status, raw = response.status, response.read()
            except urllib.error.HTTPError as error:
                with error:
                    status, raw = error.code, error.read()
        except http.client.HTTPException as exc:
            raise ConnectionError(f"malformed HTTP response: {exc!r}") from exc
        try:
            return status, json.loads(raw)
        except (ValueError, RecursionError):
            return status, raw.decode("utf-8", errors="replace")


class MockTransport:
    """Offline backend answering with `heuristic_reply`.

    Safe to share across threads: a tree flush and an agent walk's descent
    call it from several at once.
    """

    def __init__(self):
        self.calls = 0
        self._calls_lock = threading.Lock()

    def send(self, payload: dict):
        with self._calls_lock:
            self.calls += 1
        messages = payload.get("messages") or []
        content = heuristic_reply(messages)
        prompt_tokens = sum(len(tokenize(m.get("content", ""))) for m in messages)
        body = {
            "choices": [{"message": {"role": "assistant", "content": content}}],
            "usage": {
                "prompt_tokens": prompt_tokens,
                "completion_tokens": len(tokenize(content)),
            },
        }
        return 200, body


class LlmClient:
    """Retrying chat-completion client over an injectable transport.

    A transport failure (any `OSError`), 429 or 5xx is retried, MAX_ATTEMPTS
    attempts in all, sleeping BACKOFF_S and then twice as long before each
    further attempt; when the last one fails, `RemoteUnavailableError`
    carries the request's stage. Other statuses and malformed bodies fail at
    once as `ProtocolError`, which carries the stage too. Instances are
    shareable across threads; retries are independent per request. `sleep`
    is injectable so that tests and benchmarks need not wait out the backoff.

    Every payload names the client's `model`, a string checked here, at
    temperature 0.0 (see the module docstring); max_tokens only when set.
    """

    def __init__(self, transport, model: str, sleep: Callable[[float], None] = time.sleep):
        if not isinstance(model, str):
            raise InvalidParameterError(f"model must be a string, got {model!r}")
        self.transport = transport
        self.model = model
        self._sleep = sleep

    def complete(self, request: ChatRequest) -> ChatReply:
        request.validate()
        payload = {"model": self.model,
                   "messages": [{"role": m["role"], "content": m["content"]} for m in request.messages],
                   "temperature": 0.0}
        if request.max_tokens is not None:
            payload["max_tokens"] = request.max_tokens
        stage = request.stage or "chat"
        failure = "no attempt made"
        for attempt in range(1, MAX_ATTEMPTS + 1):
            if attempt > 1:
                self._sleep(BACKOFF_S * 2 ** (attempt - 2))
            try:
                status, body = self.transport.send(payload)
            except OSError as exc:
                failure = f"transport failure: {exc}"
                continue
            if status == 429 or status >= 500:
                failure = f"HTTP {status}"
                continue
            if status != 200:
                raise ProtocolError(f"{stage} request rejected with HTTP {status}", stage=request.stage)
            if not isinstance(body, dict):
                raise ProtocolError(f"{stage} response body is not JSON", stage=request.stage)
            try:
                content = body["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError):
                raise ProtocolError(f"{stage} response body missing choices[0].message.content",
                                    stage=request.stage) from None
            if not isinstance(content, str):
                raise ProtocolError(f"{stage} reply content is not a string", stage=request.stage)
            usage = body.get("usage") if isinstance(body.get("usage"), dict) else {}
            return ChatReply(content=content, usage=usage, attempts=attempt)
        raise RemoteUnavailableError(
            f"{stage} call gave up after {MAX_ATTEMPTS} attempts ({failure})", stage=request.stage)


_on_pool = threading.local()
_jobs = None  # the workers' one job queue
_lock = threading.Lock()  # guards `_jobs` and `_memos`


def _work(jobs):
    _on_pool.worker = True
    while True:
        _run(*jobs.get())  # the job's references go when `_run` returns


def _run(call, item, index, failed, reports):
    if failed:  # another call of the batch raised, or its caller was interrupted
        return reports.put((index, None, None))
    try:
        reports.put((index, call(item), None))
    except BaseException as error:
        failed.append(True)
        reports.put((index, None, error))


def _forget_pool():
    # A forked child has none of its parent's worker threads, so its first
    # batch would wait forever on the parent's queue; nor has it the thread
    # that may have held the lock at the fork.
    global _jobs, _lock
    _jobs, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def call_concurrently(call: Callable, items: list) -> list:
    """`[call(item) for item in items]`, with the calls run on the shared pool.

    A batch of one runs on the calling thread. A larger one runs on the
    process's one pool of MAX_CONCURRENT_CALLS daemon workers on one job
    queue, started at the first such batch; exit does not wait for them. So
    the cap holds for all batches in flight together, not for each. A batch
    started from inside a pooled call runs on that worker, item by item:
    waiting there for other workers could deadlock a full pool. Results come
    back in item order.

    Once a call has raised, or the caller's wait is interrupted (say by
    Ctrl-C, re-raised at once), the batch starts none of its calls that have
    not started. Otherwise, when every started call has returned, the first
    failure in item order among them is raised.
    """
    if len(items) < 2 or getattr(_on_pool, "worker", False):
        return [call(item) for item in items]
    import queue

    global _jobs
    with _lock:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            for n in range(MAX_CONCURRENT_CALLS):
                threading.Thread(target=_work, args=(_jobs,), name=f"hatmem-call_{n}",
                                 daemon=True).start()
        jobs = _jobs
    failed, reports = [], queue.SimpleQueue()
    results, errors = [None] * len(items), [None] * len(items)
    try:
        for index, item in enumerate(items):
            jobs.put((call, item, index, failed, reports))
        for _ in items:
            index, results[index], errors[index] = reports.get()
    except BaseException:
        failed.append(True)
        raise
    for error in errors:
        if error is not None:
            raise error
    return results


# Replies each client remembers, least recently used first out.
MEMO_ENTRIES = 4096

# Client -> {request key: reply content}, oldest first, under `_lock`.
# A plain dict keeps that order in less memory per entry than an OrderedDict.
_memos: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def remembered(client, request: ChatRequest) -> str:
    """`client.complete(request).content`, from the client's memo when the
    same request was answered before (see the module docstring)."""
    request.validate()
    key = hash((client.model, repr(request.max_tokens),
                *((m["role"], m["content"]) for m in request.messages)))
    try:
        with _lock:
            memo = _memos.get(client)
            if memo is None:
                memo = _memos[client] = {}
            elif key in memo:
                content = memo[key] = memo.pop(key)  # now the newest
                return content
    except TypeError:  # no weak reference to the client, so no memo
        return client.complete(request).content
    content = client.complete(request).content
    with _lock:
        memo.pop(key, None)
        memo[key] = content
        while len(memo) > MEMO_ENTRIES:
            del memo[next(iter(memo))]
    return content


def live_client(endpoint: Optional[str] = None, api_key: Optional[str] = None,
                model: Optional[str] = None, env=os.environ) -> LlmClient:
    """Client on `HttpTransport` and its default timeout; unset values fall back to env vars."""
    endpoint = endpoint or env.get(ENV_ENDPOINT)
    api_key = api_key or env.get(ENV_API_KEY)
    model = model or env.get(ENV_MODEL)
    if not endpoint:
        raise ConfigurationError(f"no endpoint configured (flag, config file, or {ENV_ENDPOINT})")
    if not api_key:
        raise ConfigurationError(f"no API key configured (flag, config file, or {ENV_API_KEY})")
    if not model:
        raise ConfigurationError(f"no model configured (flag, config file, or {ENV_MODEL})")
    return LlmClient(HttpTransport(endpoint, api_key), model=model)


def mock_client(model: str = "mock-chat") -> LlmClient:
    return LlmClient(MockTransport(), model=model, sleep=lambda _s: None)


# --------------------------------------------------------------- mock replies

def _covers(passage: str, query: str) -> bool:
    wanted = informative_tokens(query)
    if not wanted:
        return True
    have = set(tokenize(passage))
    return all(token in have for token in wanted)


def _section(text: str, start_marker: str, end_markers: list[str]) -> str:
    start = text.find(start_marker)
    if start < 0:
        return ""
    start += len(start_marker)
    end = len(text)
    for marker in end_markers:
        pos = text.find(marker, start)
        if 0 <= pos < end:
            end = pos
    return text[start:end].strip()


def heuristic_reply(messages: list[dict]) -> str:
    """Deterministic stand-in replies for this package's own prompt layouts.

    Sufficiency prompts get one line "<n>: YES" or "<n>: NO" per numbered
    passage, judged on its own: YES when every informative question token
    occurs in passage n. Traversal prompts get ACCEPT under the same test and
    DOWN otherwise; persona prompts echo the merged passages; response prompts
    quote the best-matching memory line. Anything else gets a fixed string.
    """
    text = "\n".join(m.get("content", "") for m in messages)

    if "Reply with exactly one action token." in text:
        query = _section(text, "QUESTION:", ["\nCURRENT NODE:"])
        node_text = _section(text, "CURRENT NODE:", ["\nMOVES SO FAR:"])
        return "ACCEPT" if _covers(node_text, query) else "DOWN"

    if "Reply YES or NO." in text:
        query = _section(text, "QUESTION:", ["\nPASSAGE 1:"])
        start, end = text.find("\nPASSAGE 1:\n"), text.rfind("\nDoes each passage contain")
        passages = re.split(r"\nPASSAGE \d+:\n", text[start:end])[1:] if 0 <= start < end else []
        return "\n".join(f"{n}: {'YES' if _covers(passage, query) else 'NO'}"
                         for n, passage in enumerate(passages, 1))

    if "Passages to merge:" in text:
        block = _section(text, "Passages to merge:", [])
        merged = re.sub(r"(?m)^\d+\.\s", "", block)
        return " ".join(merged.split())

    if "USER MESSAGE:" in text:
        query = _section(text, "USER MESSAGE:", [])
        memory = _section(text, "MEMORY:", ["\nUSER MESSAGE:"])
        wanted = set(informative_tokens(query))
        best_line = ""
        best_overlap = 0
        for line in memory.splitlines():
            overlap = len(wanted & set(tokenize(line)))
            if overlap > best_overlap:
                best_line = line
                best_overlap = overlap
        if best_overlap > 0:
            return re.sub(r"^(user|assistant):\s*", "", best_line.strip())
        return "I do not have that in my notes."

    return "OK."
