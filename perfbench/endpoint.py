"""Emulated chat endpoint: the program's mock replies behind a fixed delay.

`EmulatedEndpoint` is a transport for `hatmem.LlmClient`. Each call sleeps a
fixed delay, then answers with `hatmem.MockTransport`. Like a real endpoint it
stops at `max_tokens` whitespace tokens. It tags every call with its stage
from the prompt marker the mock already keys on, and counts calls and usage
tokens per stage.
"""

from __future__ import annotations

import time
from collections import Counter

from hatmem import LlmClient, MockTransport, tokenize

STAGES = ("aggregate", "agent", "oracle", "generate")

# Checked in the order `hatmem.llm.heuristic_reply` checks them.
_STAGE_MARKERS = (
    ("Reply with exactly one action token.", "agent"),
    ("Reply YES or NO.", "oracle"),
    ("Passages to merge:", "aggregate"),
    ("USER MESSAGE:", "generate"),
)


def stage_of(messages: list[dict]) -> str:
    text = "\n".join(m.get("content", "") for m in messages)
    for marker, stage in _STAGE_MARKERS:
        if marker in text:
            return stage
    return "other"


class EmulatedEndpoint:
    def __init__(self, delay_s: float, tracer=None):
        self.delay_s = delay_s
        self.tracer = tracer
        self._mock = MockTransport()
        self.calls: Counter = Counter()
        self.prompt_tokens: Counter = Counter()
        self.completion_tokens: Counter = Counter()
        self.retry_sleeps = 0

    def send(self, payload: dict):
        if self.tracer is None:
            return self._send(payload)
        with self.tracer.span("llm.endpoint"):
            return self._send(payload)

    def _send(self, payload: dict):
        time.sleep(self.delay_s)
        status, body = self._mock.send(payload)
        max_tokens = payload.get("max_tokens")
        usage = body["usage"]
        if max_tokens is not None:
            message = body["choices"][0]["message"]
            message["content"] = " ".join(message["content"].split()[:max_tokens])
            usage["completion_tokens"] = len(tokenize(message["content"]))
        stage = stage_of(payload["messages"])
        self.calls[stage] += 1
        self.prompt_tokens[stage] += usage["prompt_tokens"]
        self.completion_tokens[stage] += usage["completion_tokens"]
        return status, body

    def skip_retry_sleep(self, seconds: float) -> None:
        """Injected as the client's backoff sleep, so a retry never sleeps."""
        self.retry_sleeps += 1

    def client(self) -> LlmClient:
        return LlmClient(self, model="mock-chat", sleep=self.skip_retry_sleep)

    def counters(self) -> dict:
        return {
            "calls": dict(self.calls),
            "prompt_tokens": dict(self.prompt_tokens),
            "completion_tokens": dict(self.completion_tokens),
            "retry_sleeps": self.retry_sleeps,
        }
