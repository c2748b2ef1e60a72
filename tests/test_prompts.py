"""The four prompts, as their callers send them: pinned bytes, and agreement
with the markers the mock transport's heuristic reads."""

from __future__ import annotations

import hashlib
import json

import pytest

from hatmem import (
    Cursor,
    LlmAgent,
    LlmOracle,
    LlmPersonaAggregator,
    TraversalAction,
    generate_response,
    mock_client,
    persona_prompt,
)
from hatmem.traversal import llm_agent_prompt


def digest(messages) -> str:
    return hashlib.sha256(json.dumps(messages, sort_keys=True).encode("utf-8")).hexdigest()


class RecordingMock:
    """The mock client, with every request it answers kept in `requests`."""

    def __init__(self):
        self._client = mock_client()
        self.model = self._client.model
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self._client.complete(request)

    def messages(self) -> list[dict]:
        """The messages of the one request this client answered."""
        (request,) = self.requests
        return request.messages


def joined(client: RecordingMock) -> str:
    return "\n".join(m["content"] for m in client.messages())


def sent_messages(call) -> list[dict]:
    """The messages of the one request that `call(client)` sends."""
    client = RecordingMock()
    call(client)
    return client.messages()


PROMPTS = {
    "persona": lambda: persona_prompt(["user: she likes tea", "assistant: noted {x}\n", "\nthird"]),
    "agent": lambda: llm_agent_prompt("node\nbody {y}", "what tea?",
                                      [(Cursor(0, 0), TraversalAction.DOWN),
                                       (Cursor(1, 2), TraversalAction.RIGHT)]),
    "agent_empty_path": lambda: llm_agent_prompt("n", "q", []),
    "oracle": lambda: sent_messages(
        lambda client: LlmOracle(client).sufficient("passage text\nline two", "which tea?")),
    "reply_memory": lambda: sent_messages(
        lambda client: generate_response("user: she likes tea\nassistant: ok", "which tea?", client)),
    "reply_empty": lambda: sent_messages(
        lambda client: generate_response("", "which tea?", client)),
}


class TestPinnedBytes:
    # SHA-256 of json.dumps(messages, sort_keys=True) on fixed inputs. A prompt
    # edit changes every reply a live endpoint gives, so a digest changes only
    # with a deliberate edit of its prompt.
    DIGESTS = {
        "persona": "f6d6efeb886feff05f08fcbd06910f30b90c346eebed55e4087638eb8ad77769",
        "agent": "abb65d789b52cb90bfcca7005868f94d900480513a776b9c38ea570ae3c54be0",
        "agent_empty_path": "95c9cc51027c04f0f971b8ef296782dc6d6391086165a5d420e7c44fb440fb6d",
        "oracle": "d9b84d2a80dcd61f9e1d5057e766470c9cbfa2edd7175c7ac323a678545ea21d",
        "reply_memory": "fb13d713596e19463c8f18168e752aedde374633e80e5b7418f4075a5b2d0603",
        "reply_empty": "ffc899bae67a2c054ffa7ae485163a399b6f00ee517cf79bad51404fdaeedd06",
    }

    @pytest.mark.parametrize("name", sorted(PROMPTS))
    def test_prompt_bytes_are_pinned(self, name):
        assert digest(PROMPTS[name]()) == self.DIGESTS[name]


class TestMockUnderstandsEveryCaller:
    # A marker missing from a prompt makes the mock answer "OK.", which the
    # oracle reads as NO and the agent as ACCEPT after its retries: no error
    # would show the mismatch.
    def test_persona_merges(self):
        client = RecordingMock()
        merged = LlmPersonaAggregator(client).aggregate(["user: I keep a zephyrite crystal",
                                                         "assistant: noted"])
        assert "Passages to merge:" in joined(client)
        assert merged == "user: I keep a zephyrite crystal assistant: noted"

    @pytest.mark.parametrize("node_text, action", [
        ("user: I keep a zephyrite crystal", TraversalAction.ACCEPT),
        ("user: we talked about pasta", TraversalAction.DOWN),
    ], ids=["covered", "not_covered"])
    def test_agent_steers(self, node_text, action):
        client = RecordingMock()
        assert LlmAgent(client).propose_action(node_text, "Which crystal do I keep?", []) is action
        for marker in ("Reply with exactly one action token.", "QUESTION:", "CURRENT NODE:",
                       "MOVES SO FAR:"):
            assert marker in joined(client)

    @pytest.mark.parametrize("passage, verdict", [
        ("user: I keep a zephyrite crystal", True),
        ("user: we talked about pasta", False),
    ], ids=["covered", "not_covered"])
    def test_oracle_judges(self, passage, verdict):
        client = RecordingMock()
        assert LlmOracle(client).sufficient(passage, "Which crystal do I keep?") is verdict
        for marker in ("Reply YES or NO.", "QUESTION:", "PASSAGE:", "Does the passage contain"):
            assert marker in joined(client)

    @pytest.mark.parametrize("context, reply", [
        ("user: I keep a zephyrite crystal\nassistant: noted", "I keep a zephyrite crystal"),
        ("", "I do not have that in my notes."),
    ], ids=["with_memory", "without_memory"])
    def test_reply_quotes_memory(self, context, reply):
        client = RecordingMock()
        assert generate_response(context, "Which crystal do I keep?", client) == reply
        assert "USER MESSAGE:" in joined(client)
        assert ("MEMORY:" in joined(client)) is bool(context)
