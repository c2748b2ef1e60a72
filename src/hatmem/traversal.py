"""Query-conditioned movement over the tree.

A cursor walks node coordinates under a seven-action alphabet; terminal
actions decide whether the current node suffices for the query. Moves that
would leave the structure are no-ops instead of errors so a weak agent can
never crash a walk, and a no-op move ends the walk as INSUFFICIENT: the agent
would be shown the same node for the same query again. Besides the
agent-driven walk there are breadth-first and depth-first scans that judge
every node with a sufficiency oracle, asking it once per distinct node text.
Each visited node costs one step, and all walks stop after `step_budget` steps.

Every walk asks ahead (see `_ask_ahead`): a scan about the distinct texts it
may visit, an agent walk about the DOWN chain below the root. Its result is
that of asking one node at a time, for at most 7 questions more, and the
oracle and the agent must be safe to call from several threads, as
`LlmOracle` and `LlmAgent` are.

`LlmOracle` and `LlmAgent` each remember their last MEMO_ENTRIES decisions
across walks, so a question one of them has already answered costs no chat
call; `pipeline.generate_response` keeps the same kind of memo per client.
A decision is filed under the SHA-256 digest of its question, so the memo's
size does not grow with the texts it has seen. The digest comes from
CPython's own SHA-256 module (`_sha2`, or `_sha256` before 3.12), as
`random` takes its `sha512`, and from `hashlib` only where neither exists:
importing `hashlib` maps OpenSSL's libcrypto, about 3.6 MB of resident
memory for one hash. It is imported at a memo's first lookup, not with this
module, so a run that never walks or replies loads nothing for it. The memo
assumes that the endpoint answers an identical temperature-0 request the
same way every time.
"""

from __future__ import annotations

import functools
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Optional

from .errors import ActionParseError, InvalidParameterError
from .llm import MAX_CONCURRENT_CALLS, ChatRequest, call_concurrently
from .prompts import render_messages
from .tree import HatTree, _is_int


class TraversalAction(Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"
    START = "start"
    ACCEPT = "accept"
    REJECT = "reject"


TERMINAL_ACTIONS = frozenset({TraversalAction.ACCEPT, TraversalAction.REJECT})


@dataclass(frozen=True)
class Cursor:
    layer: int
    index: int


@dataclass
class TraversalConfig:
    step_budget: int = 32

    def __post_init__(self):
        if not _is_int(self.step_budget) or self.step_budget < 1:
            raise InvalidParameterError(f"step_budget must be a positive integer, got {self.step_budget!r}")


class Outcome(Enum):
    SUFFICIENT = "sufficient"
    INSUFFICIENT = "insufficient"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class TraversalResult:
    outcome: Outcome
    text: Optional[str]
    path: list[tuple[Cursor, TraversalAction]]

    @property
    def steps(self) -> int:
        """One per visited node: an agent consultation, or a scanned node."""
        return len(self.path)


def apply_action(tree: HatTree, cursor: Cursor, action: TraversalAction) -> Cursor:
    """One cursor move; anything off the structure returns the same cursor."""
    if action in TERMINAL_ACTIONS:
        raise InvalidParameterError(f"{action.name} is terminal, not a move")
    tree.node_at(cursor.layer, cursor.index)
    M = tree.memory_length
    if action is TraversalAction.START:
        return Cursor(0, 0)
    if action is TraversalAction.UP:
        if cursor.layer == 0:
            return cursor
        return Cursor(cursor.layer - 1, cursor.index // M)
    if action is TraversalAction.DOWN:
        child_layer = cursor.layer + 1
        child_index = cursor.index * M
        if child_layer < len(tree.layers) and child_index < tree.layer_size(child_layer):
            return Cursor(child_layer, child_index)
        return cursor
    if action is TraversalAction.LEFT:
        if cursor.index == 0:
            return cursor
        return Cursor(cursor.layer, cursor.index - 1)
    # RIGHT crosses subtree boundaries: the whole layer is one recency axis.
    if cursor.index == tree.layer_size(cursor.layer) - 1:
        return cursor
    return Cursor(cursor.layer, cursor.index + 1)


def _ask_ahead(ask, questions):
    """Yield `ask(question)` for each question in order, asking ahead.

    The first question is asked alone; the rest go in waves of
    MAX_CONCURRENT_CALLS (8) concurrent asks, a wave being sent only when
    its first answer is read. A failed ask raises when its answer is read,
    after its whole wave has returned, retries included; the answers a walk
    never reads, failures included, are dropped. A walk that reads answers
    in order thus gets those of asking one question at a time, for at most
    7 asks more, and `ask` must be safe to call from several threads.
    """
    def attempt(question):
        try:
            return ask(question)
        except Exception as error:
            return error
    start, size = 0, 1
    while start < len(questions):
        for answer in call_concurrently(attempt, questions[start:start + size]):
            if isinstance(answer, Exception):
                raise answer
            yield answer
        start, size = start + size, MAX_CONCURRENT_CALLS


def traverse(tree: HatTree, agent, query: str, config: Optional[TraversalConfig] = None) -> TraversalResult:
    """Agent-driven walk from the root; every agent consultation costs one step.

    A move that leaves the cursor where it is ends the walk as INSUFFICIENT,
    with that move as the last entry of the path.

    The agent is asked ahead (see `_ask_ahead`) about the root and the DOWN
    chain below it, the nodes (1, 0), (2, 0), ... toward the leftmost leaf,
    within the budget; each question carries the path the walk has if every
    earlier answer is DOWN. The walk reads those answers while they are DOWN
    and then asks one node at a time, so no (cursor, path) is asked twice.
    """
    config = config or TraversalConfig()
    if not tree.layers:
        raise InvalidParameterError("cannot traverse an empty tree")
    end = min(len(tree.layers), MAX_CONCURRENT_CALLS + 1, config.step_budget)
    chain = [(tree.node_at(layer, 0).text, [(Cursor(above, 0), TraversalAction.DOWN) for above in range(layer)])
             for layer in range(end)]
    answers = _ask_ahead(lambda question: agent.propose_action(question[0], query, question[1]), chain)
    cursor = Cursor(0, 0)
    path: list[tuple[Cursor, TraversalAction]] = []
    while len(path) < config.step_budget:
        node = tree.node_at(cursor.layer, cursor.index)
        action = next(answers, None)
        if action is None:
            action = agent.propose_action(node.text, query, path)
        path.append((cursor, action))
        if action is TraversalAction.ACCEPT:
            return TraversalResult(Outcome.SUFFICIENT, node.text, path)
        if action is TraversalAction.REJECT:
            return TraversalResult(Outcome.INSUFFICIENT, None, path)
        moved = apply_action(tree, cursor, action)
        if moved == cursor:
            return TraversalResult(Outcome.INSUFFICIENT, None, path)
        cursor = moved
        if action is not TraversalAction.DOWN:
            answers = iter(())
    return TraversalResult(Outcome.BUDGET_EXHAUSTED, None, path)


def _scan(tree: HatTree, oracle, query: str, config: Optional[TraversalConfig], order) -> TraversalResult:
    """Judge nodes in `order` until one suffices; each visit costs one step.

    The oracle is asked ahead (see `_ask_ahead`) about each distinct text
    within the budget, once: a node whose text it already rejected in this
    scan (a clipped parent often repeats its first child) is rejected again
    without a call.
    """
    config = config or TraversalConfig()
    if not tree.layers:
        raise InvalidParameterError("cannot search an empty tree")
    budget = config.step_budget
    # One node past the budget tells running out of budget from running out of nodes.
    visits = list(islice(order, budget + 1))
    texts = [tree.node_at(cursor.layer, cursor.index).text for cursor in visits[:budget]]
    answers = _ask_ahead(lambda text: oracle.sufficient(text, query), list(dict.fromkeys(texts)))
    verdicts: dict[str, object] = {}
    path: list[tuple[Cursor, TraversalAction]] = []
    for cursor, text in zip(visits, texts):
        if text not in verdicts:
            verdicts[text] = next(answers)
        if verdicts[text]:
            path.append((cursor, TraversalAction.ACCEPT))
            return TraversalResult(Outcome.SUFFICIENT, text, path)
        path.append((cursor, TraversalAction.REJECT))
    outcome = Outcome.BUDGET_EXHAUSTED if len(visits) > budget else Outcome.INSUFFICIENT
    return TraversalResult(outcome, None, path)


def bfs_search(tree: HatTree, oracle, query: str, config: Optional[TraversalConfig] = None) -> TraversalResult:
    """Layer by layer, left to right; finds the (layer, index)-minimal sufficient node.

    Asks a thread-safe oracle once per distinct node text; see `_scan`.
    """
    def order():
        for layer in range(len(tree.layers)):
            for index in range(tree.layer_size(layer)):
                yield Cursor(layer, index)
    return _scan(tree, oracle, query, config, order())


def dfs_search(tree: HatTree, oracle, query: str, config: Optional[TraversalConfig] = None) -> TraversalResult:
    """Pre-order, children left to right; finds the pre-order-first sufficient node.

    The order does not depend on any verdict, so this too asks a thread-safe
    oracle once per distinct text; see `_scan`.
    """
    def order():
        stack = [Cursor(0, 0)]
        while stack:
            cursor = stack.pop()
            yield cursor
            child_layer = cursor.layer + 1
            if child_layer < len(tree.layers):
                first = cursor.index * tree.memory_length
                last = min(first + tree.memory_length, tree.layer_size(child_layer))
                stack.extend(Cursor(child_layer, index) for index in reversed(range(first, last)))
    return _scan(tree, oracle, query, config, order())


def fallback_context(tree: HatTree) -> str:
    """Broadest summary plus freshest detail, for walks that come back empty."""
    leaves = tree.leaves()
    if not leaves:
        raise InvalidParameterError("cannot build fallback context from an empty tree")
    return tree.root_text() + "\n" + leaves[-1].text


# ------------------------------------------------------------------- memo

# Decisions each LlmAgent, LlmOracle and reply client remembers, least recently used first out.
MEMO_ENTRIES = 4096

@functools.cache
def _sha256():
    """The SHA-256 constructor, imported at the first memo lookup."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


class _DecisionMemo:
    """Thread-safe least-recently-used map from a question to its decision.

    A question is a tuple of strings, filed under the SHA-256 digest of
    their length-prefixed UTF-8 bytes, so an entry costs the same whatever
    the length of the texts. The digest is CPython's built-in SHA-256, not
    OpenSSL's through `hashlib` (see the module docstring): the same bytes,
    but slower. On CPython 3.10-3.13 (x86-64) a 400-byte question takes
    3-6 µs instead of 1.4-3.4 µs, and a 108 KB text, a size that only concat
    trees reach, 0.4-0.8 ms instead of 0.09 ms. A call that raises stores
    nothing. Two threads that miss on the same question at once both ask it.
    """

    def __init__(self):
        self._decisions: OrderedDict[bytes, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._decisions)

    def decide(self, question: tuple[str, ...], ask):
        """The remembered decision on `question`, or `ask()`'s, remembered."""
        digest = _sha256()()
        for part in question:
            data = part.encode()
            digest.update(len(data).to_bytes(8, "little"))
            digest.update(data)
        key = digest.digest()
        with self._lock:
            if key in self._decisions:
                self._decisions.move_to_end(key)
                return self._decisions[key]
        decision = ask()
        with self._lock:
            self._decisions[key] = decision
            self._decisions.move_to_end(key)
            while len(self._decisions) > MEMO_ENTRIES:
                self._decisions.popitem(last=False)
        return decision


# ------------------------------------------------------------------- agents

_ACTION_TOKEN = re.compile(r"\b(up|down|left|right|start|accept|reject)\b", re.IGNORECASE)

_CLARIFY = ("That was not a valid action. Reply with exactly one of: "
            "UP, DOWN, LEFT, RIGHT, START, ACCEPT, REJECT.")
MAX_PARSE_RETRIES = 2


def _path_summary(path) -> str:
    if not path:
        return "none yet"
    return "; ".join(f"({c.layer},{c.index}) {a.name}" for c, a in path)


def llm_agent_prompt(node_text: str, query: str, path) -> list[dict]:
    return render_messages("traversal_agent_v1", query=query, node_text=node_text,
                           path_summary=_path_summary(path))


def parse_action(reply: str) -> TraversalAction:
    """First action token anywhere in the reply, case-insensitive, whole word."""
    match = _ACTION_TOKEN.search(reply)
    if not match:
        raise ActionParseError(f"no action token in reply {reply!r}")
    return TraversalAction(match.group(1).lower())


class LlmAgent:
    """Chat-model traversal policy.

    Unparseable replies are retried with a clarifying turn up to
    MAX_PARSE_RETRIES times, then treated as Accept so the walk
    ends with whatever context the cursor is on.

    `traverse` asks it from several threads about the DOWN chain below the
    root; it is safe for that when its client is, as `LlmClient` is. The walk
    does not rely on this agent's memo to avoid asking twice.

    The agent remembers the action it chose for its last MEMO_ENTRIES
    (node text, query, path) questions and answers a repeat without a
    request. This assumes that the endpoint answers an identical
    temperature-0 request the same way every time. A call that raised is
    not remembered, so the next walk asks again.
    """

    def __init__(self, client):
        self.client = client
        self._memo = _DecisionMemo()

    def propose_action(self, node_text: str, query: str, visited_path) -> TraversalAction:
        return self._memo.decide((node_text, query, _path_summary(visited_path)),
                                 lambda: self._ask(llm_agent_prompt(node_text, query, visited_path)))

    def _ask(self, messages: list[dict]) -> TraversalAction:
        for _ in range(MAX_PARSE_RETRIES + 1):
            request = ChatRequest(model=self.client.model, messages=messages, stage="agent")
            reply = self.client.complete(request)
            try:
                return parse_action(reply.content)
            except ActionParseError:
                messages = messages + [
                    {"role": "assistant", "content": reply.content},
                    {"role": "user", "content": _CLARIFY},
                ]
        return TraversalAction.ACCEPT


# ------------------------------------------------------------------- oracles

class LlmOracle:
    """YES/NO sufficiency judgment from the chat model; unparseable means NO.

    Safe to call from several threads when its client is, as `LlmClient` is.
    The oracle remembers the verdicts on its last MEMO_ENTRIES (passage,
    query) questions and answers a repeat without a request. This assumes
    that the endpoint answers an identical temperature-0 request the same way
    every time. A call that raised is not remembered, so the next walk asks
    again.
    """

    def __init__(self, client):
        self.client = client
        self._memo = _DecisionMemo()

    def sufficient(self, node_text: str, query: str) -> bool:
        return self._memo.decide((node_text, query), lambda: self._ask(node_text, query))

    def _ask(self, node_text: str, query: str) -> bool:
        messages = render_messages("sufficiency_v1", query=query, passage=node_text)
        request = ChatRequest(model=self.client.model, messages=messages, stage="oracle")
        reply = self.client.complete(request)
        match = re.search(r"\b(yes|no)\b", reply.content, re.IGNORECASE)
        return bool(match) and match.group(1).lower() == "yes"
