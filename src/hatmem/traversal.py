"""Query-conditioned movement over the tree.

A cursor walks node coordinates under a seven-action alphabet; terminal
actions decide whether the current node suffices for the query. Moves that
would leave the structure are no-ops instead of errors so a weak agent can
never crash a walk, and a no-op move ends the walk as INSUFFICIENT: the agent
would be shown the same node for the same query again. Besides the
agent-driven walk there are breadth-first and depth-first scans that judge
every node with a sufficiency oracle, asking it once per distinct node text.
Each visited node costs one step, and all walks stop after `step_budget`
steps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import (
    ActionParseError,
    ContractViolationError,
    InvalidParameterError,
    RemoteUnavailableError,
    TraversalUnavailableError,
)
from .llm import ChatRequest
from .prompts import render_messages
from .tree import HatTree


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
        if not isinstance(self.step_budget, int) or self.step_budget < 1:
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
    steps: int  # one per visited node: an agent consultation, or a scanned node


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


def traverse(tree: HatTree, agent, query: str, config: Optional[TraversalConfig] = None) -> TraversalResult:
    """Agent-driven walk from the root; every agent consultation costs one step.

    A move that leaves the cursor where it is ends the walk as INSUFFICIENT,
    with that move as the last entry of the path.
    """
    config = config or TraversalConfig()
    if not tree.layers:
        raise InvalidParameterError("cannot traverse an empty tree")
    cursor = Cursor(0, 0)
    path: list[tuple[Cursor, TraversalAction]] = []
    steps = 0
    while steps < config.step_budget:
        node = tree.node_at(cursor.layer, cursor.index)
        action = agent.propose_action(node.text, query, path)
        steps += 1
        path.append((cursor, action))
        if action is TraversalAction.ACCEPT:
            return TraversalResult(Outcome.SUFFICIENT, node.text, path, steps)
        if action is TraversalAction.REJECT:
            return TraversalResult(Outcome.INSUFFICIENT, None, path, steps)
        moved = apply_action(tree, cursor, action)
        if moved == cursor:
            return TraversalResult(Outcome.INSUFFICIENT, None, path, steps)
        cursor = moved
    return TraversalResult(Outcome.BUDGET_EXHAUSTED, None, path, steps)


def _scan(tree: HatTree, oracle, query: str, config: Optional[TraversalConfig], order) -> TraversalResult:
    """Judge nodes in `order` until one suffices; each visit costs one step.

    The oracle is asked once per distinct text: a node whose text it already
    rejected in this scan (a clipped parent often repeats its first child) is
    rejected again without a call.
    """
    config = config or TraversalConfig()
    if not tree.layers:
        raise InvalidParameterError("cannot search an empty tree")
    path: list[tuple[Cursor, TraversalAction]] = []
    rejected: set[str] = set()
    steps = 0
    for cursor in order:
        if steps >= config.step_budget:
            return TraversalResult(Outcome.BUDGET_EXHAUSTED, None, path, steps)
        node = tree.node_at(cursor.layer, cursor.index)
        steps += 1
        if node.text not in rejected:
            if oracle.sufficient(node.text, query):
                path.append((cursor, TraversalAction.ACCEPT))
                return TraversalResult(Outcome.SUFFICIENT, node.text, path, steps)
            rejected.add(node.text)
        path.append((cursor, TraversalAction.REJECT))
    return TraversalResult(Outcome.INSUFFICIENT, None, path, steps)


def bfs_search(tree: HatTree, oracle, query: str, config: Optional[TraversalConfig] = None) -> TraversalResult:
    """Layer by layer, left to right; finds the (layer, index)-minimal sufficient node.

    Asks the oracle once per distinct node text, see `_scan`.
    """
    def order():
        for layer in range(len(tree.layers)):
            for index in range(tree.layer_size(layer)):
                yield Cursor(layer, index)
    return _scan(tree, oracle, query, config, order())


def dfs_search(tree: HatTree, oracle, query: str, config: Optional[TraversalConfig] = None) -> TraversalResult:
    """Pre-order, children left to right; finds the pre-order-first sufficient node.

    Asks the oracle once per distinct node text, see `_scan`.
    """
    def order():
        if not tree.layers:
            return
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


# ------------------------------------------------------------------- agents

class ScriptedAgent:
    """Replays a fixed action list; with cycle=True the list repeats forever."""

    def __init__(self, actions: list[TraversalAction], cycle: bool = False):
        if not actions:
            raise InvalidParameterError("ScriptedAgent needs at least one action")
        self.actions = list(actions)
        self.cycle = cycle
        self._next = 0

    def propose_action(self, node_text: str, query: str, visited_path) -> TraversalAction:
        if self._next >= len(self.actions):
            if not self.cycle:
                raise ContractViolationError("scripted actions exhausted")
            self._next = 0
        action = self.actions[self._next]
        self._next += 1
        return action


_ACTION_TOKEN = re.compile(r"\b(up|down|left|right|start|accept|reject)\b", re.IGNORECASE)

_CLARIFY = ("That was not a valid action. Reply with exactly one of: "
            "UP, DOWN, LEFT, RIGHT, START, ACCEPT, REJECT.")


def llm_agent_prompt(node_text: str, query: str, path,
                     template: str = "traversal_agent_v1") -> list[dict]:
    if path:
        summary = "; ".join(f"({c.layer},{c.index}) {a.name}" for c, a in path)
    else:
        summary = "none yet"
    return render_messages(template, query=query, node_text=node_text, path_summary=summary)


def parse_action(reply: str) -> TraversalAction:
    """First action token anywhere in the reply, case-insensitive, whole word."""
    match = _ACTION_TOKEN.search(reply)
    if not match:
        raise ActionParseError(f"no action token in reply {reply!r}")
    return TraversalAction(match.group(1).lower())


class LlmAgent:
    """Chat-model traversal policy.

    Unparseable replies are retried with a clarifying turn up to
    `max_parse_retries` times, then treated as Accept so the walk
    ends with whatever context the cursor is on.
    """

    def __init__(self, client, template: str = "traversal_agent_v1",
                 temperature: float = 0.0, max_parse_retries: int = 2):
        self.client = client
        self.template = template
        self.temperature = temperature
        self.max_parse_retries = max_parse_retries

    def propose_action(self, node_text: str, query: str, visited_path) -> TraversalAction:
        messages = llm_agent_prompt(node_text, query, visited_path, self.template)
        for _ in range(self.max_parse_retries + 1):
            request = ChatRequest(model=self.client.model, messages=messages,
                                  temperature=self.temperature)
            try:
                reply = self.client.complete(request)
            except RemoteUnavailableError as exc:
                raise TraversalUnavailableError(f"traversal agent call failed: {exc}") from exc
            try:
                return parse_action(reply.content)
            except ActionParseError:
                messages = messages + [
                    {"role": "assistant", "content": reply.content},
                    {"role": "user", "content": _CLARIFY},
                ]
        return TraversalAction.ACCEPT


# ------------------------------------------------------------------- oracles

class SubstringOracle:
    """True iff a fixed phrase occurs in the node text; test and demo use."""

    def __init__(self, phrase: str, case_sensitive: bool = False):
        if not phrase:
            raise InvalidParameterError("phrase must be nonempty")
        self.phrase = phrase
        self.case_sensitive = case_sensitive

    def sufficient(self, node_text: str, query: str) -> bool:
        if self.case_sensitive:
            return self.phrase in node_text
        return self.phrase.lower() in node_text.lower()


class LlmOracle:
    """YES/NO sufficiency judgment from the chat model; unparseable means NO."""

    def __init__(self, client, template: str = "sufficiency_v1", temperature: float = 0.0):
        self.client = client
        self.template = template
        self.temperature = temperature

    def sufficient(self, node_text: str, query: str) -> bool:
        messages = render_messages(self.template, query=query, passage=node_text)
        request = ChatRequest(model=self.client.model, messages=messages,
                              temperature=self.temperature)
        try:
            reply = self.client.complete(request)
        except RemoteUnavailableError as exc:
            raise TraversalUnavailableError(f"sufficiency call failed: {exc}") from exc
        match = re.search(r"\b(yes|no)\b", reply.content, re.IGNORECASE)
        return bool(match) and match.group(1).lower() == "yes"
