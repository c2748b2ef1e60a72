"""Query-conditioned movement over the tree.

A cursor walks node coordinates under a seven-action alphabet; terminal
actions decide whether the current node suffices for the query. Moves that
would leave the structure are no-ops instead of errors so a weak agent can
never crash a walk, and a no-op move ends the walk as INSUFFICIENT: the agent
would be shown the same node for the same query again. Besides the
agent-driven walk there are breadth-first and depth-first scans that judge
every node with a sufficiency oracle, asking it once per distinct node text.
A scan's order is fixed in advance, so it asks the oracle about several
upcoming texts at once, in waves of 1, 2, 4, then 8, and reads the verdicts
in order; its result is that of asking one node at a time. The oracle must
therefore be safe to call from several threads, as `LlmOracle` is. Each
visited node costs one step, and all walks stop after `step_budget` steps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Optional

from .errors import ActionParseError, InvalidParameterError
from .llm import MAX_CONCURRENT_CALLS, ChatRequest, call_concurrently
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
    rejected again without a call. Questions go out in waves: a wave asks
    about the next 1, 2, 4, then 8 (MAX_CONCURRENT_CALLS) distinct, unasked
    texts within the step budget, in scan order and all at once; the scan
    then reads the verdicts in order and stops at the first YES. `outcome`,
    `text`, `path` and `steps` are those of asking one node at a time. Only
    texts behind that YES in its wave are extra, so where a one-at-a-time
    scan asks n texts this one asks at most min(2n - 1, n + 7); a root that
    suffices costs one call. A failed call raises once its wave has returned.
    """
    config = config or TraversalConfig()
    if not tree.layers:
        raise InvalidParameterError("cannot search an empty tree")
    budget = config.step_budget
    # One node past the budget tells running out of budget from running out of nodes.
    visits = list(islice(order, budget + 1))
    texts = [tree.node_at(cursor.layer, cursor.index).text for cursor in visits[:budget]]
    verdicts: dict[str, bool] = {}
    wave_size = 1
    path: list[tuple[Cursor, TraversalAction]] = []
    for steps, (cursor, text) in enumerate(zip(visits, texts), start=1):
        if text not in verdicts:
            unasked = dict.fromkeys(t for t in texts[steps - 1:] if t not in verdicts)
            wave = list(islice(unasked, wave_size))
            verdicts.update(zip(wave, call_concurrently(lambda t: oracle.sufficient(t, query), wave)))
            wave_size = min(2 * wave_size, MAX_CONCURRENT_CALLS)
        if verdicts[text]:
            path.append((cursor, TraversalAction.ACCEPT))
            return TraversalResult(Outcome.SUFFICIENT, text, path, steps)
        path.append((cursor, TraversalAction.REJECT))
    outcome = Outcome.BUDGET_EXHAUSTED if len(visits) > budget else Outcome.INSUFFICIENT
    return TraversalResult(outcome, None, path, len(path))


def bfs_search(tree: HatTree, oracle, query: str, config: Optional[TraversalConfig] = None) -> TraversalResult:
    """Layer by layer, left to right; finds the (layer, index)-minimal sufficient node.

    Asks a thread-safe oracle once per distinct node text, in concurrent
    waves, at most min(2n - 1, n + 7) times; see `_scan`.
    """
    def order():
        for layer in range(len(tree.layers)):
            for index in range(tree.layer_size(layer)):
                yield Cursor(layer, index)
    return _scan(tree, oracle, query, config, order())


def dfs_search(tree: HatTree, oracle, query: str, config: Optional[TraversalConfig] = None) -> TraversalResult:
    """Pre-order, children left to right; finds the pre-order-first sufficient node.

    The order does not depend on any verdict, so this too asks a thread-safe
    oracle once per distinct text, in concurrent waves; see `_scan`.
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

_ACTION_TOKEN = re.compile(r"\b(up|down|left|right|start|accept|reject)\b", re.IGNORECASE)

_CLARIFY = ("That was not a valid action. Reply with exactly one of: "
            "UP, DOWN, LEFT, RIGHT, START, ACCEPT, REJECT.")
MAX_PARSE_RETRIES = 2


def llm_agent_prompt(node_text: str, query: str, path) -> list[dict]:
    if path:
        summary = "; ".join(f"({c.layer},{c.index}) {a.name}" for c, a in path)
    else:
        summary = "none yet"
    return render_messages("traversal_agent_v1", query=query, node_text=node_text,
                           path_summary=summary)


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
    """

    def __init__(self, client):
        self.client = client

    def propose_action(self, node_text: str, query: str, visited_path) -> TraversalAction:
        messages = llm_agent_prompt(node_text, query, visited_path)
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
    """

    def __init__(self, client):
        self.client = client

    def sufficient(self, node_text: str, query: str) -> bool:
        messages = render_messages("sufficiency_v1", query=query, passage=node_text)
        request = ChatRequest(model=self.client.model, messages=messages, stage="oracle")
        reply = self.client.complete(request)
        match = re.search(r"\b(yes|no)\b", reply.content, re.IGNORECASE)
        return bool(match) and match.group(1).lower() == "yes"
