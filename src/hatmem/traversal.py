"""Query-conditioned movement over the tree.

A cursor walks node coordinates under a seven-action alphabet; terminal
actions decide whether the current node suffices for the query. Moves that
would leave the structure are no-ops instead of errors so a weak agent can
never crash a walk, and a no-op move ends the walk as INSUFFICIENT: the agent
would be shown the same node for the same query again. Besides the
agent-driven walk there are breadth-first and depth-first scans that judge
nodes with a sufficiency oracle. Each visited node costs one step, and all
walks stop after `step_budget` steps.

A scan makes one oracle call: it hands the oracle every distinct node text
within the budget, in visit order, and reads its path from the verdicts. An
agent walk asks ahead (see `_ask_ahead`) about the DOWN chain below the
root. Its result is that of asking one node at a time, for at most 7
questions more, and the agent must be safe to call from several threads, as
`LlmAgent` is.

`LlmAgent` sends `llm_agent_prompt`: the action list as the system message,
then the question, the current node's text and the moves so far.
`parse_action` takes the first action word in the reply. A reply without one
is asked again with a clarifying turn, up to MAX_PARSE_RETRIES times, and
then counts as ACCEPT. `LlmOracle` sends the question and the numbered
passages and asks for one line per passage, "<n>: YES" or "<n>: NO"
(`parse_verdicts`); a passage without a readable line counts as NO.

`LlmOracle` and `LlmAgent` send through their client's reply memo
(`llm.remembered`), so a question that client has already answered, in
this walk or an earlier one, costs no chat call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Optional

from .errors import ActionParseError, ContractViolationError, InvalidParameterError
from .llm import MAX_CONCURRENT_CALLS, ChatRequest, call_concurrently, is_int, remembered
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
        if not is_int(self.step_budget) or self.step_budget < 1:
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

    `traverse` asks the DOWN chain below the root with it; scans make one
    call and ask nothing ahead.

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
    chain = [(tree.node_at(layer, 0), [(Cursor(above, 0), TraversalAction.DOWN) for above in range(layer)])
             for layer in range(end)]
    answers = _ask_ahead(lambda question: agent.propose_action(question[0], query, question[1]), chain)
    cursor = Cursor(0, 0)
    path: list[tuple[Cursor, TraversalAction]] = []
    while len(path) < config.step_budget:
        text = tree.node_at(cursor.layer, cursor.index)
        action = next(answers, None)
        if action is None:
            action = agent.propose_action(text, query, path)
        path.append((cursor, action))
        if action is TraversalAction.ACCEPT:
            return TraversalResult(Outcome.SUFFICIENT, text, path)
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

    One call, `oracle.sufficient(passages, query)`, judges every distinct
    text within the budget, in visit order, and must return one verdict per
    passage. The walk then reads its path from those verdicts, so a node
    whose text repeats an earlier one (a clipped parent often repeats its
    first child) gets that text's verdict, and the texts after the first
    sufficient one are judged but never read.
    """
    config = config or TraversalConfig()
    if not tree.layers:
        raise InvalidParameterError("cannot search an empty tree")
    budget = config.step_budget
    # One node past the budget tells running out of budget from running out of nodes.
    visits = list(islice(order, budget + 1))
    texts = [tree.node_at(cursor.layer, cursor.index) for cursor in visits[:budget]]
    passages = list(dict.fromkeys(texts))
    verdicts = list(oracle.sufficient(passages, query))
    if len(verdicts) != len(passages):
        raise ContractViolationError(
            f"oracle gave {len(verdicts)} verdicts for {len(passages)} passages")
    sufficient = dict(zip(passages, verdicts))
    path: list[tuple[Cursor, TraversalAction]] = []
    for cursor, text in zip(visits, texts):
        if sufficient[text]:
            path.append((cursor, TraversalAction.ACCEPT))
            return TraversalResult(Outcome.SUFFICIENT, text, path)
        path.append((cursor, TraversalAction.REJECT))
    outcome = Outcome.BUDGET_EXHAUSTED if len(visits) > budget else Outcome.INSUFFICIENT
    return TraversalResult(outcome, None, path)


def bfs_search(tree: HatTree, oracle, query: str, config: Optional[TraversalConfig] = None) -> TraversalResult:
    """Layer by layer, left to right; finds the (layer, index)-minimal sufficient node.

    One oracle call judges every distinct node text within the budget; see `_scan`.
    """
    def order():
        for layer in range(len(tree.layers)):
            for index in range(tree.layer_size(layer)):
                yield Cursor(layer, index)
    return _scan(tree, oracle, query, config, order())


def dfs_search(tree: HatTree, oracle, query: str, config: Optional[TraversalConfig] = None) -> TraversalResult:
    """Pre-order, children left to right; finds the pre-order-first sufficient node.

    The order does not depend on any verdict, so this too makes one oracle
    call about every distinct node text within the budget; see `_scan`.
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
    if not tree.layers:
        raise InvalidParameterError("cannot build fallback context from an empty tree")
    return tree.root_text() + "\n" + tree.layers[-1][-1]


# ------------------------------------------------------------------- agents

_ACTION_TOKEN = re.compile(r"\b(up|down|left|right|start|accept|reject)\b", re.IGNORECASE)

_CLARIFY = ("That was not a valid action. Reply with exactly one of: "
            "UP, DOWN, LEFT, RIGHT, START, ACCEPT, REJECT.")
MAX_PARSE_RETRIES = 2


def _path_summary(path) -> str:
    if not path:
        return "none yet"
    return "; ".join(f"({c.layer},{c.index}) {a.name}" for c, a in path)


_AGENT_SYSTEM = """\
You steer a cursor over a memory tree to find context that answers a
question. Upper layers hold broad summaries, lower layers hold raw detail,
and moving right means more recent. The actions are:
UP - move to the parent, a broader summary
DOWN - move to the leftmost child, more detail
LEFT - move to the older neighbor in this layer
RIGHT - move to the newer neighbor in this layer
START - jump back to the root
ACCEPT - stop, the current node text answers the question
REJECT - stop, this tree does not contain the answer
Reply with exactly one action token."""


def llm_agent_prompt(node_text: str, query: str, path) -> list[dict]:
    return [{"role": "system", "content": _AGENT_SYSTEM},
            {"role": "user", "content": f"QUESTION: {query}\nCURRENT NODE:\n{node_text}\n"
                                        f"MOVES SO FAR: {_path_summary(path)}\n"
                                        "Reply with exactly one action token."}]


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
    does not rely on the client's memo to avoid asking twice.

    Every request goes through the client's reply memo (`llm.remembered`),
    clarifying turns included, so a repeated question costs no call.
    """

    def __init__(self, client):
        self.client = client

    def propose_action(self, node_text: str, query: str, visited_path) -> TraversalAction:
        messages = llm_agent_prompt(node_text, query, visited_path)
        for _ in range(MAX_PARSE_RETRIES + 1):
            content = remembered(self.client, ChatRequest(messages, stage="agent"))
            try:
                return parse_action(content)
            except ActionParseError:
                messages = messages + [
                    {"role": "assistant", "content": content},
                    {"role": "user", "content": _CLARIFY},
                ]
        return TraversalAction.ACCEPT


# ------------------------------------------------------------------- oracles

_ORACLE_SYSTEM = """\
You judge whether each numbered passage, on its own, contains enough
information to answer a question. Reply with one line per passage, as
"1: YES" or "1: NO" for passage 1, and nothing else."""

_VERDICT_LINE = re.compile(r"^[^\w\n]*(\d+)[^\w\n]+(yes|no)\b", re.IGNORECASE | re.MULTILINE)


def llm_oracle_prompt(passages: list[str], query: str) -> list[dict]:
    numbered = "".join(f"PASSAGE {n}:\n{text}\n" for n, text in enumerate(passages, 1))
    return [{"role": "system", "content": _ORACLE_SYSTEM},
            {"role": "user", "content": f"QUESTION: {query}\n{numbered}"
                                        "Does each passage contain enough information to answer "
                                        "the question? Reply YES or NO."}]


def parse_verdicts(reply: str, count: int) -> list[bool]:
    """One verdict per passage 1..count from lines "<n>: YES" or "<n>: NO".

    Case does not matter, and marks around the number ("**2**: no", "3. Yes")
    are read past. A number's first line decides; numbers out of range are
    ignored, and a passage with no line counts as NO, so a reply with no
    readable line counts as NO for every passage.
    """
    # Numbers stay strings: int() refuses one of more than 4,300 digits.
    verdicts: dict[str, bool] = {}
    for number, word in _VERDICT_LINE.findall(reply):
        verdicts.setdefault(number.lstrip("0"), word.lower() == "yes")
    return [verdicts.get(str(n), False) for n in range(1, count + 1)]


class LlmOracle:
    """YES/NO sufficiency judgments from the chat model, several passages per call.

    `sufficient(passages, query)` sends the question and the passages
    numbered from 1 in one request (`llm_oracle_prompt`) and returns one
    verdict per passage, read by `parse_verdicts`: a reply line "<n>: YES"
    or "<n>: NO" per passage, and NO for a passage without one.

    The paper's oracle sees one node at a time. A real model may judge a
    passage differently in the company of others; the mock
    (`llm.heuristic_reply`) judges each numbered passage on its own, so its
    verdicts are those of one passage per call.

    The prompt keeps the sentence "Reply YES or NO.", by which the mock and
    perfbench's emulated endpoint tell an oracle request from the other
    stages, and the method keeps the name `sufficient`, the one method that
    perfbench's traced oracle forwards.

    Safe to call from several threads when its client is, as `LlmClient` is.
    It asks through the client's reply memo (`llm.remembered`), so a
    repeated question about the same passages costs no call.
    """

    def __init__(self, client):
        self.client = client

    def sufficient(self, passages: list[str], query: str) -> list[bool]:
        request = ChatRequest(llm_oracle_prompt(passages, query), stage="oracle")
        return parse_verdicts(remembered(self.client, request), len(passages))
