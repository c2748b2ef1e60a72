"""From dialogue turns to query-conditioned context and a generated reply.

Each conversation owns one MemoryState: the tree plus per-session root-text
snapshots. Turns are ingested one leaf per utterance as "<speaker>: <text>";
the snapshot taken at a session's end is that session's memory record, and
it covers everything up to and including the session because the root
aggregates all prior leaves.

Ingesting a turn only appends its leaf. The tree aggregates the changed
ancestors at the next read of internal text, so the aggregation cost, and a
`RemoteUnavailableError` with stage "aggregate" when the aggregator's endpoint
fails, come from `end_session`, `build_context` with a hat_* strategy, and
`serialize`. The tree sends one layer's chat aggregations at once, so with
`llm_persona` an `end_session` costs about one endpoint round trip per tree
layer, not one per aggregated node.

A hat_* walk asks ahead (see `traversal._ask_ahead`), so it costs fewer
round trips than steps, and it asks at most 7 questions beyond those of
asking one node at a time.

`generate_response` remembers the replies each client gave, in a memo that
lives as long as that client, so a repeated (context, query) costs no chat
call. Like the walks' decision memo, it assumes that the endpoint answers an
identical temperature-0 request the same way every time.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Optional

from .episodes import DialogueTurn, Episode, SPEAKERS
from .errors import ConfigurationError, InvalidParameterError, NotFoundError
from .llm import ChatRequest
from .prompts import render_messages
from .traversal import (
    Outcome,
    TraversalConfig,
    _DecisionMemo,
    bfs_search,
    dfs_search,
    fallback_context,
    traverse,
)
from .tree import HatTree

STRATEGIES = ("all_context", "part_context", "gold_memory", "hat_bfs", "hat_dfs", "hat_agent")


@dataclass
class MemoryState:
    """A tree plus its session records.

    A state built around a tree that already has leaves, such as one loaded
    with `HatTree.deserialize`, and given no `sessions` takes them from the
    leaves' `meta["session"]`.
    """

    tree: HatTree
    session_snapshots: dict[int, str] = field(default_factory=dict)
    sessions: set[int] = field(default_factory=set)  # sessions with an ingested turn

    def __post_init__(self):
        if not self.sessions:
            named = (leaf.meta.get("session") for leaf in self.tree.leaves() if leaf.meta)
            self.sessions = {s for s in named if isinstance(s, int) and not isinstance(s, bool)}


def new_memory(memory_length: int, aggregator) -> MemoryState:
    return MemoryState(tree=HatTree(memory_length, aggregator))


def ingest_turn(state: MemoryState, turn: DialogueTurn) -> int:
    if turn.speaker not in SPEAKERS:
        raise InvalidParameterError(f"speaker must be one of {SPEAKERS}, got {turn.speaker!r}")
    if not turn.text:
        raise InvalidParameterError("turn text must be nonempty")
    meta = {"speaker": turn.speaker, "session": turn.session, "turn_index": turn.turn_index}
    index = state.tree.append_leaf(f"{turn.speaker}: {turn.text}", meta=meta)
    state.sessions.add(turn.session)
    return index


def end_session(state: MemoryState, session: int) -> str:
    """Snapshot the root text as the memory record for a finished session.

    Aggregates every turn appended since the last read first; if that fails,
    no snapshot is recorded.
    """
    if session not in state.sessions:
        raise NotFoundError(f"no turns ingested for session {session}")
    snapshot = state.tree.root_text()
    state.session_snapshots[session] = snapshot
    return snapshot


def ingest_episode(episode: Episode, memory_length: int, aggregator) -> MemoryState:
    """Ingest every turn of every session, snapshotting at each session end."""
    state = new_memory(memory_length, aggregator)
    for session in episode.sessions:
        for turn in session.turns:
            ingest_turn(state, turn)
        end_session(state, session.number)
    return state


def build_context(state: MemoryState, query: str, strategy: str, *,
                  gold: Optional[list[str]] = None,
                  oracle=None, agent=None,
                  config: Optional[TraversalConfig] = None) -> str:
    """Context string for one query under the named strategy.

    gold_memory needs the dataset's reference summaries; hat_bfs/hat_dfs need
    a sufficiency oracle; hat_agent needs a traversal agent. Tree walks that
    end without a sufficient node fall back to root text plus newest leaf.
    """
    tree = state.tree
    if not tree.layers:
        raise InvalidParameterError("no turns ingested yet")
    if strategy == "all_context":
        return "\n".join(leaf.text for leaf in tree.leaves())
    if strategy == "part_context":
        if not state.sessions:
            raise InvalidParameterError("part_context needs turns that name their session")
        current = max(state.sessions)
        return "\n".join(leaf.text for leaf in tree.leaves()
                         if leaf.meta and leaf.meta.get("session") == current)
    if strategy == "gold_memory":
        if not gold:
            raise ConfigurationError("gold_memory strategy requested but no gold memory provided")
        return "\n".join(gold)
    if strategy == "hat_bfs" or strategy == "hat_dfs":
        if oracle is None:
            raise ConfigurationError(f"{strategy} strategy needs a sufficiency oracle")
        search = bfs_search if strategy == "hat_bfs" else dfs_search
        result = search(tree, oracle, query, config)
    elif strategy == "hat_agent":
        if agent is None:
            raise ConfigurationError("hat_agent strategy needs a traversal agent")
        result = traverse(tree, agent, query, config)
    else:
        raise InvalidParameterError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if result.outcome is Outcome.SUFFICIENT:
        return result.text
    return fallback_context(tree)


# One reply memo per client object, dropped with its client.
_REPLY_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_REPLY_MEMOS_LOCK = threading.Lock()


def generate_response(context: str, query: str, client) -> str:
    """One assistant reply for the query, grounded in the context when present.

    The client remembers its last MEMO_ENTRIES replies (see
    `traversal._DecisionMemo`) and answers a repeated (context, query) without
    a request. This assumes that the endpoint answers an identical
    temperature-0 request the same way every time. A call that raised is not
    remembered. A client that cannot be weakly referenced gets no memo.
    """
    def ask() -> str:
        memory_block = f"MEMORY:\n{context}\n\n" if context else ""
        messages = render_messages("response_v1", memory_block=memory_block, query=query)
        request = ChatRequest(model=client.model, messages=messages, stage="generate")
        return client.complete(request).content.strip()

    try:
        with _REPLY_MEMOS_LOCK:
            memo = _REPLY_MEMOS.get(client)
            if memo is None:
                memo = _REPLY_MEMOS[client] = _DecisionMemo()
    except TypeError:
        return ask()
    return memo.decide((context, query), ask)
