"""From dialogue turns to query-conditioned context and a generated reply.

Each conversation owns one MemoryState: the tree plus per-session root-text
snapshots. Turns are ingested one leaf per utterance as "<speaker>: <text>";
the snapshot taken at a session's end is that session's memory record, and
it covers everything up to and including the session because the root
aggregates all prior leaves. Ingesting a turn only appends its leaf, so the
aggregation, and a `RemoteUnavailableError` with stage "aggregate" when its
endpoint fails, come from `end_session`, `build_context` with a hat_*
strategy, and `serialize` (see `HatTree.flush`). A hat_* walk runs while the
pending flush runs (see `HatTree.read_while_flushing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .episodes import DialogueTurn, Episode, SPEAKERS
from .errors import ConfigurationError, InvalidParameterError, NotFoundError
from .llm import ChatRequest, is_int, remembered
from .traversal import (
    Outcome,
    TraversalConfig,
    bfs_search,
    dfs_search,
    fallback_context,
    traverse,
)
from .tree import HatTree

STRATEGIES = ("all_context", "part_context", "gold_memory", "hat_bfs", "hat_dfs", "hat_agent")


@dataclass
class MemoryState:
    """A tree plus its session records; a turn's session is in the tree's `leaf_sessions`."""

    tree: HatTree
    session_snapshots: dict[int, str] = field(default_factory=dict)


def _leaf_sessions(tree: HatTree):
    """The session of each leaf that has one, newest leaf first."""
    return (session for session in reversed(tree.leaf_sessions) if session is not None)


def new_memory(memory_length: int, aggregator) -> MemoryState:
    return MemoryState(tree=HatTree(memory_length, aggregator))


def ingest_turn(state: MemoryState, turn: DialogueTurn) -> int:
    if turn.speaker not in SPEAKERS:
        raise InvalidParameterError(f"speaker must be one of {SPEAKERS}, got {turn.speaker!r}")
    if not turn.text:
        raise InvalidParameterError("turn text must be nonempty")
    return state.tree.append_leaf(f"{turn.speaker}: {turn.text}", session=turn.session)


def end_session(state: MemoryState, session: int) -> str:
    """Snapshot the root text as the memory record for a finished session.

    Aggregates every turn appended since the last read first; if that fails,
    no snapshot is recorded.
    """
    if not is_int(session) or session not in _leaf_sessions(state.tree):
        raise NotFoundError(f"no turns ingested for session {session}")
    snapshot = state.tree.root_text()
    state.session_snapshots[session] = snapshot
    return snapshot


def ingest_turns(state: MemoryState, turns: list[DialogueTurn],
                 open_session: Optional[int] = None) -> None:
    """Ingest turns in order; end each session that the next turn leaves, and the
    last turn's session unless it is `open_session` (one still under way)."""
    next_sessions = [turn.session for turn in turns[1:]] + [open_session]
    for turn, next_session in zip(turns, next_sessions):
        ingest_turn(state, turn)
        if next_session != turn.session:
            end_session(state, turn.session)


def ingest_episode(episode: Episode, memory_length: int, aggregator) -> MemoryState:
    """Ingest every turn of every session, snapshotting at each session end."""
    state = new_memory(memory_length, aggregator)
    ingest_turns(state, [turn for session in episode.sessions for turn in session.turns])
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
        return "\n".join(tree.layers[-1])
    if strategy == "part_context":
        current = max(_leaf_sessions(tree), default=None)
        if current is None:
            raise InvalidParameterError("part_context needs turns that name their session")
        return "\n".join(text for text, session in zip(tree.layers[-1], tree.leaf_sessions)
                         if session == current)
    if strategy == "gold_memory":
        if not gold:
            raise ConfigurationError("gold_memory strategy requested but no gold memory provided")
        return "\n".join(gold)
    if strategy == "hat_bfs" or strategy == "hat_dfs":
        if oracle is None:
            raise ConfigurationError(f"{strategy} strategy needs a sufficiency oracle")
        search = bfs_search if strategy == "hat_bfs" else dfs_search
        result = tree.read_while_flushing(lambda view: search(view, oracle, query, config))
    elif strategy == "hat_agent":
        if agent is None:
            raise ConfigurationError("hat_agent strategy needs a traversal agent")
        result = tree.read_while_flushing(lambda view: traverse(view, agent, query, config))
    else:
        raise InvalidParameterError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if result.outcome is Outcome.SUFFICIENT:
        return result.text
    return fallback_context(tree)


_REPLY_SYSTEM = """\
You are the assistant in a long-running conversation. Use the memory notes,
when present, to answer the user's message, restating the relevant fact
plainly. If the notes do not cover the answer, say so briefly instead of
guessing."""


def generate_response(context: str, query: str, client) -> str:
    """One assistant reply for the query, grounded in the context when present."""
    memory_block = f"MEMORY:\n{context}\n\n" if context else ""
    messages = [{"role": "system", "content": _REPLY_SYSTEM},
                {"role": "user", "content": f"{memory_block}USER MESSAGE: {query}"}]
    return remembered(client, ChatRequest(messages, stage="generate")).strip()
