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

A hat_bfs or hat_dfs walk costs one oracle round trip, which judges every
distinct node text within the step budget. A hat_agent walk asks ahead about
the DOWN chain below the root (see `traversal._ask_ahead`), so it costs fewer
round trips than steps, and it asks at most 7 questions beyond those of
asking one node at a time.

`build_context` runs a hat_* walk while the pending aggregation runs
(`HatTree.read_while_flushing`), so the aggregation overlaps the walk, and a
query's round trips are about the larger of flush and walk instead of their
sum: for a scan, the flush's. The walk is kept when every text it read came
through the flush unchanged; otherwise it walks again on the flushed tree.
There the client's memo (`llm.remembered`) answers every agent question
about an unchanged text, so a second agent walk adds asks only for the texts
the flush changed; a second scan makes one new oracle call. The context is
always the one a walk after the flush would give. Ctrl-C during the walk
stops the flush too (see `HatTree.read_while_flushing`).

`generate_response` sends the context under "MEMORY:" (left out when the
context is empty) and the user's message under "USER MESSAGE:". The reply,
stripped of surrounding whitespace, is the answer. It asks through the
client's reply memo (`llm.remembered`), so a repeated (context, query) costs
no chat call.
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
    """A tree plus its session records.

    A turn's session is stored once, in the tree's `leaf_sessions`.
    """

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
    """One assistant reply for the query, grounded in the context when present.

    A repeated (context, query) is answered from the client's reply memo
    (`llm.remembered`) without a request.
    """
    memory_block = f"MEMORY:\n{context}\n\n" if context else ""
    messages = [{"role": "system", "content": _REPLY_SYSTEM},
                {"role": "user", "content": f"{memory_block}USER MESSAGE: {query}"}]
    return remembered(client, ChatRequest(messages, stage="generate")).strip()
