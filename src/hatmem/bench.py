"""Benchmark comparing context strategies on the same episodes.

For every episode the memory holds everything before the held-out exchange
(`episodes.final_exchange`). Each strategy builds its context, a response is
generated (mock or live), and the responses are scored against the gold
assistant turns. Session snapshots are also scored against dataset gold
memory when present.

The machine-readable report is sorted JSON with no timestamps or host paths,
so identical runs produce identical bytes.
"""

from __future__ import annotations

import json

from .aggregation import Aggregator
from .episodes import Episode, final_exchange
from .errors import ConfigurationError, InvalidParameterError
from .llm import LlmClient
from .metrics import score_pairs
from .pipeline import STRATEGIES, build_context, generate_response, ingest_turns, new_memory
from .traversal import LlmAgent, LlmOracle, TraversalConfig

REPORT_FORMAT = "hatmem-bench"
REPORT_VERSION = 1


def prepare_eval(episode: Episode, memory_length: int, aggregator: Aggregator):
    """Memory over the pre-query history, plus the query/reference/gold split.

    Sessions completed before the query get snapshots; gold memory is taken
    only from sessions before the query's session, never the session under
    evaluation.
    """
    query, reference, history = final_exchange(episode)
    state = new_memory(memory_length, aggregator)
    ingest_turns(state, history, open_session=query.session)
    gold = [g for s in episode.sessions if s.number < query.session for g in s.gold_memory]
    return state, query, reference, gold


def run_bench(episodes: list[Episode], aggregator: Aggregator, client: LlmClient, *,
              memory_length: int = 3, strategies=STRATEGIES,
              step_budget: int = TraversalConfig.step_budget) -> dict:
    """Score every requested strategy over the episodes; returns the report.

    memory_length is the tree's M; strategies names the strategies to score,
    at least one, each once, in report order (default all of `STRATEGIES`);
    step_budget caps each tree walk. An episode that a strategy cannot
    evaluate, such as one whose query opens its only session, is refused
    with an error that names it.
    """
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise InvalidParameterError(f"unknown strategies {unknown}; choose from {STRATEGIES}")
    if len(set(strategies)) != len(strategies):
        raise InvalidParameterError(f"strategies repeat a name: {list(strategies)}")
    if not strategies:
        raise InvalidParameterError("no strategies to benchmark")
    if not episodes:
        raise InvalidParameterError("no episodes to benchmark")
    config = TraversalConfig(step_budget=step_budget)
    oracle, agent = LlmOracle(client), LlmAgent(client)

    episode_rows = []
    strategy_rows: dict[str, list[dict]] = {name: [] for name in strategies}
    strategy_pairs: dict[str, list[tuple[str, str]]] = {name: [] for name in strategies}
    fidelity_pairs: list[tuple[str, str]] = []

    for episode in sorted(episodes, key=lambda e: e.episode_id):
        state, query, reference, gold = prepare_eval(episode, memory_length, aggregator)
        episode_rows.append({
            "episode_id": episode.episode_id,
            "query": query.text,
            "reference": reference.text,
        })
        for name in strategies:
            try:
                context = build_context(state, query.text, name, gold=gold,
                                        oracle=oracle, agent=agent, config=config)
            except (ConfigurationError, InvalidParameterError) as exc:
                raise type(exc)(f"episode {episode.episode_id!r}: {exc}") from exc
            response = generate_response(context, query.text, client)
            strategy_rows[name].append({
                "episode_id": episode.episode_id,
                "context": context,
                "response": response,
            })
            strategy_pairs[name].append((response, reference.text))
        for session in episode.sessions:
            snapshot = state.session_snapshots.get(session.number)
            if snapshot and session.gold_memory:
                fidelity_pairs.append((snapshot, "\n".join(session.gold_memory)))

    strategies_doc = {name: {"metrics": score_pairs(strategy_pairs[name]),
                             "rows": strategy_rows[name]} for name in strategies}
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "config": {
            "memory_length": memory_length,
            "aggregator": aggregator.spec(),
            "step_budget": step_budget,
            "strategies": list(strategies),
            "model": client.model,
        },
        "episodes": episode_rows,
        "strategies": strategies_doc,
        "memory_fidelity": score_pairs(fidelity_pairs) if fidelity_pairs else None,
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_table(report: dict) -> str:
    """Human-readable per-strategy metric table."""
    def row(name: str, m: dict) -> str:
        return (f"{name:<14} {m['bleu1']:>8.4f} {m['bleu2']:>8.4f} "
                f"{m['distinct1']:>8.4f} {m['distinct2']:>8.4f} {m['f1']:>8.4f}")

    header = f"{'strategy':<14} {'BLEU-1':>8} {'BLEU-2':>8} {'DIST-1':>8} {'DIST-2':>8} {'F1':>8}"
    lines = [header, "-" * len(header)]
    lines += [row(name, entry["metrics"]) for name, entry in sorted(report["strategies"].items())]
    if report.get("memory_fidelity"):
        lines += ["", row("memory", report["memory_fidelity"])]
    return "\n".join(lines) + "\n"
