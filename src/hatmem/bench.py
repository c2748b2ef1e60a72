"""Benchmark comparing context strategies on the same episodes.

For every episode the held-out query is the final user/assistant exchange of
the last session; the memory is built from everything before it. Each
strategy builds its context, a response is generated (mock or live), and the
responses are scored against the gold assistant turns. Session snapshots are
additionally scored against dataset gold memory when present.

The machine-readable report is sorted JSON with no timestamps or host paths,
so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .aggregation import Aggregator
from .episodes import Episode, final_exchange
from .errors import DocumentParseError, InvalidParameterError
from .llm import LlmClient
from .metrics import score_pairs
from .pipeline import (
    STRATEGIES,
    MemoryState,
    build_context,
    end_session,
    generate_response,
    ingest_turn,
    new_memory,
)
from .traversal import LlmAgent, LlmOracle, TraversalConfig

REPORT_FORMAT = "hatmem-bench"
REPORT_VERSION = 1


@dataclass
class BenchOptions:
    memory_length: int = 3
    strategies: list[str] = field(default_factory=lambda: list(STRATEGIES))
    step_budget: int = 32

    def __post_init__(self):
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise InvalidParameterError(f"unknown strategies {unknown}; choose from {STRATEGIES}")


def prepare_eval(episode: Episode, memory_length: int, aggregator: Aggregator):
    """Memory over the pre-query history, plus the query/reference/gold split.

    Sessions completed before the query get snapshots; gold memory is taken
    only from sessions before the query's session, never the session under
    evaluation.
    """
    query, reference, history = final_exchange(episode)
    state = new_memory(memory_length, aggregator)
    for position, turn in enumerate(history):
        ingest_turn(state, turn)
        is_last = position == len(history) - 1
        next_session = query.session if is_last else history[position + 1].session
        if next_session != turn.session:
            end_session(state, turn.session)
    gold = [g for s in episode.sessions if s.number < query.session for g in s.gold_memory]
    return state, query, reference, gold


def run_bench(episodes: list[Episode], aggregator: Aggregator, client: LlmClient,
              options: Optional[BenchOptions] = None) -> dict:
    """Score every requested strategy over the episodes; returns the report."""
    options = options or BenchOptions()
    if not episodes:
        raise InvalidParameterError("no episodes to benchmark")
    config = TraversalConfig(step_budget=options.step_budget)
    oracle = LlmOracle(client)
    agent = LlmAgent(client)

    episode_rows = []
    strategy_rows: dict[str, list[dict]] = {name: [] for name in options.strategies}
    strategy_pairs: dict[str, list[tuple[str, str]]] = {name: [] for name in options.strategies}
    fidelity_pairs: list[tuple[str, str]] = []

    for episode in sorted(episodes, key=lambda e: e.episode_id):
        state, query, reference, gold = prepare_eval(episode, options.memory_length, aggregator)
        episode_rows.append({
            "episode_id": episode.episode_id,
            "query": query.text,
            "reference": reference.text,
        })
        for name in options.strategies:
            context = build_context(state, query.text, name, gold=gold,
                                    oracle=oracle, agent=agent, config=config)
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

    strategies_doc = {}
    for name in options.strategies:
        strategies_doc[name] = {
            "metrics": score_pairs(strategy_pairs[name]).as_dict(),
            "rows": strategy_rows[name],
        }
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "config": {
            "memory_length": options.memory_length,
            "aggregator": aggregator.spec(),
            "step_budget": options.step_budget,
            "strategies": list(options.strategies),
            "model": client.model,
        },
        "episodes": episode_rows,
        "strategies": strategies_doc,
        "memory_fidelity": score_pairs(fidelity_pairs).as_dict() if fidelity_pairs else None,
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def parse_report(text: str) -> dict:
    """Inverse of dump_report, with format checking."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        raise DocumentParseError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(report, dict) or report.get("format") != REPORT_FORMAT:
        raise DocumentParseError("missing or wrong report format marker")
    if report.get("version") != REPORT_VERSION:
        raise DocumentParseError(f"unsupported report version {report.get('version')!r}")
    return report


def render_table(report: dict) -> str:
    """Human-readable per-strategy metric table."""
    header = f"{'strategy':<14} {'BLEU-1':>8} {'BLEU-2':>8} {'DIST-1':>8} {'DIST-2':>8} {'F1':>8}"
    lines = [header, "-" * len(header)]
    for name, entry in sorted(report["strategies"].items()):
        m = entry["metrics"]
        lines.append(f"{name:<14} {m['bleu1']:>8.4f} {m['bleu2']:>8.4f} "
                     f"{m['distinct1']:>8.4f} {m['distinct2']:>8.4f} {m['f1']:>8.4f}")
    fidelity = report.get("memory_fidelity")
    if fidelity:
        lines.append("")
        lines.append(f"{'memory':<14} {fidelity['bleu1']:>8.4f} {fidelity['bleu2']:>8.4f} "
                     f"{fidelity['distinct1']:>8.4f} {fidelity['distinct2']:>8.4f} "
                     f"{fidelity['f1']:>8.4f}")
    return "\n".join(lines) + "\n"
