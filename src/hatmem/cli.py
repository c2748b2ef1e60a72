"""Command-line surface.

Subcommands: ingest (episodes file -> persisted trees and snapshots), bench
(strategy comparison with metric tables), chat (line-oriented REPL), inspect
(tree structure dump), metrics (score candidate/reference pairs). Exit
codes: 0 success, 1 usage error, 2 data or config error, 3 remote error: a
`RemoteUnavailableError` (retries exhausted; its message names the stage) or
a `ProtocolError` (a reply the client cannot use).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .config import aggregator_from_config, load_config_file, setting
from .episodes import DialogueTurn, load_episodes
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DocumentParseError,
    InvalidParameterError,
    NotFoundError,
    ProtocolError,
    RemoteUnavailableError,
)
from .llm import ENV_MODEL, live_client, mock_client
from .metrics import score_pairs
from .pipeline import STRATEGIES, build_context, generate_response, ingest_episode, ingest_turn, new_memory
from .traversal import LlmAgent, LlmOracle, TraversalConfig
from .tree import HatTree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REMOTE = 3

_DATA_ERRORS = (DocumentParseError, NotFoundError, InvalidParameterError,
                ContractViolationError, ConfigurationError, OSError, ValueError)
_REMOTE_ERRORS = (RemoteUnavailableError, ProtocolError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this surface reserves 2 for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_common(sub, *, tree_flags=True, client_flags=True):
    sub.add_argument("--config", help="JSON config file")
    if tree_flags:
        sub.add_argument("--memory-length", type=int, default=None,
                         help="max children per internal node (default 3)")
        sub.add_argument("--aggregator", choices=["concat", "truncate", "llm_persona"],
                         default=None, help="aggregate function (default concat)")
    if client_flags:
        sub.add_argument("--mock", action="store_true",
                         help="use the offline deterministic chat backend")
        sub.add_argument("--endpoint", default=None, help="chat endpoint URL")
        sub.add_argument("--api-key", default=None, help="chat API key")
        sub.add_argument("--model", default=None, help="chat model id")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hatmem", description="Aggregate-tree conversation memory tools")
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="build and persist one tree per episode")
    ingest.add_argument("input", help="episodes file, one JSON episode per line")
    ingest.add_argument("--out", required=True, help="output directory")
    ingest.add_argument("--require-session", type=int, default=None,
                        help="drop episodes that never reach this session number")
    _add_common(ingest)

    run = commands.add_parser("bench", help="compare context strategies and score them")
    run.add_argument("input", help="episodes file, one JSON episode per line")
    run.add_argument("--strategy", action="append", default=None, choices=list(STRATEGIES),
                     help="strategy to run (repeatable; default all)")
    run.add_argument("--agent", choices=["llm"], default="llm",
                     help="traversal agent for hat_agent")
    run.add_argument("--budget", type=int, default=None, help="traversal step budget")
    run.add_argument("--require-session", type=int, default=None,
                     help="drop episodes that never reach this session number")
    run.add_argument("--out", default=None, help="write the JSON report here")
    _add_common(run)

    chat = commands.add_parser("chat", help="line-oriented REPL over a growing memory tree")
    chat.add_argument("--strategy", choices=list(STRATEGIES), default="hat_agent")
    chat.add_argument("--budget", type=int, default=None, help="traversal step budget")
    _add_common(chat)

    inspect = commands.add_parser("inspect", help="print the structure of a persisted tree")
    inspect.add_argument("tree", help="tree document path")
    inspect.add_argument("--text-width", type=int, default=60, help="preview width per node")

    metrics = commands.add_parser("metrics", help="score candidate/reference pairs")
    metrics.add_argument("pairs", help="JSON-lines file of {candidate, reference} objects")
    metrics.add_argument("--out", default=None, help="write the scores as JSON here")

    return parser


def _client(args, file_config):
    if getattr(args, "mock", False):
        model = setting(args.model, ENV_MODEL, file_config, "model", "mock-chat")
        return mock_client(model=model)
    return live_client(
        endpoint=setting(args.endpoint, None, file_config, "endpoint"),
        api_key=setting(args.api_key, None, file_config, "api_key"),
        model=setting(args.model, None, file_config, "model"),
    )


def _tree_options(args, file_config):
    memory_length = setting(args.memory_length, None, file_config, "memory_length", 3)
    return int(memory_length)


def cmd_ingest(args) -> int:
    file_config = load_config_file(args.config)
    # A chat client is only needed when the resolved aggregator is llm_persona.
    spec = setting(args.aggregator, None, file_config, "aggregator", "concat")
    kind = spec.get("kind") if isinstance(spec, dict) else spec
    client = _client(args, file_config) if kind == "llm_persona" else None
    aggregator = aggregator_from_config(args.aggregator, file_config, client=client)
    episodes = load_episodes(args.input, require_session=args.require_session)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for episode in sorted(episodes, key=lambda e: e.episode_id):
        state = ingest_episode(episode, _tree_options(args, file_config), aggregator)
        (out_dir / f"{episode.episode_id}.tree.json").write_text(
            state.tree.serialize(), encoding="utf-8")
        snapshots = {
            "episode_id": episode.episode_id,
            "session_snapshots": {str(k): v for k, v in sorted(state.session_snapshots.items())},
        }
        (out_dir / f"{episode.episode_id}.memory.json").write_text(
            json.dumps(snapshots, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"{episode.episode_id}: {state.tree.leaf_count} leaves, "
              f"depth {state.tree.depth()}, {state.tree.agg_call_count} aggregations")
    print(f"wrote {len(episodes)} tree(s) to {out_dir}")
    return EXIT_OK


def cmd_bench(args) -> int:
    file_config = load_config_file(args.config)
    client = _client(args, file_config)
    aggregator = aggregator_from_config(args.aggregator, file_config, client=client)
    episodes = load_episodes(args.input, require_session=args.require_session)
    options = bench_mod.BenchOptions(
        memory_length=_tree_options(args, file_config),
        strategies=args.strategy or list(STRATEGIES),
        step_budget=int(setting(args.budget, None, file_config, "budget", 32)),
    )
    report = bench_mod.run_bench(episodes, aggregator, client, options)
    sys.stdout.write(bench_mod.render_table(report))
    if args.out:
        Path(args.out).write_text(bench_mod.dump_report(report), encoding="utf-8")
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_chat(args) -> int:
    file_config = load_config_file(args.config)
    client = _client(args, file_config)
    aggregator = aggregator_from_config(args.aggregator, file_config, client=client)
    state = new_memory(_tree_options(args, file_config), aggregator)
    config = TraversalConfig(step_budget=int(setting(args.budget, None, file_config, "budget", 32)))
    oracle = LlmOracle(client)
    agent = LlmAgent(client)
    turn_index = 0
    for line in sys.stdin:
        text = line.strip()
        if not text:
            continue
        ingest_turn(state, DialogueTurn(speaker="user", text=text, session=1, turn_index=turn_index))
        turn_index += 1
        context = build_context(state, text, args.strategy,
                                oracle=oracle, agent=agent, config=config)
        reply = generate_response(context, text, client)
        print(f"assistant: {reply}")
        ingest_turn(state, DialogueTurn(speaker="assistant", text=reply,
                                        session=1, turn_index=turn_index))
        turn_index += 1
    return EXIT_OK


def cmd_inspect(args) -> int:
    document = Path(args.tree).read_text(encoding="utf-8")
    tree = HatTree.deserialize(document)
    width = max(args.text_width, 8)
    print(f"memory_length: {tree.memory_length}")
    print(f"leaf_count: {tree.leaf_count}")
    print(f"depth: {tree.depth()}")
    for layer_index, row in enumerate(tree.layers):
        print(f"layer {layer_index}: {len(row)} node(s)")
        for index, node in enumerate(row):
            preview = node.text if len(node.text) <= width else node.text[: width - 3] + "..."
            print(f"  ({layer_index},{index}) text={preview!r}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    pairs = []
    with open(args.pairs, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise DocumentParseError(f"line {line_no}: not valid JSON: {exc}") from exc
            if not isinstance(obj, dict) or not isinstance(obj.get("candidate"), str) \
                    or not isinstance(obj.get("reference"), str):
                raise DocumentParseError(
                    f"line {line_no}: need an object with string candidate and reference")
            pairs.append((obj["candidate"], obj["reference"]))
    if not pairs:
        raise DocumentParseError("no pairs to score")
    report = score_pairs(pairs)
    payload = json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(payload)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "bench": cmd_bench,
    "chat": cmd_chat,
    "inspect": cmd_inspect,
    "metrics": cmd_metrics,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _REMOTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REMOTE
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
