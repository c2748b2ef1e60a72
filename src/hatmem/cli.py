"""Command-line surface.

Subcommands: ingest (episodes file -> persisted trees and snapshots, one
pair per episode; a run that fails moves none of its files into --out),
bench (strategy comparison with metric tables), chat (line-oriented REPL),
inspect (tree structure dump), metrics (score candidate/reference pairs).
Exit codes: 0 success, 1 usage error, 2 data or config error, 3 remote
error: a `RemoteUnavailableError` (retries exhausted) or a `ProtocolError`
(a reply the client cannot use); either message names the stage of the
failed call.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import bench as bench_mod
from .aggregation import AGGREGATORS, LlmPersonaAggregator
from .config import aggregator_from_config, load_config_file, setting
from .episodes import DialogueTurn, load_episodes, read_json_lines
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DocumentParseError,
    InvalidParameterError,
    NotFoundError,
    ProtocolError,
    RemoteUnavailableError,
)
from .llm import ENV_API_KEY, ENV_ENDPOINT, ENV_MODEL, live_client, mock_client
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


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--memory-length", type=int, default=None,
                     help="max children per internal node (default 3)")
    sub.add_argument("--aggregator", choices=list(AGGREGATORS),
                     default=None, help="aggregate function (default concat)")
    sub.add_argument("--mock", action="store_true",
                     help="use the offline deterministic chat backend")
    sub.add_argument("--endpoint", default=None, help="chat endpoint URL")
    sub.add_argument("--api-key", default=None, help="chat API key")
    sub.add_argument("--model", default=None, help="chat model id")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hatmem", description="Aggregate-tree conversation memory tools")
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="build and persist one tree per episode")
    ingest.add_argument("input", help="episodes file, one JSON episode per line; each "
                                      "episode_id must be unique and a plain file name")
    ingest.add_argument("--out", required=True, help="output directory")
    ingest.add_argument("--require-session", type=int, default=None,
                        help="drop episodes that never reach this session number")
    _add_common(ingest)

    run = commands.add_parser("bench", help="compare context strategies and score them")
    run.add_argument("input", help="episodes file, one JSON episode per line")
    run.add_argument("--strategy", action="append", default=None, choices=list(STRATEGIES),
                     help="strategy to run (repeatable; default all)")
    run.add_argument("--budget", type=int, default=None, help="traversal step budget")
    run.add_argument("--require-session", type=int, default=None,
                     help="drop episodes that never reach this session number")
    run.add_argument("--out", default=None, help="write the JSON report here")
    _add_common(run)

    chat = commands.add_parser("chat", help="line-oriented REPL over a growing memory tree")
    # A chat has no dataset summaries to offer gold_memory.
    chat.add_argument("--strategy", choices=[s for s in STRATEGIES if s != "gold_memory"],
                      default="hat_agent")
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
        endpoint=setting(args.endpoint, ENV_ENDPOINT, file_config, "endpoint"),
        api_key=setting(args.api_key, ENV_API_KEY, file_config, "api_key"),
        model=setting(args.model, ENV_MODEL, file_config, "model"),
    )


def _memory_length(args, file_config) -> int:
    return setting(args.memory_length, None, file_config, "memory_length", 3)


def _step_budget(args, file_config) -> int:
    return setting(args.budget, None, file_config, "budget", TraversalConfig.step_budget)


def cmd_ingest(args) -> int:
    file_config = load_config_file(args.config)
    aggregator = aggregator_from_config(args.aggregator, file_config)
    if isinstance(aggregator, LlmPersonaAggregator):
        aggregator.client = _client(args, file_config)
    memory_length = _memory_length(args, file_config)
    episodes = load_episodes(args.input, require_session=args.require_session)
    # Each id names two files in --out, so it must not name a path elsewhere.
    for episode in episodes:
        if episode.episode_id in (".", "..") or set("/\\\0") & set(episode.episode_id):
            raise DocumentParseError(f"episode_id {episode.episode_id!r} is not a plain file name")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Every file is written beside --out first and moved in only once all
    # are written, so a run that fails part way leaves --out as it was.
    staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
    try:
        for episode in sorted(episodes, key=lambda e: e.episode_id):
            state = ingest_episode(episode, memory_length, aggregator)
            (staging / f"{episode.episode_id}.tree.json").write_text(
                state.tree.serialize(), encoding="utf-8")
            snapshots = {
                "episode_id": episode.episode_id,
                "session_snapshots": {str(k): v for k, v in sorted(state.session_snapshots.items())},
            }
            (staging / f"{episode.episode_id}.memory.json").write_text(
                bench_mod.dump_report(snapshots), encoding="utf-8")
            print(f"{episode.episode_id}: {state.tree.leaf_count} leaves, "
                  f"depth {state.tree.depth()}, {state.tree.agg_call_count} aggregator calls")
        for written in sorted(staging.iterdir()):
            os.replace(written, out_dir / written.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(f"wrote {len(episodes)} tree(s) to {out_dir}")
    return EXIT_OK


def cmd_bench(args) -> int:
    file_config = load_config_file(args.config)
    client = _client(args, file_config)
    aggregator = aggregator_from_config(args.aggregator, file_config, client=client)
    episodes = load_episodes(args.input, require_session=args.require_session)
    report = bench_mod.run_bench(episodes, aggregator, client,
                                 memory_length=_memory_length(args, file_config),
                                 strategies=args.strategy or STRATEGIES,
                                 step_budget=_step_budget(args, file_config))
    sys.stdout.write(bench_mod.render_table(report))
    if args.out:
        Path(args.out).write_text(bench_mod.dump_report(report), encoding="utf-8")
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_chat(args) -> int:
    file_config = load_config_file(args.config)
    client = _client(args, file_config)
    aggregator = aggregator_from_config(args.aggregator, file_config, client=client)
    state = new_memory(_memory_length(args, file_config), aggregator)
    config = TraversalConfig(step_budget=_step_budget(args, file_config))
    oracle = LlmOracle(client)
    agent = LlmAgent(client)
    turn_index = 0
    for line in sys.stdin:
        text = line.strip()
        if not text:
            continue
        # Retrieve before storing, so that a walk never finds the message itself.
        context = build_context(state, text, args.strategy, oracle=oracle, agent=agent,
                                config=config) if state.tree.layers else ""
        reply = generate_response(context, text, client)
        print(f"assistant: {reply}")
        for speaker, said in (("user", text), ("assistant", reply)):
            ingest_turn(state, DialogueTurn(speaker=speaker, text=said,
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
        for index, text in enumerate(row):
            preview = text if len(text) <= width else text[: width - 3] + "..."
            print(f"  ({layer_index},{index}) text={preview!r}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    pairs = []
    for line_no, obj in read_json_lines(args.pairs):
        if not isinstance(obj, dict) or not isinstance(obj.get("candidate"), str) \
                or not isinstance(obj.get("reference"), str):
            raise DocumentParseError(
                f"line {line_no}: need an object with string candidate and reference")
        pairs.append((obj["candidate"], obj["reference"]))
    if not pairs:
        raise DocumentParseError("no pairs to score")
    payload = bench_mod.dump_report(score_pairs(pairs))
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
