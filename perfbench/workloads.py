"""The three benchmark workloads, driven through the public `hatmem` API.

Each workload generates its inputs from the seed once, then runs passes. A
pass starts from a fresh memory and runs the same ops in the same order, so
every pass of one seed yields the same counters. An op is timed alone; its
exceptions are counted by class and the pass goes on. Output checks run after
the pass's wall clock has stopped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from hatmem import (
    DialogueTurn,
    HatTree,
    LlmAgent,
    LlmOracle,
    LlmPersonaAggregator,
    TraversalConfig,
    TruncateAggregator,
    build_context,
    end_session,
    f1,
    generate_response,
    ingest_turn,
    new_memory,
    tokenize,
)

import inputs
from endpoint import EmulatedEndpoint
from tracing import (
    TracedAgent,
    TracedAggregator,
    TracedClient,
    TracedOracle,
    Tracer,
    WalkLog,
    no_span,
    trace_tree,
)

ENDPOINT_DELAY_S = 0.002
PERSONA_MAX_TOKENS = 64
MEMORY_LENGTH = 3
TRUNCATE_BUDGET = 64
STEP_BUDGET = 32
ROTATION = ("hat_agent", "hat_bfs", "hat_dfs")
GREETING = "Hello again, what is on your mind today?"


@dataclass
class PassResult:
    wall: float = 0.0
    attempted: int = 0
    latencies: list = field(default_factory=list)  # seconds, succeeded ops only
    errors: Counter = field(default_factory=Counter)  # exception class -> ops
    counters: dict = field(default_factory=dict)  # the same on every pass of a seed
    problems: list = field(default_factory=list)  # failed output checks

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


class _Op:
    """Times one op and counts it as succeeded or failed (by exception class)."""

    __slots__ = ("world", "result", "span", "start")

    def __init__(self, world: "World", result: PassResult, op_id: int):
        self.world = world
        self.result = result
        if world.tracer is not None:
            world.tracer.op = op_id
        self.span = world.span("op")

    def __enter__(self):
        self.span.__enter__()
        self.start = perf_counter()

    def __exit__(self, exc_type, exc, tb):
        elapsed = perf_counter() - self.start
        self.span.__exit__(exc_type, exc, tb)
        if self.world.tracer is not None:
            self.world.tracer.op = None
        self.result.attempted += 1
        if exc_type is None:
            self.result.latencies.append(elapsed)
            return False
        if issubclass(exc_type, Exception):
            self.result.errors[exc_type.__name__] += 1
            return True
        return False


class World:
    """The objects one pass hands to the program; proxies when traced."""

    def __init__(self, tracer, aggregator_kind: str):
        self.tracer = tracer
        self.span = tracer.span if tracer is not None else no_span
        self.endpoint = None
        self.client = None
        if aggregator_kind == "llm_persona":
            self.endpoint = EmulatedEndpoint(ENDPOINT_DELAY_S, tracer)
            self.client = self.endpoint.client()
            if tracer is not None:
                self.client = TracedClient(self.client, tracer)
            aggregator = LlmPersonaAggregator(self.client, max_tokens=PERSONA_MAX_TOKENS)
        else:
            aggregator = TruncateAggregator(TRUNCATE_BUDGET)
        self.aggregator = TracedAggregator(aggregator, tracer) if tracer is not None else aggregator

    def op(self, result: PassResult, op_id: int) -> _Op:
        return _Op(self, result, op_id)

    def new_memory(self):
        state = new_memory(MEMORY_LENGTH, self.aggregator)
        if self.tracer is not None:
            trace_tree(state.tree, self.tracer)
        return state

    def ingest(self, state, turn: DialogueTurn) -> None:
        with self.span("pipeline.ingest_turn"):
            ingest_turn(state, turn)

    def end_session(self, state, session: int) -> None:
        with self.span("pipeline.end_session"):
            end_session(state, session)

    def deserialize(self, document: str) -> HatTree:
        with self.span("tree.deserialize"):
            tree = HatTree.deserialize(document, self.aggregator)
        if self.tracer is not None:
            trace_tree(tree, self.tracer)
        return tree

    def endpoint_counters(self) -> dict:
        return self.endpoint.counters() if self.endpoint is not None else {}


def expected_snapshots(turns, budget: int, split) -> dict[int, str]:
    """Root text each session should end with: the first `budget` tokens of
    every leaf so far, whatever the tree shape. `split` is the tokenizer the
    aggregation clips with."""
    prefix: list[str] = []
    out = {}
    for turn in turns:
        if len(prefix) < budget:
            prefix.extend(split(f"{turn.speaker}: {turn.text}"))
        out[turn.session] = " ".join(prefix[:budget])
    return out


def _check_round_trip(world: World, document: str, result: PassResult) -> None:
    if world.deserialize(document).serialize() != document:
        result.problems.append("serialize(deserialize(doc)) differs from doc")


class ChatLoop:
    """One growing conversation; an op answers one user message."""

    name = "chat_loop"
    aggregator = "llm_persona"

    def __init__(self, seed: int, ops: int = 150):
        self.stream = inputs.chat_stream(seed, ops)

    def run(self, world: World) -> PassResult:
        result = PassResult()
        state = world.new_memory()
        transcript = [DialogueTurn("assistant", GREETING, 1, 0)]
        ingest_turn(state, transcript[0])
        agent, oracle = LlmAgent(world.client), LlmOracle(world.client)
        walks = None
        if world.tracer is not None:
            walks = WalkLog(world.tracer)
            agent, oracle = TracedAgent(agent, walks), TracedOracle(oracle, walks)
        config = TraversalConfig(step_budget=STEP_BUDGET)
        answers = []
        start = perf_counter()
        for i, message in enumerate(self.stream):
            strategy = ROTATION[i % len(ROTATION)]
            with world.op(result, i):
                with world.span("pipeline.build_context", strategy=strategy):
                    context = build_context(state, message.text, strategy,
                                            oracle=oracle, agent=agent, config=config)
                if walks is not None:
                    walks.close(strategy, state.tree)
                with world.span("pipeline.generate_response"):
                    reply = generate_response(context, message.text, world.client)
                for speaker, text in (("user", message.text), ("assistant", reply)):
                    turn = DialogueTurn(speaker, text, 1, len(transcript))
                    world.ingest(state, turn)
                    transcript.append(turn)
                if message.kind == "query":
                    answers.append((message, reply))
        result.wall = perf_counter() - start

        with world.span("metrics.score"):
            scores = [f1(reply, message.reference) for message, reply in answers]
        hits = sum(message.token in tokenize(reply) for message, reply in answers)
        tree = state.tree
        document = tree.serialize()
        _check_round_trip(world, document, result)
        if tree.root_text() != expected_snapshots(transcript, PERSONA_MAX_TOKENS, str.split)[1]:
            result.problems.append("root text is not the clipped merge of every turn")
        calls = world.endpoint_counters()["calls"]
        if calls.get("aggregate", 0) != tree.agg_call_count:
            result.problems.append("aggregate calls at the endpoint differ from the tree's count")
        if calls.get("other"):
            result.problems.append("endpoint saw a prompt of no known stage")
        result.counters = {
            "endpoint": world.endpoint_counters(),
            "leaves": tree.leaf_count,
            "docs": 1,
            "doc_bytes": len(document.encode("utf-8")),
            "depth_final": tree.depth(),
            "agg_calls": tree.agg_call_count,
            "fact_queries": len(answers),
            "recall_hits": hits,
            "f1_sum": sum(scores),
        }
        return result


class PersonaCorpus:
    """Seeded multi-session episodes; an op ingests one session."""

    name = "persona_corpus"
    aggregator = "llm_persona"

    def __init__(self, seed: int, episodes: int = 20, sessions: int = 5, turns: int = 14):
        self.corpus = [[[DialogueTurn(*t) for t in session] for session in episode]
                       for episode in inputs.persona_corpus(seed, episodes, sessions, turns)]

    def run(self, world: World) -> PassResult:
        result = PassResult()
        states, documents = [], []
        op_id = 0
        start = perf_counter()
        for episode in self.corpus:
            state = world.new_memory()
            for session in episode:
                with world.op(result, op_id):
                    for turn in session:
                        world.ingest(state, turn)
                    world.end_session(state, session[0].session)
                    if session is episode[-1]:
                        # As `hatmem ingest` does once an episode is in.
                        documents.append(state.tree.serialize())
                op_id += 1
            states.append(state)
        result.wall = perf_counter() - start

        for episode, state in zip(self.corpus, states):
            turns = [turn for session in episode for turn in session]
            if state.session_snapshots != expected_snapshots(turns, PERSONA_MAX_TOKENS, str.split):
                result.problems.append("a session snapshot is not the clipped merge of its turns")
                break
        for document in documents:
            _check_round_trip(world, document, result)
        calls = world.endpoint_counters()["calls"]
        agg_calls = sum(state.tree.agg_call_count for state in states)
        if calls != {"aggregate": agg_calls}:
            result.problems.append("endpoint calls are not exactly the trees' aggregations")
        result.counters = {
            "endpoint": world.endpoint_counters(),
            "leaves": sum(state.tree.leaf_count for state in states),
            "docs": len(documents),
            "doc_bytes": sum(len(d.encode("utf-8")) for d in documents),
            "depth_final": max(state.tree.depth() for state in states),
            "agg_calls": agg_calls,
        }
        return result


class LongIngest:
    """One long truncate-memory conversation; an op appends one turn."""

    name = "long_ingest"
    aggregator = "truncate"
    session_length = 40

    def __init__(self, seed: int, turns: int = 20_000):
        self.turns = [DialogueTurn(*t) for t in
                      inputs.long_conversation(seed, turns, self.session_length)]

    def run(self, world: World) -> PassResult:
        result = PassResult()
        state = world.new_memory()
        last_index = self.session_length - 1
        start = perf_counter()
        for i, turn in enumerate(self.turns):
            with world.op(result, i):
                world.ingest(state, turn)
                if turn.turn_index == last_index:
                    world.end_session(state, turn.session)
        snapshots = state.session_snapshots
        depth, leaves, agg_calls = state.tree.depth(), state.tree.leaf_count, state.tree.agg_call_count
        document = state.tree.serialize()
        del state  # drop the first tree before the reload builds the second
        reloaded = world.deserialize(document)
        again = reloaded.serialize()
        result.wall = perf_counter() - start

        expected = expected_snapshots(self.turns, TRUNCATE_BUDGET, tokenize)
        if snapshots != expected:
            result.problems.append("a session snapshot is not the first tokens of all turns")
        if reloaded.root_text() != expected[self.turns[-1].session]:
            result.problems.append("final root text is not the first tokens of all turns")
        if again != document:
            result.problems.append("serialize(deserialize(doc)) differs from doc")
        result.counters = {
            "leaves": leaves,
            "docs": 1,
            "doc_bytes": len(document.encode("utf-8")),
            "depth_final": depth,
            "agg_calls": agg_calls,
        }
        return result


WORKLOADS = {w.name: w for w in (ChatLoop, PersonaCorpus, LongIngest)}


def build(workload_name: str, seed: int):
    """Inputs plus the first pass's objects: everything set up before op one."""
    workload = WORKLOADS[workload_name](seed)
    return workload, World(None, workload.aggregator)


def new_world(workload, traced: bool) -> World:
    return World(Tracer() if traced else None, workload.aggregator)
