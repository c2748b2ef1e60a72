"""Spans and counts recorded around the program's public calls, from outside.

Nothing here reaches inside `hatmem`: the proxies stand in for the objects the
program is handed (chat client, aggregator, traversal agent and oracle), and
`trace_tree` replaces a tree's own `insert_leaf` and `serialize` on the
instance. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import nullcontext

from hatmem import TraversalAction

_NULL = nullcontext()


def no_span(name: str, **attrs):
    """`Tracer.span` stand-in for untraced passes."""
    return _NULL


class _Span:
    __slots__ = ("tracer", "name", "attrs", "index")

    def __init__(self, tracer: "Tracer", name: str, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.parents.append(t._open[-1] if t._open else None)
        t.ops.append(t.op)
        t.attrs.append(self.attrs)
        t.ends.append(0.0)
        t._open.append(self.index)
        t.starts.append(time.perf_counter())

    def __exit__(self, *exc):
        self.tracer.ends[self.index] = time.perf_counter()
        self.tracer._open.pop()
        return False


class Tracer:
    """In-memory spans plus counts.

    Span i is (names[i], starts[i], ends[i], parents[i], ops[i], attrs[i]):
    `parents[i]` is the index of the enclosing span (None at top level) and
    `ops[i]` the id of the benchmark op that was running. Parallel lists of
    plain numbers and strings keep the garbage collector out of the timings.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list = []
        self.ops: list = []
        self.attrs: list = []
        self.counts: Counter = Counter()
        self.walks: list[tuple[str, int, str]] = []
        self.op = None
        self._open: list[int] = []

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs or None)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def records(self):
        return zip(self.names, self.starts, self.ends, self.parents, self.ops, self.attrs)

    def write(self, handle, pass_index: int) -> None:
        """One JSON line per span: [pass, name, start, end, parent, op, attrs]."""
        for record in self.records():
            handle.write(json.dumps([pass_index, *record]) + "\n")


class TracedClient:
    """Stands in for `LlmClient`: one `llm.complete` span per call."""

    def __init__(self, client, tracer: Tracer):
        self._client = client
        self._tracer = tracer
        self.model = client.model

    def complete(self, request):
        with self._tracer.span("llm.complete"):
            reply = self._client.complete(request)
        self._tracer.count("llm.complete_calls")
        self._tracer.count("llm.attempts", reply.attempts)
        return reply


class TracedAggregator:
    """Stands in for an aggregator: one `aggregation.aggregate` span per call."""

    def __init__(self, aggregator, tracer: Tracer):
        self._aggregator = aggregator
        self._tracer = tracer
        self.kind = aggregator.kind

    def params(self) -> dict:
        return self._aggregator.params()

    def spec(self) -> dict:
        return self._aggregator.spec()

    def aggregate(self, children_texts: list[str]) -> str:
        with self._tracer.span("aggregation.aggregate"):
            text = self._aggregator.aggregate(children_texts)
        self._tracer.count("aggregation.calls")
        self._tracer.count("aggregation.input_tokens", sum(len(t.split()) for t in children_texts))
        return text


class WalkLog:
    """Steps and last verdict of the walk in progress, fed by the proxies below."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.steps = 0
        self.last = None

    def step(self, verdict) -> None:
        self.steps += 1
        self.last = verdict

    def close(self, strategy: str, tree) -> None:
        """Record the walk's outcome the way `hatmem.traversal` decides it."""
        if strategy == "hat_agent":
            outcome = {TraversalAction.ACCEPT: "sufficient",
                       TraversalAction.REJECT: "insufficient"}.get(self.last, "budget_exhausted")
        elif self.last is True:
            outcome = "sufficient"
        elif self.steps == sum(len(row) for row in tree.layers):
            outcome = "insufficient"  # the scan ran out of nodes
        else:
            outcome = "budget_exhausted"
        self.tracer.walks.append((strategy, self.steps, outcome))
        self.steps = 0
        self.last = None


class TracedAgent:
    def __init__(self, agent, log: WalkLog):
        self._agent = agent
        self._log = log

    def propose_action(self, node_text, query, visited_path):
        with self._log.tracer.span("traversal.agent_step"):
            action = self._agent.propose_action(node_text, query, visited_path)
        self._log.step(action)
        return action


class TracedOracle:
    def __init__(self, oracle, log: WalkLog):
        self._oracle = oracle
        self._log = log

    def sufficient(self, node_text, query):
        with self._log.tracer.span("traversal.oracle_step"):
            verdict = self._oracle.sufficient(node_text, query)
        self._log.step(verdict)
        return verdict


def trace_tree(tree, tracer: Tracer):
    """Wrap this tree's `insert_leaf` and `serialize` on the instance."""
    insert_leaf = tree.insert_leaf
    serialize = tree.serialize

    def traced_insert_leaf(text, meta=None):
        before = tree.agg_call_count
        with tracer.span("tree.insert_leaf"):
            node_id = insert_leaf(text, meta)
        tracer.count("tree.inserts")
        tracer.count("tree.agg_calls", tree.agg_call_count - before)
        return node_id

    def traced_serialize():
        with tracer.span("tree.serialize"):
            return serialize()

    tree.insert_leaf = traced_insert_leaf
    tree.serialize = traced_serialize


# ------------------------------------------------------------- derivation

def durations(tracer: Tracer) -> tuple[dict, dict]:
    """Per span name: list of durations and total self time, in seconds.

    A span's self time is its duration minus its children's; the benchmark
    is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(tracer.names)
    for start, end, parent in zip(tracer.starts, tracer.ends, tracer.parents):
        if parent is not None:
            child_time[parent] += end - start
    by_name: dict[str, list[float]] = defaultdict(list)
    self_total: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, _op, attrs) in enumerate(tracer.records()):
        key = name if not attrs or "strategy" not in attrs else f"{name}.{attrs['strategy']}"
        by_name[key].append(end - start)
        self_total[name] += end - start - child_time[i]
    return by_name, self_total


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0
