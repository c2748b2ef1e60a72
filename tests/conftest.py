"""Shared test doubles and tree builders."""

from __future__ import annotations

import random

import pytest

from hatmem import ChatReply, ConcatAggregator, HatTree, TraversalAction
from hatmem.errors import AggregationUnavailableError


def build_tree(n: int, memory_length: int = 2, separator: str = " | ",
               texts=None) -> HatTree:
    tree = HatTree(memory_length, ConcatAggregator(separator))
    for i in range(n):
        tree.insert_leaf(texts[i] if texts else f"t{i}")
    return tree


class FailingAggregator(ConcatAggregator):
    """Concat that starts failing after a set number of successful calls."""

    def __init__(self, separator: str = " | ", fail_after: int = 0):
        super().__init__(separator)
        self.fail_after = fail_after
        self.calls = 0
        self.armed = True

    def aggregate(self, children_texts):
        if self.armed:
            self.calls += 1
            if self.calls > self.fail_after:
                raise AggregationUnavailableError("injected aggregation failure")
        return super().aggregate(children_texts)


class TextSetOracle:
    """Sufficient exactly when the node text is in a fixed set."""

    def __init__(self, texts):
        self.texts = set(texts)
        self.calls = 0

    def sufficient(self, node_text, query):
        self.calls += 1
        return node_text in self.texts


class OracleAgent:
    """Accepts when the oracle is satisfied, else cycles a fixed move list."""

    def __init__(self, oracle, moves=None):
        self.oracle = oracle
        self.moves = list(moves) if moves else [TraversalAction.DOWN, TraversalAction.RIGHT]
        self._next = 0

    def propose_action(self, node_text, query, visited_path):
        if self.oracle.sufficient(node_text, query):
            return TraversalAction.ACCEPT
        action = self.moves[self._next % len(self.moves)]
        self._next += 1
        return action


class CountingAgent:
    """Wraps an agent and counts how often the walk consults it."""

    def __init__(self, agent):
        self.agent = agent
        self.calls = 0

    def propose_action(self, node_text, query, visited_path):
        self.calls += 1
        return self.agent.propose_action(node_text, query, visited_path)


class ConstOracle:
    def __init__(self, value: bool):
        self.value = value
        self.calls = 0

    def sufficient(self, node_text, query):
        self.calls += 1
        return self.value


class ScriptedClient:
    """Duck-typed chat client replying with a fixed list of contents."""

    def __init__(self, replies, model: str = "scripted"):
        self.replies = list(replies)
        self.model = model
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        if not self.replies:
            raise AssertionError("ScriptedClient ran out of replies")
        return ChatReply(content=self.replies.pop(0))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
