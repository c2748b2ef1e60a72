"""Cursor moves, agent walks, BFS/DFS scans, and action parsing."""

from __future__ import annotations

import gc
import random
import sys
import threading
import tracemalloc
import weakref

import pytest

from conftest import (
    BarrierTransport,
    ClippingTransport,
    ConstOracle,
    CountingAgent,
    DownTransport,
    LoggingTransport,
    OracleAgent,
    ScriptedAgent,
    ScriptedClient,
    SubstringOracle,
    TextSetOracle,
    assert_no_call_running,
    build_tree,
    every_pool_worker,
)
from reference_impls import bfs_visit_order, dfs_visit_order, plain_scan, plain_walk

import hatmem
from hatmem import (
    Cursor,
    LlmAgent,
    LlmOracle,
    Outcome,
    TraversalAction as A,
    TraversalConfig,
    apply_action,
    bfs_search,
    dfs_search,
    fallback_context,
    traverse,
)
from hatmem import (
    ConcatAggregator,
    HatTree,
    LlmClient,
    LlmPersonaAggregator,
    TruncateAggregator,
    mock_client,
)
from hatmem.errors import (
    ActionParseError,
    ContractViolationError,
    InvalidParameterError,
    RemoteUnavailableError,
)
from hatmem import llm
from hatmem.llm import ChatRequest, remembered
from hatmem.traversal import llm_agent_prompt, parse_action


class FailingAgent:
    """Wraps an agent; every step whose visited path has `fail_at_step` or
    more entries raises `RemoteUnavailableError` instead of answering."""

    def __init__(self, agent, fail_at_step: int):
        self.agent = agent
        self.fail_at_step = fail_at_step

    def propose_action(self, node_text, query, visited_path):
        if len(visited_path) >= self.fail_at_step:
            raise RemoteUnavailableError("injected agent failure", stage="agent")
        return self.agent.propose_action(node_text, query, visited_path)


class TestApplyAction:
    def test_right_within_layer(self):
        tree = build_tree(4)
        assert apply_action(tree, Cursor(1, 0), A.RIGHT) == Cursor(1, 1)

    def test_up_at_root_is_noop(self):
        tree = build_tree(4)
        assert apply_action(tree, Cursor(0, 0), A.UP) == Cursor(0, 0)

    def test_down_to_leftmost_child(self):
        tree = build_tree(4)
        assert apply_action(tree, Cursor(0, 0), A.DOWN) == Cursor(1, 0)
        assert apply_action(tree, Cursor(1, 1), A.DOWN) == Cursor(2, 2)

    def test_down_at_leaf_is_noop(self):
        tree = build_tree(4)
        assert apply_action(tree, Cursor(2, 3), A.DOWN) == Cursor(2, 3)

    def test_left_at_zero_and_right_at_end_are_noops(self):
        tree = build_tree(4)
        assert apply_action(tree, Cursor(2, 0), A.LEFT) == Cursor(2, 0)
        assert apply_action(tree, Cursor(2, 3), A.RIGHT) == Cursor(2, 3)

    def test_right_crosses_subtree_boundary(self):
        tree = build_tree(4)
        assert apply_action(tree, Cursor(2, 1), A.RIGHT) == Cursor(2, 2)

    def test_start_jumps_to_root(self):
        tree = build_tree(5)
        assert apply_action(tree, Cursor(3, 4), A.START) == Cursor(0, 0)

    def test_up_uses_floor_division(self):
        tree = build_tree(9, memory_length=3)
        assert apply_action(tree, Cursor(2, 7), A.UP) == Cursor(1, 2)

    def test_terminal_actions_rejected(self):
        tree = build_tree(2)
        for action in (A.ACCEPT, A.REJECT):
            with pytest.raises(InvalidParameterError):
                apply_action(tree, Cursor(0, 0), action)

    def test_invalid_cursor_rejected(self):
        tree = build_tree(2)
        with pytest.raises(LookupError):
            apply_action(tree, Cursor(5, 0), A.UP)


class TestTraverse:
    def test_scripted_walk_to_node(self):
        tree = build_tree(4)
        result = traverse(tree, ScriptedAgent([A.DOWN, A.RIGHT, A.ACCEPT]), "q")
        assert result.outcome is Outcome.SUFFICIENT
        assert result.text == tree.node_at(1, 1)
        assert result.steps == 3
        assert [cursor for cursor, _ in result.path] == [Cursor(0, 0), Cursor(1, 0), Cursor(1, 1)]

    def test_immediate_reject(self):
        result = traverse(build_tree(4), ScriptedAgent([A.REJECT]), "q")
        assert result.outcome is Outcome.INSUFFICIENT
        assert result.text is None
        assert result.steps == 1

    def test_budget_exhaustion(self):
        agent = ScriptedAgent([A.DOWN, A.UP], cycle=True)
        result = traverse(build_tree(4), agent, "q", TraversalConfig(step_budget=5))
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.steps == 5
        assert len(result.path) == 5
        # The DOWN chain asked ahead of a 7-layer tree stops at the budget too.
        agent = CountingAgent(ScriptedAgent([A.DOWN], cycle=True))
        result = traverse(build_tree(64), agent, "q", TraversalConfig(step_budget=3))
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert agent.calls == 3

    def test_path_replay_reproduces_cursors(self):
        tree = build_tree(7)
        script = [A.DOWN, A.RIGHT, A.DOWN, A.LEFT, A.UP, A.START, A.DOWN, A.ACCEPT]
        result = traverse(tree, ScriptedAgent(script), "q")
        cursor = Cursor(0, 0)
        for recorded, action in result.path:
            assert recorded == cursor
            if action not in (A.ACCEPT, A.REJECT):
                cursor = apply_action(tree, cursor, action)

    def test_empty_tree_rejected(self):
        tree = HatTree(2, ConcatAggregator())
        with pytest.raises(InvalidParameterError):
            traverse(tree, ScriptedAgent([A.ACCEPT]), "q")

    def test_scripted_agent_exhaustion(self):
        tree = build_tree(4)
        with pytest.raises(ContractViolationError):
            traverse(tree, ScriptedAgent([A.DOWN]), "q", TraversalConfig(step_budget=3))

    # asks = steps plus unread asks ahead: after the root's DOWN the walk
    # asks about (1, 0) and (2, 0) at once, and reads (2, 0) only when the
    # answer at (1, 0) is DOWN too.
    @pytest.mark.parametrize("script, stuck_at, asks", [
        ([A.UP], Cursor(0, 0), 1),
        ([A.START], Cursor(0, 0), 1),
        ([A.DOWN, A.DOWN, A.DOWN], Cursor(2, 0), 3),
        ([A.DOWN, A.LEFT], Cursor(1, 0), 3),
        ([A.DOWN, A.RIGHT, A.RIGHT], Cursor(1, 1), 4),
    ], ids=[f"script{i}-stuck_at{i}" for i in range(5)])
    def test_noop_move_ends_walk_insufficient(self, script, stuck_at, asks):
        agent = CountingAgent(ScriptedAgent(script, cycle=True))
        result = traverse(build_tree(4), agent, "q", TraversalConfig(step_budget=16))
        assert result.outcome is Outcome.INSUFFICIENT
        assert result.text is None
        assert result.steps == len(script)
        assert agent.calls == asks
        assert result.path[-1] == (stuck_at, script[-1])

    def test_walks_match_plain_reference(self):
        # Pure random agents, whose answer depends only on the node text and
        # the path, give every walk the result of asking one node at a time.
        rng = random.Random(20240613)
        actions = list(A)
        ahead = 0
        for trial in range(300):
            M = rng.randint(2, 4)
            tree = HatTree(M, TruncateAggregator(budget=rng.choice([1, 2, 3])))
            for _ in range(rng.randint(1, 40)):
                tree.insert_leaf(" ".join(f"w{rng.randrange(4)}" for _ in range(rng.randint(1, 3))))
            sizes = [tree.layer_size(k) for k in range(len(tree.layers))]
            down_share = rng.random()
            budget = rng.randint(1, 20)

            def choose(text, path):
                pick = random.Random(f"{trial}|{text}|{path}")
                if pick.random() < down_share:
                    return A.DOWN
                return pick.choice(actions)

            asks = []
            asks_lock = threading.Lock()

            class PureAgent:
                def propose_action(self, node_text, query, visited_path):
                    path = tuple(((c.layer, c.index), a.value) for c, a in visited_path)
                    with asks_lock:
                        asks.append(path)
                    return choose(node_text, path)

            expected = plain_walk(
                sizes, M,
                lambda coord, path: choose(tree.node_at(*coord), tuple(path)).value, budget)
            result = traverse(tree, PureAgent(), "q", TraversalConfig(step_budget=budget))
            assert result.outcome.value == expected["outcome"]
            assert result.text == (tree.node_at(*expected["coord"])
                                   if expected["coord"] else None)
            assert result.steps == expected["steps"]
            assert [((c.layer, c.index), a.value) for c, a in result.path] == expected["path"]
            assert len(set(asks)) == len(asks)
            assert expected["steps"] <= len(asks) <= expected["steps"] + 7
            if expected["steps"] == 1:
                assert len(asks) == 1
            ahead += len(asks) - expected["steps"]
        assert ahead > 0  # some walks did ask ahead of what they read

    def test_descent_wave_asks_are_in_flight_together(self):
        # The root is asked alone; the barrier then holds the three asks of
        # the DOWN chain below it, which pass only when all have started.
        tree = build_tree(8)
        transport = BarrierTransport(parties=3, skip=1)
        agent = LlmAgent(LlmClient(transport, model="m", sleep=lambda _s: None))
        result = traverse(tree, agent, "zebra", TraversalConfig(step_budget=100))
        assert result.outcome is Outcome.INSUFFICIENT
        assert [cursor for cursor, _ in result.path] == [Cursor(k, 0) for k in range(4)]
        assert transport._mock.calls == 4

    def test_failed_ask_the_walk_never_reads_is_dropped(self):
        # The answer at (1, 0) is ACCEPT, so the failed asks at (2, 0) and
        # (3, 0) below it, made in the same wave, are never read.
        tree = build_tree(8)
        agent = CountingAgent(FailingAgent(ScriptedAgent([A.DOWN, A.ACCEPT]), fail_at_step=2))
        result = traverse(tree, agent, "q", TraversalConfig(step_budget=100))
        assert result.outcome is Outcome.SUFFICIENT
        assert result.text == tree.node_at(1, 0)
        assert result.steps == 2
        assert agent.calls == 4

    def test_failed_ask_the_walk_reads_raises_and_leaves_no_thread(self):
        # Every ask below (1, 0) carries "(1,0) DOWN" in its path and fails;
        # the walk reads the answer at (2, 0) after the DOWN at (1, 0).
        tree = build_tree(8)
        transport = LoggingTransport(delay_s=0.001)
        transport.fail_on = "(1,0) DOWN"
        agent = LlmAgent(LlmClient(transport, model="m", sleep=lambda _s: None))
        with pytest.raises(RemoteUnavailableError) as failure:
            traverse(tree, agent, "zebra", TraversalConfig(step_budget=100))
        assert failure.value.stage == "agent"
        assert_no_call_running(transport)
        assert len(transport.calls) == 2  # the root and (1, 0) answered
        assert transport.failed == 2 * 3  # (2, 0) and (3, 0), three attempts each

    def test_oracle_agent_accepts_at_match(self):
        tree = build_tree(4)
        target = tree.node_at(2, 2)
        result = traverse(tree, OracleAgent(TextSetOracle({target})), "q",
                          TraversalConfig(step_budget=16))
        assert result.outcome is Outcome.SUFFICIENT
        assert result.text == target


class TestSearches:
    def test_always_true_returns_root_once(self):
        tree = build_tree(6)
        for search in (bfs_search, dfs_search):
            oracle = ConstOracle(True)
            result = search(tree, oracle, "q")
            assert result.outcome is Outcome.SUFFICIENT
            assert result.text == tree.root_text()
            assert result.steps == 1 and oracle.calls == 1

    def test_always_false_exhausts_nodes(self):
        tree = build_tree(4)  # 7 nodes at M=2
        for search in (bfs_search, dfs_search):
            result = search(tree, oracle := ConstOracle(False), "q",
                            TraversalConfig(step_budget=100))
            assert result.outcome is Outcome.INSUFFICIENT
            assert result.steps == 7
            assert oracle.calls == 1

    def test_budget_cuts_scan_short(self):
        tree = build_tree(8)
        for search in (bfs_search, dfs_search):
            result = search(tree, ConstOracle(False), "q", TraversalConfig(step_budget=3))
            assert result.outcome is Outcome.BUDGET_EXHAUSTED
            assert result.steps == 3

    def test_bfs_prefers_shallowest_then_leftmost(self):
        tree = build_tree(4)
        targets = {tree.node_at(2, 3), tree.node_at(1, 1)}
        result = bfs_search(tree, TextSetOracle(targets), "q")
        assert result.text == tree.node_at(1, 1)

    def test_dfs_prefers_preorder_first(self):
        tree = build_tree(4)
        # Pre-order: (0,0) (1,0) (2,0) (2,1) (1,1) (2,2) (2,3)
        targets = {tree.node_at(2, 1), tree.node_at(1, 1)}
        result = dfs_search(tree, TextSetOracle(targets), "q")
        assert result.text == tree.node_at(2, 1)

    def test_planted_phrase_search(self):
        tree = HatTree(2, ConcatAggregator("\n"))
        for i in range(8):
            tree.insert_leaf("unique fact lives here" if i == 3 else f"filler {i}")
        result = bfs_search(tree, SubstringOracle("unique fact"), "q")
        # Concat never dilutes, so the root already contains the phrase.
        assert result.outcome is Outcome.SUFFICIENT
        assert result.steps == 1

    def test_planted_phrase_when_aggregation_dilutes(self):
        from hatmem import TruncateAggregator
        tree = HatTree(2, TruncateAggregator(budget=2))
        for i in range(8):
            tree.insert_leaf("zq marker" if i == 5 else f"filler {i}")
        result = bfs_search(tree, SubstringOracle("zq"), "q",
                            TraversalConfig(step_budget=50))
        assert result.outcome is Outcome.SUFFICIENT
        assert result.path[-1][0] in (Cursor(3, 5), Cursor(2, 2))
        assert "zq" in result.text
        assert tree.node_at(3, 5) == "zq marker"

    def test_rejected_text_is_not_asked_again(self):
        tree = HatTree(2, TruncateAggregator(budget=2))
        for i in range(4):
            tree.insert_leaf(f"w{i} x")
        # Clipped parents repeat their first child: (0,0) = (1,0) = (2,0) = "w0 x".
        for search, distinct in ((bfs_search, ["w0 x", "w2 x", "w1 x", "w3 x"]),
                                 (dfs_search, ["w0 x", "w1 x", "w2 x", "w3 x"])):
            oracle = TextSetOracle()
            result = search(tree, oracle, "q", TraversalConfig(step_budget=100))
            assert result.outcome is Outcome.INSUFFICIENT
            assert result.steps == 7
            assert oracle.asked == [distinct]

    def test_scans_match_plain_reference(self):
        # Random trees, budgets and truth sets: a scan's outcome, text and
        # path are those of asking one node at a time, from one call that
        # judges the distinct texts of the visits within the budget.
        rng = random.Random(20240610)
        reused = 0
        for _ in range(300):
            M = rng.choice([2, 3])
            tree = HatTree(M, TruncateAggregator(budget=rng.choice([1, 2, 3])))
            for _ in range(rng.randint(1, 30)):
                tree.insert_leaf(" ".join(f"w{rng.randrange(4)}" for _ in range(rng.randint(1, 3))))
            sizes = [tree.layer_size(k) for k in range(len(tree.layers))]
            texts = sorted({tree.node_at(k, i) for k, i in bfs_visit_order(sizes)})
            targets = set(rng.sample(texts, rng.randint(0, min(2, len(texts)))))
            budget = rng.randint(1, sum(sizes) + 2)
            config = TraversalConfig(step_budget=budget)
            for search, order in ((bfs_search, bfs_visit_order(sizes)),
                                  (dfs_search, dfs_visit_order(sizes, M))):
                text_at = lambda c: tree.node_at(*c)  # noqa: E731
                expected = plain_scan(order, text_at, lambda text: text in targets, budget)
                oracle = TextSetOracle(targets)
                result = search(tree, oracle, "q", config)
                assert result.outcome.value == expected["outcome"]
                assert result.text == expected["text"]
                assert result.steps == expected["steps"]
                assert [((c.layer, c.index), a.value) for c, a in result.path] == expected["path"]
                assert oracle.asked == [list(dict.fromkeys(map(text_at, order[:budget])))]
                reused += len(expected["consulted"]) - len(set(expected["consulted"]))
        assert reused > 0  # the trees do repeat texts, so the reuse path ran

    def test_chat_oracle_scans_match_plain_reference(self):
        # The same with the chat oracle on the mock, whose truth is word
        # cover: one request per scan, and none when the scan is repeated.
        rng = random.Random(20240611)
        accepted = 0
        for _ in range(150):
            M = rng.choice([2, 3, 4])
            tree = HatTree(M, TruncateAggregator(budget=rng.choice([1, 2, 3])))
            for _ in range(rng.randint(1, 40)):
                tree.insert_leaf(" ".join(f"w{rng.randrange(6)}" for _ in range(rng.randint(1, 3))))
            sizes = [tree.layer_size(k) for k in range(len(tree.layers))]
            wanted = {f"w{i}" for i in rng.sample(range(6), rng.randint(1, 2))}
            query = " ".join(sorted(wanted))
            config = TraversalConfig(step_budget=rng.randint(1, sum(sizes) + 2))
            for search, order in ((bfs_search, bfs_visit_order(sizes)),
                                  (dfs_search, dfs_visit_order(sizes, M))):
                expected = plain_scan(order, lambda c: tree.node_at(*c),
                                      lambda text: wanted <= set(text.split()), config.step_budget)
                oracle = LlmOracle(mock_client())
                for _ in range(2):
                    result = search(tree, oracle, query, config)
                    assert [((c.layer, c.index), a.value) for c, a in result.path] == expected["path"]
                    assert result.outcome.value == expected["outcome"]
                    assert result.text == expected["text"]
                    assert oracle.client.transport.calls == 1
                accepted += result.outcome is Outcome.SUFFICIENT
        assert 0 < accepted < 300

    def test_oracle_must_give_one_verdict_per_passage(self):
        class ShortOracle:
            def sufficient(self, passages, query):
                return [False] * (len(passages) - 1)

        for search in (bfs_search, dfs_search):
            with pytest.raises(ContractViolationError, match="6 verdicts for 7 passages"):
                search(build_tree(4), ShortOracle(), "q")

    def test_failed_call_raises_and_leaves_no_thread(self):
        # Truncate(2) texts: the root and (1, 0) are "a0 x", (1, 1) is
        # "a2 x". The scan's one request carries "a3 boom" behind the
        # passage "a1 zebra" that would suffice, and fails with it.
        tree = HatTree(2, TruncateAggregator(budget=2))
        for text in ("a0 x", "a1 zebra", "a2 x", "a3 boom"):
            tree.insert_leaf(text)
        for search in (bfs_search, dfs_search):
            transport = LoggingTransport(delay_s=0.001)
            transport.fail_on = "boom"
            oracle = LlmOracle(LlmClient(transport, model="m", sleep=lambda _s: None))
            with pytest.raises(RemoteUnavailableError) as failure:
                search(tree, oracle, "zebra", TraversalConfig(step_budget=100))
            assert failure.value.stage == "oracle"
            assert_no_call_running(transport)
            assert transport.failed == transport.sent == 3  # one request, three attempts

    def test_empty_tree_rejected(self):
        tree = HatTree(2, ConcatAggregator())
        for search in (bfs_search, dfs_search):
            with pytest.raises(InvalidParameterError):
                search(tree, ConstOracle(True), "q")


class TestFallback:
    def test_root_plus_newest_leaf(self):
        tree = build_tree(5)
        assert fallback_context(tree) == tree.root_text() + "\nt4"

    def test_empty_tree_rejected(self):
        with pytest.raises(InvalidParameterError):
            fallback_context(HatTree(2, ConcatAggregator()))


class TestParseAction:
    def test_token_scan(self):
        assert parse_action("DOWN - need more detail") is A.DOWN
        assert parse_action("I think we should accept") is A.ACCEPT
        assert parse_action("Let's go right, not left.") is A.RIGHT

    def test_case_insensitive(self):
        assert parse_action("Start") is A.START

    def test_whole_word_only(self):
        with pytest.raises(ActionParseError):
            parse_action("update the node")

    def test_no_token(self):
        with pytest.raises(ActionParseError):
            parse_action("hmm, not sure")


class TestLlmAgent:
    def test_prompt_carries_node_query_and_path(self):
        path = [(Cursor(0, 0), A.DOWN)]
        messages = llm_agent_prompt("node body", "the query", path)
        joined = "\n".join(m["content"] for m in messages)
        assert "node body" in joined
        assert "the query" in joined
        assert "(0,0) DOWN" in joined
        assert "none yet" in "\n".join(
            m["content"] for m in llm_agent_prompt("n", "q", []))

    def test_parse_retry_then_success(self):
        client = ScriptedClient(["I cannot decide", "go LEFT"])
        action = LlmAgent(client).propose_action("text", "query", [])
        assert action is A.LEFT
        assert len(client.requests) == 2
        # The retry appends the garbled reply and a clarification.
        retry_messages = client.requests[1].messages
        assert retry_messages[-2]["content"] == "I cannot decide"
        assert "exactly one of" in retry_messages[-1]["content"]

    def test_fail_safe_accept_after_retries(self):
        client = ScriptedClient(["???", "???", "???"])
        action = LlmAgent(client).propose_action("text", "query", [])
        assert action is A.ACCEPT
        assert len(client.requests) == 3

    def test_remote_failure_wrapped(self):
        class DownClient:
            model = "m"

            def complete(self, request):
                raise RemoteUnavailableError("gone")

        with pytest.raises(RemoteUnavailableError):
            LlmAgent(DownClient()).propose_action("text", "query", [])

    def test_exhausted_retries_name_the_agent_stage(self):
        client = LlmClient(DownTransport(), model="m", sleep=lambda _s: None)
        with pytest.raises(RemoteUnavailableError, match="agent call") as failure:
            LlmAgent(client).propose_action("text", "query", [])
        assert failure.value.stage == "agent"


class TestLlmOracle:
    def test_yes_no_parsing(self):
        for reply, expected in (("1: YES\n2: NO", [True, False]),
                                ("1: yes.\n2: Yes, plenty.", [True, True]),
                                ("**1**: No idea\n 2 : yes", [False, True]),
                                ("1. no\n2) YES", [False, True]),
                                ("1: unclear\n2: NO", [False, False])):
            client = ScriptedClient([reply])
            assert LlmOracle(client).sufficient(["a", "b"], "query") == expected

    def test_first_token_wins(self):
        # A number's first line decides, and a line's first word after it.
        client = ScriptedClient(["2: no, wait, yes\n1: YES\n2: YES\n1: NO"])
        assert LlmOracle(client).sufficient(["a", "b"], "query") == [True, False]

    def test_missing_and_out_of_range_numbers(self):
        # A passage without a line counts as NO; numbers that name no
        # passage are ignored; a bullet and leading zeros are read past.
        for reply, expected in (("2: YES", [False, True, False]),
                                ("0: YES\n4: YES\n- 03: YES", [False, False, True]),
                                ("1: YES\n" + "9" * 5000 + ": YES", [True, False, False])):
            client = ScriptedClient([reply])
            assert LlmOracle(client).sufficient(["a", "b", "c"], "query") == expected

    def test_garbage_reply_is_all_no(self):
        for reply in ("", "YES", "I cannot tell.", "one: yes\ntwo: yes", "1 2 3 YES"):
            client = ScriptedClient([reply])
            assert LlmOracle(client).sufficient(["a", "b", "c"], "query") == [False] * 3

    def test_prompt_numbers_the_passages(self):
        client = ScriptedClient(["1: YES\n2: NO"])
        LlmOracle(client).sufficient(["first\npassage", "second"], "the query")
        (request,) = client.requests
        assert request.stage == "oracle"
        assert request.messages[-1]["content"].startswith(
            "QUESTION: the query\nPASSAGE 1:\nfirst\npassage\nPASSAGE 2:\nsecond\n")
        assert "Reply YES or NO." in request.messages[-1]["content"]

    def test_remote_failure_wrapped(self):
        class DownClient:
            model = "m"

            def complete(self, request):
                raise RemoteUnavailableError("gone")

        with pytest.raises(RemoteUnavailableError):
            LlmOracle(DownClient()).sufficient(["text"], "query")


class KeyRecorder:
    """Passes asks to a decider and adds each ask's memo key to `keys`."""

    def __init__(self, decider, keys: set):
        self.decider = decider
        self.keys = keys

    def sufficient(self, passages, query):
        self.keys.add(("oracle", tuple(passages), query))
        return self.decider.sufficient(passages, query)

    def propose_action(self, node_text, query, visited_path):
        self.keys.add(("agent", node_text, query, tuple(visited_path)))
        return self.decider.propose_action(node_text, query, visited_path)


class TestDecisionMemo:
    def test_long_lived_deciders_match_fresh_ones(self):
        # A conversation that grows between walks and asks the same
        # questions again: one long-lived oracle and agent give the results
        # of a fresh decider per walk, for one request per distinct key.
        rng = random.Random(20240612)
        words = [f"w{i}" for i in range(6)]
        repeats = 0
        for trial in range(60):
            if trial % 2:
                aggregator = TruncateAggregator(budget=rng.choice([1, 2, 3]))
            else:
                aggregator = LlmPersonaAggregator(LlmClient(ClippingTransport(), model="m"),
                                                  max_tokens=rng.choice([2, 4, 6]))
            tree = HatTree(rng.choice([2, 3]), aggregator)
            questions = [" ".join(rng.sample(words, rng.randint(1, 2))) for _ in range(3)]
            oracle, agent = LlmOracle(mock_client()), LlmAgent(mock_client())
            keys: set = set()
            fresh_calls = 0
            for _ in range(rng.randint(4, 12)):
                for _ in range(rng.randint(1, 3)):
                    tree.insert_leaf(" ".join(rng.choice(words) for _ in range(rng.randint(1, 3))))
                query = rng.choice(questions)
                config = TraversalConfig(step_budget=rng.randint(1, 20))
                for walk, fresh, kept in ((bfs_search, LlmOracle, oracle),
                                          (dfs_search, LlmOracle, oracle),
                                          (traverse, LlmAgent, agent)):
                    client = mock_client()
                    expected = walk(tree, KeyRecorder(fresh(client), keys), query, config)
                    fresh_calls += client.transport.calls
                    assert walk(tree, kept, query, config) == expected
            kept_calls = oracle.client.transport.calls + agent.client.transport.calls
            assert kept_calls == len(keys)
            repeats += fresh_calls - kept_calls
        assert repeats > 0  # the questions did repeat, so the memo answered some

    def test_memo_keeps_the_newest_entries(self, monkeypatch):
        monkeypatch.setattr(llm, "MEMO_ENTRIES", 3)
        oracle, agent = LlmOracle(mock_client()), LlmAgent(mock_client())
        for client, ask in ((oracle.client, lambda i: oracle.sufficient([f"passage {i}"], "q")),
                            (agent.client, lambda i: agent.propose_action(f"node {i}", "q", []))):
            for i in range(4):
                ask(i)
            assert client.transport.calls == 4
            ask(3)
            assert client.transport.calls == 4
            ask(0)
            assert client.transport.calls == 5

    def test_failed_ask_is_not_remembered(self):
        transport = DownTransport()
        client = LlmClient(transport, model="m", sleep=lambda _s: None)
        oracle, agent = LlmOracle(client), LlmAgent(client)
        for ask, answer in ((lambda: oracle.sufficient(["w1 w2", "w3"], "w1"), [True, False]),
                            (lambda: agent.propose_action("w1 w2", "w3", []), A.DOWN)):
            transport.down = True
            before = transport.calls
            with pytest.raises(RemoteUnavailableError):
                ask()
            assert transport.calls == before + 3
            transport.down = False
            assert ask() == answer
            assert transport.calls == before + 4
            assert ask() == answer
            assert transport.calls == before + 4

    def test_dropped_decider_frees_its_memo_without_a_collection(self):
        # A chat loop makes new deciders and clients per conversation; a memo
        # that kept its client in a reference cycle would live until a full
        # collection.
        client = mock_client()
        oracle, agent = LlmOracle(client), LlmAgent(client)
        oracle.sufficient(["w1"], "w1")
        agent.propose_action("w1", "w1", [])
        refs = [weakref.ref(oracle), weakref.ref(agent), weakref.ref(client)]
        memos = len(llm._memos)
        gc.disable()
        try:
            del oracle, agent, client
            assert [ref() for ref in refs] == [None] * 3
            assert len(llm._memos) == memos - 1
        finally:
            gc.enable()

    def test_memo_size_does_not_grow_with_node_texts(self):
        # Under concat the upper nodes' texts grow with the conversation and
        # change every turn, so a memo that kept the texts it was asked about
        # would grow with the square of the turn count. Each entry must cost
        # the same whatever the length of its texts.
        tree = HatTree(3, ConcatAggregator())
        # Walks ask ahead on the shared call pool; start it and all of its
        # workers first, so that the bound below measures only the memo.
        every_pool_worker()
        LlmOracle(mock_client()).sufficient(["warm"], "up")
        LlmAgent(mock_client()).propose_action("warm", "up", [])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            oracle, agent = LlmOracle(mock_client()), LlmAgent(mock_client())
            config = TraversalConfig(step_budget=8)
            seen = 0
            for turn in range(40):
                tree.insert_leaf(f"turn {turn} " + "filler words " * 80)
                query = f"w{turn % 3}"
                for walk, decider in ((bfs_search, oracle), (dfs_search, oracle),
                                      (traverse, agent)):
                    walk(tree, decider, query, config)
                seen += len(tree.root_text())
            del tree
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = len(llm._memos[oracle.client]) + len(llm._memos[agent.client])
        assert entries > 40
        assert seen > 500_000
        assert retained < 64 * 1024 + 256 * entries

    @pytest.mark.stress
    def test_memo_stays_coherent_under_concurrent_asks(self, monkeypatch):
        # More threads than cores asking overlapping questions of one
        # client's small memo, as oracle, agent and reply, so that entries
        # are evicted while others are read.
        monkeypatch.setattr(llm, "MEMO_ENTRIES", 8)
        client = mock_client()
        oracle, agent = LlmOracle(client), LlmAgent(client)
        passages = [f"w{i} w{i + 1}" for i in range(32)]
        asks = [(lambda passage, query: oracle.sufficient([passage, "w0"], query),
                 lambda covered, _passage: [covered, False]),
                (lambda passage, query: agent.propose_action(passage, query, []),
                 lambda covered, _passage: A.ACCEPT if covered else A.DOWN),
                (lambda passage, query: hatmem.generate_response(passage, query, client),
                 lambda covered, passage: passage if covered else "I do not have that in my notes.")]
        wrong = []

        def ask_many(seed):
            rng = random.Random(seed)
            for _ in range(300):
                passage = rng.choice(passages)
                ask, expected = rng.choice(asks)
                if ask(passage, "w5") != expected("w5" in passage.split(), passage):
                    wrong.append(passage)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask_many, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert 8 < client.transport.calls < 8 * 300

    def test_each_request_gets_its_own_entry(self):
        # The key is the built-in hash of the request as sent: the client's
        # model, max_tokens, then each message's role and content, as the
        # parts of one tuple, so ("ab", "c") and ("a", "bc") stay apart.
        def user(*contents):
            return [{"role": "user", "content": content} for content in contents]

        requests = [ChatRequest(user("ab", "c")),
                    ChatRequest(user("a", "bc")),
                    ChatRequest([{"role": "system", "content": "grün ✓"},
                                 {"role": "assistant", "content": ""}, *user("x" * 100_000)]),
                    ChatRequest(user("ab", "c"), max_tokens=4)]
        replies = [str(i) for i in range(len(requests))]
        client = ScriptedClient(replies, model="m")
        assert [remembered(client, r) for r in requests] == replies
        assert len(llm._memos[client]) == len(requests)
        assert [remembered(client, r) for r in requests] == replies
        assert client.requests == requests
        client = ScriptedClient(["1: YES", "ACCEPT"])
        for _ in range(2):
            assert LlmOracle(client).sufficient(["w1 w2"], "w1") == [True]
            assert LlmAgent(client).propose_action("w1 w2", "w1", []) is A.ACCEPT
        assert len(client.requests) == len(llm._memos[client]) == 2
        # Keys as wide as the bound in the llm module's docstring assumes.
        assert sys.hash_info.width >= 64


class TestConfig:
    def test_defaults(self):
        config = TraversalConfig()
        assert config.step_budget == 32

    def test_validation(self):
        for budget in (0, True):
            with pytest.raises(InvalidParameterError):
                TraversalConfig(step_budget=budget)
