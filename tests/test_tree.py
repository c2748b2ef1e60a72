"""Tree structure, deferred flush, atomic insertion, and persistence."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import (
    BarrierTransport,
    ClippingTransport,
    DownTransport,
    FailingAggregator,
    LoggingTransport,
    ThreadLoggingAggregator,
    assert_no_call_running,
    build_tree,
)
from reference_impls import (
    child_text_lists,
    concat_texts,
    expected_depth,
    full_recompute,
    leaf_spans,
    session_runs,
)

import hatmem
from hatmem import (
    ConcatAggregator,
    HatTree,
    LlmClient,
    LlmPersonaAggregator,
    TruncateAggregator,
    mock_client,
)
from hatmem.errors import (
    DocumentParseError,
    InvalidParameterError,
    NotFoundError,
    RemoteUnavailableError,
)
from hatmem.llm import MAX_CONCURRENT_CALLS


def check_against_reference(tree: HatTree, leaves: list[str], separator: str):
    """Structure and texts must match the span model exactly."""
    n = len(leaves)
    M = tree.memory_length
    assert tree.leaf_count == n
    assert tree.depth() == expected_depth(n, M)
    spans = leaf_spans(n, M)
    texts = concat_texts(leaves, M, separator)
    assert len(tree.layers) == len(spans)
    for k, layer in enumerate(spans):
        assert tree.layer_size(k) == len(layer)
        for i in range(len(layer)):
            text = tree.node_at(k, i)
            assert text == texts[k][i]
            if k > 0:
                # The parent at (k-1, i // M) joins this node's text.
                assert text in tree.node_at(k - 1, i // M)
            if k < tree.depth():
                children = range(i * M, min((i + 1) * M, tree.layer_size(k + 1)))
                assert text == separator.join(tree.node_at(k + 1, j) for j in children)
    assert tree.layers[-1] == leaves


def texts_by_position(tree: HatTree) -> list[list[str]]:
    """A copy of the node texts per (layer, index), read without flushing."""
    return [list(row) for row in tree.layers]


def raw_state(tree: HatTree):
    """Texts, leaf sessions, call count and flushed leaves, read without flushing."""
    rows = texts_by_position(tree), list(tree.leaf_sessions)
    return rows, tree.agg_call_count, tree.flushed_leaves


class TestConstruction:
    def test_rejects_memory_length_below_two(self):
        for bad in (1, 0, -3):
            with pytest.raises(InvalidParameterError):
                HatTree(bad, ConcatAggregator())

    def test_rejects_non_integer_memory_length(self):
        with pytest.raises(InvalidParameterError):
            HatTree(2.0, ConcatAggregator())
        with pytest.raises(InvalidParameterError):
            HatTree(True, ConcatAggregator())

    def test_empty_tree(self):
        tree = HatTree(2, ConcatAggregator())
        assert tree.depth() == 0
        assert tree.leaf_count == 0
        assert tree.layers == []
        with pytest.raises(NotFoundError):
            tree.root_text()

    def test_memory_length_recorded(self):
        assert HatTree(5, ConcatAggregator()).memory_length == 5


class TestInsertion:
    def test_first_leaf_gives_depth_one(self):
        tree = build_tree(1)
        assert tree.depth() == 1
        assert tree.root_text() == "t0"
        assert tree.layer_size(0) == 1 and tree.layer_size(1) == 1

    def test_three_inserts_m2_concat_trace(self):
        tree = HatTree(2, ConcatAggregator(" | "))
        tree.insert_leaf("t1")
        assert tree.root_text() == "t1"
        assert tree.layers[-1] == ["t1"]
        tree.insert_leaf("t2")
        assert tree.root_text() == "t1 | t2"
        assert tree.depth() == 1
        tree.insert_leaf("t3")
        assert tree.depth() == 2
        assert tree.root_text() == "t1 | t2 | t3"
        assert [tree.node_at(1, i) for i in range(2)] == ["t1 | t2", "t3"]

    def test_parent_of_index_seven_m3(self):
        tree = build_tree(8, memory_length=3)
        assert tree.node_at(2, 7) == "t7"
        assert tree.layer_size(1) == 3
        assert tree.node_at(1, 7 // 3) == "t6 | t7"

    def test_empty_text_rejected(self):
        tree = build_tree(2)
        before = tree.serialize()
        with pytest.raises(InvalidParameterError):
            tree.insert_leaf("")
        assert tree.serialize() == before

    def test_meta_stored_on_leaf(self):
        tree = HatTree(2, ConcatAggregator())
        index = tree.insert_leaf("hello", session=1)
        assert index == 0
        assert tree.leaf_sessions[index] == 1
        tree.insert_leaf("there")
        assert tree.leaf_sessions == [1, None]

    # A leaf's session is an integer or None; nothing else is stored.
    @pytest.mark.parametrize("session", [{1: "a", "b": 2}, {1, 2}, float("nan"), [("a", 1)], "ab",
                                         "1", True, 1.0, {"session": 1}],
                             ids=["mixed-key-types", "set", "nan", "pair-list", "string",
                                  "digit-string", "bool", "whole-float", "meta-dict"])
    def test_meta_that_json_cannot_hold_is_refused(self, session):
        tree = build_tree(2)
        before = raw_state(tree)
        with pytest.raises(InvalidParameterError):
            tree.append_leaf("hello", session=session)
        with pytest.raises(InvalidParameterError):
            tree.insert_leaf("hello", session)
        assert raw_state(tree) == before

    def test_random_sequences_match_reference(self, rng):
        for _ in range(40):
            M = rng.choice([2, 3, 5])
            n = rng.randint(1, 60)
            leaves = [f"w{i}" for i in range(n)]
            tree = build_tree(n, memory_length=M, texts=leaves)
            check_against_reference(tree, leaves, " | ")

    def test_insertion_order_preserved(self, rng):
        leaves = [f"{rng.random():.6f}" for _ in range(25)]
        tree = build_tree(25, memory_length=3, texts=leaves)
        assert tree.layers[-1] == leaves


class TestReads:
    def test_out_of_bounds(self):
        tree = build_tree(3)
        with pytest.raises(NotFoundError):
            tree.node_at(9, 0)
        with pytest.raises(NotFoundError):
            tree.node_at(0, 1)
        with pytest.raises(NotFoundError):
            tree.layer_size(5)
        with pytest.raises(NotFoundError):
            tree.node_at(-1, 0)
        with pytest.raises(NotFoundError):
            tree.node_at(1, -1)

    def test_children_ordered_oldest_first(self):
        tree = build_tree(4)
        assert tree.layer_size(1) == 2
        assert [tree.node_at(1, i) for i in range(2)] == ["t0 | t1", "t2 | t3"]


class TestUpdateAndCache:
    def test_cached_state_skips_aggregator(self):
        tree = build_tree(5)
        before = tree.agg_call_count
        root_text = tree.root_text()
        tree.flush()
        for k in range(len(tree.layers)):
            for i in range(tree.layer_size(k)):
                tree.node_at(k, i)
        assert tree.agg_call_count == before
        assert tree.root_text() == root_text
        # truncate(2) keeps "w4 x" when "w5 x" joins it, so the insert
        # aggregates the leaf's parent and stops: its text did not change.
        tree = HatTree(2, TruncateAggregator(2))
        for i in range(5):
            tree.insert_leaf(f"w{i} x")
        before = tree.agg_call_count
        tree.insert_leaf("w5 x")
        assert tree.agg_call_count - before == 1

    def test_insert_into_depth3_costs_three_calls(self):
        # 5 leaves at M=2 give depth 3 with room for 8, so no re-root.
        tree = build_tree(5)
        assert tree.depth() == 3
        before = tree.agg_call_count
        tree.insert_leaf("t5")
        assert tree.depth() == 3
        assert tree.agg_call_count - before == 3

    def test_reroot_insert_costs_depth_plus_one(self):
        tree = build_tree(4)
        depth_before = tree.depth()
        before = tree.agg_call_count
        tree.insert_leaf("t4")
        assert tree.depth() == depth_before + 1
        assert tree.agg_call_count - before == depth_before + 1

    def test_per_insert_cost_bound(self, rng):
        for _ in range(20):
            M = rng.choice([2, 3, 5])
            tree = HatTree(M, ConcatAggregator())
            for i in range(rng.randint(2, 40)):
                depth_before = tree.depth()
                calls_before = tree.agg_call_count
                tree.insert_leaf(f"x{i}")
                assert tree.agg_call_count - calls_before <= depth_before + 1


class TestDeferredAggregation:
    def test_append_makes_no_aggregator_call(self):
        tree = HatTree(3, ConcatAggregator(" | "))
        for i in range(14):
            tree.append_leaf(f"t{i}")
        assert tree.depth() == 3 and tree.layers[-1][-1] == "t13"
        assert tree.agg_call_count == 0 and tree.flushed_leaves == 0
        assert all(text is None for row in tree.layers[:-1] for text in row)
        assert tree.root_text() == " | ".join(f"t{i}" for i in range(14))
        assert tree.flushed_leaves == 14

    def test_interleaved_flushes_match_reference_and_eager(self, rng):
        words = ["alpha", "bravo", "charlie", "delta"]
        for _ in range(40):
            M = rng.choice([2, 3, 5])
            concat = HatTree(M, ConcatAggregator(" | "))
            truncate = HatTree(M, TruncateAggregator(4))
            eager = HatTree(M, TruncateAggregator(4))
            leaves = []
            for i in range(rng.randint(1, 60)):
                text = f"w{i} {rng.choice(words)}"
                leaves.append(text)
                concat.append_leaf(text)
                truncate.append_leaf(text)
                eager.insert_leaf(text)
                if rng.random() < 0.3:
                    concat.flush()
                    truncate.flush()
                    assert texts_by_position(concat) == concat_texts(leaves, M, " | ")
                    assert texts_by_position(truncate) == texts_by_position(eager)
            check_against_reference(concat, leaves, " | ")
            truncate.flush()
            assert texts_by_position(truncate) == texts_by_position(eager)

    def test_node_at_returns_the_flushed_text_of_a_node_appended_since_the_flush(self):
        # The fifth leaf at M=2 prepends a root layer and adds (2, 2) and (1, 2).
        tree = build_tree(4)
        tree.append_leaf("t4")
        assert tree.layers[0][0] is None and tree.layers[2][2] is None
        assert tree.node_at(2, 2) == "t4"
        assert tree.node_at(0, 0) == " | ".join(f"t{i}" for i in range(5))
        assert tree.flushed_leaves == 5

    def test_one_flush_aggregates_each_node_once(self):
        eager = build_tree(14, memory_length=3)
        deferred = HatTree(3, ConcatAggregator(" | "))
        for i in range(14):
            deferred.append_leaf(f"t{i}")
        deferred.flush()
        internal = sum(len(row) for row in deferred.layers[:-1])
        assert deferred.agg_call_count == internal == 8
        assert deferred.agg_call_count < eager.agg_call_count
        assert texts_by_position(deferred) == texts_by_position(eager)


@pytest.mark.stress
class TestFailedFlush:
    def pending_tree(self):
        agg = FailingAggregator(fail_after=10 ** 9)
        tree = HatTree(3, agg)
        for i in range(10):
            tree.insert_leaf(f"t{i}")
        for i in range(10, 14):
            tree.append_leaf(f"t{i}")
        return agg, tree

    def test_failed_flush_changes_nothing(self):
        eager = texts_by_position(build_tree(14, memory_length=3))
        for read in ("flush", "root_text", "serialize"):
            for fail_at in range(4):
                agg, tree = self.pending_tree()
                assert tree.layers[2][4] is None
                before = raw_state(tree)
                agg.fail_after = agg.calls + fail_at
                with pytest.raises(RemoteUnavailableError):
                    getattr(tree, read)()
                assert raw_state(tree) == before
                agg.armed = False
                tree.flush()
                # Four nodes changed, so a call at each position can fail.
                assert tree.agg_call_count - before[1] == 4
                assert texts_by_position(tree) == eager
                assert tree.flushed_leaves == 14

    def test_failed_insert_keeps_earlier_pending_nodes(self):
        agg, tree = self.pending_tree()
        before = raw_state(tree)
        layers = [list(row) for row in tree.layers]
        agg.fail_after = agg.calls
        with pytest.raises(RemoteUnavailableError):
            tree.insert_leaf("boom")
        assert raw_state(tree) == before
        assert tree.layers == layers and tree.leaf_count == 14

    def test_an_interrupted_commit_heals_on_the_next_flush(self):
        # Ctrl-C between any two assignments of a commit (here a row that
        # raises at its n-th assignment, for every n), after one earlier
        # flush: a plain flush afterwards gives a fresh tree's rows.
        for leaves in range(2, 32):
            fresh = texts_by_position(build_tree(leaves, memory_length=3))
            for flushed in range(1, leaves):
                cut_at = 1
                while True:
                    tree = HatTree(3, ConcatAggregator(" | "))
                    for i in range(leaves):
                        if i == flushed:
                            tree.flush()
                        tree.append_leaf(f"t{i}")
                    tree.layers = [CutRow(row) for row in tree.layers]
                    CutRow.left = cut_at
                    try:
                        tree.flush()
                    except KeyboardInterrupt:
                        tree.flush()
                        assert texts_by_position(tree) == fresh, (leaves, flushed, cut_at)
                        cut_at += 1
                    else:
                        break

    def test_an_interrupted_insert_commit_heals_on_the_next_flush(self):
        # Ctrl-C at any assignment of the commit in `insert_leaf`, after
        # 1-29 flushed leaves: the new leaf stays, unflushed, and a plain
        # flush afterwards gives a fresh tree's rows, new leaf included.
        cuts = 0
        for earlier in range(1, 30):
            fresh = texts_by_position(build_tree(earlier + 1, memory_length=3))
            cut_at = 1
            while True:
                tree = build_tree(earlier, memory_length=3)
                tree.layers = [CutRow(row) for row in tree.layers]
                CutRow.left = cut_at
                try:
                    tree.insert_leaf(f"t{earlier}")
                except KeyboardInterrupt:
                    assert tree.leaf_count == earlier + 1
                    assert tree.flushed_leaves == earlier
                    tree.flush()
                    assert texts_by_position(tree) == fresh, (earlier, cut_at)
                    cut_at += 1
                    cuts += 1
                else:
                    break
        assert cuts > 29  # every insert was cut at least once


class CutRow(list):
    """A row whose assignment raises KeyboardInterrupt when `CutRow.left`,
    counted down by every assignment to any CutRow, reaches 0."""

    left = 0

    def __setitem__(self, index, text):
        CutRow.left -= 1
        if CutRow.left == 0:
            raise KeyboardInterrupt
        super().__setitem__(index, text)


def persona_tree(memory_length: int, transport) -> HatTree:
    client = LlmClient(transport, model="mock-chat", sleep=lambda _s: None)
    return HatTree(memory_length, LlmPersonaAggregator(client))


@pytest.mark.stress
class TestLayerParallelFlush:
    def test_calls_of_one_layer_overlap(self):
        # Both layer-1 calls must be in flight at once to pass the barrier.
        tree = persona_tree(2, BarrierTransport(parties=2))
        for i in range(4):
            tree.append_leaf(f"t{i}")
        tree.flush()
        assert texts_by_position(tree) == concat_texts([f"t{i}" for i in range(4)], 2, " ")

    def test_parent_call_starts_after_its_children_returned(self):
        for M, n in ((2, 16), (3, 27)):
            transport = LoggingTransport()
            tree = persona_tree(M, transport)
            for i in range(n):
                tree.append_leaf(f"t{i}")
            tree.flush()
            # Full trees: every node text is distinct, so replies name nodes.
            call_for = {call["reply"]: call for call in transport.calls}
            assert len(call_for) == len(transport.calls) == tree.agg_call_count
            for k, row in enumerate(tree.layers[:-2]):
                for i, text in enumerate(row):
                    parent_call = call_for[text]
                    for child in tree.layers[k + 1][i * M:(i + 1) * M]:
                        assert call_for[child]["end"] < parent_call["start"]
            calls = transport.calls
            assert any(a["start"] < b["start"] < a["end"] for a in calls for b in calls)

    def test_failed_call_in_parallel_layer_changes_nothing(self):
        leaves = [f"t{i}" for i in range(8)]
        for fail_on in ("t4", "t7"):  # the layer's first or second call fails
            transport = LoggingTransport(delay_s=0.001)
            tree = persona_tree(3, transport)
            for text in leaves[:4]:
                tree.insert_leaf(text)
            for text in leaves[4:]:
                tree.append_leaf(text)
            before = raw_state(tree)
            transport.fail_on = fail_on
            with pytest.raises(RemoteUnavailableError) as failure:
                tree.flush()
            assert failure.value.stage == "aggregate"
            assert raw_state(tree) == before
            transport.fail_on = None
            returned = len(transport.calls)
            tree.flush()
            # Layer 1 aggregates (1,1) and (1,2) together, then the root.
            assert len(transport.calls) - returned == tree.agg_call_count - before[1] == 3
            assert texts_by_position(tree) == concat_texts(leaves, 3, " ")

    def test_random_appends_and_flushes_match_flat_join(self, rng):
        words = ["alpha", "bravo", "charlie", "delta"]
        for _ in range(30):
            M = rng.choice([2, 3])
            tree = HatTree(M, LlmPersonaAggregator(mock_client()))
            leaves = []
            for i in range(rng.randint(1, 40)):
                leaves.append(f"w{i} {rng.choice(words)}")
                tree.append_leaf(leaves[-1])
                if rng.random() < 0.3:
                    tree.flush()
            tree.flush()
            assert texts_by_position(tree) == concat_texts(leaves, M, " ")

    def test_local_kinds_aggregate_on_calling_thread(self):
        for inner in (ConcatAggregator(), TruncateAggregator(4)):
            agg = ThreadLoggingAggregator(inner)
            tree = HatTree(2, agg)
            for i in range(8):
                tree.append_leaf(f"t{i}")
            tree.flush()
            assert len(agg.threads) == 7
            assert set(agg.threads) == {threading.get_ident()}

    def test_flush_leaves_no_thread_behind(self):
        # No call keeps running once the flush returns; the pool's workers
        # stay, idle, for the next batch.
        transport = LoggingTransport(delay_s=0.001)
        client = LlmClient(transport, model="mock-chat", sleep=lambda _s: None)
        agg = ThreadLoggingAggregator(LlmPersonaAggregator(client))
        tree = HatTree(3, agg)
        for i in range(27):
            tree.append_leaf(f"t{i}")
        tree.flush()
        assert_no_call_running(transport)
        assert transport.sent == tree.agg_call_count == 13
        assert set(agg.threads) - {threading.get_ident()}  # the pool did run

    def test_flush_against_a_dead_endpoint_stops_starting_calls(self):
        # Layer 1 of a 60-leaf tree at M=3 has 20 nodes. Once one call has
        # given up, the layer starts no more, so at most the pool's width of
        # calls, three attempts each, reach the endpoint.
        transport = DownTransport()
        tree = persona_tree(3, transport)
        for i in range(60):
            tree.append_leaf(f"t{i}")
        before = raw_state(tree)
        with pytest.raises(RemoteUnavailableError) as failure:
            tree.root_text()
        assert failure.value.stage == "aggregate"
        assert 3 <= transport.calls <= MAX_CONCURRENT_CALLS * 3
        assert raw_state(tree) == before
        transport.down = False
        assert tree.root_text() == " ".join(f"t{i}" for i in range(60))

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
    def test_an_interrupted_read_stops_the_flush(self):
        # Ctrl-C 0.1 s into a read during the pending flush of 27 leaves at
        # M=3, whose 9 + 3 + 1 calls take 0.5 s each: the calls that started
        # are all the flush ever starts, it commits nothing, and the interrupt
        # is raised once they have returned.
        assert_an_interrupt_stops_the_pending_flush(read_s=10)

    def test_an_interrupted_wait_for_the_flush_stops_it(self):
        # The same Ctrl-C, but the read returned at 0.05 s, so it lands while
        # the read waits for the flush.
        assert_an_interrupt_stops_the_pending_flush(read_s=0.05)


def assert_an_interrupt_stops_the_pending_flush(read_s: float):
    """SIGINT 0.1 s into `read_while_flushing` with a read of `read_s` seconds,
    in a fresh process: the KeyboardInterrupt comes within 1 s, and 1 s later
    no more than MAX_CONCURRENT_CALLS aggregate calls were sent and nothing
    committed."""
    code = f"""
import signal, threading, time
from hatmem import HatTree, LlmClient, LlmPersonaAggregator, MockTransport

class SlowTransport(MockTransport):
    def send(self, payload):
        reply = super().send(payload)  # counts the call as it is sent
        time.sleep(0.5)
        return reply

transport = SlowTransport()
tree = HatTree(3, LlmPersonaAggregator(LlmClient(transport, "mock-chat")))
for i in range(27):
    tree.append_leaf(f"t{{i}}")
threading.Timer(0.1, signal.pthread_kill, (threading.main_thread().ident, signal.SIGINT)).start()
start = time.perf_counter()
try:
    tree.read_while_flushing(lambda view: time.sleep({read_s}))
except KeyboardInterrupt:
    took = time.perf_counter() - start
    time.sleep(1.0)  # a flush that went on would send its next calls meanwhile
    print(took, transport.calls, tree.agg_call_count, tree.flushed_leaves)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(hatmem.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    took, sent, aggregated, flushed = result.stdout.split()
    assert float(took) < 1.0
    assert int(sent) <= MAX_CONCURRENT_CALLS
    assert aggregated == flushed == "0"


@pytest.mark.stress
class TestAtomicity:
    def test_failed_aggregation_rolls_back_plain_insert(self):
        agg = FailingAggregator(fail_after=10 ** 9)
        tree = HatTree(2, agg)
        for i in range(5):
            tree.insert_leaf(f"t{i}")
        snapshot = tree.serialize()
        count = tree.agg_call_count
        agg.fail_after = agg.calls  # next aggregation fails
        with pytest.raises(RemoteUnavailableError):
            tree.insert_leaf("boom")
        assert tree.serialize() == snapshot
        assert tree.agg_call_count == count

    def test_failed_aggregation_rolls_back_reroot(self):
        agg = FailingAggregator(fail_after=10 ** 9)
        tree = HatTree(2, agg)
        for i in range(4):
            tree.insert_leaf(f"t{i}")
        assert tree.leaf_count == tree.memory_length ** tree.depth()
        snapshot = tree.serialize()
        agg.fail_after = agg.calls
        with pytest.raises(RemoteUnavailableError):
            tree.insert_leaf("boom")
        assert tree.serialize() == snapshot
        assert tree.depth() == 2

    def test_partial_chain_failure_rolls_back(self):
        # Fail on the second aggregation of the insert: the leaf's parent
        # updates, then the grandparent raises mid-chain.
        agg = FailingAggregator(fail_after=10 ** 9)
        tree = HatTree(2, agg)
        for i in range(5):
            tree.insert_leaf(f"t{i}")
        snapshot = tree.serialize()
        agg.fail_after = agg.calls + 1
        with pytest.raises(RemoteUnavailableError):
            tree.insert_leaf("boom")
        assert tree.serialize() == snapshot

    @pytest.mark.parametrize("leaves", [5, 4], ids=["plain", "reroot"])
    def test_failed_insert_leaves_the_leaf_sessions_as_they_were(self, leaves):
        agg = FailingAggregator(fail_after=10 ** 9)
        tree = HatTree(2, agg)
        for i in range(leaves):
            tree.insert_leaf(f"t{i}", session=i // 2)
        before = list(tree.leaf_sessions)
        agg.fail_after = agg.calls
        with pytest.raises(RemoteUnavailableError):
            tree.insert_leaf("boom", session=9)
        assert tree.leaf_sessions == before
        assert len(tree.layers[-1]) == len(tree.leaf_sessions) == tree.leaf_count == leaves

    def test_recovers_after_rollback(self):
        agg = FailingAggregator(fail_after=10 ** 9)
        tree = HatTree(2, agg)
        for i in range(3):
            tree.insert_leaf(f"t{i}")
        agg.fail_after = agg.calls
        with pytest.raises(RemoteUnavailableError):
            tree.insert_leaf("t3")
        agg.armed = False
        tree.insert_leaf("t3")
        plain = build_tree(4, separator=" | ")
        assert tree.layers[-1] == plain.layers[-1]
        assert tree.root_text() == plain.root_text()


class TestPersistence:
    def test_roundtrip_identity(self, rng):
        for _ in range(10):
            M = rng.choice([2, 3, 5])
            n = rng.randint(1, 30)
            tree = build_tree(n, memory_length=M)
            doc = tree.serialize()
            clone = HatTree.deserialize(doc)
            assert clone.serialize() == doc
            assert clone.agg_call_count == 0

    def test_reupdate_after_roundtrip_is_free(self):
        tree = build_tree(13, memory_length=3)
        clone = HatTree.deserialize(tree.serialize())
        clone.flush()
        for k in range(len(clone.layers)):
            for i in range(clone.layer_size(k)):
                assert clone.node_at(k, i) == tree.node_at(k, i)
        assert clone.agg_call_count == 0

    def test_identical_sequences_serialize_identically(self):
        a = build_tree(9, memory_length=3)
        b = build_tree(9, memory_length=3)
        assert a.serialize() == b.serialize()

    def test_meta_and_cache_roundtrip(self):
        tree = HatTree(2, ConcatAggregator())
        tree.insert_leaf("a", session=1)
        tree.insert_leaf("b", session=2)
        clone = HatTree.deserialize(tree.serialize())
        assert clone.leaf_sessions == [1, 2]
        # No cache is stored: a layer is its texts and its sessions' runs.
        doc = json.loads(clone.serialize())
        assert set(doc) == {"format", "version", "memory_length", "aggregator", "layers", "meta"}
        assert doc["layers"] == [["a\nb"], ["a", "b"]]
        assert doc["meta"] == [[[1, None]], [[1, {"session": 1}], [1, {"session": 2}]]]

    def test_explicit_matching_aggregator_accepted(self):
        tree = build_tree(3, separator="; ")
        doc = tree.serialize()
        clone = HatTree.deserialize(doc, ConcatAggregator("; "))
        assert clone.root_text() == tree.root_text()

    def test_aggregator_mismatch_rejected(self):
        doc = build_tree(3, separator="; ").serialize()
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(doc, ConcatAggregator(" * "))

    @pytest.mark.parametrize("params", [[], 0, False, ""],
                             ids=["empty-list", "zero", "false", "empty-string"])
    def test_aggregator_params_that_are_not_an_object_are_refused(self, params):
        doc = json.loads(build_tree(3).serialize())
        doc["aggregator"]["params"] = params
        for bound in (None, ConcatAggregator(" | ")):
            with pytest.raises(DocumentParseError, match="params must be an object"):
                HatTree.deserialize(json.dumps(doc), bound)

    @pytest.mark.parametrize("spec", [{"kind": "concat"}, {"kind": "concat", "params": None}],
                             ids=["no-params", "null-params"])
    def test_a_spec_without_params_loads_bound_or_unbound(self, spec):
        tree = HatTree(2, ConcatAggregator())
        tree.insert_leaf("a")
        tree.insert_leaf("b")
        document = tree.serialize()
        doc = dict(json.loads(document), aggregator=spec)
        for bound in (None, ConcatAggregator()):
            loaded = HatTree.deserialize(json.dumps(doc), bound)
            assert loaded.aggregator.spec() == {"kind": "concat", "params": {"separator": "\n"}}
            assert loaded.serialize() == document
        with pytest.raises(DocumentParseError, match="aggregator mismatch"):
            HatTree.deserialize(json.dumps(doc), ConcatAggregator(" | "))

    def test_rejects_malformed_documents(self):
        with pytest.raises(DocumentParseError):
            HatTree.deserialize("not json at all {")
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(json.dumps({"format": "other"}))
        good = json.loads(build_tree(3).serialize())
        bad_version = dict(good, version=99)
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(json.dumps(bad_version))
        bad_m = dict(good, memory_length=1)
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(json.dumps(bad_m))

    def test_rejects_parent_rule_violation(self):
        # 5 leaves at M=2 give layer sizes [1, 2, 3, 5]; the floor(i/M)
        # parent rule allows no other sizes.
        # The meta runs are resized with the layer, so only the layer size
        # breaks the document.
        good = json.loads(build_tree(5).serialize())
        for k, delta in ((1, 1), (1, -1), (2, 1), (2, -1), (0, 1)):
            doc = json.loads(json.dumps(good))
            row = doc["layers"][k]
            if delta > 0:
                row.append(row[0])
            else:
                row.pop()
            doc["meta"][k][-1][0] += delta
            with pytest.raises(DocumentParseError) as err:
                HatTree.deserialize(json.dumps(doc))
            assert "want [1, 2, 3, 5]" in str(err.value)
        # A single-node layer below the root, or a tree with no leaf layer.
        stacked = dict(good, layers=[good["layers"][0]] + good["layers"],
                       meta=[good["meta"][0]] + good["meta"])
        for doc in (stacked, dict(good, layers=[[]], meta=[[]]),
                    dict(good, layers=[[], []], meta=[[], []])):
            with pytest.raises(DocumentParseError):
                HatTree.deserialize(json.dumps(doc))

    def test_rejects_leaf_count_mismatch(self):
        full = json.loads(build_tree(4).serialize())
        full["layers"][-1].append("t4")
        full["meta"][-1][-1][0] += 1
        partial = json.loads(build_tree(5).serialize())
        partial["layers"][-1].pop()
        partial["meta"][-1][-1][0] -= 1
        for doc in (full, partial):
            with pytest.raises(DocumentParseError):
                HatTree.deserialize(json.dumps(doc))

    def test_rejects_integer_fields_of_other_types(self):
        for n in (1, 3):
            good = json.loads(build_tree(n).serialize())
            mutations = [("version", True), ("version", 1.0), ("version", 2.0),
                         ("memory_length", True), ("memory_length", 2.0)]
            for key, value in mutations:
                with pytest.raises(DocumentParseError):
                    HatTree.deserialize(json.dumps(dict(good, **{key: value})))

    def test_rejects_duplicated_node(self):
        for k in (0, 1, 2):
            doc = json.loads(build_tree(4).serialize())
            doc["layers"][k].insert(0, doc["layers"][k][0])
            doc["meta"][k][0][0] += 1
            with pytest.raises(DocumentParseError):
                HatTree.deserialize(json.dumps(doc))

    def test_single_field_mutations_fail_only_with_parse_error(self):
        # Every mutation must either load or raise DocumentParseError. One
        # that loads serializes to a version-3 document with integer fields,
        # which loads and serializes to the same bytes again.
        persona = HatTree(2, LlmPersonaAggregator(mock_client(), max_tokens=8))
        for i in range(5):
            persona.insert_leaf(f"persona turn {i}", session=1)
        sessions = HatTree(3, LlmPersonaAggregator(mock_client(), max_tokens=8))
        for i, session in enumerate(RUN_SESSIONS):
            sessions.append_leaf(f"persona turn {i}", session)
        sources = [build_tree(7).serialize(), persona.serialize(), sessions.serialize(),
                   HatTree(3, TruncateAggregator(5)).serialize(), V1_DOCUMENT,
                   INDENTED_V2_DOCUMENT]
        docs = [json.loads(source) for source in sources]
        pool = [None, True, 0, 1, -1, 2, 7, 0.0, 1.0, 2.5, "", "x", [], [1, 2], [[]], {},
                {"a": 1}, "../../../../tmp/x", "/tmp/x", "no_such_template"]
        rng = random.Random(20240610)
        for _ in range(3000):
            doc = json.loads(json.dumps(rng.choice(docs)))
            container, key = _random_field(doc, rng)
            if rng.random() < 0.2:
                del container[key]
            else:
                container[key] = rng.choice(pool)
            try:
                loaded = HatTree.deserialize(json.dumps(doc))
            except DocumentParseError:
                continue
            document = loaded.serialize()
            assert json.loads(document)["version"] == 3
            assert all(type(v) is int for v in _integer_fields(json.loads(document)))
            assert HatTree.deserialize(document).serialize() == document

    def test_document_is_compact_sorted_json(self, rng):
        persona = HatTree(3, LlmPersonaAggregator(mock_client(), max_tokens=8))
        for i in range(4):
            persona.append_leaf(f"persona turn {i}", session=i)
        trees = [HatTree(2, ConcatAggregator()), persona,
                 HatTree.deserialize(INDENTED_V2_DOCUMENT), HatTree.deserialize(V1_DOCUMENT)]
        trees += [build_tree(rng.randint(1, 30), memory_length=rng.choice([2, 3, 5]))
                  for _ in range(5)]
        for tree in trees:
            document = tree.serialize()
            assert document == json.dumps(json.loads(document), sort_keys=True,
                                          separators=(",", ":")) + "\n"

    def test_insertion_resumes_after_roundtrip(self):
        for M, n in ((2, 5), (3, 13)):
            tree = build_tree(n, memory_length=M)
            clone = HatTree.deserialize(tree.serialize(), ConcatAggregator(" | "))
            before = tree.agg_call_count
            tree.insert_leaf(f"t{n}")
            clone.insert_leaf(f"t{n}")
            assert clone.agg_call_count == tree.agg_call_count - before
            assert clone.serialize() == tree.serialize()


# Leaf sessions with stretches of equal adjacent sessions, a session too large
# for a float, and leaves without one.
RUN_SESSIONS = [1, 1, 1, 2, None, None, 1, 10 ** 30, 0]


# Mutations of the version-3 document of build_tree(5): M=2, layer sizes
# [1, 2, 3, 5], every meta null, so each layer's metas are one run.
MALFORMED_V3 = {
    "null-text": lambda doc: doc["layers"][3].__setitem__(0, None),
    "number-text": lambda doc: doc["layers"][3].__setitem__(0, 7),
    "list-text": lambda doc: doc["layers"][2].__setitem__(1, ["t2"]),
    "v2-node": lambda doc: doc["layers"][3].__setitem__(0, {"text": "t0", "meta": None}),
    "no-meta": lambda doc: doc.pop("meta"),
    "meta-not-a-list": lambda doc: doc.__setitem__("meta", "none"),
    "one-run-list-short": lambda doc: doc["meta"].pop(),
    "one-run-list-over": lambda doc: doc["meta"].append([]),
    "runs-not-a-list": lambda doc: doc["meta"].__setitem__(3, {"5": None}),
    "run-without-meta": lambda doc: doc["meta"].__setitem__(3, [[5]]),
    "run-of-three": lambda doc: doc["meta"].__setitem__(3, [[5, None, 1]]),
    "run-as-object": lambda doc: doc["meta"].__setitem__(3, [{"count": 5, "meta": None}]),
    "zero-count": lambda doc: doc["meta"].__setitem__(3, [[0, None], [5, None]]),
    "negative-count": lambda doc: doc["meta"].__setitem__(3, [[-1, None], [6, None]]),
    "bool-count": lambda doc: doc["meta"].__setitem__(0, [[True, None]]),
    "float-count": lambda doc: doc["meta"].__setitem__(3, [[5.0, None]]),
    "list-meta": lambda doc: doc["meta"].__setitem__(3, [[5, []]]),
    "string-meta": lambda doc: doc["meta"].__setitem__(3, [[5, "session"]]),
    "counts-short": lambda doc: doc["meta"].__setitem__(3, [[4, None]]),
    "runs-short": lambda doc: doc["meta"].__setitem__(3, [[2, None], [2, None]]),
    "counts-over": lambda doc: doc["meta"].__setitem__(3, [[6, None]]),
    "huge-count": lambda doc: doc["meta"].__setitem__(3, [[10 ** 18, None]]),
    "bool-session": lambda doc: doc["meta"].__setitem__(3, [[5, {"session": True}]]),
    "float-session": lambda doc: doc["meta"].__setitem__(3, [[5, {"session": 1.0}]]),
    "string-session": lambda doc: doc["meta"].__setitem__(3, [[5, {"session": "1"}]]),
    "list-session": lambda doc: doc["meta"].__setitem__(3, [[4, None], [1, {"session": [1]}]]),
}


class TestVersionThreeDocument:
    def test_metas_equal_only_in_python_round_trip_as_written(self):
        tree = HatTree(3, TruncateAggregator(5))
        for i, session in enumerate(RUN_SESSIONS):
            tree.append_leaf(f"turn {i}", session=session)
        document = tree.serialize()
        assert ('"meta":[[[1,null]],[[3,null]],[[3,{"session":1}],[1,{"session":2}],'
                '[2,null],[1,{"session":1}],[1,{"session":1000000000000000000000000000000}],'
                '[1,{"session":0}]]]') in document
        clone = HatTree.deserialize(document)
        assert clone.leaf_sessions == RUN_SESSIONS
        assert clone.serialize() == document

    def test_adjacent_metas_identical_as_json_share_a_run(self):
        sessions = [1] * 4 + [2, 2, None, None, 1]
        tree = HatTree(3, TruncateAggregator(5))
        for i, session in enumerate(sessions):
            tree.append_leaf(f"turn {i}", session=session)
        document = tree.serialize()
        doc = json.loads(document)
        assert doc["meta"] == [[[1, None]], [[3, None]], session_runs(sessions)]
        assert doc["meta"][-1] == [[4, {"session": 1}], [2, {"session": 2}], [2, None],
                                   [1, {"session": 1}]]
        clone = HatTree.deserialize(document)
        assert clone.leaf_sessions == sessions
        assert clone.serialize() == document

    def test_a_session_on_an_internal_run_is_checked_then_dropped(self):
        tree = HatTree(2, TruncateAggregator(5))
        for i in range(3):
            tree.append_leaf(f"turn {i}", session=1)
        document = tree.serialize()
        doc = json.loads(document)
        assert doc["meta"][:2] == [[[1, None]], [[2, None]]]
        doc["meta"][0] = [[1, {"session": 4}]]
        doc["meta"][1] = [[1, None], [1, {"session": 4}]]
        clone = HatTree.deserialize(json.dumps(doc))
        assert clone.leaf_sessions == [1, 1, 1]
        assert clone.serialize() == document
        doc["meta"][1][1][1] = {"session": "4"}
        with pytest.raises(DocumentParseError, match="layer 1 meta run 1"):
            HatTree.deserialize(json.dumps(doc))

    def test_a_deeply_nested_meta_loads_for_every_node_of_its_run(self):
        # A meta's keys other than "session" are ignored, however deep.
        doc = json.loads(build_tree(3).serialize())
        doc["meta"][-1] = [[3, {"session": 4, "x": json.loads("[" * 600 + "]" * 600)}]]
        clone = HatTree.deserialize(json.dumps(doc))
        assert clone.leaf_sessions == [4] * 3
        assert json.loads(clone.serialize())["meta"][-1] == [[3, {"session": 4}]]

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_a_meta_json_cannot_write_is_a_parse_error(self, value, version):
        # Only the session is read: a bad value elsewhere in a meta is
        # dropped, and a session that is not an integer is refused.
        tree = HatTree(2, TruncateAggregator(5))
        tree.append_leaf("hi", session=1)
        tree.append_leaf("there")
        doc = json.loads(tree.serialize())
        meta = {"session": 1, "score": 0.5}
        if version < 3:
            doc["version"] = version
            doc["layers"] = [[{"text": text, "meta": None} for text in row] for row in doc["layers"]]
            doc["layers"][-1][0]["meta"] = meta
        else:
            doc["meta"][-1][0][1] = meta
        document = json.dumps(doc)
        loaded = HatTree.deserialize(document.replace("0.5", value))
        assert loaded.leaf_sessions == [1, None]
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(document.replace('"session": 1', f'"session": {value}'))

    @pytest.mark.parametrize("mutate", MALFORMED_V3.values(), ids=MALFORMED_V3.keys())
    def test_rejects_malformed_layers_and_runs(self, mutate):
        doc = json.loads(build_tree(5).serialize())
        assert doc["meta"] == [[[1, None]], [[2, None]], [[3, None]], [[5, None]]]
        mutate(doc)
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(json.dumps(doc))

    def test_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(DocumentParseError):
            HatTree.deserialize("[" * 100_000 + "]" * 100_000)


class TestDocumentSize:
    @pytest.mark.parametrize("make", [
        lambda: TruncateAggregator(64),
        lambda: LlmPersonaAggregator(LlmClient(ClippingTransport(), "mock-chat"), max_tokens=64),
    ], ids=["truncate", "llm_persona"])
    def test_bytes_per_leaf_stay_flat_from_a_thousand_to_ten_thousand_leaves(self, make):
        # Aggregates of a bounded size and one meta run per session keep a
        # document linear in its leaves. Concat texts grow with their spans.
        per_leaf = []
        for n in (1_000, 10_000):
            rng = random.Random(20240611)
            tree = HatTree(3, make())
            for i in range(n):
                words = " ".join(rng.choice(SIZE_WORDS) for _ in range(rng.randint(4, 16)))
                tree.append_leaf(f"{('user', 'assistant')[i % 2]}: {words}", session=i // 14 + 1)
            per_leaf.append(len(tree.serialize().encode("utf-8")) / n)
        assert per_leaf[1] == pytest.approx(per_leaf[0], rel=0.05)


SIZE_WORDS = ("we", "walked", "the", "dog", "along", "river", "my", "sister", "bakes", "bread",
              "on", "sundays", "and", "I", "play", "chess", "at", "club", "every", "week")


# Written by the version-1 format: M=3, truncate(5), 11 leaves with meta
# (session, speaker and turn index),
# built by one insert_leaf per leaf. Each node carried an id, its child ids
# and an aggregation cache; the document carried a leaf count.
V1_LEAVES = ["user: I like chess a lot", "assistant: I like roses a lot",
             "user: I like sailing a lot", "assistant: I like jazz a lot",
             "user: I like tea a lot", "assistant: I like hiking a lot",
             "user: I like pottery a lot", "assistant: I like chess a lot",
             "user: I like maps a lot", "assistant: I like violin a lot",
             "user: I like bread a lot"]
V1_DOCUMENT = (
    '{"aggregator":{"kind":"truncate","params":{"budget":5}},"format":"hat-tree",'
    '"layers":[[{"cache":{"ac6355d44dcdf6e64cc747ac414e7cef2bfbe8d8d6d49caa5e475c7497195e1e":"user i like chess a"},'
    '"children":[4,16],"id":13,"meta":null,"text":"user i like chess a"}],'
    '[{"cache":{"7ee6e11771b7da52123fb9b788fe25b5e03f6c8ab7224d0a1733deaf0b9ee6e3":"user i like chess a",'
    '"f75f08a5f22e44f7520ba9bb5d628e0f1e12e39c5ddff36a0060af973f95fab9":"user i like chess a"},'
    '"children":[1,6,10],"id":4,"meta":null,"text":"user i like chess a"},'
    '{"cache":{"8deb04fe21d20917ac07591f6935b0fb00bd70a4d532cf494b1717c31c65a25f":"assistant i like violin a"},'
    '"children":[15],"id":16,"meta":null,"text":"assistant i like violin a"}],'
    '[{"cache":{"01f406bda2191721e162d1e6ad07384a44818ffcb5b39ed3ea42a74756de2b2a":"user i like chess a",'
    '"1bdeead22074a3bf413d3ba44e2f2184aa8a741a1dd046b7456d7f88c07bf2a0":"user i like chess a",'
    '"b7381f9be634c690589b03aa9cccc2bb5f0e49bc8bb9a93e74eb6073e92dbaae":"user i like chess a"},'
    '"children":[0,2,3],"id":1,"meta":null,"text":"user i like chess a"},'
    '{"cache":{"069b10c8ae95483dd8c37a7df12ba2d81feac74a16e6528a7b1894e61033f489":"assistant i like jazz a",'
    '"4cc9dea2e80b24b524208288b6f9088b5477ff152eead9e0f03457286871d2ce":"assistant i like jazz a",'
    '"ac8980c7dcba8146ba512690f825be3e6f6197f5ab4d7f010cfaa41816876064":"assistant i like jazz a"},'
    '"children":[5,7,8],"id":6,"meta":null,"text":"assistant i like jazz a"},'
    '{"cache":{"0c92a2f140a5d331fcc8731e4ec81d60b519a37e8e3c79a59581b90de12e28e8":"user i like pottery a",'
    '"862e0ffbc24990158306475f320aebb9fc5fcc23d4a19553fd16f6c2d42caba3":"user i like pottery a",'
    '"efb9d9970fc8bee5f49f48b7a0567cc00498e52bce315daa0d2ab5869017bc3f":"user i like pottery a"},'
    '"children":[9,11,12],"id":10,"meta":null,"text":"user i like pottery a"},'
    '{"cache":{"0a5eb4307030124285fb145d35f09fdf6e532ec1cc6acdc985b3249fc5c8d92f":"assistant i like violin a",'
    '"84593e9bd539960e06cc308019ad6547f43d6c500537b34a564e2f35ca99c272":"assistant i like violin a"},'
    '"children":[14,17],"id":15,"meta":null,"text":"assistant i like violin a"}],'
    '[{"cache":{},"children":[],"id":0,"meta":{"session":1,"speaker":"user","turn_index":0},'
    '"text":"user: I like chess a lot"},{"cache":{},"children":[],"id":2,"meta":{"session":1,'
    '"speaker":"assistant","turn_index":1},"text":"assistant: I like roses a lot"},'
    '{"cache":{},"children":[],"id":3,"meta":{"session":1,"speaker":"user","turn_index":2},'
    '"text":"user: I like sailing a lot"},{"cache":{},"children":[],"id":5,'
    '"meta":{"session":1,"speaker":"assistant","turn_index":3},'
    '"text":"assistant: I like jazz a lot"},{"cache":{},"children":[],"id":7,'
    '"meta":{"session":1,"speaker":"user","turn_index":4},"text":"user: I like tea a lot"},'
    '{"cache":{},"children":[],"id":8,"meta":{"session":1,"speaker":"assistant",'
    '"turn_index":5},"text":"assistant: I like hiking a lot"},{"cache":{},"children":[],'
    '"id":9,"meta":{"session":2,"speaker":"user","turn_index":0},'
    '"text":"user: I like pottery a lot"},{"cache":{},"children":[],"id":11,'
    '"meta":{"session":2,"speaker":"assistant","turn_index":1},'
    '"text":"assistant: I like chess a lot"},{"cache":{},"children":[],"id":12,'
    '"meta":{"session":2,"speaker":"user","turn_index":2},"text":"user: I like maps a lot"},'
    '{"cache":{},"children":[],"id":14,"meta":{"session":2,"speaker":"assistant",'
    '"turn_index":3},"text":"assistant: I like violin a lot"},{"cache":{},"children":[],'
    '"id":17,"meta":{"session":2,"speaker":"user","turn_index":4},'
    '"text":"user: I like bread a lot"}]],"leaf_count":11,"memory_length":3,"version":1}'
)


class TestVersionOneDocument:
    def test_loads_with_texts_and_meta(self):
        v1 = json.loads(V1_DOCUMENT)
        tree = HatTree.deserialize(V1_DOCUMENT)
        assert texts_by_position(tree) == [[entry["text"] for entry in row] for row in v1["layers"]]
        assert tree.layers[-1] == V1_LEAVES
        # Of each leaf meta only the session is kept; speaker and turn_index go.
        assert tree.leaf_sessions == [1] * 6 + [2] * 5
        assert tree.agg_call_count == 0

    def test_reserializes_as_version_three(self):
        doc = json.loads(HatTree.deserialize(V1_DOCUMENT).serialize())
        v1 = json.loads(V1_DOCUMENT)
        assert doc["version"] == 3
        assert set(doc) == {"format", "version", "memory_length", "aggregator", "layers", "meta"}
        assert doc["layers"] == [[entry["text"] for entry in row] for row in v1["layers"]]
        # The leaves of each session are one run.
        assert doc["meta"] == [[[1, None]], [[2, None]], [[4, None]],
                               [[6, {"session": 1}], [5, {"session": 2}]]]

    def test_next_insert_costs_what_it_cost_in_version_one(self):
        tree = HatTree.deserialize(V1_DOCUMENT)
        tree.insert_leaf("user: one more turn here")
        assert tree.agg_call_count == 1
        rebuilt = HatTree(3, TruncateAggregator(5))
        for text, session in zip(V1_LEAVES, tree.leaf_sessions):
            rebuilt.insert_leaf(text, session=session)
        rebuilt.insert_leaf("user: one more turn here")
        assert tree.serialize() == rebuilt.serialize()


# Written by the indented version-2 format: M=3, concat(" | "), 5 leaves
# with meta (session, speaker and turn index), one of them with non-ASCII text.
INDENTED_V2_DOCUMENT = r"""{
  "aggregator": {
    "kind": "concat",
    "params": {
      "separator": " | "
    }
  },
  "format": "hat-tree",
  "layers": [
    [
      {
        "meta": null,
        "text": "user: I bake rye bread | assistant: Rye needs a long proof | user: My oven is a cr\u00e8me br\u00fbl\u00e9e torch | assistant: That sounds risky | user: I live in Z\u00fcrich"
      }
    ],
    [
      {
        "meta": null,
        "text": "user: I bake rye bread | assistant: Rye needs a long proof | user: My oven is a cr\u00e8me br\u00fbl\u00e9e torch"
      },
      {
        "meta": null,
        "text": "assistant: That sounds risky | user: I live in Z\u00fcrich"
      }
    ],
    [
      {
        "meta": {
          "session": 1,
          "speaker": "user",
          "turn_index": 0
        },
        "text": "user: I bake rye bread"
      },
      {
        "meta": {
          "session": 1,
          "speaker": "assistant",
          "turn_index": 1
        },
        "text": "assistant: Rye needs a long proof"
      },
      {
        "meta": {
          "session": 1,
          "speaker": "user",
          "turn_index": 2
        },
        "text": "user: My oven is a cr\u00e8me br\u00fbl\u00e9e torch"
      },
      {
        "meta": {
          "session": 2,
          "speaker": "assistant",
          "turn_index": 0
        },
        "text": "assistant: That sounds risky"
      },
      {
        "meta": {
          "session": 2,
          "speaker": "user",
          "turn_index": 1
        },
        "text": "user: I live in Z\u00fcrich"
      }
    ]
  ],
  "memory_length": 3,
  "version": 2
}
"""


class TestIndentedVersionTwoDocument:
    def test_loads_with_texts_and_meta(self):
        doc = json.loads(INDENTED_V2_DOCUMENT)
        tree = HatTree.deserialize(INDENTED_V2_DOCUMENT)
        assert (tree.memory_length, tree.aggregator.spec()) == (3, doc["aggregator"])
        assert texts_by_position(tree) == [[entry["text"] for entry in row] for row in doc["layers"]]
        assert tree.leaf_sessions == [1, 1, 1, 2, 2]
        assert tree.agg_call_count == 0

    def test_reserializes_compact_as_a_rebuilt_tree(self):
        tree = HatTree.deserialize(INDENTED_V2_DOCUMENT)
        rebuilt = HatTree(3, ConcatAggregator(" | "))
        for leaf in json.loads(INDENTED_V2_DOCUMENT)["layers"][-1]:
            rebuilt.append_leaf(leaf["text"], session=leaf["meta"]["session"])
        document = tree.serialize()
        assert document == rebuilt.serialize()
        v2 = json.loads(INDENTED_V2_DOCUMENT)
        v3 = dict(v2, version=3, layers=[[entry["text"] for entry in row] for row in v2["layers"]],
                  meta=[session_runs([(entry["meta"] or {}).get("session") for entry in row])
                        for row in v2["layers"]])
        assert document == json.dumps(v3, sort_keys=True, separators=(",", ":")) + "\n"


class TestFlushMatchesFullRecompute:
    def test_random_interleavings(self, rng):
        words = ["alpha", "bravo", "charlie", "delta"]
        kinds = [lambda: ConcatAggregator(" | "), lambda: TruncateAggregator(4),
                 lambda: LlmPersonaAggregator(mock_client())]
        for _ in range(60):
            M = rng.choice([2, 3, 5])
            make = rng.choice(kinds)
            tree = HatTree(M, make())
            aggregate = _memoized(make().aggregate)
            leaves: list[str] = []
            previous: dict = {}
            for i in range(rng.randint(1, 40)):
                op = rng.random()
                if op < 0.8:
                    leaves.append(f"w{i} {rng.choice(words)}")
                if op < 0.6:
                    tree.append_leaf(leaves[-1])
                    continue
                calls = tree.agg_call_count
                if op < 0.8:
                    tree.insert_leaf(leaves[-1])
                else:
                    tree.flush()
                expected = full_recompute(leaves, M, aggregate)
                children = child_text_lists(expected, M)
                changed = sum(previous.get(key) != kids for key, kids in children.items())
                assert tree.agg_call_count - calls == changed
                assert texts_by_position(tree) == expected
                previous = children


def _memoized(aggregate):
    results = {}

    def call(children_texts):
        key = tuple(children_texts)
        if key not in results:
            results[key] = aggregate(children_texts)
        return results[key]
    return call


def _integer_fields(doc: dict) -> list:
    """The integer fields of a version-3 document: version, memory length and run counts."""
    return [doc["version"], doc["memory_length"], *(run[0] for runs in doc["meta"] for run in runs)]


def _random_field(doc, rng: random.Random):
    """A uniformly chosen (container, key) pair among all fields of doc."""
    fields = []
    stack = [doc]
    while stack:
        container = stack.pop()
        keys = container.keys() if isinstance(container, dict) else range(len(container))
        for key in keys:
            fields.append((container, key))
            if isinstance(container[key], (dict, list)):
                stack.append(container[key])
    return rng.choice(fields)
