"""Tree structure, caching, atomic insertion, and persistence."""

from __future__ import annotations

import json
import random
import threading

import pytest

from conftest import (
    BarrierTransport,
    FailingAggregator,
    LoggingTransport,
    ThreadLoggingAggregator,
    build_tree,
)
from reference_impls import concat_texts, expected_depth, leaf_spans

from hatmem import (
    ConcatAggregator,
    HatTree,
    LlmClient,
    LlmPersonaAggregator,
    TruncateAggregator,
    mock_client,
)
from hatmem.errors import (
    AggregationUnavailableError,
    ContractViolationError,
    DocumentParseError,
    InvalidParameterError,
    NotFoundError,
)


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
            node = tree.node_at(k, i)
            assert node.layer == k and node.index == i
            assert node.text == texts[k][i]
            if k == 0:
                assert node.parent is None
            else:
                parent = tree.parent_of(node.id)
                assert parent.layer == k - 1 and parent.index == i // M
                assert node.id in parent.children
    assert [leaf.text for leaf in tree.leaves()] == leaves


def texts_by_position(tree: HatTree) -> list[list[str]]:
    """Node texts per (layer, index), read without flushing."""
    return [[tree.nodes[nid].text for nid in row] for row in tree.layers]


def raw_state(tree: HatTree):
    """Texts, caches, call count and pending set, read without flushing."""
    nodes = [(n.text, dict(n.previous_complete_state)) for n in tree.nodes.values()]
    return nodes, tree.agg_call_count, set(tree.pending)


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
        assert [n.text for n in tree.leaves()] == ["t1"]
        tree.insert_leaf("t2")
        assert tree.root_text() == "t1 | t2"
        assert tree.depth() == 1
        tree.insert_leaf("t3")
        assert tree.depth() == 2
        assert tree.root_text() == "t1 | t2 | t3"
        assert [tree.node_at(1, i).text for i in range(2)] == ["t1 | t2", "t3"]

    def test_parent_of_index_seven_m3(self):
        tree = build_tree(8, memory_length=3)
        leaf = tree.node_at(2, 7)
        parent = tree.parent_of(leaf.id)
        assert (parent.layer, parent.index) == (1, 2)

    def test_empty_text_rejected(self):
        tree = build_tree(2)
        before = tree.serialize()
        with pytest.raises(InvalidParameterError):
            tree.insert_leaf("")
        assert tree.serialize() == before

    def test_meta_stored_on_leaf(self):
        tree = HatTree(2, ConcatAggregator())
        leaf_id = tree.insert_leaf("hello", meta={"speaker": "user", "session": 1})
        node = tree.nodes[leaf_id]
        assert node.meta == {"speaker": "user", "session": 1}
        assert tree.node_at(0, 0).meta is None

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
        assert [leaf.text for leaf in tree.leaves()] == leaves


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
            tree.parent_of(999)

    def test_children_ordered_oldest_first(self):
        tree = build_tree(4)
        root_children = tree.children_of(tree.root().id)
        assert [c.index for c in root_children] == [0, 1]
        assert root_children[0].text == "t0 | t1"


class TestUpdateAndCache:
    def test_update_on_leaf_rejected(self):
        tree = build_tree(2)
        leaf = tree.leaves()[0]
        with pytest.raises(ContractViolationError):
            tree.update_text(leaf.id)

    def test_cached_state_skips_aggregator(self):
        tree = build_tree(5)
        before = tree.agg_call_count
        root_text = tree.root_text()
        tree.update_text(tree.root().id)
        assert tree.agg_call_count == before
        assert tree.root_text() == root_text

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
        assert tree.depth() == 3 and tree.leaves()[-1].text == "t13"
        assert tree.agg_call_count == 0 and tree.pending
        assert tree.root_text() == " | ".join(f"t{i}" for i in range(14))
        assert not tree.pending

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
                    for tree in (concat, truncate):
                        pending, calls = len(tree.pending), tree.agg_call_count
                        tree.flush()
                        assert tree.agg_call_count - calls <= pending
                    assert texts_by_position(concat) == concat_texts(leaves, M, " | ")
                    assert texts_by_position(truncate) == texts_by_position(eager)
            check_against_reference(concat, leaves, " | ")
            truncate.flush()
            assert texts_by_position(truncate) == texts_by_position(eager)

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
                assert len(tree.pending) == 4  # each a cache miss: fail at every call
                before = raw_state(tree)
                agg.fail_after = agg.calls + fail_at
                with pytest.raises(AggregationUnavailableError):
                    getattr(tree, read)()
                assert raw_state(tree) == before
                agg.armed = False
                tree.flush()
                assert texts_by_position(tree) == eager
                assert not tree.pending

    def test_failed_insert_keeps_earlier_pending_nodes(self):
        agg, tree = self.pending_tree()
        before = raw_state(tree)
        layers = [list(row) for row in tree.layers]
        agg.fail_after = agg.calls
        with pytest.raises(AggregationUnavailableError):
            tree.insert_leaf("boom")
        assert raw_state(tree) == before
        assert tree.layers == layers and tree.leaf_count == 14

    def test_failed_update_restores_pending_set(self):
        agg = FailingAggregator(fail_after=10 ** 9)
        tree = HatTree(2, agg)
        for i in range(5):
            tree.insert_leaf(f"t{i}")
        node = tree.node_at(1, 0)
        node.previous_complete_state.clear()
        before = raw_state(tree)
        agg.fail_after = agg.calls
        with pytest.raises(AggregationUnavailableError):
            tree.update_text(node.id)
        assert raw_state(tree) == before
        assert not tree.pending


def persona_tree(memory_length: int, transport) -> HatTree:
    client = LlmClient(transport, model="mock-chat", sleep=lambda _s: None)
    return HatTree(memory_length, LlmPersonaAggregator(client))


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
            for row in tree.layers[:-2]:
                for nid in row:
                    parent_call = call_for[tree.nodes[nid].text]
                    for cid in tree.nodes[nid].children:
                        assert call_for[tree.nodes[cid].text]["end"] < parent_call["start"]
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
            assert [tree.nodes[nid].layer for nid in tree.pending].count(1) == 2
            before = raw_state(tree)
            transport.fail_on = fail_on
            with pytest.raises(AggregationUnavailableError):
                tree.flush()
            assert raw_state(tree) == before
            transport.fail_on = None
            tree.flush()
            assert texts_by_position(tree) == concat_texts(leaves, 3, " ")

    def test_random_appends_and_flushes_match_flat_join(self, rng):
        words = ["alpha", "bravo", "charlie", "delta"]
        for _ in range(30):
            M = rng.choice([2, 3])
            tree = HatTree(M, LlmPersonaAggregator(mock_client()))
            leaves = []
            flushed = 0
            for i in range(rng.randint(1, 40)):
                leaves.append(f"w{i} {rng.choice(words)}")
                tree.append_leaf(leaves[-1])
                if rng.random() < 0.3:
                    flushed += len(tree.pending)
                    tree.flush()
            flushed += len(tree.pending)
            tree.flush()
            assert tree.agg_call_count == flushed
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
        agg = ThreadLoggingAggregator(LlmPersonaAggregator(mock_client()))
        tree = HatTree(3, agg)
        for i in range(27):
            tree.append_leaf(f"t{i}")
        threads_before = threading.active_count()
        tree.flush()
        assert threading.active_count() == threads_before
        assert set(agg.threads) - {threading.get_ident()}  # the pool did run


class TestAtomicity:
    def test_failed_aggregation_rolls_back_plain_insert(self):
        agg = FailingAggregator(fail_after=10 ** 9)
        tree = HatTree(2, agg)
        for i in range(5):
            tree.insert_leaf(f"t{i}")
        snapshot = tree.serialize()
        count = tree.agg_call_count
        agg.fail_after = agg.calls  # next aggregation fails
        with pytest.raises(AggregationUnavailableError):
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
        with pytest.raises(AggregationUnavailableError):
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
        with pytest.raises(AggregationUnavailableError):
            tree.insert_leaf("boom")
        assert tree.serialize() == snapshot

    def test_recovers_after_rollback(self):
        agg = FailingAggregator(fail_after=10 ** 9)
        tree = HatTree(2, agg)
        for i in range(3):
            tree.insert_leaf(f"t{i}")
        agg.fail_after = agg.calls
        with pytest.raises(AggregationUnavailableError):
            tree.insert_leaf("t3")
        agg.armed = False
        tree.insert_leaf("t3")
        plain = build_tree(4, separator=" | ")
        assert [l.text for l in tree.leaves()] == [l.text for l in plain.leaves()]
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
        for node in list(clone.iter_nodes()):
            if not node.is_leaf:
                clone.update_text(node.id)
        assert clone.agg_call_count == 0

    def test_identical_sequences_serialize_identically(self):
        a = build_tree(9, memory_length=3)
        b = build_tree(9, memory_length=3)
        assert a.serialize() == b.serialize()

    def test_meta_and_cache_roundtrip(self):
        tree = HatTree(2, ConcatAggregator())
        tree.insert_leaf("a", meta={"session": 1})
        tree.insert_leaf("b", meta={"session": 2})
        clone = HatTree.deserialize(tree.serialize())
        assert clone.leaves()[0].meta == {"session": 1}
        root = clone.root()
        assert root.previous_complete_state == tree.root().previous_complete_state

    def test_explicit_matching_aggregator_accepted(self):
        tree = build_tree(3, separator="; ")
        doc = tree.serialize()
        clone = HatTree.deserialize(doc, ConcatAggregator("; "))
        assert clone.root_text() == tree.root_text()

    def test_aggregator_mismatch_rejected(self):
        doc = build_tree(3, separator="; ").serialize()
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(doc, ConcatAggregator(" * "))

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
        doc = json.loads(build_tree(4).serialize())
        # Swap the two leaf groups under the layer-1 parents.
        layer1 = doc["layers"][1]
        layer1[0]["children"], layer1[1]["children"] = layer1[1]["children"], layer1[0]["children"]
        with pytest.raises(DocumentParseError) as err:
            HatTree.deserialize(json.dumps(doc))
        assert "floor(i/M)" in str(err.value)

    def test_rejects_leaf_count_mismatch(self):
        doc = json.loads(build_tree(4).serialize())
        doc["leaf_count"] = 3
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(json.dumps(doc))

    def test_rejects_integer_fields_of_other_types(self):
        for n in (1, 3):
            good = json.loads(build_tree(n).serialize())
            mutations = [("leaf_count", True), ("leaf_count", float(n)),
                         ("version", True), ("version", 1.0)]
            for key, value in mutations:
                with pytest.raises(DocumentParseError):
                    HatTree.deserialize(json.dumps(dict(good, **{key: value})))
            for child in (0.0, True):
                doc = json.loads(json.dumps(good))
                doc["layers"][0][0]["children"][0] = child
                with pytest.raises(DocumentParseError):
                    HatTree.deserialize(json.dumps(doc))

    def test_rejects_duplicate_ids(self):
        doc = json.loads(build_tree(4).serialize())
        doc["layers"][2][1]["id"] = doc["layers"][2][0]["id"]
        with pytest.raises(DocumentParseError):
            HatTree.deserialize(json.dumps(doc))

    def test_single_field_mutations_fail_only_with_parse_error(self):
        # Every mutation must either load or raise DocumentParseError. One
        # that loads serializes to a document with integer counts and ids,
        # which loads and serializes to the same bytes again.
        persona = HatTree(2, LlmPersonaAggregator(mock_client(), max_tokens=8))
        for i in range(5):
            persona.insert_leaf(f"persona turn {i}", meta={"session": 1})
        sources = [build_tree(7).serialize(), persona.serialize(),
                   HatTree(3, TruncateAggregator(5)).serialize()]
        docs = [json.loads(source) for source in sources]
        pool = [None, True, 0, 1, -1, 2, 7, 0.0, 1.0, 2.5, "", "x", [], [1, 2], [[]], {},
                {"a": 1}]
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
            assert all(type(v) is int for v in _integer_fields(json.loads(document)))
            assert HatTree.deserialize(document).serialize() == document

    def test_insertion_resumes_after_roundtrip(self):
        tree = build_tree(5)
        clone = HatTree.deserialize(tree.serialize(), ConcatAggregator(" | "))
        tree.insert_leaf("t5")
        clone.insert_leaf("t5")
        assert clone.serialize() == tree.serialize()


def _integer_fields(doc: dict) -> list:
    """Version, memory length, leaf count, and every node id and child id."""
    values = [doc["version"], doc["memory_length"], doc["leaf_count"]]
    for row in doc["layers"]:
        for entry in row:
            values.append(entry["id"])
            values.extend(entry["children"])
    return values


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
