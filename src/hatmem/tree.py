"""Layered aggregate tree with deferred, cached re-aggregation.

The tree stores dialogue turns as leaves in its last layer. Every internal
node's text is the aggregate of its children's texts, and layer 0 always
holds the single root. Node (layer k, index i) has its parent at
(k-1, i // M), where M is the memory length. When the leaf layer is full
(M ** depth leaves), a new root layer is prepended and every existing layer
shifts down by one.

Appending a leaf only places it and marks its ancestors pending; no
aggregator runs. `flush` aggregates every pending node once, deepest layer
first, so a node whose subtree gained several leaves since the last read
costs one aggregation rather than one per leaf. Every public read of
internal text flushes first, and `insert_leaf` is an append plus a flush.
Nodes of one layer do not depend on each other, so a flush sends a layer's
chat (`llm_persona`) aggregations concurrently, at most 8 at a time: the
chat client behind such an aggregator must be safe to share across threads,
as `LlmClient` is. Other kinds aggregate on the calling thread.
Each node keeps a digest-keyed cache (`previous_complete_state`) mapping the
hash of its ordered child states to the text it aggregated under that state,
so a repeated child state never calls the aggregator again.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import groupby
from typing import Optional

from .errors import (
    ContractViolationError,
    DocumentParseError,
    InvalidParameterError,
    NotFoundError,
)

DOC_FORMAT = "hat-tree"
DOC_VERSION = 1

# The one aggregator kind that waits on a chat endpoint. The others are
# Python computation, which threads cannot overlap, so they run on the
# calling thread.
REMOTE_AGGREGATOR_KIND = "llm_persona"
# Most chat calls one flush has in flight at once.
MAX_CONCURRENT_AGGREGATIONS = 8


@dataclass
class Node:
    """One tree node; leaves carry raw turn text, internal nodes aggregates."""

    id: int
    layer: int
    index: int
    text: str = ""
    children: list[int] = field(default_factory=list)
    parent: Optional[int] = None
    previous_complete_state: dict[str, str] = field(default_factory=dict)
    meta: Optional[dict] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class HatTree:
    """The layered tree plus its aggregator binding and call instrumentation.

    Writers must be exclusive: one append, flush, insert or update at a time.
    A read of internal text flushes pending aggregation first, so while
    leaves are pending a read is a write too. Any number of readers may query
    a tree with nothing pending. A flush itself calls a chat aggregator from
    up to MAX_CONCURRENT_AGGREGATIONS (8) threads at once, so that
    aggregator's client must be safe to share across threads.
    """

    def __init__(self, memory_length: int, aggregator):
        # M=1 would put a single node on every layer and grow depth per leaf.
        if not isinstance(memory_length, int) or isinstance(memory_length, bool):
            raise InvalidParameterError("memory_length must be an integer")
        if memory_length < 2:
            raise InvalidParameterError(f"memory_length must be >= 2, got {memory_length}")
        self.memory_length = memory_length
        self.aggregator = aggregator
        self.layers: list[list[int]] = []
        self.nodes: dict[int, Node] = {}
        self.leaf_count = 0
        self.agg_call_count = 0
        # Ids of internal nodes awaiting aggregation. Closed upward: every
        # ancestor of a pending node is pending too.
        self.pending: set[int] = set()
        self._next_id = 0

    # ------------------------------------------------------------------ reads

    def depth(self) -> int:
        if not self.layers:
            return 0
        return len(self.layers) - 1

    def layer_size(self, layer: int) -> int:
        if layer < 0 or layer >= len(self.layers):
            raise NotFoundError(f"layer {layer} out of range (depth {self.depth()})")
        return len(self.layers[layer])

    def node_at(self, layer: int, index: int) -> Node:
        if layer < 0 or layer >= len(self.layers):
            raise NotFoundError(f"layer {layer} out of range (depth {self.depth()})")
        row = self.layers[layer]
        if index < 0 or index >= len(row):
            raise NotFoundError(f"index {index} out of range in layer {layer} (size {len(row)})")
        self.flush()
        return self.nodes[row[index]]

    def parent_of(self, node_id: int) -> Optional[Node]:
        node = self._node(node_id)
        if node.parent is None:
            return None
        self.flush()
        return self.nodes[node.parent]

    def children_of(self, node_id: int) -> list[Node]:
        node = self._node(node_id)
        self.flush()
        return [self.nodes[cid] for cid in node.children]

    def root(self) -> Node:
        if not self.layers:
            raise NotFoundError("tree is empty")
        self.flush()
        return self.nodes[self.layers[0][0]]

    def root_text(self) -> str:
        return self.root().text

    def leaves(self) -> list[Node]:
        if not self.layers:
            return []
        return [self.nodes[nid] for nid in self.layers[-1]]

    def iter_nodes(self):
        self.flush()
        for row in self.layers:
            for nid in row:
                yield self.nodes[nid]

    def _node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NotFoundError(f"no node with id {node_id}") from None

    # ----------------------------------------------------------------- writes

    def append_leaf(self, text: str, meta: Optional[dict] = None) -> int:
        """Place one leaf and mark its ancestors pending, without aggregating.

        Grows a new root layer first when the leaf layer is at capacity. The
        ancestors are aggregated by the next `flush` or read of internal text.
        """
        return self._append(text, meta, [])

    def insert_leaf(self, text: str, meta: Optional[dict] = None) -> int:
        """Append one leaf, then flush every pending node.

        If aggregation fails the append is rolled back and the tree,
        including its caches, counters and pending set, is left exactly as
        it was.
        """
        undo: list[tuple] = []
        try:
            leaf_id = self._append(text, meta, undo)
            self.flush()
            return leaf_id
        except BaseException:
            self._rollback(undo)
            raise

    def update_text(self, node_id: int) -> None:
        """Recompute one internal node and its ancestors from their children.

        Marks the node and every ancestor pending and flushes, so each is
        recomputed once. A child-state digest already present in a node's
        cache restores the cached text without calling the aggregator. If
        the flush fails the tree is left as it was.
        """
        node = self._node(node_id)
        if node.is_leaf:
            raise ContractViolationError(f"update_text on leaf node {node_id}")
        added = self._mark_pending(node)
        try:
            self.flush()
        except BaseException:
            self.pending.difference_update(added)
            raise

    def flush(self) -> None:
        """Aggregate every pending node once, one layer at a time, deepest first.

        A parent aggregates its children's new texts from the same flush.
        Nodes of one layer do not depend on each other, so when a layer has
        several cache misses and the aggregator waits on a chat endpoint,
        their calls run concurrently on a pool of at most
        MAX_CONCURRENT_AGGREGATIONS threads that lives only for this flush.
        Nothing is assigned until every aggregate call has returned, so a
        failed flush leaves texts, caches, agg_call_count and the pending set
        as they were.
        """
        if not self.pending:
            return
        texts: dict[int, str] = {}
        new_entries: list[tuple[Node, str, str]] = []
        order = sorted((self.nodes[nid] for nid in self.pending),
                       key=lambda n: (-n.layer, n.index))
        for _, row in groupby(order, key=lambda n: n.layer):
            misses: list[tuple[Node, str, list[str]]] = []
            for node in row:
                child_texts = [texts.get(cid, self.nodes[cid].text) for cid in node.children]
                digest = _child_digest(node.children, child_texts)
                text = node.previous_complete_state.get(digest)
                if text is None:
                    misses.append((node, digest, child_texts))
                else:
                    texts[node.id] = text
            aggregated = self._aggregate_layer([child_texts for _, _, child_texts in misses])
            for (node, digest, _), text in zip(misses, aggregated):
                texts[node.id] = text
                new_entries.append((node, digest, text))
        for node, digest, text in new_entries:
            node.previous_complete_state[digest] = text
        for node in order:
            node.text = texts[node.id]
        self.agg_call_count += len(new_entries)
        self.pending.clear()

    def _aggregate_layer(self, inputs: list[list[str]]) -> list[str]:
        """One aggregate per input list, in order; the first failure raises."""
        if len(inputs) < 2 or self.aggregator.kind != REMOTE_AGGREGATOR_KIND:
            return [self.aggregator.aggregate(child_texts) for child_texts in inputs]
        workers = min(len(inputs), MAX_CONCURRENT_AGGREGATIONS)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(self.aggregator.aggregate, inputs))

    # -------------------------------------------------------------- internals

    def _append(self, text: str, meta: Optional[dict], undo: list) -> int:
        if not isinstance(text, str) or not text:
            raise InvalidParameterError("leaf text must be a nonempty string")
        if not self.layers:
            # The root layer and the leaf layer appear with the first leaf.
            self.layers.append([])
            self.layers.append([])
            undo.append(("pop_layer",))
            undo.append(("pop_layer",))
        elif self.leaf_count == self.memory_length ** self.depth():
            self._grow_root(undo)
        leaf = self._place_leaf(text, meta, undo)
        self.leaf_count += 1
        undo.append(("dec_leaf_count",))
        undo.append(("unmark", self._mark_pending(self.nodes[leaf.parent])))
        return leaf.id

    def _mark_pending(self, node: Node) -> list[int]:
        """Add node and its ancestors to the pending set; return the ids added.

        The set is closed upward, so marking stops at the first pending node.
        """
        added = []
        while node.id not in self.pending:
            self.pending.add(node.id)
            added.append(node.id)
            if node.parent is None:
                break
            node = self.nodes[node.parent]
        return added

    def _new_node(self, layer: int, index: int, undo: list, text: str = "",
                  meta: Optional[dict] = None) -> Node:
        node = Node(id=self._next_id, layer=layer, index=index, text=text,
                    meta=dict(meta) if meta else None)
        self._next_id += 1
        self.nodes[node.id] = node
        self.layers[layer].append(node.id)
        undo.append(("del_node", node.id))
        return node

    def _grow_root(self, undo: list) -> None:
        # One "ungrow" entry reverses the whole step; it is recorded before
        # any later node creations so rollback unwinds those first.
        old_root = self.nodes[self.layers[0][0]]
        for node in self.nodes.values():
            node.layer += 1
        self.layers.insert(0, [])
        new_root = Node(id=self._next_id, layer=0, index=0)
        self._next_id += 1
        self.nodes[new_root.id] = new_root
        self.layers[0].append(new_root.id)
        new_root.children.append(old_root.id)
        old_root.parent = new_root.id
        undo.append(("ungrow", new_root.id, old_root.id))

    def _place_leaf(self, text: str, meta: Optional[dict], undo: list) -> Node:
        d = self.depth()
        leaf = self._new_node(layer=d, index=len(self.layers[d]), undo=undo,
                              text=text, meta=meta)
        child = leaf
        for k in range(d - 1, -1, -1):
            j = child.index // self.memory_length
            row = self.layers[k]
            if j < len(row):
                parent = self.nodes[row[j]]
                parent.children.append(child.id)
                child.parent = parent.id
                undo.append(("unlink", parent.id, child.id))
                break
            # Missing ancestors are always the next contiguous slot.
            parent = self._new_node(layer=k, index=j, undo=undo)
            parent.children.append(child.id)
            child.parent = parent.id
            child = parent
        return leaf

    def _rollback(self, undo: list) -> None:
        for entry in reversed(undo):
            op = entry[0]
            if op == "unmark":
                self.pending.difference_update(entry[1])
            elif op == "dec_leaf_count":
                self.leaf_count -= 1
            elif op == "unlink":
                parent = self.nodes[entry[1]]
                parent.children.remove(entry[2])
                self.nodes[entry[2]].parent = None
            elif op == "del_node":
                node = self.nodes.pop(entry[1])
                self.layers[node.layer].remove(entry[1])
            elif op == "ungrow":
                new_root_id, old_root_id = entry[1], entry[2]
                # Later creations were already unwound, so layer 0 holds only
                # the new root by now.
                self.nodes.pop(new_root_id)
                self.layers.pop(0)
                self.nodes[old_root_id].parent = None
                for node in self.nodes.values():
                    node.layer -= 1
            elif op == "pop_layer":
                self.layers.pop()

    # ------------------------------------------------------------ persistence

    def serialize(self) -> str:
        """Stable JSON document; identical trees serialize byte-identically.

        Flushes first, so a document never holds a stale internal text.
        """
        self.flush()
        layers_doc = []
        for row in self.layers:
            layer_doc = []
            for nid in row:
                node = self.nodes[nid]
                layer_doc.append({
                    "id": node.id,
                    "text": node.text,
                    "children": list(node.children),
                    "meta": node.meta,
                    "cache": dict(node.previous_complete_state),
                })
            layers_doc.append(layer_doc)
        doc = {
            "format": DOC_FORMAT,
            "version": DOC_VERSION,
            "memory_length": self.memory_length,
            "leaf_count": self.leaf_count,
            "aggregator": self.aggregator.spec(),
            "layers": layers_doc,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def deserialize(cls, document: str, aggregator=None) -> "HatTree":
        """Rebuild a tree from `serialize` output.

        Structure, texts, meta, and caches round-trip; agg_call_count resets
        to 0. With aggregator=None the aggregator is rebuilt from the
        document's recorded kind and params.
        """
        from .aggregation import aggregator_from_spec

        try:
            doc = json.loads(document)
        except (TypeError, ValueError) as exc:
            raise DocumentParseError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != DOC_FORMAT:
            raise DocumentParseError("missing or wrong format marker")
        # A bool or a float equal to an int would pass the comparisons below
        # and then be written back as loaded, so integer fields must be ints.
        if not _is_int(doc.get("version")) or doc["version"] != DOC_VERSION:
            raise DocumentParseError(f"unsupported document version {doc.get('version')!r}")
        memory_length = doc.get("memory_length")
        if not _is_int(memory_length) or memory_length < 2:
            raise DocumentParseError(f"bad memory_length {memory_length!r}")
        if not _is_int(doc.get("leaf_count")):
            raise DocumentParseError(f"bad leaf_count {doc.get('leaf_count')!r}")
        layers_doc = doc.get("layers")
        if not isinstance(layers_doc, list) or not all(isinstance(r, list) for r in layers_doc):
            raise DocumentParseError("layers must be a list of lists")

        agg_spec = doc.get("aggregator")
        if not isinstance(agg_spec, dict) or "kind" not in agg_spec:
            raise DocumentParseError("missing aggregator spec")
        if aggregator is None:
            try:
                aggregator = aggregator_from_spec(agg_spec["kind"], agg_spec.get("params") or {})
            except InvalidParameterError as exc:
                raise DocumentParseError(str(exc)) from exc
        elif aggregator.spec() != agg_spec:
            raise DocumentParseError(
                f"aggregator mismatch: document has {agg_spec!r}, caller bound {aggregator.spec()!r}")

        tree = cls(memory_length, aggregator)
        for k, row in enumerate(layers_doc):
            tree.layers.append([])
            for i, entry in enumerate(row):
                if not isinstance(entry, dict):
                    raise DocumentParseError(f"node at layer {k} index {i} is not an object")
                node = Node(
                    id=_expect(entry, "id", int, k, i),
                    layer=k,
                    index=i,
                    text=_expect(entry, "text", str, k, i),
                    children=_expect(entry, "children", list, k, i),
                    meta=entry.get("meta"),
                    previous_complete_state=_expect(entry, "cache", dict, k, i),
                )
                if node.id in tree.nodes:
                    raise DocumentParseError(f"duplicate node id {node.id}")
                if not all(_is_int(cid) for cid in node.children):
                    raise DocumentParseError(f"node at layer {k} index {i}: child ids must be integers")
                for key, value in node.previous_complete_state.items():
                    if not isinstance(key, str) or not isinstance(value, str):
                        raise DocumentParseError(
                            f"node at layer {k} index {i}: cache entries must map string to string")
                tree.nodes[node.id] = node
                tree.layers[k].append(node.id)
        tree._validate_structure(doc.get("leaf_count"))
        tree.leaf_count = doc["leaf_count"]
        tree._next_id = max(tree.nodes) + 1 if tree.nodes else 0
        return tree

    def _validate_structure(self, leaf_count) -> None:
        if not self.layers:
            if leaf_count != 0:
                raise DocumentParseError("leaf_count nonzero for empty tree")
            return
        if len(self.layers[0]) != 1:
            raise DocumentParseError(f"layer 0 must hold exactly one node, found {len(self.layers[0])}")
        if leaf_count != len(self.layers[-1]):
            raise DocumentParseError(
                f"leaf_count {leaf_count!r} does not match leaf layer size {len(self.layers[-1])}")
        d = self.depth()
        M = self.memory_length
        for k, row in enumerate(self.layers):
            if len(row) > M ** k:
                raise DocumentParseError(f"layer {k} exceeds capacity {M ** k}")
            for i, nid in enumerate(row):
                node = self.nodes[nid]
                if k < d:
                    # Internal node: children must be exactly the layer-(k+1)
                    # slots that map to index i under floor division by M.
                    below = self.layers[k + 1]
                    expected = [below[j] for j in range(i * M, min((i + 1) * M, len(below)))]
                    if node.children != expected:
                        raise DocumentParseError(
                            f"node at layer {k} index {i}: children {node.children} "
                            f"violate the floor(i/M) parent rule (expected {expected})")
                    if not expected:
                        raise DocumentParseError(f"internal node at layer {k} index {i} has no children")
                    for cid in expected:
                        self.nodes[cid].parent = nid
                else:
                    if node.children:
                        raise DocumentParseError(f"leaf at index {i} has children")
        if leaf_count >= 2:
            want = math.ceil(math.log(leaf_count, M))
            # ceil(log) is float-based; correct it at exact powers.
            while M ** want < leaf_count:
                want += 1
            while want > 1 and M ** (want - 1) >= leaf_count:
                want -= 1
            if d != want:
                raise DocumentParseError(f"depth {d} inconsistent with {leaf_count} leaves (want {want})")
        elif d not in (0, 1):
            raise DocumentParseError(f"depth {d} inconsistent with {leaf_count} leaves")


def _child_digest(child_ids: list[int], child_texts: list[str]) -> str:
    h = hashlib.sha256()
    for cid, text in zip(child_ids, child_texts):
        text_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()
        h.update(f"{cid}:{text_hash};".encode("ascii"))
    return h.hexdigest()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(entry: dict, key: str, typ, layer: int, index: int):
    value = entry.get(key)
    if not isinstance(value, typ) or isinstance(value, bool):
        raise DocumentParseError(
            f"node at layer {layer} index {index}: field {key!r} missing or not {typ.__name__}")
    return value
