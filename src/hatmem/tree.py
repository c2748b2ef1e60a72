"""Layered aggregate tree whose shape follows from node positions alone.

The tree stores dialogue turns as leaves in its last layer. Every internal
node's text is the aggregate of its children's texts, and layer 0 always
holds the single root. Node (layer k, index i) has its parent at
(k-1, i // M) and its children at (k+1, i*M) up to (k+1, i*M + M - 1), where
M is the memory length. Nothing else is stored: a layer is a list of nodes,
and layer k of an n-leaf tree holds ceil(n / M ** (depth - k)) of them. When
the leaf layer is full (M ** depth leaves), a new root layer is prepended.

Appending a leaf only places it, with `None` text on any internal node it
creates; no aggregator runs. `flush` works up from the leaves appended since
the last flush, one layer at a time: it aggregates the parents of the nodes
that changed, and a node changed when it is new or its new text differs
from its old one. A node whose children did not change is not aggregated
again, and the flush stops at the first layer where nothing changed. Every
public read of internal text flushes first, and `insert_leaf` is an append
plus a flush. A flush sends one layer's chat (`llm_persona`) aggregations
concurrently on the process's one long-lived call pool, so at most
MAX_CONCURRENT_CALLS (8) are in flight at a time across all flushes and
walks; other kinds run on the calling thread.

A document (version 2) holds the format marker, the version, the memory
length, the aggregator spec and, per layer, each node's text and meta.
Version-1 documents, which also carried node ids, child ids, a leaf count
and per-node aggregation caches, load through the same reader, which ignores
those keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import DocumentParseError, InvalidParameterError, NotFoundError
from .llm import call_concurrently

DOC_FORMAT = "hat-tree"
DOC_VERSION = 2

# The one aggregator kind that waits on a chat endpoint. The others are
# Python computation, which threads cannot overlap, so they run on the
# calling thread.
REMOTE_AGGREGATOR_KIND = "llm_persona"


@dataclass
class Node:
    """One tree node; leaves carry raw turn text, internal nodes aggregates.

    An internal node's text is None until the first flush that covers it.
    """

    text: Optional[str]
    meta: Optional[dict] = None


class HatTree:
    """The layered tree plus its aggregator binding and call instrumentation.

    `layers` lists the rows top-down, root first, always sized for the
    current leaf count. A node is its text and meta: no id, no links and no
    cache, since its position fixes its parent and children, and a flush
    re-aggregates only nodes whose children changed. `serialize` writes
    document version 2; `deserialize` also reads version 1.

    Writers must be exclusive: one append, flush or insert at a time. A read
    of internal text flushes first, so while leaves are unflushed a read is
    a write too. Any number of readers may query a flushed tree. A flush
    calls a chat aggregator from up to MAX_CONCURRENT_CALLS (8) threads at
    once, so its client must be safe to share across threads, as `LlmClient`
    is.
    """

    def __init__(self, memory_length: int, aggregator):
        # M=1 would put a single node on every layer and grow depth per leaf.
        if not _is_int(memory_length):
            raise InvalidParameterError("memory_length must be an integer")
        if memory_length < 2:
            raise InvalidParameterError(f"memory_length must be >= 2, got {memory_length}")
        self.memory_length = memory_length
        self.aggregator = aggregator
        self.layers: list[list[Node]] = []
        self.agg_call_count = 0
        # Leaves whose ancestors the last successful flush aggregated.
        self.flushed_leaves = 0

    # ------------------------------------------------------------------ reads

    @property
    def leaf_count(self) -> int:
        return len(self.layers[-1]) if self.layers else 0

    def depth(self) -> int:
        return max(len(self.layers) - 1, 0)

    def layer_size(self, layer: int) -> int:
        if layer < 0 or layer >= len(self.layers):
            raise NotFoundError(f"layer {layer} out of range (depth {self.depth()})")
        return len(self.layers[layer])

    def node_at(self, layer: int, index: int) -> Node:
        size = self.layer_size(layer)
        if index < 0 or index >= size:
            raise NotFoundError(f"index {index} out of range in layer {layer} (size {size})")
        self.flush()
        return self.layers[layer][index]

    def root(self) -> Node:
        if not self.layers:
            raise NotFoundError("tree is empty")
        return self.node_at(0, 0)

    def root_text(self) -> str:
        return self.root().text

    def leaves(self) -> list[Node]:
        return list(self.layers[-1]) if self.layers else []

    # ----------------------------------------------------------------- writes

    def append_leaf(self, text: str, meta: Optional[dict] = None) -> int:
        """Place one leaf without aggregating; return its index in the leaf layer.

        Grows a new root layer first when the leaf layer is at capacity, and
        adds a `None`-text node to each layer above that needs one more. The
        ancestors are aggregated by the next `flush` or read of internal text.
        """
        if not isinstance(text, str) or not text:
            raise InvalidParameterError("leaf text must be a nonempty string")
        M = self.memory_length
        if not self.layers:
            # The root layer and the leaf layer appear with the first leaf.
            self.layers = [[], []]
        elif self.leaf_count == M ** self.depth():
            self.layers.insert(0, [Node(None)])
        self.layers[-1].append(Node(text, dict(meta) if meta else None))
        for k in range(len(self.layers) - 2, -1, -1):
            if len(self.layers[k]) * M >= len(self.layers[k + 1]):
                break
            self.layers[k].append(Node(None))
        return self.leaf_count - 1

    def insert_leaf(self, text: str, meta: Optional[dict] = None) -> int:
        """Append one leaf, then flush; return its index in the leaf layer.

        If aggregation fails, the append is undone and the tree, including
        earlier unflushed appends and agg_call_count, is left as it was.
        """
        sizes = [len(row) for row in self.layers]
        index = self.append_leaf(text, meta)
        try:
            self.flush()
        except BaseException:
            # A failed flush assigned nothing, so the append is the only
            # change: drop a prepended root layer, then the appended nodes.
            del self.layers[: len(self.layers) - len(sizes)]
            for row, size in zip(self.layers, sizes):
                del row[size:]
            raise
        return index

    def flush(self) -> None:
        """Aggregate the parents of changed nodes, one layer at a time, leaves up.

        The leaves appended since the last flush start as changed. A parent
        aggregates its children's texts from the same flush; a node is
        changed when it is new or its text differs from the one it had, and
        the flush ends at the first layer with no changed node. When a layer
        has several aggregations and the aggregator waits on a chat
        endpoint, their calls run concurrently on the process's shared call
        pool, which keeps at most MAX_CONCURRENT_CALLS in flight
        (`call_concurrently`). Once one of a layer's calls has raised, the
        layer's calls that have not started are skipped. Nothing is assigned
        until every started aggregate call has returned, so a failed flush
        leaves texts and agg_call_count as they were, and its leaves stay
        unflushed.
        """
        M = self.memory_length
        changed = range(self.flushed_leaves, self.leaf_count)
        texts: dict[tuple[int, int], str] = {}
        for k in range(len(self.layers) - 2, -1, -1):
            if not changed:
                break
            parents = sorted({i // M for i in changed})
            below = self.layers[k + 1]
            inputs = [[texts.get((k + 1, j), below[j].text)
                       for j in range(i * M, min((i + 1) * M, len(below)))]
                      for i in parents]
            if self.aggregator.kind == REMOTE_AGGREGATOR_KIND:
                aggregated = call_concurrently(self.aggregator.aggregate, inputs)
            else:
                aggregated = [self.aggregator.aggregate(child_texts) for child_texts in inputs]
            texts.update(((k, i), text) for i, text in zip(parents, aggregated))
            changed = [i for i, text in zip(parents, aggregated) if text != self.layers[k][i].text]
        for (k, i), text in texts.items():
            self.layers[k][i].text = text
        self.agg_call_count += len(texts)
        self.flushed_leaves = self.leaf_count

    # ------------------------------------------------------------ persistence

    def serialize(self) -> str:
        """Stable compact JSON document; identical trees serialize byte-identically.

        Flushes first, so a document never holds a stale internal text.
        Keys are sorted and nothing is indented, which lets CPython's C
        encoder do the work; `deserialize` also reads indented documents.
        """
        self.flush()
        doc = {
            "format": DOC_FORMAT,
            "version": DOC_VERSION,
            "memory_length": self.memory_length,
            "aggregator": self.aggregator.spec(),
            "layers": [[{"text": node.text, "meta": node.meta} for node in row]
                       for row in self.layers],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def deserialize(cls, document: str, aggregator=None) -> "HatTree":
        """Rebuild a tree from `serialize` output, version 2 or 1.

        Texts and meta round-trip; agg_call_count resets to 0 and every leaf
        counts as flushed. With aggregator=None the aggregator is rebuilt
        from the document's recorded kind and params.
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
        if not _is_int(doc.get("version")) or doc["version"] not in (1, DOC_VERSION):
            raise DocumentParseError(f"unsupported document version {doc.get('version')!r}")
        memory_length = doc.get("memory_length")
        if not _is_int(memory_length) or memory_length < 2:
            raise DocumentParseError(f"bad memory_length {memory_length!r}")
        layers_doc = doc.get("layers")
        if not isinstance(layers_doc, list) or not all(isinstance(r, list) for r in layers_doc):
            raise DocumentParseError("layers must be a list of lists")
        sizes = [len(row) for row in layers_doc]
        want = _layer_sizes(sizes[-1] if sizes else 0, memory_length)
        if sizes != want:
            raise DocumentParseError(f"layer sizes {sizes} do not fit the leaf layer (want {want})")

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
                text, meta = entry.get("text"), entry.get("meta")
                if not isinstance(text, str):
                    raise DocumentParseError(f"node at layer {k} index {i}: text missing or not a string")
                if meta is not None and not isinstance(meta, dict):
                    raise DocumentParseError(f"node at layer {k} index {i}: meta must be an object or null")
                tree.layers[k].append(Node(text, meta))
        tree.flushed_leaves = tree.leaf_count
        return tree


def _layer_sizes(leaf_count: int, memory_length: int) -> list[int]:
    """Row sizes, root first: each is ceil(size below / M), up to one root.

    Only a 1-leaf tree has a one-node layer below its root.
    """
    if leaf_count == 0:
        return []
    if leaf_count == 1:
        return [1, 1]
    sizes = [leaf_count]
    while sizes[0] > 1:
        sizes.insert(0, -(-sizes[0] // memory_length))
    return sizes


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
