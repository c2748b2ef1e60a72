"""Layered aggregate tree whose shape follows from node positions alone.

The tree stores dialogue turns as leaves in its last layer. Every internal
node's text is the aggregate of its children's texts, and layer 0 always
holds the single root. Node (layer k, index i) has its parent at
(k-1, i // M) and its children at (k+1, i*M) up to (k+1, i*M + M - 1), where
M is the memory length. Nothing else is stored: a layer is a list of texts,
and layer k of an n-leaf tree holds ceil(n / M ** (depth - k)) of them. When
the leaf layer is full (M ** depth leaves), a new root layer is prepended.

Appending a leaf only places it, with `None` for the text of any internal
node it creates; no aggregator runs. `flush` works up from the leaves
appended since the last flush, one layer at a time: it aggregates the
parents of the nodes that changed, and a node changed when it is new or its
new text differs from its old one. A node whose children did not change is
not aggregated again, and the flush stops at the first layer where nothing
changed. Every public read of internal text flushes first, and
`insert_leaf` is an append plus a flush. A flush sends one layer's chat (`llm_persona`) aggregations
concurrently on the process's one long-lived call pool, so at most
MAX_CONCURRENT_CALLS (8) are in flight at a time across all flushes and
walks; other kinds run on the calling thread.

One read may run during a pending flush (`read_while_flushing`): the flush
computes on a thread of its own while the read sees the texts as they stood
before it. The flush commits only after that read has returned, and the read
runs again on the flushed tree unless every text it used came through the
flush unchanged. Ctrl-C during that read stops the flush (see there).

A node is its text. `layers` holds each layer's texts, root first, and
`leaf_sessions` the integer session of each leaf's turn or None. A document
(version 3) holds the format marker, the version, the memory length, the
aggregator spec, `layers` as it is and each layer's node metas (`meta`) as
runs. A run `[count, meta]` stands for `count` adjacent nodes of one session,
with meta `{"session": s}`, or of none, with meta null, so the leaves of one
session, or the internal nodes of a layer, write one run. Versions 2 and 1
wrote each node as a `{"text", "meta"}` object; loading one first rewrites
it in memory as rows of texts and of one-node runs, so one reader checks
every version. A meta's "session" must be an integer or null; its other
keys, a session on an internal node, and the node ids, child ids, leaf count
and per-node aggregation caches that version 1 also carried, are ignored.
Trees are written as version 3.
"""

from __future__ import annotations

import json
import threading
from itertools import groupby, repeat
from typing import Optional

from .aggregation import LlmPersonaAggregator, aggregator_from_spec
from .errors import DocumentParseError, InvalidParameterError, NotFoundError
from .llm import call_concurrently, is_int

DOC_FORMAT = "hat-tree"
DOC_VERSION = 3


class HatTree:
    """The layered tree plus its aggregator binding and call instrumentation.

    `layers` lists the rows of texts top-down, root first, always sized for
    the current leaf count; an internal text is None until the first flush
    that covers it. `leaf_sessions` holds each leaf's session, an integer or
    None. A node has no id, no links and no cache, since its position fixes
    its parent and children, and a flush re-aggregates only nodes whose
    children changed. `serialize` writes document version 3, the leaves'
    sessions as runs of equal sessions; `deserialize` reads versions 3, 2
    and 1.

    Writers must be exclusive: one append, flush or insert at a time. A read
    of internal text flushes first, so while leaves are unflushed a read is
    a write too. So is `read_while_flushing`: its one read runs during the
    pending flush, against the pre-flush texts, and the flush commits after
    that read has returned. Any number of readers may query a flushed tree.
    A flush calls a chat aggregator from up to MAX_CONCURRENT_CALLS (8)
    threads at once, so its client must be safe to share across threads, as
    `LlmClient` is.
    """

    def __init__(self, memory_length: int, aggregator):
        # M=1 would put a single node on every layer and grow depth per leaf.
        if not is_int(memory_length):
            raise InvalidParameterError("memory_length must be an integer")
        if memory_length < 2:
            raise InvalidParameterError(f"memory_length must be >= 2, got {memory_length}")
        self.memory_length = memory_length
        self.aggregator = aggregator
        self.layers: list[list[Optional[str]]] = []
        self.leaf_sessions: list[Optional[int]] = []
        self.agg_call_count = 0
        # Leaves whose ancestors the last successful flush aggregated.
        self.flushed_leaves = 0

    # ------------------------------------------------------------------ reads

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_sessions)

    def depth(self) -> int:
        return max(len(self.layers) - 1, 0)

    def layer_size(self, layer: int) -> int:
        if layer < 0 or layer >= len(self.layers):
            raise NotFoundError(f"layer {layer} out of range (depth {self.depth()})")
        return len(self.layers[layer])

    def node_at(self, layer: int, index: int) -> str:
        """The text of node (layer, index), flushing first."""
        self._check_index(layer, index)
        self.flush()
        return self.layers[layer][index]

    def _check_index(self, layer: int, index: int) -> None:
        size = self.layer_size(layer)
        if index < 0 or index >= size:
            raise NotFoundError(f"index {index} out of range in layer {layer} (size {size})")

    def root_text(self) -> str:
        if not self.layers:
            raise NotFoundError("tree is empty")
        return self.node_at(0, 0)

    # ----------------------------------------------------------------- writes

    def append_leaf(self, text: str, session: Optional[int] = None) -> int:
        """Place one leaf without aggregating; return its index in the leaf layer.

        Grows a new root layer first when the leaf layer is at capacity, and
        adds a `None` text to each layer above that needs one more node. The
        ancestors are aggregated by the next `flush` or read of internal text.
        The session is the turn's session number, an integer, or None.
        """
        if not isinstance(text, str) or not text:
            raise InvalidParameterError("leaf text must be a nonempty string")
        if session is not None and not is_int(session):
            raise InvalidParameterError(
                f"leaf session must be an integer or None, got a {type(session).__name__}")
        M = self.memory_length
        if not self.layers:
            # The root layer and the leaf layer appear with the first leaf.
            self.layers = [[], []]
        elif self.leaf_count == M ** self.depth():
            self.layers.insert(0, [None])
        self.layers[-1].append(text)
        self.leaf_sessions.append(session)
        for k in range(len(self.layers) - 2, -1, -1):
            if len(self.layers[k]) * M >= len(self.layers[k + 1]):
                break
            self.layers[k].append(None)
        return self.leaf_count - 1

    def insert_leaf(self, text: str, session: Optional[int] = None) -> int:
        """Append one leaf, then flush; return its index in the leaf layer.

        If aggregation fails, the append is undone and the tree, including
        earlier unflushed appends and agg_call_count, is left as it was. An
        interrupt during the commit that follows keeps the leaf, unflushed,
        with some texts above it assigned and some stale; the next flush
        redoes them, as after a `flush` cut the same way.
        """
        sizes = [len(row) for row in self.layers]
        index = self.append_leaf(text, session)
        try:
            texts = self._pending_texts()
        except BaseException:
            # Nothing was assigned, so the append is the only change: drop
            # a prepended root layer, then the appended nodes.
            del self.layers[: len(self.layers) - len(sizes)]
            for row, size in zip(self.layers, sizes):
                del row[size:]
            self.leaf_sessions.pop()
            raise
        self._commit(texts)
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
        self._commit(self._pending_texts())

    def _pending_texts(self, interrupted=()) -> dict[tuple[int, int], str]:
        """The text `flush` gives each node it aggregates; changes nothing."""
        def aggregate(child_texts):
            if interrupted:  # see `read_while_flushing`: fails the batch and so the flush
                raise KeyboardInterrupt
            return self.aggregator.aggregate(child_texts)

        M = self.memory_length
        changed = range(self.flushed_leaves, self.leaf_count)
        texts: dict[tuple[int, int], str] = {}
        for k in range(len(self.layers) - 2, -1, -1):
            if not changed:
                break
            parents = sorted({i // M for i in changed})
            below = self.layers[k + 1]
            inputs = [[texts.get((k + 1, j), below[j])
                       for j in range(i * M, min((i + 1) * M, len(below)))]
                      for i in parents]
            # Only a chat aggregator waits; the others compute, which threads cannot overlap.
            if self.aggregator.kind == LlmPersonaAggregator.kind:
                aggregated = call_concurrently(aggregate, inputs)
            else:
                aggregated = [aggregate(child_texts) for child_texts in inputs]
            texts.update(((k, i), text) for i, text in zip(parents, aggregated))
            changed = [i for i, text in zip(parents, aggregated) if text != self.layers[k][i]]
        return texts

    def _commit(self, texts: dict[tuple[int, int], str]) -> None:
        # Root first: a commit cut short leaves only lower texts stale, which the next flush redoes.
        for (k, i), text in reversed(texts.items()):
            self.layers[k][i] = text
        self.agg_call_count += len(texts)
        self.flushed_leaves = self.leaf_count

    def read_while_flushing(self, read):
        """`read(self)` after a flush, with the pending flush run during the read.

        With nothing pending this is `read(self)`. Otherwise the flush
        computes on a new thread (not a call-pool worker, where
        `call_concurrently` would run a layer's aggregations one by one)
        while `read` runs here on a view of the pre-flush tree: `node_at`,
        `layer_size`, `layers` and `memory_length`, never flushing. Reaching
        a node the flush creates, which has no text yet, stops the read.
        After the join a flush error is raised and nothing commits, as with
        `flush`. Otherwise the flush commits. If the read ran to its end on
        texts the flush left unchanged, its result is returned or its
        exception raised; if not, `read(self)` runs again.

        If the read raises what is not an `Exception` (Ctrl-C), or such an
        interrupt lands while the flush is awaited, the flush starts no
        further call, as after a failed one, commits nothing, and the
        interrupt is raised again once the started calls have returned. That
        wait is on an event the flush thread sets, never a second `join`: on
        CPython 3.11 a join interrupted once returns at once when called
        again, and `is_alive()` reads False, while the thread still runs.

        `read` must depend only on the texts it is served, so a walk's calls
        depend on the tree, never on timing. The client's memo
        (`llm.remembered`) answers a second walk's asks about every unchanged
        text; it costs the asks about texts that the flush changed.
        """
        if self.flushed_leaves == self.leaf_count:
            return read(self)
        flushed: dict = {}
        interrupted: list = []
        done = threading.Event()

        def compute():
            try:
                flushed["texts"] = self._pending_texts(interrupted)
            except BaseException as error:  # raised on the calling thread
                flushed["error"] = error
            finally:
                done.set()

        worker = threading.Thread(target=compute, name="hatmem-flush")
        worker.start()
        view = _PreFlushView(self)
        stopped, failure = False, None
        try:
            try:
                value = read(view)
            except _Unflushed:
                stopped = True
            except Exception as error:
                failure = error
            worker.join()
        except BaseException:  # Ctrl-C and the like, in the read or in the join
            interrupted.append(True)
            done.wait()
            raise
        if "error" in flushed:
            raise flushed["error"]
        self._commit(flushed["texts"])
        if stopped or any(self.layers[k][i] != text for (k, i), text in view.served.items()):
            return read(self)
        if failure is not None:
            raise failure
        return value

    # ------------------------------------------------------------ persistence

    def serialize(self) -> str:
        """Stable compact JSON document; identical trees serialize byte-identically.

        Flushes first, so a document never holds a stale internal text.
        Keys are sorted and nothing is indented, which lets CPython's C
        encoder do the work; `deserialize` also reads indented documents.
        """
        self.flush()
        # An internal node has no session, so each internal layer is one null run.
        meta = [[[len(row), None]] for row in self.layers[:-1]] + [_meta_runs(self.leaf_sessions)]
        doc = {
            "format": DOC_FORMAT,
            "version": DOC_VERSION,
            "memory_length": self.memory_length,
            "aggregator": self.aggregator.spec(),
            "layers": self.layers,
            "meta": meta if self.layers else [],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def deserialize(cls, document: str, aggregator=None) -> "HatTree":
        """Rebuild a tree from `serialize` output, version 3, 2 or 1.

        Each row of node objects in version 2 or 1 becomes texts and runs
        `[1, meta]`, so every version gets `_read_runs`'s checks. The tree
        adopts the checked rows of texts. Texts and leaf sessions round-trip;
        a meta's keys other than "session", and the session of an internal
        node, are ignored. agg_call_count resets to 0 and every leaf counts
        as flushed. The aggregator is rebuilt from the document's recorded
        kind and params; a bound aggregator must have the rebuilt one's
        spec. JSON nested too deep to parse is a `DocumentParseError` too.
        """
        try:
            doc = json.loads(document)
        except (TypeError, ValueError, RecursionError) as exc:
            raise DocumentParseError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != DOC_FORMAT:
            raise DocumentParseError("missing or wrong format marker")
        # A bool or a float equal to an int would pass the comparisons below
        # and then be written back as loaded, so integer fields must be ints.
        if not is_int(doc.get("version")) or doc["version"] not in (1, 2, DOC_VERSION):
            raise DocumentParseError(f"unsupported document version {doc.get('version')!r}")
        memory_length = doc.get("memory_length")
        if not is_int(memory_length) or memory_length < 2:
            raise DocumentParseError(f"bad memory_length {memory_length!r}")
        layers_doc = doc.get("layers")
        if not isinstance(layers_doc, list) or not all(isinstance(r, list) for r in layers_doc):
            raise DocumentParseError("layers must be a list of lists")
        meta_doc = doc.get("meta")
        if doc["version"] < DOC_VERSION:
            if not all(isinstance(node, dict) for row in layers_doc for node in row):
                raise DocumentParseError("every node of a version-1 or version-2 layer must be an object")
            meta_doc = [[[1, node.get("meta")] for node in row] for row in layers_doc]
            layers_doc = [[node.get("text") for node in row] for row in layers_doc]
        sizes = [len(row) for row in layers_doc]
        want = _layer_sizes(sizes[-1] if sizes else 0, memory_length)
        if sizes != want:
            raise DocumentParseError(f"layer sizes {sizes} do not fit the leaf layer (want {want})")

        agg_spec = doc.get("aggregator")
        if not isinstance(agg_spec, dict) or "kind" not in agg_spec:
            raise DocumentParseError("missing aggregator spec")
        try:
            recorded = aggregator_from_spec(agg_spec["kind"], agg_spec.get("params"))
        except InvalidParameterError as exc:
            raise DocumentParseError(str(exc)) from exc
        if aggregator is None:
            aggregator = recorded
        elif aggregator.spec() != recorded.spec():
            raise DocumentParseError(f"aggregator mismatch: document has {recorded.spec()!r}, "
                                     f"caller bound {aggregator.spec()!r}")

        tree = cls(memory_length, aggregator)
        tree.leaf_sessions = _read_runs(layers_doc, meta_doc)
        tree.layers = layers_doc
        tree.flushed_leaves = tree.leaf_count
        return tree


class _Unflushed(BaseException):
    """A read reached a node the pending flush creates; it runs again after the flush.

    A BaseException, so that a read's own `except Exception` lets it through.
    """


class _PreFlushView:
    """The tree as one `read_while_flushing` read sees it; see there."""

    def __init__(self, tree: HatTree):
        self.layers = tree.layers
        self.memory_length = tree.memory_length
        self.layer_size = tree.layer_size
        self._tree = tree
        # (layer, index) -> the pre-flush text served for it.
        self.served: dict[tuple[int, int], str] = {}

    def node_at(self, layer: int, index: int) -> str:
        self._tree._check_index(layer, index)
        text = self.layers[layer][index]
        if text is None:
            raise _Unflushed
        self.served[layer, index] = text
        return text


def _meta_runs(sessions: list[Optional[int]]) -> list[list]:
    """The sessions as runs `[count, {"session": s} or null]` of adjacent equal sessions."""
    return [[len(list(group)), None if session is None else {"session": session}]
            for session, group in groupby(sessions)]


def _read_runs(layers_doc: list, meta_doc) -> list[Optional[int]]:
    """The leaf sessions of the meta runs, once every layer's texts and runs check out.

    A session in an internal layer's runs is checked, then dropped.
    """
    for k, row in enumerate(layers_doc):
        if not set(map(type, row)) <= {str}:
            raise DocumentParseError(f"layer {k}: every text must be a string")
    if not isinstance(meta_doc, list) or len(meta_doc) != len(layers_doc):
        raise DocumentParseError("meta must hold one run list per layer")
    counted = []
    for k, (row, runs) in enumerate(zip(layers_doc, meta_doc)):
        if not isinstance(runs, list):
            raise DocumentParseError(f"layer {k}: meta runs must be a list")
        counted = []
        for j, run in enumerate(runs):
            if not (isinstance(run, list) and len(run) == 2 and is_int(run[0]) and run[0] >= 1
                    and (run[1] is None or isinstance(run[1], dict))):
                raise DocumentParseError(
                    f"layer {k} meta run {j}: want [count >= 1, object or null]")
            session = (run[1] or {}).get("session")
            if session is not None and not is_int(session):
                raise DocumentParseError(f"layer {k} meta run {j}: session must be an integer "
                                         f"or null, got a {type(session).__name__}")
            counted.append((run[0], session))
        # Summed before any run is expanded, so a huge count allocates nothing.
        covered = sum(count for count, _ in counted)
        if covered != len(row):
            raise DocumentParseError(f"layer {k}: meta runs cover {covered} nodes, not {len(row)}")
    # The leaf layer is the last, so its runs are the ones left in `counted`.
    return [s for count, session in counted for s in repeat(session, count)]


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
