"""Layered aggregate tree whose shape follows from node positions alone.

Dialogue turns are the leaves, in the last layer; layer 0 holds the one
root, and each internal node's text is the aggregate of its children's (see
`HatTree.flush`). Node (k, i) has its parent at (k-1, i // M) and its
children at (k+1, i*M) up to (k+1, i*M + M - 1), M being the memory length,
so a node is its text and nothing else is stored: layer k of an n-leaf tree
holds ceil(n / M ** (depth - k)) texts. When the leaf layer is full
(M ** depth leaves), the next append prepends a new root layer.

A document (version 5) holds the format marker, the version, the memory
length, the aggregator spec, the texts of `layers` and each layer's node
metas (`meta`) as runs. Trees are written as version 5.

The texts are written in the order of `layers`, root row first and each row
left to right, and each distinct text is written once. The first node with a
given text writes it in one of two forms. Below the root, the writer seeks
each node's text in its parent's text, unless that text does not begin with
the first child's text or equals it: the first child at 0, each later one
from where the last one found ends, and none once one is not found. A text
found at `start` is written as the slice `[start, end]`, with
`parent[start:end] == text` in code points; any other is written as the
string. So a concat child is found where it sits, and the children of a
parent that holds none of them, as a truncate parent of turns, cost one
comparison. Each later node with the same text writes the integer n instead,
meaning the n-th distinct text written in the document, in either form,
counting from 0.
So the child of a concat or a clipped parent costs a few digits, a text that
recurs, such as a parent equal to its one child or a turn said twice, is
written once, and the nodes of one text share one `str` when the document is
loaded. A number must be an integer from 0 to one less than the number of
texts written before it, and a slice two integers with
`0 <= start <= end <= len(parent)`, never in the root row; anything else is
refused. Version 4 wrote no slice, and version 3 wrote every text as a
string, so a slice there, or a number in version 3, is refused.

A run `[count, meta]` stands for `count` adjacent nodes of one session, with
meta `{"session": s}`, or of none, with meta null, so the leaves of one
session, or the internal nodes of a layer, write one run. Versions 2 and 1
wrote each node as a `{"text", "meta"}` object; loading one first rewrites
it in memory as rows of texts and of one-node runs, so one reader checks
every version. A meta's "session" must be an integer or null; its other
keys, a session on an internal node, and the node ids, child ids, leaf count
and per-node aggregation caches that version 1 also carried, are ignored.
"""

from __future__ import annotations

import json
import threading
from itertools import compress, groupby
from typing import Optional

from .aggregation import LlmPersonaAggregator, aggregator_from_spec
from .errors import DocumentParseError, InvalidParameterError, NotFoundError
from .llm import call_concurrently, is_int

DOC_FORMAT = "hat-tree"
DOC_VERSION = 5


class HatTree:
    """The layered tree, its aggregator and the aggregator calls it made.

    `layers` lists the rows of texts, root first, sized for the current leaf
    count; an internal text is None until a flush covers it. `leaf_sessions`
    holds each leaf's session, an integer or None. `agg_call_count` counts
    the aggregator calls of committed flushes, not the texts they set.

    Writers must be exclusive: one append or flush at a time. A read
    of internal text flushes first, so while leaves are unflushed a read is
    a write too, and so is `read_while_flushing`. Any number of readers may
    query a flushed tree. A chat aggregator is called from several threads
    at once, so its client must be safe to share, as `LlmClient` is.
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

        Each new node above it holds None until the next flush. The session
        is the turn's session number, an integer, or None.
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
        """`append_leaf`, then `HatTree.flush`; return the leaf's index in the leaf layer."""
        index = self.append_leaf(text, session)
        self.flush()
        return index

    def flush(self) -> None:
        """Set the parents of changed nodes, one layer at a time, leaves up.

        The leaves appended since the last flush start as changed; a node is
        changed when it is new or its text differs from the one it had, and
        the flush ends at the first layer with none. A parent aggregates its
        children's texts from this flush, except a parent whose one child is
        internal: that child is a summary already, and the parent takes its
        text with no call. That equals the aggregate when `aggregate([x]) == x`
        for every x the aggregator made: concat and truncate hold it, the mock
        persona reply echoes its one line, and a live persona model is
        assumed to. Only a layer's last node can have one child, so a layer
        where the flush sets only such a node costs no round trip; a parent
        of one leaf is still aggregated, so a raw turn is always condensed.
        Every public read of internal text flushes first.

        A chat (`llm_persona`) aggregator's calls of one layer go out as one
        `call_concurrently` batch; other kinds run on the calling thread.
        Nothing is assigned until every started call has returned, so a
        failed flush leaves texts and agg_call_count as they were, and its
        leaves stay unflushed.
        """
        self._commit(*self._pending_texts())

    def _pending_texts(self, interrupted=()) -> tuple[dict[tuple[int, int], str], int]:
        """The text `flush` gives each node it sets, and the aggregator calls
        that took; changes nothing."""
        def aggregate(child_texts):
            if interrupted:  # see `read_while_flushing`: fails the batch and so the flush
                raise KeyboardInterrupt
            return self.aggregator.aggregate(child_texts)

        M = self.memory_length
        changed = range(self.flushed_leaves, self.leaf_count)
        texts: dict[tuple[int, int], str] = {}
        calls = 0
        for k in range(len(self.layers) - 2, -1, -1):
            if not changed:
                break
            parents = sorted({i // M for i in changed})
            below = self.layers[k + 1]
            inputs = [[texts.get((k + 1, j), below[j])
                       for j in range(i * M, min((i + 1) * M, len(below)))]
                      for i in parents]
            # A last parent whose one child is internal takes its text uncalled.
            passed = k + 2 < len(self.layers) and len(inputs[-1]) == 1
            sent = inputs[:-1] if passed else inputs
            # Only a chat aggregator waits; the others compute, which threads cannot overlap.
            if self.aggregator.kind == LlmPersonaAggregator.kind:
                aggregated = call_concurrently(aggregate, sent)
            else:
                aggregated = [aggregate(child_texts) for child_texts in sent]
            calls += len(sent)
            if passed:
                aggregated.append(inputs[-1][0])
            texts.update(((k, i), text) for i, text in zip(parents, aggregated))
            changed = [i for i, text in zip(parents, aggregated) if text != self.layers[k][i]]
        return texts, calls

    def _commit(self, texts: dict[tuple[int, int], str], calls: int) -> None:
        # Root first: a commit cut short leaves only lower texts stale, which the next flush redoes.
        for (k, i), text in reversed(texts.items()):
            self.layers[k][i] = text
        self.agg_call_count += calls
        self.flushed_leaves = self.leaf_count

    def read_while_flushing(self, read):
        """`read(self)` after a flush, with the pending flush run during the read.

        With nothing pending this is `read(self)`. Otherwise the flush
        computes on a new thread (not a call-pool worker, where
        `call_concurrently` would run a layer's calls one by one) while
        `read` runs here on a view of the pre-flush tree: `node_at`,
        `layer_size`, `layers` and `memory_length`, never flushing; reaching
        a node the flush creates stops the read. After the join a flush
        error is raised and nothing commits, as with `flush`; otherwise the
        flush commits. If the read ran to its end on texts the flush left
        unchanged, its result is returned or its exception raised; if not,
        `read(self)` runs again, where the reply memo (`llm.remembered`)
        answers its asks about unchanged texts. So a walk costs about the
        larger of flush and walk in round trips and gives what a walk after
        the flush gives; `read` must depend only on the texts it is served.

        If the read raises what is not an `Exception` (Ctrl-C), or such an
        interrupt lands while the flush is awaited, the flush starts no
        further call, as after a failed one, commits nothing, and the
        interrupt is raised again once the started calls have returned. That
        wait is on an event the flush thread sets, never a second `join`: on
        CPython 3.11 a join interrupted once returns at once when called
        again, and `is_alive()` reads False, while the thread still runs.
        """
        if self.flushed_leaves == self.leaf_count:
            return read(self)
        flushed: dict = {}
        interrupted: list = []
        done = threading.Event()

        def compute():
            try:
                flushed["pending"] = self._pending_texts(interrupted)
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
        self._commit(*flushed["pending"])
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
        The document is built here, so it holds no cycle, and the encoder's
        check for one, a dict entry per list, is skipped.
        """
        self.flush()
        # An internal node has no session, so each internal layer is one null run.
        meta = [[[len(row), None]] for row in self.layers[:-1]] + [_meta_runs(self.leaf_sessions)]
        doc = {
            "format": DOC_FORMAT,
            "version": DOC_VERSION,
            "memory_length": self.memory_length,
            "aggregator": self.aggregator.spec(),
            "layers": _shared_texts(self.layers, self.memory_length),
            "meta": meta if self.layers else [],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"

    @classmethod
    def deserialize(cls, document: str, aggregator=None) -> "HatTree":
        """Rebuild a tree from a document of version 5, 4, 3, 2 or 1 (module docstring).

        agg_call_count resets to 0 and every leaf counts as flushed. The
        aggregator is rebuilt from the document's recorded kind and params;
        a bound aggregator must have the rebuilt one's spec. Every malformed
        document, JSON nested too deep to parse included, is a
        `DocumentParseError`.
        """
        try:
            doc = json.loads(document)
        except (TypeError, ValueError, RecursionError) as exc:
            raise DocumentParseError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != DOC_FORMAT:
            raise DocumentParseError("missing or wrong format marker")
        # A bool or a float equal to an int would pass the comparisons below
        # and then be written back as loaded, so integer fields must be ints.
        if not is_int(doc.get("version")) or doc["version"] not in (1, 2, 3, 4, DOC_VERSION):
            raise DocumentParseError(f"unsupported document version {doc.get('version')!r}")
        memory_length = doc.get("memory_length")
        if not is_int(memory_length) or memory_length < 2:
            raise DocumentParseError(f"bad memory_length {memory_length!r}")
        layers_doc = doc.get("layers")
        if not isinstance(layers_doc, list) or not all(isinstance(r, list) for r in layers_doc):
            raise DocumentParseError("layers must be a list of lists")
        meta_doc = doc.get("meta")
        if doc["version"] < 3:
            if not all(isinstance(node, dict) for row in layers_doc for node in row):
                raise DocumentParseError("every node of a version-1 or version-2 layer must be an object")
            meta_doc = [[[1, node.get("meta")] for node in row] for row in layers_doc]
            layers_doc = [[node.get("text") for node in row] for row in layers_doc]
        sizes = [len(row) for row in layers_doc]
        want = _layer_sizes(sizes[-1] if sizes else 0, memory_length)
        if sizes != want:
            raise DocumentParseError(f"layer sizes {sizes} do not fit the leaf layer (want {want})")
        if doc["version"] >= 4:
            _resolve_texts(layers_doc, memory_length, slices=doc["version"] == 5)
        else:
            for k, row in enumerate(layers_doc):
                if not set(map(type, row)) <= {str}:
                    raise DocumentParseError(f"layer {k}: every text must be a string")

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
    """A read reached a node the pending flush creates; a BaseException, so
    that a read's own `except Exception` lets it through."""


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


def _shared_texts(layers: list[list[str]], memory_length: int) -> list[list]:
    """The rows as a document writes them: a text already written becomes its
    number, then a string found in its parent's text becomes its slice."""
    numbers: dict[str, int] = {}
    rows = []
    for row in layers:
        written = []
        for text in row:
            n = numbers.get(text)
            if n is None:
                numbers[text] = len(numbers)
                written.append(text)
            else:
                written.append(n)
        rows.append(written)
    # A slice is a tuple: cheaper to build than a list, and json writes it as an array.
    m = memory_length
    for above, row, written in zip(layers, layers[1:], rows[1:]):
        for j in compress(range(len(above)), map(str.startswith, above, row[::m])):
            parent, i = above[j], j * m
            end = len(row[i])
            if end == len(parent):
                continue  # the first child's text is the parent's, written before it
            if type(written[i]) is str:
                written[i] = (0, end)
            for i in range(i + 1, min(i + m, len(row))):
                start = parent.find(row[i], end)
                if start < 0:
                    break
                end = start + len(row[i])
                if type(written[i]) is str:
                    written[i] = (start, end)
    return rows


def _resolve_texts(layers_doc: list, memory_length: int, slices: bool) -> None:
    """Replace, in place, each number and slice of a version-5 or version-4
    document's rows, whose sizes fit, by its text, refusing every other
    non-string and, unless `slices`, every slice."""
    texts: list[str] = []
    above = None
    for k, row in enumerate(layers_doc):
        # JSON values have exact types, so `type(v) is int` is `is_int(v)` here.
        for i, value in enumerate(row):
            if type(value) is str:
                texts.append(value)
            elif type(value) is list and slices and k > 0:
                parent = above[i // memory_length]
                start, end = value if len(value) == 2 else (None, None)
                if not (type(start) is int and type(end) is int and 0 <= start <= end <= len(parent)):
                    raise DocumentParseError(
                        f"layer {k} node {i}: want a slice [start, end] of the "
                        f"{len(parent)} characters of its parent's text, got {value!r:.40}")
                row[i] = text = parent[start:end]
                texts.append(text)
            elif type(value) is int and 0 <= value < len(texts):
                row[i] = texts[value]
            else:
                raise DocumentParseError(
                    f"layer {k} node {i}: want a text, "
                    f"{'a slice of its parent, ' if slices and k > 0 else ''}"
                    f"or the number of one of the {len(texts)} texts before it, got {value!r:.40}")
        above = row


def _read_runs(layers_doc: list, meta_doc) -> list[Optional[int]]:
    """The leaf sessions of the meta runs, once every layer's runs check out.

    A session in an internal layer's runs is checked, then dropped.
    """
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
    sessions: list[Optional[int]] = []
    for count, session in counted:
        sessions += [session] * count
    return sessions


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
