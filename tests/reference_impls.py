"""Independent reference implementations used to cross-check the package.

Everything here is computed directly from the definitions, favoring
obviousness over speed, and shares no code with the package under test.
"""

from __future__ import annotations

import math
import string


# ------------------------------------------------------------- tree structure

def expected_depth(n: int, M: int) -> int:
    """Smallest d with M**d >= n for n >= 2; 0 or 1 for the tiny cases."""
    if n <= 1:
        return n
    d = 1
    while M ** d < n:
        d += 1
    return d


def leaf_spans(n: int, M: int) -> list[list[tuple[int, int]]]:
    """Per-layer [lo, hi) leaf ranges forced by the floor(i/M) parent rule.

    Node (k, i) covers exactly the leaves whose index floor-divides to i
    after d-k halvings by M, so layer k holds ceil(n / M**(d-k)) nodes.
    """
    if n == 0:
        return []
    d = expected_depth(n, M)
    layers = []
    for k in range(d + 1):
        span = M ** (d - k)
        count = math.ceil(n / span)
        layers.append([(i * span, min((i + 1) * span, n)) for i in range(count)])
    return layers


def session_runs(sessions: list) -> list[list]:
    """Version-3 meta runs: [count, {"session": s} or None] per maximal
    stretch of adjacent equal sessions."""
    runs: list[list] = []
    for session in sessions:
        meta = None if session is None else {"session": session}
        if runs and runs[-1][1] == meta:
            runs[-1][0] += 1
        else:
            runs.append([1, meta])
    return runs


def concat_texts(leaves: list[str], M: int, separator: str) -> list[list[str]]:
    """Expected node texts under the concat aggregator: flat joins per span."""
    spans = leaf_spans(len(leaves), M)
    return [[separator.join(leaves[lo:hi]) for lo, hi in layer] for layer in spans]


def full_recompute(leaves: list[str], M: int, aggregate) -> list[list[str]]:
    """Node texts per layer, root first, with every internal node aggregated.

    Groups of M consecutive nodes are folded into one parent, from the
    leaves up, until a single root is left; a lone leaf still gets a root
    above it. Nothing is skipped or reused.
    """
    if not leaves:
        return []
    layers = [list(leaves)]
    while len(layers) == 1 or len(layers[0]) > 1:
        below = layers[0]
        layers.insert(0, [aggregate(below[i:i + M]) for i in range(0, len(below), M)])
    return layers


def child_text_lists(layers: list[list[str]], M: int) -> dict[tuple[int, int], list[str]]:
    """Each internal node's list of child texts, keyed by (height, index).

    Height counts layers above the leaves, so a node keeps its key when a
    new root layer is added above it.
    """
    depth = len(layers) - 1
    return {(depth - k, i): layers[k + 1][i * M:(i + 1) * M]
            for k in range(depth) for i in range(len(layers[k]))}


# ------------------------------------------------------------------- metrics

def naive_tokenize(text: str) -> list[str]:
    tokens = []
    for chunk in text.lower().split():
        token = chunk.strip(string.punctuation + string.whitespace)
        if token:
            tokens.append(token)
    return tokens


def _grams(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def naive_bleu(pairs: list[tuple[str, str]], n: int) -> float:
    clipped = 0
    total = 0
    cand_len = 0
    ref_len = 0
    for candidate, reference in pairs:
        cand_tokens = naive_tokenize(candidate)
        ref_tokens = naive_tokenize(reference)
        cand_len += len(cand_tokens)
        ref_len += len(ref_tokens)
        cand_grams = _grams(cand_tokens, n)
        ref_grams = _grams(ref_tokens, n)
        total += len(cand_grams)
        for gram in set(cand_grams):
            clipped += min(cand_grams.count(gram), ref_grams.count(gram))
    if total == 0 or cand_len == 0:
        return 0.0
    brevity = math.exp(min(0.0, 1.0 - ref_len / cand_len))
    return (clipped / total) * brevity


def naive_distinct(candidates: list[str], n: int) -> float:
    all_grams = []
    for candidate in candidates:
        all_grams.extend(_grams(naive_tokenize(candidate), n))
    if not all_grams:
        return 0.0
    return len(set(all_grams)) / len(all_grams)


def naive_f1(candidate: str, reference: str) -> float:
    cand_tokens = naive_tokenize(candidate)
    ref_tokens = naive_tokenize(reference)
    if not cand_tokens and not ref_tokens:
        return 1.0
    if not cand_tokens or not ref_tokens:
        return 0.0
    overlap = 0
    for token in set(cand_tokens):
        overlap += min(cand_tokens.count(token), ref_tokens.count(token))
    if overlap == 0:
        return 0.0
    precision = overlap / len(cand_tokens)
    recall = overlap / len(ref_tokens)
    return 2 * precision * recall / (precision + recall)


# ------------------------------------------------------------ search oracles

def bfs_visit_order(layer_sizes: list[int]) -> list[tuple[int, int]]:
    return [(k, i) for k, size in enumerate(layer_sizes) for i in range(size)]


def dfs_visit_order(layer_sizes: list[int], M: int) -> list[tuple[int, int]]:
    order = []

    def visit(k: int, i: int):
        order.append((k, i))
        if k + 1 < len(layer_sizes):
            for j in range(i * M, min((i + 1) * M, layer_sizes[k + 1])):
                visit(k + 1, j)

    if layer_sizes:
        visit(0, 0)
    return order


def plain_scan(order: list[tuple[int, int]], text_at, is_sufficient, budget: int) -> dict:
    """A budgeted scan that asks the oracle about every node it visits.

    Returns the outcome name, accepted text, path of (coordinate, verdict)
    pairs, steps taken and the texts consulted, in order and with repeats.
    """
    path = []
    consulted = []
    for coord in order:
        if len(path) >= budget:
            return {"outcome": "budget_exhausted", "text": None, "path": path,
                    "steps": len(path), "consulted": consulted}
        text = text_at(coord)
        consulted.append(text)
        if is_sufficient(text):
            path.append((coord, "accept"))
            return {"outcome": "sufficient", "text": text, "path": path,
                    "steps": len(path), "consulted": consulted}
        path.append((coord, "reject"))
    return {"outcome": "insufficient", "text": None, "path": path,
            "steps": len(path), "consulted": consulted}


def plain_walk(layer_sizes: list[int], M: int, decide, budget: int) -> dict:
    """A budgeted agent walk that asks about one node at a time, from the root.

    `decide(coord, path)` names the action ("up", "down", "left", "right",
    "start", "accept" or "reject") at `coord`, given the (coordinate, action)
    pairs of the steps before. A move off the structure leaves the cursor
    where it is and ends the walk as insufficient. Returns the outcome name,
    the coordinate accepted, the path and the steps taken; a walk asks once
    per step.
    """
    coord = (0, 0)
    path: list = []
    while len(path) < budget:
        action = decide(coord, list(path))
        path.append((coord, action))
        if action in ("accept", "reject"):
            outcome = "sufficient" if action == "accept" else "insufficient"
            return {"outcome": outcome, "coord": coord if action == "accept" else None,
                    "path": path, "steps": len(path)}
        k, i = coord
        moves = {
            "start": (0, 0),
            "up": (k - 1, i // M) if k > 0 else coord,
            "down": (k + 1, i * M) if k + 1 < len(layer_sizes) and i * M < layer_sizes[k + 1] else coord,
            "left": (k, i - 1) if i > 0 else coord,
            "right": (k, i + 1) if i + 1 < layer_sizes[k] else coord,
        }
        if moves[action] == coord:
            return {"outcome": "insufficient", "coord": None, "path": path, "steps": len(path)}
        coord = moves[action]
    return {"outcome": "budget_exhausted", "coord": None, "path": path, "steps": len(path)}

