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


def concat_texts(leaves: list[str], M: int, separator: str) -> list[list[str]]:
    """Expected node texts under the concat aggregator: flat joins per span."""
    spans = leaf_spans(len(leaves), M)
    return [[separator.join(leaves[lo:hi]) for lo, hi in layer] for layer in spans]


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
