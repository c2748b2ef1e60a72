"""Dialogue generation metrics: BLEU-1/2, DISTINCT-1/2, and token F1.

All metrics share one whitespace tokenizer and are computed from scratch, so
scores from different runs of this package are comparable with each other.
They are deliberately simple variants:

* BLEU-n is corpus-level clipped n-gram precision for that single order
  (no geometric mean across orders) times the usual brevity penalty
  ``exp(min(0, 1 - r/c))``.
* F1 uses multiset (clipped) unigram overlap, the common dialogue
  convention.

Do not compare the absolute numbers against other toolkits' BLEU.
"""

from __future__ import annotations

import math
import string
from collections import Counter

from .errors import InvalidParameterError

_STRIP_CHARS = string.punctuation + string.whitespace


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation per chunk."""
    tokens = []
    for chunk in text.lower().split():
        chunk = chunk.strip(_STRIP_CHARS)
        if chunk:
            tokens.append(chunk)
    return tokens


# Function words: they say little about what a text is about.
_STOPWORDS = frozenset("""
a an the this that these those some any each
i you he she it we they me him her us them
my your his its our their mine yours
am is are was were be been being do does did doing have has had having
will would can could shall should may might must
what which who whom whose where when how why whether
and or but nor so yet if then else because while since as than
of on in at to for with about into over under from by up down out off
no not never ever always really just also too only quite
tell say says said ask asks asked please thanks
""".split())


def informative_tokens(text: str) -> list[str]:
    """`tokenize(text)` without the stopwords."""
    return [token for token in tokenize(text) if token not in _STOPWORDS]


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(pairs: list[tuple[str, str]], n: int) -> float:
    """Corpus-level BLEU for a single n-gram order over (candidate, reference) pairs.

    Candidates shorter than ``n`` tokens simply contribute zero n-grams.
    An entirely empty candidate corpus scores 0.0.
    """
    if type(n) is not int or n not in (1, 2):  # refuses True and 1.0
        raise InvalidParameterError(f"n must be 1 or 2, got {n!r}")
    if not pairs:
        raise InvalidParameterError("pairs must be nonempty")
    clipped = 0
    total = 0
    ref_len = 0
    cand_len = 0
    for candidate, reference in pairs:
        cand_tokens = tokenize(candidate)
        ref_tokens = tokenize(reference)
        cand_counts = _ngram_counts(cand_tokens, n)
        ref_counts = _ngram_counts(ref_tokens, n)
        clipped += sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
        total += sum(cand_counts.values())
        cand_len += len(cand_tokens)
        ref_len += len(ref_tokens)
    if total == 0 or cand_len == 0:
        return 0.0
    precision = clipped / total
    brevity = math.exp(min(0.0, 1.0 - ref_len / cand_len))
    return precision * brevity


def distinct_n(candidates: list[str], n: int) -> float:
    """Distinct n-grams across all candidates over total n-grams; 0.0 when there are none."""
    if type(n) is not int or n not in (1, 2):  # refuses True and 1.0
        raise InvalidParameterError(f"n must be 1 or 2, got {n!r}")
    seen: set[tuple[str, ...]] = set()
    total = 0
    for candidate in candidates:
        tokens = tokenize(candidate)
        grams = [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
        seen.update(grams)
        total += len(grams)
    if total == 0:
        return 0.0
    return len(seen) / total


def f1(candidate: str, reference: str) -> float:
    """Harmonic mean of clipped unigram precision and recall.

    Computed as 2*overlap / (candidate length + reference length), which is
    the same quantity with a single rounding step. Both sides empty scores
    1.0; exactly one side empty scores 0.0.
    """
    cand_counts = Counter(tokenize(candidate))
    ref_counts = Counter(tokenize(reference))
    if not cand_counts and not ref_counts:
        return 1.0
    if not cand_counts or not ref_counts:
        return 0.0
    overlap = sum(min(count, ref_counts[token]) for token, count in cand_counts.items())
    return 2 * overlap / (sum(cand_counts.values()) + sum(ref_counts.values()))


def score_pairs(pairs: list[tuple[str, str]]) -> dict:
    """Scores for (candidate, reference) pairs, each in [0, 1], plus their count.

    Keys: bleu1, bleu2, distinct1, distinct2, f1 (the per-pair mean) and counts.
    """
    if not pairs:
        raise InvalidParameterError("pairs must be nonempty")
    candidates = [candidate for candidate, _ in pairs]
    # fsum rounds once, so the mean has the same bits on every Python version.
    mean_f1 = math.fsum(f1(candidate, reference) for candidate, reference in pairs) / len(pairs)
    return {
        "bleu1": bleu_n(pairs, 1),
        "bleu2": bleu_n(pairs, 2),
        "distinct1": distinct_n(candidates, 1),
        "distinct2": distinct_n(candidates, 2),
        "f1": mean_f1,
        "counts": len(pairs),
    }
