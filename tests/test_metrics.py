"""Metric definitions, golden values, and brute-force agreement."""

from __future__ import annotations

import math
import random

import pytest

from reference_impls import naive_bleu, naive_distinct, naive_f1

from hatmem.errors import InvalidParameterError
from hatmem.metrics import bleu_n, distinct_n, f1, score_pairs, tokenize

BLEU1_GOLDEN = 1.0 * math.exp(1.0 - 4.0 / 3.0)  # independently 0.7165313105737893


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("The cat, sat.") == ["the", "cat", "sat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_case_folding(self):
        assert tokenize("A a A") == ["a", "a", "a"]

    def test_inner_punctuation_kept(self):
        assert tokenize("it's a co-op") == ["it's", "a", "co-op"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("... !! --") == []


class TestBleu:
    def test_identity_scores_one(self):
        assert bleu_n([("the cat sat", "the cat sat")], 1) == 1.0
        assert bleu_n([("the cat sat", "the cat sat")], 2) == 1.0

    def test_hand_computed_example(self):
        got = bleu_n([("the cat sat", "the cat sat down")], 1)
        assert got == pytest.approx(BLEU1_GOLDEN, abs=1e-12)
        assert got == pytest.approx(0.7165, abs=1e-4)

    def test_bigram_precision_not_cumulative(self):
        # 2 of 4 candidate bigrams match; candidate longer than reference.
        got = bleu_n([("the cat sat on mat", "the cat sat down")], 2)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_vocabulary_scores_zero(self):
        assert bleu_n([("aa bb", "cc dd")], 1) == 0.0

    def test_short_candidate_contributes_no_bigrams(self):
        assert bleu_n([("a", "a b")], 2) == 0.0

    def test_empty_candidate_corpus(self):
        assert bleu_n([("", "reference text")], 1) == 0.0

    def test_clipping_counts_repeats_once(self):
        # "the the the" vs one "the": clipped 1/3, brevity exp(1-2/3)... c=3 > r=2 so BP=1.
        got = bleu_n([("the the the", "the end")], 1)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_identity_monotonicity(self):
        pairs = [("same text", "same text")] * 3
        base = bleu_n(pairs, 1)
        assert bleu_n(pairs + [("same text", "same text")], 1) >= base

    def test_rejects_bad_order_and_empty(self):
        with pytest.raises(InvalidParameterError):
            bleu_n([("a", "a")], 3)
        for n in (True, 1.0):
            with pytest.raises(InvalidParameterError):
                bleu_n([("a b", "a b")], n)
        with pytest.raises(InvalidParameterError):
            bleu_n([], 1)


class TestDistinct:
    def test_rejects_bad_order(self):
        with pytest.raises(InvalidParameterError, match="n must be 1 or 2, got 3"):
            distinct_n(["a b c"], 3)
        with pytest.raises(InvalidParameterError, match="n must be 1 or 2, got True"):
            distinct_n(["a b c"], True)

    def test_examples(self):
        assert distinct_n(["a a b"], 1) == 2.0 / 3.0
        assert distinct_n(["a a a a"], 1) == 0.25
        assert distinct_n(["x y z"], 1) == 1.0

    def test_zero_total_defined_as_zero(self):
        assert distinct_n([""], 1) == 0.0
        assert distinct_n(["one"], 2) == 0.0

    def test_counts_across_candidates(self):
        assert distinct_n(["a b", "b c"], 1) == 3.0 / 4.0

    def test_permutation_invariance(self, rng):
        candidates = [f"w{rng.randint(0, 5)} w{rng.randint(0, 5)} z" for _ in range(10)]
        shuffled = candidates[:]
        rng.shuffle(shuffled)
        for n in (1, 2):
            assert distinct_n(candidates, n) == distinct_n(shuffled, n)


class TestF1:
    def test_examples(self):
        assert f1("a b c", "a b c") == 1.0
        assert f1("a b c", "b c d") == 2.0 / 3.0
        assert f1("a b", "c d") == 0.0

    def test_empty_conventions(self):
        assert f1("", "") == 1.0
        assert f1("a", "") == 0.0
        assert f1("", "a") == 0.0

    def test_multiset_clipping(self):
        assert f1("a a", "a") == pytest.approx(2.0 / 3.0, abs=1e-12)


class TestBruteForceAgreement:
    def test_100_random_cases(self):
        rng = random.Random(20240817)
        vocabulary = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
        for _ in range(100):
            pairs = []
            for _ in range(rng.randint(1, 4)):
                cand = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(0, 8)))
                ref = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 8)))
                pairs.append((cand, ref))
            candidates = [c for c, _ in pairs]
            for n in (1, 2):
                assert abs(bleu_n(pairs, n) - naive_bleu(pairs, n)) <= 1e-9
                assert abs(distinct_n(candidates, n) - naive_distinct(candidates, n)) <= 1e-9
            for cand, ref in pairs:
                assert abs(f1(cand, ref) - naive_f1(cand, ref)) <= 1e-9


class TestScorePairs:
    def test_report_shape_and_ranges(self):
        pairs = [("the cat sat", "the cat sat down"), ("hello world", "hello there world")]
        report = score_pairs(pairs)
        assert sorted(report) == ["bleu1", "bleu2", "counts", "distinct1", "distinct2", "f1"]
        assert report["counts"] == 2
        for key in ("bleu1", "bleu2", "distinct1", "distinct2", "f1"):
            assert 0.0 <= report[key] <= 1.0

    def test_f1_is_mean_over_pairs(self):
        pairs = [("a b", "a b"), ("x", "y")]
        assert score_pairs(pairs)["f1"] == pytest.approx((1.0 + 0.0) / 2)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            score_pairs([])
