import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_lcp_array, naive_suffix_array, sliding_histogram
from slpgram import (
    QGramReport,
    WeightedText,
    build_lcp_array,
    build_suffix_array,
    weighted_qgram_counts,
)


def unit_weighted(text: bytes, q: int) -> WeightedText:
    weights = np.zeros(len(text), dtype=np.int64)
    if len(text) >= q:
        weights[q - 1 :] = 1
    return WeightedText(text, weights, q)


class TestSuffixArray:
    def test_banana(self):
        assert build_suffix_array(b"banana") == [6, 4, 2, 1, 5, 3]

    def test_empty(self):
        assert build_suffix_array(b"") == []

    def test_aaa(self):
        assert build_suffix_array(b"aaa") == [3, 2, 1]

    def test_matches_naive(self):
        rng = random.Random(7)
        for trial in range(150):
            sigma = rng.choice((2, 4, 256))
            n = rng.randint(0, 400)
            text = bytes(rng.randrange(sigma) for _ in range(n))
            sa = build_suffix_array(text)
            assert sa == naive_suffix_array(text), trial
            assert sorted(sa) == list(range(1, n + 1))
            for k in range(1, n):
                assert text[sa[k - 1] - 1 :] <= text[sa[k] - 1 :]


class TestLcpArray:
    def test_banana(self):
        text = b"banana"
        assert build_lcp_array(text, build_suffix_array(text)) == [0, 1, 3, 0, 0, 2]

    def test_aaa(self):
        assert build_lcp_array(b"aaa", [3, 2, 1]) == [0, 1, 2]

    def test_single(self):
        assert build_lcp_array(b"x", [1]) == [0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_lcp_array(b"ab", [1])

    def test_matches_naive(self):
        rng = random.Random(8)
        for trial in range(120):
            sigma = rng.choice((2, 4, 256))
            text = bytes(rng.randrange(sigma) for _ in range(rng.randint(1, 300)))
            sa = build_suffix_array(text)
            assert build_lcp_array(text, sa) == naive_lcp_array(text, sa), trial


class TestWeightedText:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedText(b"ab", [1, 1, 1], 2)
        with pytest.raises(ValueError):
            WeightedText(b"ab", [1, 1], 2)  # weight before position q
        with pytest.raises(ValueError):
            WeightedText(b"ab", [0, 1], 0)

    def test_accepts_lists(self):
        wt = WeightedText(b"ab", [0, 3], 2)
        assert wt.end_weights.dtype == np.int64


class TestWeightedCounts:
    def test_flattening_example(self):
        wt = WeightedText(b"aabbababa", [0, 3, 5, 0, 2, 0, 1, 0, 1], 2)
        report = weighted_qgram_counts(wt)
        assert report.materialize(wt.text) == {b"aa": 3, b"ab": 5, b"ba": 4}
        # bb has weight zero (a seam bridge) and is dropped; group
        # representatives are the smallest end positions.
        assert report.entries == [(2, 3), (3, 5), (5, 4)]
        assert report.total_weight == 12

    def test_all_zero_weights(self):
        wt = WeightedText(b"abcabc", [0] * 6, 3)
        assert weighted_qgram_counts(wt).entries == []

    def test_unit_weights_match_sliding_window(self):
        text = b"aababaababaab"
        report = weighted_qgram_counts(unit_weighted(text, 2))
        assert report.materialize(text) == {b"aa": 3, b"ab": 5, b"ba": 4}

    def test_q_longer_than_text(self):
        report = weighted_qgram_counts(unit_weighted(b"ab", 5))
        assert report == QGramReport([], 5, 2)

    def test_random_unit_weights_match_histogram(self):
        # long repeats keep ranks tied through every doubling round, so odd
        # q exercise the shortened last step
        rng = random.Random(9)
        for trial in range(200):
            n = rng.randint(0, 600)
            if trial % 3 == 0:
                period = bytes(97 + rng.randrange(2) for _ in range(rng.randint(1, 4)))
                text = (period * n)[:n]
            else:
                sigma = rng.choice((2, 3, 26))
                text = bytes(97 + rng.randrange(sigma) for _ in range(n))
            q = rng.choice((3, 5, 13, 63, 64, 65, 100, rng.randint(1, 100)))
            counts = weighted_qgram_counts(unit_weighted(text, q)).materialize(text)
            assert counts == sliding_histogram(text, q), trial

    def test_weight_totals_preserved(self):
        rng = random.Random(10)
        for trial in range(60):
            q = rng.randint(1, 6)
            n = rng.randint(0, 200)
            text = bytes(97 + rng.randrange(3) for _ in range(n))
            weights = np.zeros(n, dtype=np.int64)
            for p in range(q - 1, n):
                weights[p] = rng.randrange(4)
            report = weighted_qgram_counts(WeightedText(text, weights, q))
            assert report.total_weight == int(weights.sum()), trial


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.builds(
            lambda unit, times: unit * times,
            st.binary(min_size=1, max_size=5),
            st.integers(min_value=1, max_value=60),
        ),
    ),
    st.integers(min_value=1, max_value=100),
)
def test_unit_weight_property(text, q):
    counts = weighted_qgram_counts(unit_weighted(text, q)).materialize(text)
    assert counts == sliding_histogram(text, q)
