import contextlib
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sliding_histogram
from slpgram import (
    WeightedText,
    build_neighbor_graph,
    build_repair,
    build_ssa_text,
    compute_metrics,
    compute_qmarks,
    flatten_neighbor_trie,
    parse_slp,
    weighted_qgram_counts,
)
from slpgram import suffix
from slpgram.suffix import _ancestor_ranks, _fan_in, _gram_ranks


def dense_ranks(order: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The dense ranks that a ranker's ``(order, groups)`` give, by index."""
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.cumsum(np.r_[True, groups[1:] != groups[:-1]])
    return rank


def unit_weighted(text: bytes, q: int) -> WeightedText:
    weights = np.zeros(len(text), dtype=np.int64)
    if len(text) >= q:
        weights[q - 1 :] = 1
    return WeightedText(text, weights, q)


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

    # "aab|b|a": the trie a-a-b-a with the context "b" repeated before node
    # 3, the first node of the one later branch, which hangs from node 2
    TRIE = (b"aabba", [0, 3, 5, 0, 2], 2, [3], [2])
    # the same weights, and a second later branch: node 4, whose context "a"
    # repeats node 1, which it hangs from
    TWO = (b"aabbaab", [0, 3, 5, 0, 2, 0, 4], 2, [3, 4], [2, 1])
    # the first trie at q = 3: nodes 0 and 1 are the root chain, and node 3's
    # context "ab" repeats nodes 1 and 2
    DEEP = (b"aababa", [0, 0, 5, 0, 0, 2], 3, [3], [2])
    # at q = 4 the root chain "aab", and node 3 below its end, node 2
    LONG = (b"aabaabb", [0, 0, 0, 0, 0, 0, 2], 4, [3], [2])

    def test_accepts_a_trie(self):
        wt = WeightedText(*self.TRIE)
        assert wt.firsts.dtype == wt.hangs.dtype == np.int64
        assert wt.nodes.dtype == wt.parents.dtype == np.int64
        assert (wt.nodes.tolist(), wt.parents.tolist()) == ([0, 1, 2, 4], [-1, 0, 1, 2])
        assert weighted_qgram_counts(wt).entries.tolist() == [[2, 3], [3, 5], [5, 2]]
        wt = WeightedText(*self.TWO)
        assert (wt.nodes.tolist(), wt.parents.tolist()) == ([0, 1, 2, 4, 6], [-1, 0, 1, 2, 1])
        assert weighted_qgram_counts(wt).materialize(wt.text) == {b"aa": 3, b"ab": 9, b"ba": 2}
        wt = WeightedText(*self.DEEP)
        assert (wt.nodes.tolist(), wt.parents.tolist()) == ([0, 1, 2, 5], [-1, 0, 1, 2])
        assert weighted_qgram_counts(wt).materialize(wt.text) == {b"aab": 5, b"aba": 2}
        wt = WeightedText(*self.LONG)
        assert (wt.nodes.tolist(), wt.parents.tolist()) == ([0, 1, 2, 6], [-1, 0, 1, 2])
        assert weighted_qgram_counts(wt).materialize(wt.text) == {b"aabb": 2}
        # no later branch: node v at position v, below v - 1, whatever the gram
        wt = WeightedText(b"aab", [0, 0, 0], 10**100, [], [])
        assert (wt.nodes.tolist(), wt.parents.tolist()) == ([0, 1, 2], [-1, 0, 1])

    @pytest.mark.parametrize(
        "base, change, message",
        [
            pytest.param(TRIE, {"hangs": [2, 2]}, "one entry per branch", id="lengths differ"),
            pytest.param(TRIE, {"firsts": [[3]], "hangs": [[2]]}, "one entry per branch",
                         id="not one row"),
            pytest.param(TRIE, {"hangs": None}, "both firsts and hangs", id="no hangs"),
            pytest.param(TRIE, {"firsts": None}, "both firsts and hangs", id="no firsts"),
            pytest.param(TRIE, {"firsts": [0]}, r"increase within \[1, 4\)",
                         id="first in the root chain"),
            pytest.param(DEEP, {"firsts": [1]}, r"increase within \[2, 4\)",
                         id="first in the root chain at q=3"),
            pytest.param(LONG, {"firsts": [2], "hangs": [0]}, r"increase within \[3, 4\)",
                         id="first in the root chain at q=4"),
            pytest.param(TWO, {"firsts": [4, 3], "hangs": [1, 2]}, "strictly increase",
                         id="firsts out of order"),
            pytest.param(TWO, {"firsts": [3, 3]}, "strictly increase", id="firsts equal"),
            pytest.param(TRIE, {"firsts": [4]}, r"increase within \[1, 4\)",
                         id="first past the last node"),
            pytest.param(TRIE, {"hangs": [3]}, r"hang from a node in \[0, its first node\)",
                         id="hang at its first"),
            pytest.param(TWO, {"hangs": [2, 5]}, r"in \[0, its first node\)",
                         id="hang after its first"),
            pytest.param(DEEP, {"hangs": [0]}, r"in \[1, its first node\)",
                         id="hang above the root chain's end at q=3"),
            pytest.param(DEEP, {"firsts": [2], "hangs": [0], "weights": [0, 0, 0, 0, 5, 2]},
                         r"in \[1, its first node\)",
                         id="node 2 hangs above the root chain's end"),
            pytest.param(LONG, {"hangs": [1]}, r"in \[2, its first node\)",
                         id="hang above the root chain's end at q=4"),
            pytest.param(TRIE, {"gram": 1, "hangs": [-1]}, r"in \[0, its first node\)",
                         id="hang -1 at q=1"),
            pytest.param(TRIE, {"hangs": [-1]}, r"in \[0, its first node\)", id="hang -1 at q=2"),
            pytest.param(TRIE, {"weights": [0, 3, 5, 1, 2]}, "context bytes .* must weigh zero",
                         id="weight in the context"),
            pytest.param(TWO, {"weights": [0, 3, 5, 0, 2, 1, 4]}, "must weigh zero",
                         id="weight in the second context"),
            pytest.param(DEEP, {"weights": [0, 0, 5, 1, 0, 2]}, "must weigh zero",
                         id="weight in a context of two bytes"),
            pytest.param(DEEP, {"weights": [0, 7, 5, 0, 0, 2]}, "no q-gram can end before position 3",
                         id="weight on the root chain"),
            pytest.param(TRIE, {"text": b"aabaa"}, "position 3, 1 before node 3, must hold the byte"
                         " of its ancestor node 2", id="wrong context byte"),
            pytest.param(TWO, {"text": b"aabbabb"}, "position 5, 1 before node 4, must hold the"
                         " byte of its ancestor node 1", id="wrong byte in the second context"),
        ],
    )
    def test_rejects_a_bad_trie(self, base, change, message):
        fields = dict(zip(("text", "weights", "gram", "firsts", "hangs"), base))
        fields.update(change)

        def trie():
            return WeightedText(fields["text"], fields["weights"], fields["gram"],
                                fields["firsts"], fields["hangs"])

        with pytest.raises(ValueError, match=message):
            trie()
        # at a gram too long for int64, where nothing may weigh, the trie is
        # accepted or refused but never overflows
        fields.update(gram=10**100, weights=[0] * len(fields["text"]))
        with contextlib.suppress(ValueError):
            trie()

    @pytest.mark.parametrize(
        "base, firsts, hangs, message",
        [
            pytest.param(TRIE, [-(2**63)], [2], "strictly increase", id="first -2**63"),
            pytest.param(TRIE, [2**63 - 1], [2], "strictly increase", id="first 2**63-1"),
            pytest.param(TWO, [2**63 - 1, -(2**63)], [2, 1], "strictly increase",
                         id="firsts 2**63-1 and -2**63"),
            pytest.param(TWO, [-(2**63), 2**63 - 1], [2, 1], "strictly increase",
                         id="firsts -2**63 and 2**63-1"),
            pytest.param(TRIE, [3], [-(2**63)], "hang from a node", id="hang -2**63"),
            pytest.param(TRIE, [3], [2**63 - 1], "hang from a node", id="hang 2**63-1"),
            pytest.param(TWO, [3, 4], [2**63 - 1, -(2**63)], "hang from a node",
                         id="hangs 2**63-1 and -2**63"),
        ],
    )
    def test_rejects_branches_at_the_ends_of_int64(self, base, firsts, hangs, message):
        text, weights, gram, _, _ = base
        with pytest.raises(ValueError, match=message):
            WeightedText(text, weights, gram, firsts, hangs)

    @staticmethod
    def context_trie(gram, back=0):
        """"abcdefghij" down from the root, then node 10 below node 8: its
        gram - 1 context bytes repeat the end of "abcdefghi", with the one
        ``back`` bytes before node 10 changed."""
        text = bytearray(b"abcdefghij" + b"abcdefghi"[10 - gram :] + b"X")
        if back:
            text[-1 - back] ^= 0x20
        return WeightedText(bytes(text), [0] * len(text), gram, [10], [8])

    @pytest.mark.parametrize("back", range(1, 8))
    def test_rejects_a_wrong_context_byte(self, back):
        for gram in (4, 8, 9, 10):
            self.context_trie(gram)
            if back < gram:
                with pytest.raises(ValueError, match=f"{back} before node 10, must hold the byte"
                                                     f" of its ancestor node {9 - back}"):
                    self.context_trie(gram, back)
        # the engine reads min(gram, 8) - 1 context bytes, and only those are checked
        self.context_trie(9, 8)
        self.context_trie(10, 8)
        self.context_trie(10, 9)


class TestWeightedCounts:
    def test_flattening_example(self):
        wt = WeightedText(b"aabbababa", [0, 3, 5, 0, 2, 0, 1, 0, 1], 2)
        report = weighted_qgram_counts(wt)
        assert report.materialize(wt.text) == {b"aa": 3, b"ab": 5, b"ba": 4}
        # bb has weight zero (a seam bridge) and is dropped; group
        # representatives are the smallest end positions.
        assert report.entries.tolist() == [[2, 3], [3, 5], [5, 4]]
        assert sum(w for _, w in report.entries) == 12

    def test_all_zero_weights(self):
        wt = WeightedText(b"abcabc", [0] * 6, 3)
        assert weighted_qgram_counts(wt).entries.tolist() == []

    def test_unit_weights_match_sliding_window(self):
        text = b"aababaababaab"
        report = weighted_qgram_counts(unit_weighted(text, 2))
        assert report.materialize(text) == {b"aa": 3, b"ab": 5, b"ba": 4}

    def test_q_longer_than_text(self):
        report = weighted_qgram_counts(unit_weighted(b"ab", 5))
        assert (report.entries.shape, report.gram) == ((0, 2), 5)

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
            assert sum(w for _, w in report.entries) == int(weights.sum()), trial


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


# Five byte values: 0x80 and 0xFF sort after 0x7F only in an unsigned key,
# and 0x00 equals the padding.  So few values make ties in the first key
# bytes common.
EDGE_BYTES = st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0xFF])


@st.composite
def gram_texts(draw):
    """``(text, q)``: q in 1..17, 63, 64 or 65 and a text of n >= q bytes.
    n is below 8 (every first key reads into the padding) or at most q + 8
    (the last keys do); a periodic text adds up to 120 bytes and keeps
    ranks tied through the doubling rounds."""
    q = draw(st.sampled_from([*range(1, 18), 63, 64, 65]))
    if q < 8 and draw(st.booleans()):
        n = draw(st.integers(q, 7))
    else:
        n = draw(st.integers(q, q + 8))
    shape = draw(st.sampled_from(["binary", "edges", "periodic"]))
    if shape == "binary":
        return draw(st.binary(min_size=n, max_size=n)), q
    if shape == "periodic":
        n += draw(st.integers(0, 120))
        unit = draw(st.lists(EDGE_BYTES, min_size=1, max_size=9))
        return (bytes(unit) * n)[:n], q
    return bytes(draw(st.lists(EDGE_BYTES, min_size=n, max_size=n))), q


@settings(max_examples=400, deadline=None, derandomize=True)
@given(gram_texts())
def test_gram_ranks_match_sliding_window(case):
    text, q = case
    data = np.frombuffer(text, dtype=np.uint8)
    order, groups = _gram_ranks(data, q)
    starts = len(text) - q + 1
    grams = [text[p : p + q] for p in range(starts)]
    assert order.shape == groups.shape == (starts,)
    assert sorted(order.tolist()) == list(range(starts))
    rank = dense_ranks(order, groups)
    # the grams come in byte order, equal ones by position
    in_order = [(grams[p], p) for p in order.tolist()]
    assert in_order == sorted(in_order)
    # equal ranks exactly where the grams are equal
    rank_of = {}
    for p, gram in enumerate(grams):
        assert rank_of.setdefault(gram, rank[p]) == rank[p]
    assert len(set(rank_of.values())) == len(rank_of)
    # one rank per distinct gram, held by as many starts as the window counts
    sizes = dict(zip(*np.unique(rank, return_counts=True)))
    assert {grams[p]: sizes[rank[p]] for p in range(starts)} == sliding_histogram(text, q)


@st.composite
def tries(draw):
    """``(data, parents, depth, text, firsts, hangs)``: a trie over one to
    three letters for a gram length that is mostly not a power of two,
    laid out in a text as a flattened trie is, with its later branches'
    first nodes and the nodes they hang from.

    Its first depth - 1 nodes are the root chain, each below the node
    before it.  In a string every later node is below the node before it
    too; a chain branches off now and then; a star hangs most nodes from
    the first few at or after node depth - 2; a random trie picks any of
    those or a later one.  In the text each node past the root chain whose
    parent is not the node before it, and now and then one whose parent
    is, opens a branch: the depth - 1 bytes of the path down to its
    parent, then its own byte.  Every other node's byte follows the one
    before.
    """
    depth = draw(st.integers(1, 70))
    size = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["string", "chain", "star", "random"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    low = max(depth - 2, 0)
    parents = []
    for v in range(size):
        if v <= low or shape == "string" or shape == "chain" and rng.random() < 0.95:
            parents.append(v - 1)
        elif shape == "star":
            parents.append(rng.randrange(low, min(v, low + 3)))
        else:
            parents.append(rng.randrange(low, v))
    letters = draw(st.integers(1, 3))
    data = np.array([rng.randrange(letters) for _ in range(size)], dtype=np.uint8)
    text, firsts, hangs = bytearray(), [], []
    for v, parent in enumerate(parents):
        if v > low and (parent != v - 1 or rng.random() < 0.05):
            firsts.append(v)
            hangs.append(parent)
            text += upward_gram(data, parents, parent, depth - 1)
        text.append(data[v])
    return (data, np.array(parents, dtype=np.int64), depth,
            np.frombuffer(bytes(text), dtype=np.uint8), firsts, hangs)


def upward_gram(data, parents, v, depth):
    """The last ``depth`` bytes of the path from the root down to v."""
    gram = []
    while v >= 0 and len(gram) < depth:
        gram.append(int(data[v]))
        v = parents[v]
    return bytes(reversed(gram))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tries())
def test_ancestor_ranks_match_upward_grams(trie):
    data, parents, depth, text, firsts, hangs = trie
    # the layout is a flattened trie's, from whose branches WeightedText
    # derives the nodes and parents that are ranked
    wt = WeightedText(text.tobytes(), np.zeros(text.size, dtype=np.int64), depth, firsts, hangs)
    assert (wt.parents == parents).all() and (text[wt.nodes] == data).all()
    order, groups = _ancestor_ranks(text, wt.nodes, wt.parents, depth)
    assert sorted(order.tolist()) == list(range(data.size))
    # equal strings sort by node
    assert all(order[i] < order[i + 1] for i in range(data.size - 1)
               if groups[i] == groups[i + 1])
    # past the root chain every node ends a whole gram: equal ranks exactly
    # where the grams are equal, and the grams in byte order, equal ones by
    # node
    deep = range(depth - 1, data.size)
    grams = {v: upward_gram(data, parents, v, depth) for v in deep}
    rank = dense_ranks(order, groups)
    rank_of = {}
    for v, gram in grams.items():
        assert len(gram) == depth
        assert rank_of.setdefault(gram, rank[v]) == rank[v]
    assert len(set(rank_of.values())) == len(rank_of)
    whole = [(grams[v], v) for v in order.tolist() if v in grams]
    assert whole == sorted(whole)
    if (parents == np.arange(-1, data.size - 1)).all() and data.size >= depth:
        # a string: the gram ending at v is the one _gram_ranks starts at
        # v - depth + 1, and the two rankings group and order them alike
        by_start = dense_ranks(*_gram_ranks(data, depth))
        ends = np.arange(depth - 1, data.size)
        same = np.unique(rank[ends], return_inverse=True)[1]
        assert (same == np.unique(by_start, return_inverse=True)[1]).all()


def test_fan_in_at_its_boundary():
    # with no index bits, 2^21 ranks cubed is 2^63: the largest key,
    # 2^63 - 1, is the largest int64
    assert _fan_in(2**21, 0) == 3
    assert _fan_in(2**21 + 1, 0) == 2
    assert _fan_in(2, 0) == _fan_in(1, 0) == 63
    assert _fan_in(55_108, 0) == 4 and _fan_in(55_109, 0) == 3
    # 18 index bits (the versions ssa string at q = 64) leave 45 for the key
    assert _fan_in(2**15, 18) == 3 and _fan_in(2**15 + 1, 18) == 2
    assert _fan_in(5_931_641, 18) == 2 and _fan_in(5_931_642, 18) == 1
    # at the largest index, one rank per word still fits
    assert _fan_in(2**16, 31) == 2 and _fan_in(2**16 + 1, 31) == 1
    assert _fan_in(2**31, 31) == 1


def naive_texts(sigma, q):
    """Random and periodic texts over ``sigma`` byte values, with lengths
    from q to a few hundred past it."""
    rng = random.Random(sigma * 1000 + q)
    values = [0, 255, 128, 127][:sigma] if sigma <= 4 else list(range(256))
    texts = []
    for n in (q, q + 1, q + 7, q + 50, q + 300):
        texts.append(bytes(rng.choice(values) for _ in range(n)))
        unit = bytes(rng.choice(values) for _ in range(rng.randint(1, 12)))
        texts.append((unit * n)[:n])
    return texts


@pytest.mark.parametrize("q", [9, 24, 25, 33, 64, 65, 200])
@pytest.mark.parametrize("sigma", [1, 2, 4, 256])
def test_gram_ranks_match_sorted_grams(sigma, q):
    # few byte values keep few ranks and so a large fan-in; 256 values
    # bring it down towards 2
    for text in naive_texts(sigma, q):
        order, groups = _gram_ranks(np.frombuffer(text, dtype=np.uint8), q)
        grams = [text[p : p + q] for p in range(len(text) - q + 1)]
        in_order = [(grams[p], p) for p in order.tolist()]
        assert in_order == sorted(in_order)
        rank = dense_ranks(order, groups)
        rank_of = {}
        for p, gram in enumerate(grams):
            assert rank_of.setdefault(gram, rank[p]) == rank[p]
        assert len(set(rank_of.values())) == len(rank_of)


def edited_copies(seed: int) -> bytes:
    """Eight copies of a random 300-byte block, each with one byte changed
    30 to 60 bytes in: grams that start at one offset in two copies tie
    until their span reaches past both changed bytes."""
    rng = random.Random(seed)
    block = bytes(rng.randrange(256) for _ in range(300))
    text = bytearray()
    for _ in range(8):
        copy = bytearray(block)
        copy[rng.randint(30, 60)] ^= 1 + rng.randrange(255)
        text += copy
    return bytes(text)


def string_trie(text: bytes, q: int) -> WeightedText:
    """``text`` as a trie with one branch: node v at position v, below v - 1."""
    return WeightedText(text, unit_weighted(text, q).end_weights, q, [], [])


@pytest.mark.parametrize("q", [64, 200])
@pytest.mark.parametrize("seed", range(3))
def test_ties_past_the_second_round(seed, q, monkeypatch):
    # Six-byte first keys of some 300 distinct values combine six at a
    # time: 36 bytes after the first combining round, and the copies' grams
    # still tie there, so it takes a second one (and a third at q = 200).
    text = edited_copies(seed)
    expected = sliding_histogram(text, q)
    for wt in (unit_weighted(text, q), string_trie(text, q)):
        words, _ = count_sorts(monkeypatch)
        assert weighted_qgram_counts(wt).materialize(text) == expected
        monkeypatch.undo()
        assert len(words) == (3 if q == 64 else 4)


@pytest.mark.parametrize("q", [3, 16, 64])
def test_rounds_of_two_words_match_the_oracle(q, monkeypatch):
    # A 32-bit word leaves 19 bits above the index of the 6000 positions,
    # and 20 above that of the trie's 3000-odd nodes: first keys of two
    # bytes, and more distinct ranks than two can share a word, so each
    # combining round sorts two words.
    rng = random.Random(q)
    block = bytes(rng.randrange(256) for _ in range(3000))
    text = block + block[:1000] + bytes([block[1000] ^ 1]) + block[1001:]
    g = build_repair(text)
    m = compute_metrics(g)
    trie = flatten_neighbor_trie(
        g, m, build_neighbor_graph(g, m, compute_qmarks(g, m, q))).to_weighted_text()
    expected = sliding_histogram(text, q)
    for wt in (unit_weighted(text, q), trie, string_trie(text, q)):
        words, _ = count_sorts(monkeypatch)
        monkeypatch.setattr(suffix, "_WORD_BITS", 32)
        counts = weighted_qgram_counts(wt).materialize(wt.text)
        monkeypatch.undo()
        assert counts == expected
        assert words[0] == 1 and set(words[1:]) == {2}, words


def count_sorts(monkeypatch):
    """Two lists that record, from here on, the number of words each call
    of the engine's sort helper sorts, and the size of every argsort."""
    words, argsorts = [], []
    sort_words, argsort = suffix._sort_words, np.argsort

    def counted(keys, bits, index):
        words.append(len(keys))
        return sort_words(keys, bits, index)

    def counted_argsort(a, *args, **kwargs):
        argsorts.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(suffix, "_sort_words", counted)
    monkeypatch.setattr(np, "argsort", counted_argsort)
    return words, argsorts


@pytest.mark.parametrize("q", [2, 3, 5, 6, 7, 8, 64, 65])
def test_sort_counts(q, monkeypatch):
    # 3000 positions leave 51 bits above the index: six bytes in the first
    # key, and at most 64 distinct ones over two letters, so the next round
    # combines enough spans to reach q = 65.  The same holds for the trie,
    # whose first key takes as many bytes as fit above its nodes' index
    # bits: seven for its 78 to 106 nodes at q = 6..8.
    text = bytes(random.Random(q).choice(b"ab") for _ in range(3000))
    g = build_repair(text)
    m = compute_metrics(g)
    for name, wt in (
        ("string", unit_weighted(text, q)),
        ("trie", flatten_neighbor_trie(
            g, m, build_neighbor_graph(g, m, compute_qmarks(g, m, q))).to_weighted_text()),
    ):
        if name == "string":
            expected = 1 if q <= 6 else 2
        else:
            expected = 1 if q <= (63 - (wt.nodes.size - 1).bit_length()) // 8 else 2
        words, argsorts = count_sorts(monkeypatch)
        counts = weighted_qgram_counts(wt).materialize(wt.text)
        monkeypatch.undo()
        if name == "string":
            assert counts == sliding_histogram(text, q)
        assert argsorts == []
        # every call sorts one word per index
        assert (len(words), sum(words)) == (expected, expected), (name, words)


def test_sort_counts_on_the_benchmark_versions_grammar(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import bench_inputs
    finally:
        sys.path.pop(0)
    g = parse_slp(bench_inputs.make_versions(1).document)
    m = compute_metrics(g)
    for q, string_sorts, trie_sorts in ((4, 1, 1), (8, 2, 2), (64, 4, 4)):
        graph = build_neighbor_graph(g, m, compute_qmarks(g, m, q))
        trie = flatten_neighbor_trie(g, m, graph).to_weighted_text()
        for wt, expected in ((build_ssa_text(g, m, q), string_sorts), (trie, trie_sorts)):
            words, argsorts = count_sorts(monkeypatch)
            weighted_qgram_counts(wt)
            monkeypatch.undo()
            assert argsorts == []
            assert (len(words), sum(words)) == (expected, expected), (q, words)
