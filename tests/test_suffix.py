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
from slpgram.suffix import _ancestor_ranks, _fan_in, _gram_ranks


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

    # "aab|b|a": the trie a-a-b-a with the context "b" repeated before the
    # last node, which hangs from node 2
    TRIE = (b"aabba", [0, 3, 5, 0, 2], 2, [0, 1, 2, 4], [-1, 0, 1, 2])

    def test_accepts_a_trie(self):
        wt = WeightedText(*self.TRIE)
        assert wt.nodes.dtype == wt.parents.dtype == np.int64
        assert weighted_qgram_counts(wt).entries.tolist() == [[2, 3], [3, 5], [5, 2]]
        # the same trie at q = 3, with a context of two bytes, where nodes 0
        # and 1 are too shallow to weigh
        wt = WeightedText(b"aababa", [0, 0, 5, 0, 0, 2], 3, [0, 1, 2, 5], [-1, 0, 1, 2])
        assert weighted_qgram_counts(wt).materialize(wt.text) == {b"aab": 5, b"aba": 2}

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"parents": [-1, 0, 1]}, "one entry per trie node"),
            ({"parents": None}, "both nodes and parents"),
            ({"nodes": [0, 1, 2, 5]}, "lie in the text"),
            ({"nodes": [0, 2, 1, 4]}, "strictly increase"),
            ({"nodes": [0, 1, 1, 4]}, "strictly increase"),
            ({"parents": [-1, 0, 2, 2]}, "precede its node"),
            ({"parents": [-1, 0, 3, 2]}, "precede its node"),
            ({"parents": [-1, -1, 1, 2]}, "node 0 must be the one root"),
            ({"parents": [-2, 0, 1, 2]}, "node 0 must be the one root"),
            ({"weights": [0, 3, 5, 1, 2]}, "outside the trie's nodes"),
            # at q = 3, node 2 (position 2) or node 3 (position 4) hangs
            # from node 0 and so has one ancestor only; the texts repeat each
            # head's ancestors in the bytes before it
            ({"text": b"aaaab", "parents": [-1, 0, 0, 2], "weights": [0, 0, 5, 0, 2],
              "gram": 3}, "fewer than 2 ancestors"),
            ({"text": b"aabaa", "parents": [-1, 0, 1, 0], "weights": [0, 0, 5, 0, 2],
              "gram": 3}, "fewer than 2 ancestors"),
            # the byte before node 3 is not its parent's
            ({"text": b"aabaa"}, "position 3, 1 before node 3, must hold the byte of its"
             " ancestor node 2"),
        ],
    )
    def test_rejects_a_bad_trie(self, change, message):
        text, weights, gram, nodes, parents = self.TRIE
        fields = {"text": text, "weights": weights, "gram": gram, "nodes": nodes,
                  "parents": parents}
        fields.update(change)

        def trie():
            return WeightedText(fields["text"], fields["weights"], fields["gram"],
                                fields["nodes"], fields["parents"])

        if "ancestors" in message:
            # the engine finds the shallow nodes while ranking
            wt = trie()
            with pytest.raises(ValueError, match=message):
                weighted_qgram_counts(wt)
        else:
            with pytest.raises(ValueError, match=message):
                trie()

    @pytest.mark.parametrize(
        "parents, message",
        [
            ([-1, 0, -(2**63), 2], "node 0 must be the one root"),
            ([-(2**63), 0, 1, 2], "node 0 must be the one root"),
            ([-1, 2**63 - 1, 1, 2], "precede its node"),
            ([-1, 0, 2**63 - 1, -(2**63)], "precede its node"),
        ],
    )
    def test_rejects_parents_at_the_ends_of_int64(self, parents, message):
        # the head search's v - 1 - parents[v] wraps around for these
        text, weights, gram, nodes, _ = self.TRIE
        with pytest.raises(ValueError, match=message):
            WeightedText(text, weights, gram, nodes, parents)

    # "abcdefghij" down from the root, then node 10 below node 8: its 7
    # context bytes repeat nodes 2..8, "cdefghi"
    CONTEXT = b"abcdefghij" + b"cdefghi" + b"X"
    CONTEXT_NODES = [*range(10), 17]
    CONTEXT_PARENTS = [*range(-1, 9), 8]

    @pytest.mark.parametrize("back", range(1, 8))
    def test_rejects_a_wrong_context_byte(self, back):
        weights = [0] * len(self.CONTEXT)
        WeightedText(self.CONTEXT, weights, 8, self.CONTEXT_NODES, self.CONTEXT_PARENTS)
        text = bytearray(self.CONTEXT)
        text[17 - back] ^= 0x20
        with pytest.raises(ValueError, match=f"{back} before node 10, must hold the byte of"
                                             f" its ancestor node {9 - back}"):
            WeightedText(bytes(text), weights, 8, self.CONTEXT_NODES, self.CONTEXT_PARENTS)
        # the engine reads min(gram, 8) - 1 context bytes, and only those are checked
        if back >= 4:
            WeightedText(bytes(text), weights, 4, self.CONTEXT_NODES, self.CONTEXT_PARENTS)
        else:
            with pytest.raises(ValueError, match=f"{back} before node 10"):
                WeightedText(bytes(text), weights, 4, self.CONTEXT_NODES, self.CONTEXT_PARENTS)


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
    order, rank = _gram_ranks(data, q)
    starts = len(text) - q + 1
    grams = [text[p : p + q] for p in range(starts)]
    assert rank.shape == (starts,)
    assert sorted(order.tolist()) == list(range(starts))
    # order walks the ranks up, and the grams come in byte order
    assert (np.diff(rank[order]) >= 0).all()
    in_order = [grams[p] for p in order.tolist()]
    assert in_order == sorted(grams)
    # equal ranks exactly where the grams are equal
    rank_of = {}
    for p, gram in enumerate(grams):
        assert rank_of.setdefault(gram, rank[p]) == rank[p]
    assert len(set(rank_of.values())) == len(rank_of)
    # one rank per distinct gram, held by as many starts as the window counts
    sizes = dict(zip(*np.unique(rank, return_counts=True)))
    assert {grams[p]: sizes[rank[p]] for p in range(starts)} == sliding_histogram(text, q)


@st.composite
def forests(draw):
    """``(data, parents, depth, text, nodes)``: a forest whose parents
    precede their nodes, over one to three letters, and a gram length that
    is mostly not a power of two, laid out in a text as a flattened trie is.

    A string is the forest parent = v - 1; a chain branches off now and
    then; a star hangs most nodes from the first few; a random forest picks
    any earlier parent, or none.  In the text each node whose parent is not
    the node before it (and node 0) starts afresh: up to three junk letters,
    then the bytes of its nearest ancestors, at most 7, then its own byte.
    Every other node's byte follows the one before.
    """
    size = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["string", "chain", "star", "random"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    parents = []
    for v in range(size):
        if shape == "string" or shape == "chain" and rng.random() < 0.95:
            parents.append(v - 1)
        elif shape == "star":
            parents.append(rng.randrange(-1, min(v, 3)))
        else:
            parents.append(rng.randrange(-1, v))
    letters = draw(st.integers(1, 3))
    data = np.array([rng.randrange(letters) for _ in range(size)], dtype=np.uint8)
    text, nodes = bytearray(), []
    for v, parent in enumerate(parents):
        if v == 0 or parent != v - 1:
            text += bytes(rng.randrange(letters) for _ in range(rng.randrange(4)))
            text += upward_gram(data, parents, parent, 7)
        nodes.append(len(text))
        text.append(data[v])
    return (data, np.array(parents, dtype=np.int64), draw(st.integers(1, 70)),
            np.frombuffer(bytes(text), dtype=np.uint8), np.array(nodes, dtype=np.int64))


def upward_gram(data, parents, v, depth):
    """The last ``depth`` bytes of the path from the root down to v."""
    gram = []
    while v >= 0 and len(gram) < depth:
        gram.append(int(data[v]))
        v = parents[v]
    return bytes(reversed(gram))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(forests())
def test_ancestor_ranks_match_upward_grams(forest):
    data, parents, depth, text, nodes = forest
    order, rank, shallow = _ancestor_ranks(text, nodes, parents, depth)
    grams = [upward_gram(data, parents, v, depth) for v in range(data.size)]
    # the nodes first in order are exactly those whose gram is cut at the root
    assert sorted(order[:shallow].tolist()) == [
        v for v, gram in enumerate(grams) if len(gram) < depth
    ]
    # equal ranks exactly where the grams, cut at the root, are equal
    rank_of = {}
    for v, gram in enumerate(grams):
        assert rank_of.setdefault(gram, rank[v]) == rank[v]
    assert len(set(rank_of.values())) == len(rank_of)
    # order walks the ranks up, and whole grams come in byte order
    assert sorted(order.tolist()) == list(range(data.size))
    assert (np.diff(rank[order]) >= 0).all()
    whole = [grams[v] for v in order.tolist() if len(grams[v]) == depth]
    assert whole == sorted(whole)
    if (parents == np.arange(-1, data.size - 1)).all() and data.size >= depth:
        # a string: the gram ending at v is the one _gram_ranks starts at
        # v - depth + 1, and the two rankings group and order them alike
        _, by_start = _gram_ranks(data, depth)
        ends = np.arange(depth - 1, data.size)
        same = np.unique(rank[ends], return_inverse=True)[1]
        assert (same == np.unique(by_start, return_inverse=True)[1]).all()
    if (parents[1:] >= 0).all():
        # one root: the layout is a trie's text, and WeightedText accepts it
        WeightedText(text.tobytes(), np.zeros(text.size, dtype=np.int64), depth, nodes, parents)


def test_fan_in_at_its_boundary():
    # 2^21 ranks cubed is 2^63, one past the largest int64
    assert _fan_in(2_097_151) == 3
    assert _fan_in(2_097_152) == 2
    assert _fan_in(2**31 - 1) == 2
    assert _fan_in(2) == _fan_in(1) == 62
    assert _fan_in(55_108) == 4 and _fan_in(55_109) == 3


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
        order, rank = _gram_ranks(np.frombuffer(text, dtype=np.uint8), q)
        grams = [text[p : p + q] for p in range(len(text) - q + 1)]
        assert [grams[p] for p in order.tolist()] == sorted(grams)
        assert (np.diff(rank[order]) >= 0).all()
        rank_of = {}
        for p, gram in enumerate(grams):
            assert rank_of.setdefault(gram, rank[p]) == rank[p]
        assert len(set(rank_of.values())) == len(rank_of)


def count_sorts(monkeypatch):
    """A list that records the size of every argsort from here on."""
    sizes = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return sizes


@pytest.mark.parametrize("q", [2, 3, 5, 8, 64, 65])
def test_sort_counts(q, monkeypatch):
    # one sort at q <= 8, and at most four at q = 64 or 65
    text = bytes(random.Random(q).choice(b"ab") for _ in range(3000))
    g = build_repair(text)
    m = compute_metrics(g)
    for name, wt in (
        ("string", unit_weighted(text, q)),
        ("trie", flatten_neighbor_trie(
            g, m, build_neighbor_graph(g, m, compute_qmarks(g, m, q))).to_weighted_text()),
    ):
        sizes = count_sorts(monkeypatch)
        counts = weighted_qgram_counts(wt).materialize(wt.text)
        monkeypatch.undo()
        if name == "string":
            assert counts == sliding_histogram(text, q)
        assert len(sizes) == 1 if q <= 8 else 2 <= len(sizes) <= 4, (name, sizes)


def test_sort_counts_on_the_benchmark_versions_grammar(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import bench_inputs
    finally:
        sys.path.pop(0)
    g = parse_slp(bench_inputs.make_versions(1).document)
    m = compute_metrics(g)
    for q, string_sorts, trie_sorts in ((4, 1, 1), (8, 1, 1), (64, 3, 3)):
        graph = build_neighbor_graph(g, m, compute_qmarks(g, m, q))
        trie = flatten_neighbor_trie(g, m, graph).to_weighted_text()
        for wt, expected in ((build_ssa_text(g, m, q), string_sorts), (trie, trie_sorts)):
            sizes = count_sorts(monkeypatch)
            weighted_qgram_counts(wt)
            monkeypatch.undo()
            assert len(sizes) == expected, (q, sizes)
