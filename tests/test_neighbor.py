import dataclasses
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import G7_TEXT, comb_grammar, periodic_grammar
from oracles import (
    deepest_outer_marks,
    derivation_occurrences,
    first_seams,
    naive_rule_texts,
    reference_window,
    sliding_histogram,
    trie_layout,
)
from slpgram import (
    ConsistencyError,
    SeamOrder,
    SlpGrammar,
    affix_tables,
    build_chain,
    build_neighbor_graph,
    build_ssa_text,
    compute_dup_stats,
    compute_metrics,
    compute_qmarks,
    expand,
    flatten_neighbor_trie,
    parse_slp,
    seam_order,
    weighted_qgram_counts,
)
from slpgram.slp import validate


def pipeline(g, m, q):
    qm = compute_qmarks(g, m, q)
    graph = build_neighbor_graph(g, m, qm)
    trie = flatten_neighbor_trie(g, m, graph)
    return qm, graph, trie


class TestNeighborGraph:
    def test_g7_q2(self, g7, g7_metrics):
        qm = compute_qmarks(g7, g7_metrics, 2)
        graph = build_neighbor_graph(g7, g7_metrics, qm)
        # first seams: 4 at 1, 3 at 2, 6 at 3, 5 at 5, 7 at 8
        assert graph.vertices.tolist() == [4, 3, 6, 5, 7]
        assert set(graph.edges) == {(4, 3), (5, 4), (6, 3), (7, 3), (3, 5), (3, 6), (3, 7)}
        assert len(graph.edges) == 7 <= 2 * g7.n
        # each vertex by descending rule, its edge to the successor under its
        # right child, then from the predecessor over its left child
        assert graph.edges == [(7, 3), (3, 7), (6, 3), (3, 6), (5, 4), (3, 5), (4, 3)]
        assert graph.edge_count == 7
        # 3 hangs below 4, its in-neighbor with the smallest first seam;
        # 5, 6 and 7 below 3, their one in-neighbor; 4 opens the text
        assert graph.parents.tolist() == [0, 0, 0, 4, 0, 3, 3, 3]

    def test_g7_q13(self, g7, g7_metrics):
        qm = compute_qmarks(g7, g7_metrics, 13)
        graph = build_neighbor_graph(g7, g7_metrics, qm)
        assert graph.vertices.tolist() == [7]
        assert graph.edges == []
        assert graph.edge_count == 0
        assert graph.parents.tolist() == [0] * 8

    def test_seam_order_for_any_grammar_and_q(self, g7, g7_metrics):
        single = parse_slp("1 T 97\n")
        cases = ((single, compute_metrics(single), []), (g7, g7_metrics, [4, 3, 6, 5, 7]))
        for g, m, long in cases:
            for q in (2, 10**20):
                order = seam_order(g, m, q)
                assert isinstance(order, SeamOrder), (g.n, q)
                assert order.q == q
                assert order.rules.tolist() == (long if q == 2 else []), (g.n, q)
        # the terminals' children are 0, not their bytes and -1
        children = seam_order(g7, g7_metrics, 2).children.tolist()
        assert children == [[0, 0, 0, 1, 1, 3, 4, 6], [0, 0, 0, 2, 3, 4, 5, 5]]

    def test_seam_order_of_a_larger_q_refused(self, g7, g7_metrics):
        # an order for q = 5 lacks the rules of 2 to 4 bytes
        order = seam_order(g7, g7_metrics, 5)
        qm = compute_qmarks(g7, g7_metrics, 2, order)
        with pytest.raises(ValueError, match=r"^the seam order is for q >= 5, not q = 2$"):
            build_neighbor_graph(g7, g7_metrics, qm, order)

    def test_single_terminal(self):
        g = parse_slp("1 T 97\n")
        m = compute_metrics(g)
        graph = build_neighbor_graph(g, m, compute_qmarks(g, m, 2))
        assert graph.vertices.tolist() == []
        assert graph.edges == []

    def test_edge_bound(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            for q in range(2, 10):
                graph = build_neighbor_graph(g, m, compute_qmarks(g, m, q))
                assert len(graph.edges) <= 2 * g.n, (name, q)


def check_layout(g):
    """At q = 2..9: the vertices in the order of their first seams, each
    later one below an in-neighbor that comes earlier, the one of smallest
    first seam, and the text one context longer than the trie per vertex
    that does not follow its parent.  The graph's window totals and edges
    match the oracles: the ssa string, the windows cut from the rule texts,
    and one successor from the deepest outer marks per long child of each
    vertex, listed vertex by vertex in descending rule order and as many as
    the graph counts.  The flattened trie is the oracle's layout of those
    windows: each vertex's label once, every context, and every weight."""
    m = compute_metrics(g)
    texts = naive_rule_texts(g)
    occurrences = derivation_occurrences(g)
    seams = first_seams(g)
    for q in range(2, 10):
        qm, graph, trie = pipeline(g, m, q)
        order = sorted((i for i in seams if m.lengths[i] >= q), key=seams.__getitem__)
        assert graph.vertices.tolist() == order, q
        assert graph.sum_ti == len(build_ssa_text(g, m, q).text), q
        assert graph.dup == sum(
            (m.occurrences[v] - 1) * (len(reference_window(g, texts, q, v)) - (q - 1))
            for v in order
        ), q
        leftmost, rightmost = deepest_outer_marks(g, m.lengths, q)
        long_rights = [v for v in order if m.lengths[g.rights[v]] >= q]
        long_lefts = [v for v in order if m.lengths[g.lefts[v]] >= q]
        edges = set(graph.edges)
        assert edges == {(v, leftmost[g.rights[v]]) for v in long_rights} | {
            (rightmost[g.lefts[v]], v) for v in long_lefts
        }, q
        assert graph.edge_count == len(graph.edges) == len(long_rights) + len(long_lefts), q
        in_rule_order = []
        for v in sorted(order, reverse=True):
            if m.lengths[g.rights[v]] >= q:
                in_rule_order.append((v, leftmost[g.rights[v]]))
            if m.lengths[g.lefts[v]] >= q:
                in_rule_order.append((rightmost[g.lefts[v]], v))
        assert graph.edges == in_rule_order, q
        # each vertex's in-neighbor of smallest first seam
        first_source = {}
        for u, v in sorted(edges, key=lambda edge: seams[edge[0]]):
            first_source.setdefault(v, u)
        for v in order[1:]:
            parent = graph.parents[v]
            assert (parent, v) in edges and seams[parent] < seams[v], (q, v, parent)
            assert parent == first_source[v], (q, v, parent)
        layout = (trie.text, trie.end_weights.tolist(), trie.firsts.tolist(), trie.hangs.tolist())
        assert layout == trie_layout(g, graph, texts, occurrences), q
        if m.text_length < q:
            continue
        # the root chain is the text's first q-1 characters
        assert trie.text[: q - 1] == texts[g.n][: q - 1], q
        assert graph.parents[order[0]] == 0, q
        breaks = sum(graph.parents[v] != u for u, v in zip(order, order[1:]))
        assert trie.branch_count == breaks, q
        dup = compute_dup_stats(m, graph).dup
        assert len(trie.text) == m.text_length - dup + (q - 1) * breaks, q


class TestLayout:
    def test_sample_grammars(self, sample_grammars):
        for _, g in sample_grammars:
            check_layout(g)

    def test_comb(self):
        check_layout(comb_grammar(200))


class TestFlatten:
    def test_g7_q2_layout(self, g7, g7_metrics):
        _, _, trie = pipeline(g7, g7_metrics, 2)
        # opener "a", then the labels of 4, 3 and 6, each below the vertex
        # just before it; 5 and 7 hang below 3, not 6, so each opens a
        # branch of context "b" and body "a"
        assert trie.text == b"aabababa"
        assert trie.body_total == 6
        assert trie.branch_count == 2
        # each later branch starts at the next node and hangs from the b
        assert (trie.firsts.tolist(), trie.hangs.tolist()) == ([4, 5], [2, 2])
        wt = trie.to_weighted_text()
        # the trie a-a-b with three a's below the b; contexts are no nodes
        assert list(wt.nodes) == [0, 1, 2, 3, 5, 7]
        assert list(wt.parents) == [-1, 0, 1, 2, 2, 2]
        assert wt.text == b"aabababa"
        assert list(wt.end_weights) == [0, 3, 5, 1, 0, 2, 0, 1]
        assert weighted_qgram_counts(wt).materialize(wt.text) == {
            b"aa": 3,
            b"ab": 5,
            b"ba": 4,
        }

    def test_g7_q13_single_branch(self, g7, g7_metrics):
        _, _, trie = pipeline(g7, g7_metrics, 13)
        assert (trie.text, trie.branch_count) == (G7_TEXT, 0)
        wt = trie.to_weighted_text()
        assert list(wt.end_weights) == [0] * 12 + [1]
        assert weighted_qgram_counts(wt).materialize(wt.text) == {G7_TEXT: 1}

    def test_q_above_text_empty(self, g7, g7_metrics):
        _, _, trie = pipeline(g7, g7_metrics, 14)
        assert (trie.text, trie.body_total, trie.branch_count) == (b"", 0, 0)
        wt = trie.to_weighted_text()
        assert wt.text == b""
        assert weighted_qgram_counts(wt).entries.tolist() == []

    def test_counts_match_text_histogram(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            text = expand(g)
            for q in range(2, 13):
                _, _, trie = pipeline(g, m, q)
                wt = trie.to_weighted_text()
                counts = weighted_qgram_counts(wt).materialize(wt.text)
                assert counts == sliding_histogram(text, q), (name, q)

    def test_chained_heads_stay_out_of_the_join(self):
        # On a left-leaning chain every vertex but the first follows its
        # parent and has a left child of at least q-1 bytes, so its head is
        # all context: the flattening holds about the trie's text, not the
        # sum_ti bytes of the whole windows.
        text = bytes(random.Random(3).choice(b"acgt") for _ in range(3000))
        g = build_chain(text)
        m = compute_metrics(g)
        q = 1000
        graph = build_neighbor_graph(g, m, compute_qmarks(g, m, q))
        tables = affix_tables(g, m, q)
        tracemalloc.start()
        try:
            trie = flatten_neighbor_trie(g, m, graph, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (trie.text, trie.branch_count) == (text, 0)
        assert graph.sum_ti == 2001 * 1000
        assert peak < graph.sum_ti / 4

    @staticmethod
    def cut_runs(g, m, graph, trie):
        """The trie's text cut into ``(vertex, length)`` runs, 0 for the
        q-1 context bytes that open each branch, in the graph's order.  A
        label is its window past the first q-1 bytes; the window holds up
        to q-1 bytes of each child.  The cut must cover the text, each
        label weigh its vertex's occurrence count and each context nothing,
        and each later branch's first node and hang must be where the cut
        puts them."""
        q = graph.q
        runs, firsts, hangs, last = [], [], [], {}
        offset = nodes = 0
        for index, v in enumerate(graph.vertices):
            parent = graph.parents[v]
            if index == 0 or parent != graph.vertices[index - 1]:
                runs.append((0, q - 1))
                assert trie.end_weights[offset : offset + q - 1].tolist() == [0] * (q - 1)
                offset += q - 1
                if index == 0:
                    nodes += q - 1
                else:
                    firsts.append(nodes)
                    hangs.append(last[parent])
            left, right = m.lengths[g.lefts[v]], m.lengths[g.rights[v]]
            label = min(left, q - 1) + min(right, q - 1) - (q - 1)
            runs.append((v, label))
            weights = trie.end_weights[offset : offset + label].tolist()
            assert weights == [m.occurrences[v]] * label, (q, v)
            offset += label
            nodes += label
            last[v] = nodes - 1
        assert offset == len(trie.text), q
        assert (firsts, hangs) == (trie.firsts.tolist(), trie.hangs.tolist()), q
        return runs

    def test_each_vertex_emitted_exactly_once(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            for q in range(2, 10):
                qm, graph, trie = pipeline(g, m, q)
                runs = self.cut_runs(g, m, graph, trie)
                emitted = [v for v, _ in runs if v]
                assert Counter(emitted) == Counter(set(emitted)), (name, q)
                if m.text_length >= q:
                    assert set(emitted) == set(graph.vertices), (name, q)

    def test_emitted_runs_are_the_vertex_labels(self, sample_grammars):
        # every vertex contributes its fresh characters (window minus the
        # shared q-1 prefix) exactly once; every rule-0 run is the first q-1
        # characters of the window of the vertex that follows it, the text's
        # opener for the first branch and a context for each later one
        for name, g in sample_grammars:
            m = compute_metrics(g)
            texts = naive_rule_texts(g)
            for q in (2, 3, 5):
                if m.text_length < q:
                    continue
                qm, graph, trie = pipeline(g, m, q)
                runs = self.cut_runs(g, m, graph, trie)
                assert runs[0] == (0, q - 1), (name, q)
                assert trie.text[: q - 1] == expand(g)[: q - 1], (name, q)
                zero = [length for v, length in runs[1:] if not v]
                assert zero == [q - 1] * trie.branch_count, (name, q)
                got = Counter()
                offset = 0
                for index, (v, length) in enumerate(runs):
                    run = trie.text[offset : offset + length]
                    if v:
                        got[(v, run)] += 1
                    else:
                        head = runs[index + 1][0]
                        window = reference_window(g, texts, q, head)
                        assert run == window[: q - 1], (name, q, index)
                    offset += length
                want = Counter()
                for i in graph.vertices:
                    want[(i, reference_window(g, texts, q, i)[q - 1 :])] += 1
                assert got == want, (name, q)


class TestStatsRow:
    def test_g7_rows(self, g7, g7_metrics):
        for q, row in [
            (2, "2,10,6,7,8,7,5"),
            (13, "13,13,13,0,13,0,1"),
            (14, "14,0,0,0,0,0,0"),
        ]:
            graph = build_neighbor_graph(g7, g7_metrics, compute_qmarks(g7, g7_metrics, q))
            assert compute_dup_stats(g7_metrics, graph).csv_row() == row

    def test_single_terminal_zero(self):
        g = parse_slp("1 T 97\n")
        m = compute_metrics(g)
        graph = build_neighbor_graph(g, m, compute_qmarks(g, m, 2))
        assert compute_dup_stats(m, graph).csv_row() == "2,0,0,0,0,0,0"

    def test_size_identity_and_dominance(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            for q in range(2, 13):
                qm, graph, trie = pipeline(g, m, q)
                stats = compute_dup_stats(m, graph)  # asserts internally
                assert stats.trie_size == trie.body_total, (name, q)
                assert stats.flattened_len == len(trie.text), (name, q)
                if m.text_length < q:
                    assert stats.csv_row() == f"{q},0,0,0,0,0,0", (name, q)
                else:
                    assert stats.trie_size == m.text_length - stats.dup, (name, q)
                    total = sum(
                        m.occurrences[i] * (_window_len(g, m, q, i) - (q - 1))
                        for i in graph.vertices
                    )
                    assert total == m.text_length - q + 1, (name, q)
                assert stats.flattened_len <= stats.sum_ti, (name, q)
                assert stats.sum_ti <= 2 * (q - 1) * g.n, (name, q)

    def test_trie_matches_ssa_counts(self, g7, g7_metrics):
        for q in range(2, 14):
            qm, graph, trie = pipeline(g7, g7_metrics, q)
            wt = trie.to_weighted_text()
            z = build_ssa_text(g7, g7_metrics, q)
            assert weighted_qgram_counts(wt).materialize(wt.text) == weighted_qgram_counts(
                z
            ).materialize(z.text)

    def test_disagreement_raises(self, g7, g7_metrics):
        graph = build_neighbor_graph(g7, g7_metrics, compute_qmarks(g7, g7_metrics, 2))
        # the trie size comes from the window total, |T| - dup from the
        # occurrence-weighted one
        broken = dataclasses.replace(graph, dup=graph.dup + 1)
        with pytest.raises(ConsistencyError, match=r"^trie size 6 != text length 13 minus dup 8$"):
            compute_dup_stats(g7_metrics, broken)


class TestLibraryRefusal:
    def test_refused_before_any_table(self, g7, g7_metrics, monkeypatch):
        def no_tables(*args):
            raise AssertionError("affix tables built for a refused reduction")

        monkeypatch.setattr("slpgram.ssa.affix_tables", no_tables)
        monkeypatch.setattr("slpgram.neighbor.affix_tables", no_tables)
        graph = build_neighbor_graph(g7, g7_metrics, compute_qmarks(g7, g7_metrics, 2))
        # G7 at q = 2: the ssa string is sum_ti = 10 positions, the trie has
        # |T| - dup = 6 nodes
        monkeypatch.setattr("slpgram.suffix._MAX_POSITIONS", 10)
        with pytest.raises(ValueError, match=r"^cannot rank a string of 10 positions: "):
            build_ssa_text(g7, g7_metrics, 2)
        monkeypatch.setattr("slpgram.suffix._MAX_POSITIONS", 6)
        with pytest.raises(ValueError, match=r"^cannot rank a string of 6 positions: "):
            flatten_neighbor_trie(g7, g7_metrics, graph)
        # one position more is allowed, and both are built
        monkeypatch.undo()
        monkeypatch.setattr("slpgram.suffix._MAX_POSITIONS", 11)
        assert len(build_ssa_text(g7, g7_metrics, 2).text) == 10
        monkeypatch.setattr("slpgram.suffix._MAX_POSITIONS", 7)
        assert flatten_neighbor_trie(g7, g7_metrics, graph).body_total == 6

    def test_ssa_refused_on_the_exact_total_not_its_bound(self, g7, g7_metrics, monkeypatch):
        def no_tables(*args):
            raise AssertionError("affix tables built for a refused reduction")

        # G7 at q = 3: rules 4, 5, 6 and 7 own windows of 3, 4, 4 and 4
        # bytes, 15 positions against the bound 2(q-1) * 4 = 16
        monkeypatch.setattr("slpgram.suffix._MAX_POSITIONS", 16)
        assert len(build_ssa_text(g7, g7_metrics, 3).text) == 15
        monkeypatch.setattr("slpgram.ssa.affix_tables", no_tables)
        monkeypatch.setattr("slpgram.suffix._MAX_POSITIONS", 15)
        with pytest.raises(ValueError, match=r"^cannot rank a string of 15 positions: "):
            build_ssa_text(g7, g7_metrics, 3)

    def test_q_past_int64_gives_the_empty_trie_without_tables(self, g7, g7_metrics, monkeypatch):
        def no_tables(*args):
            raise AssertionError("affix tables built where no window needs them")

        monkeypatch.setattr("slpgram.neighbor.affix_tables", no_tables)
        q = 10**20
        graph = build_neighbor_graph(g7, g7_metrics, compute_qmarks(g7, g7_metrics, q))
        trie = flatten_neighbor_trie(g7, g7_metrics, graph)
        assert (trie.text, trie.end_weights.tolist()) == (b"", [])
        assert (trie.firsts.tolist(), trie.hangs.tolist(), trie.body_total) == ([], [], 0)

    def test_window_cut_short_by_the_tables_names_the_first_vertex(self, g7, g7_metrics):
        # at q = 2 the vertices in seam order are 4, 3, 6, 5 and 7; with
        # suf[1] emptied, the windows of 4 and 3 (both of left child 1) hold
        # one byte
        graph = build_neighbor_graph(g7, g7_metrics, compute_qmarks(g7, g7_metrics, 2))
        assert graph.vertices.tolist() == [4, 3, 6, 5, 7]
        pre, suf = affix_tables(g7, g7_metrics, 2)
        suf[1] = b""
        with pytest.raises(ConsistencyError, match=r"^window of rule 4 is shorter than q$"):
            flatten_neighbor_trie(g7, g7_metrics, graph, (pre, suf))


def _window_len(g, m, q, i):
    return min(q - 1, m.lengths[g.lefts[i]]) + min(q - 1, m.lengths[g.rights[i]])


@st.composite
def tall_grammars(draw):
    """Left-deep, right-deep or comb-shaped grammars of height up to about
    400 over 1-3 letters.

    Each spine is one long chain in the trie, every vertex right after its
    parent: the vertex below it in a left-deep spine, the one above it in
    a right-deep one.  The comb hangs a shared left-deep chain under every
    tooth, which opens many branches, and the spines may repeat one of
    their rules at the end, so both shapes also meet rules that occur more
    than once.
    """
    letters = b"abc"[: draw(st.integers(1, 3))]
    lefts, rights = [0], [0]
    terminals = {}

    def pair(left, right):
        lefts.append(left)
        rights.append(right)
        return len(lefts) - 1

    def letter():
        byte = draw(st.sampled_from(letters))
        if byte not in terminals:
            lefts.append(byte)
            rights.append(-1)
            terminals[byte] = len(lefts) - 1
        return terminals[byte]

    shape = draw(st.sampled_from(["left", "right", "comb"]))
    if shape == "comb":
        chain = letter()
        joined = pair(letter(), chain)
        for _ in range(draw(st.integers(0, 200))):
            chain = pair(chain, letter())
            joined = pair(joined, pair(letter(), chain))
        return SlpGrammar(lefts, rights)
    spine = [letter()]
    for _ in range(draw(st.integers(1, 400))):
        spine.append(pair(spine[-1], letter()) if shape == "left" else pair(letter(), spine[-1]))
    if draw(st.booleans()):
        pair(spine[-1], draw(st.sampled_from(spine)))
    return SlpGrammar(lefts, rights)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tall_grammars(), st.integers(2, 70))
def test_tall_grammars_agree_with_the_text(g, q):
    assert validate(g) == []
    m = compute_metrics(g)
    text = expand(g)
    want = sliding_histogram(text, q)
    ssa = build_ssa_text(g, m, q)
    assert weighted_qgram_counts(ssa).materialize(ssa.text) == want
    qm, graph, trie = pipeline(g, m, q)
    wt = trie.to_weighted_text()
    assert weighted_qgram_counts(wt).materialize(wt.text) == want
    stats = compute_dup_stats(m, graph)
    assert stats.trie_size == trie.body_total
    assert stats.flattened_len == len(trie.text)
    if m.text_length < q:
        assert stats.csv_row() == f"{q},0,0,0,0,0,0"
    else:
        assert wt.nodes.size == stats.trie_size == m.text_length - stats.dup


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tall_grammars())
def test_tall_grammars_layout(g):
    check_layout(g)


@st.composite
def periodic_near_two_to_the_63(draw):
    """A base of 1-6 bytes over {a, b, 0xFF}, doubled until the text length
    |base| * 2^d lies in [2^61, 2^63)."""
    base = bytes(draw(st.lists(st.sampled_from(b"ab\xff"), min_size=1, max_size=6)))
    shortest = next(d for d in range(64) if len(base) << d >= 1 << 61)
    # twice the shortest is still below 2^63, as the shortest is below 2^62
    return base, shortest + draw(st.integers(0, 1))


def periodic_counts(base, doublings, q):
    """Closed form: the gram at residue r mod p = |base| starts at every
    r + kp up to |T| - q, floor((|T| - q - r) / p) + 1 times."""
    p = len(base)
    total = p << doublings
    spelled = base * (q // p + 2)
    counts = Counter()
    for r in range(p):
        counts[spelled[r : r + q]] += (total - q - r) // p + 1
    return dict(counts)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(periodic_near_two_to_the_63())
def test_weights_near_two_to_the_63(case):
    base, doublings = case
    g = periodic_grammar(base, doublings)
    m = compute_metrics(g)
    assert 1 << 61 <= m.text_length < 1 << 63
    for q in (2, 3, 5, 17, 64):
        want = periodic_counts(base, doublings, q)
        ssa = build_ssa_text(g, m, q)
        assert weighted_qgram_counts(ssa).materialize(ssa.text) == want, q
        wt = pipeline(g, m, q)[2].to_weighted_text()
        assert weighted_qgram_counts(wt).materialize(wt.text) == want, q
