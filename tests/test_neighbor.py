import dataclasses
from collections import Counter

import pytest

from conftest import G7_TEXT
from oracles import sliding_histogram
from slpgram import (
    ConsistencyError,
    build_neighbor_graph,
    build_ssa_text,
    compute_dup_stats,
    compute_metrics,
    compute_qmarks,
    expand,
    extract_prefix,
    extract_suffix,
    flatten_neighbor_trie,
    parse_slp,
    weighted_qgram_counts,
)


def pipeline(g, m, q):
    qm = compute_qmarks(g, m, q)
    graph = build_neighbor_graph(g, m, qm)
    trie = flatten_neighbor_trie(g, m, qm, graph)
    return qm, graph, trie


class TestNeighborGraph:
    def test_g7_q2(self, g7, g7_metrics):
        qm = compute_qmarks(g7, g7_metrics, 2)
        graph = build_neighbor_graph(g7, g7_metrics, qm)
        assert graph.vertices == frozenset({3, 4, 5, 6, 7})
        assert set(graph.edges) == {(4, 3), (5, 4), (6, 3), (7, 3), (3, 5), (3, 6), (3, 7)}
        assert len(graph.edges) == 7 <= 2 * g7.n

    def test_g7_q13(self, g7, g7_metrics):
        qm = compute_qmarks(g7, g7_metrics, 13)
        graph = build_neighbor_graph(g7, g7_metrics, qm)
        assert graph.vertices == frozenset({7})
        assert graph.edges == []

    def test_single_terminal(self):
        g = parse_slp("1 T 97\n")
        m = compute_metrics(g)
        graph = build_neighbor_graph(g, m, compute_qmarks(g, m, 2))
        assert graph.vertices == frozenset()
        assert graph.edges == []

    def test_edge_bound(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            for q in range(2, 10):
                graph = build_neighbor_graph(g, m, compute_qmarks(g, m, q))
                assert len(graph.edges) <= 2 * g.n, (name, q)


class TestFlatten:
    def test_g7_q2_runs(self, g7, g7_metrics):
        _, _, trie = pipeline(g7, g7_metrics, 2)
        # opener "a", body "ab"; then three branches of context "b", body "a"
        assert trie.text == b"aabbababa"
        assert trie.runs == [
            (0, 1), (4, 1), (3, 1),
            (0, 1), (5, 1),
            (0, 1), (6, 1),
            (0, 1), (7, 1),
        ]
        assert trie.body_total == 6
        assert trie.branch_count == 3
        wt = trie.to_weighted_text()
        assert wt.text == b"aabbababa"
        assert list(wt.end_weights) == [0, 3, 5, 0, 2, 0, 1, 0, 1]
        assert weighted_qgram_counts(wt).materialize(wt.text) == {
            b"aa": 3,
            b"ab": 5,
            b"ba": 4,
        }

    def test_g7_q13_single_branch(self, g7, g7_metrics):
        _, _, trie = pipeline(g7, g7_metrics, 13)
        assert trie.runs == [(0, 12), (7, 1)]
        assert (trie.text, trie.branch_count) == (G7_TEXT, 0)
        wt = trie.to_weighted_text()
        assert list(wt.end_weights) == [0] * 12 + [1]
        assert weighted_qgram_counts(wt).materialize(wt.text) == {G7_TEXT: 1}

    def test_q_above_text_empty(self, g7, g7_metrics):
        _, _, trie = pipeline(g7, g7_metrics, 14)
        assert (trie.runs, trie.body_total, trie.branch_count) == ([], 0, 0)
        wt = trie.to_weighted_text()
        assert wt.text == b""
        assert weighted_qgram_counts(wt).entries == []

    def test_counts_match_text_histogram(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            text = expand(g)
            for q in range(2, 13):
                _, _, trie = pipeline(g, m, q)
                wt = trie.to_weighted_text()
                counts = weighted_qgram_counts(wt).materialize(wt.text)
                assert counts == sliding_histogram(text, q), (name, q)

    def test_each_vertex_emitted_exactly_once(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            for q in range(2, 10):
                qm, graph, trie = pipeline(g, m, q)
                emitted = [v for v, _ in trie.runs if v]
                assert Counter(emitted) == Counter(set(emitted)), (name, q)
                if m.text_length >= q:
                    assert set(emitted) == set(graph.vertices), (name, q)

    def test_emitted_runs_are_the_vertex_labels(self, sample_grammars):
        # every vertex contributes its fresh characters (window minus the
        # shared q-1 prefix) exactly once; the rule-0 runs are the q-1 dummy
        # opener, then one q-1 context per later branch
        for name, g in sample_grammars:
            m = compute_metrics(g)
            for q in (2, 3, 5):
                if m.text_length < q:
                    continue
                qm, graph, trie = pipeline(g, m, q)
                assert trie.runs[0] == (0, q - 1), (name, q)
                zero = [length for v, length in trie.runs[1:] if not v]
                assert zero == [q - 1] * trie.branch_count, (name, q)
                got = Counter()
                offset = 0
                for index, (v, length) in enumerate(trie.runs):
                    if v or index == 0:
                        got[(v, trie.text[offset : offset + length])] += 1
                    offset += length
                want = Counter()
                want[(0, expand(g)[: q - 1])] = 1
                for i in graph.vertices:
                    left, right = g.lefts[i], g.rights[i]
                    window = extract_suffix(
                        g, m, left, min(q - 1, m.lengths[left])
                    ) + extract_prefix(g, m, right, min(q - 1, m.lengths[right]))
                    want[(i, window[q - 1 :])] += 1
                assert got == want, (name, q)


class TestDupStats:
    def test_g7_rows(self, g7, g7_metrics):
        for q, row in [
            (2, "2,10,6,7,9,7,5"),
            (13, "13,13,13,0,13,0,1"),
            (14, "14,0,0,0,0,0,0"),
        ]:
            qm, graph, trie = pipeline(g7, g7_metrics, q)
            assert compute_dup_stats(g7, g7_metrics, qm, trie, graph).csv_row() == row

    def test_single_terminal_zero(self):
        g = parse_slp("1 T 97\n")
        m = compute_metrics(g)
        qm, graph, trie = pipeline(g, m, 2)
        assert compute_dup_stats(g, m, qm, trie, graph).csv_row() == "2,0,0,0,0,0,0"

    def test_size_identity_and_dominance(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            for q in range(2, 13):
                qm, graph, trie = pipeline(g, m, q)
                stats = compute_dup_stats(g, m, qm, trie, graph)  # asserts internally
                if m.text_length >= q:
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
        qm, graph, trie = pipeline(g7, g7_metrics, 2)
        broken = dataclasses.replace(trie, body_total=trie.body_total + 1)
        with pytest.raises(ConsistencyError):
            compute_dup_stats(g7, g7_metrics, qm, broken, graph)


def _window_len(g, m, q, i):
    return min(q - 1, m.lengths[g.lefts[i]]) + min(q - 1, m.lengths[g.rights[i]])
