import pytest

from oracles import naive_rule_texts, reference_window, sliding_histogram
from slpgram import (
    ConsistencyError,
    affix_tables,
    build_ssa_text,
    compute_metrics,
    expand,
    weighted_qgram_counts,
)


class TestBoundaryWindow:
    def test_examples(self, g7, g7_metrics):
        texts = naive_rule_texts(g7)
        assert reference_window(g7, texts, 2, 4) == b"aa"
        assert g7_metrics.occurrences[4] == 3
        assert reference_window(g7, texts, 2, 7) == b"ba"
        assert g7_metrics.occurrences[7] == 1
        assert reference_window(g7, texts, 3, 5) == b"abaa"
        assert g7_metrics.occurrences[5] == 2

    def test_window_length_bounds(self, sample_grammars):
        # Each window is also its rule's slice of the ssa string, which
        # holds the windows in ascending rule index.
        for name, g in sample_grammars:
            m = compute_metrics(g)
            texts = naive_rule_texts(g)
            for q in (2, 3, 5, 9):
                wt = build_ssa_text(g, m, q)
                offset = 0
                for i in range(1, g.n + 1):
                    if g.rights[i] < 0 or m.lengths[i] < q:
                        continue
                    window = reference_window(g, texts, q, i)
                    size = len(window)
                    weight = m.occurrences[i]
                    assert q <= size <= 2 * (q - 1), (name, q, i)
                    assert wt.text[offset : offset + size] == window, (name, q, i)
                    weights = wt.end_weights[offset : offset + size].tolist()
                    assert weights == [0] * (q - 1) + [weight] * (size - q + 1), (name, q, i)
                    offset += size
                assert offset == len(wt.text), (name, q)


class TestBuildSsaText:
    def test_q_below_two_rejected(self, g7, g7_metrics):
        with pytest.raises(ValueError):
            build_ssa_text(g7, g7_metrics, 1)

    def test_g7_q2(self, g7, g7_metrics):
        wt = build_ssa_text(g7, g7_metrics, 2)
        assert wt.text == b"abaabababa"
        assert list(wt.end_weights) == [0, 5, 0, 3, 0, 2, 0, 1, 0, 1]

    def test_g7_q13_whole_text(self, g7, g7_metrics):
        wt = build_ssa_text(g7, g7_metrics, 13)
        assert wt.text == b"aababaababaab"
        assert list(wt.end_weights) == [0] * 12 + [1]
        counts = weighted_qgram_counts(wt).materialize(wt.text)
        assert counts == {b"aababaababaab": 1}

    def test_g7_q14_empty(self, g7, g7_metrics):
        wt = build_ssa_text(g7, g7_metrics, 14)
        assert wt.text == b""
        assert len(wt.end_weights) == 0
        assert weighted_qgram_counts(wt).entries.tolist() == []

    def test_counts_match_text_histogram(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            text = expand(g)
            for q in range(2, 13):
                wt = build_ssa_text(g, m, q)
                counts = weighted_qgram_counts(wt).materialize(wt.text)
                assert counts == sliding_histogram(text, q), (name, q)

    def test_length_bound(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            for q in (2, 3, 7):
                wt = build_ssa_text(g, m, q)
                assert len(wt.text) <= 2 * (q - 1) * g.n, (name, q)

    def test_weight_total_counts_every_occurrence(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            for q in range(2, 9):
                if m.text_length < q:
                    continue
                wt = build_ssa_text(g, m, q)
                assert int(wt.end_weights.sum()) == m.text_length - q + 1, (name, q)

    def test_q_past_int64_gives_the_empty_text_without_tables(self, g7, g7_metrics, monkeypatch):
        def no_tables(*args):
            raise AssertionError("affix tables built where no window needs them")

        monkeypatch.setattr("slpgram.ssa.affix_tables", no_tables)
        wt = build_ssa_text(g7, g7_metrics, 10**20)
        assert (wt.text, wt.end_weights.tolist()) == (b"", [])

    def test_window_cut_short_by_the_tables_names_the_first_rule(self, g7, g7_metrics):
        # at q = 2 every affix is one byte; with suf[1] emptied, the windows
        # of rules 3 and 4 (both of left child 1) hold one byte, and the
        # windows come in ascending rule order
        pre, suf = affix_tables(g7, g7_metrics, 2)
        suf[1] = b""
        with pytest.raises(ConsistencyError, match=r"^window of rule 3 is shorter than q$"):
            build_ssa_text(g7, g7_metrics, 2, (pre, suf))
