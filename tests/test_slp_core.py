import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import G7_DOC, G7_TEXT, comb_grammar, comb_text, doubling_doc
from oracles import deepest_outer_marks, derivation_occurrences
from slpgram import (
    SlpError,
    SlpFormatError,
    SlpGrammar,
    ValidationError,
    affix_tables,
    build_chain,
    build_random,
    build_repair,
    char_frequencies,
    compute_metrics,
    compute_qmarks,
    expand,
    extract_prefix,
    extract_suffix,
    parse_slp,
    prune_unused,
    serialize_slp,
    validate,
)


class TestParse:
    def test_g7(self, g7):
        assert g7.n == 7
        assert g7.lefts == [0, 97, 98, 1, 1, 3, 4, 6]
        assert g7.rights == [0, -1, -1, 2, 3, 4, 5, 5]

    def test_single_terminal(self):
        g = parse_slp("1 T 97\n")
        assert g == SlpGrammar([0, 97], [0, -1])
        assert expand(g) == b"a"

    def test_comments_and_blanks(self):
        g = parse_slp("# header\n\n1 T 97\n  \n# mid\n2 N 1 1\n")
        assert g.n == 2

    def test_crlf_and_tabs(self):
        doc = "# header\r\n1 T 97\r\n\t2\tN 1\t 1 \r\n\r\n"
        assert parse_slp(doc) == parse_slp("1 T 97\n2 N 1 1\n")

    @pytest.mark.parametrize(
        "doc",
        [
            "1 N 2 3\n",              # forward reference
            "1 T 97\n2 N 2 1\n",      # self reference
            "1 T 97\n1 T 98\n",       # duplicate index
            "1 T 97\n3 T 98\n",       # gap
            "2 T 97\n",               # does not start at 1
            "1 T 256\n",              # byte out of range
            "1 T -1\n",
            "1 X 97\n",               # unknown kind
            "1 T 97 4\n",             # extra field
            "1 N 1\n",                # missing field
            "x T 97\n",               # bad integer
            "1 T +97\n",              # integers are ASCII digits only
            "1 T 9_7\n",
            "1 T \u0669\u0667\n",         # Arabic-Indic digits 97
            "1 T 97\n2 N 1 +1\n",
            "1 N 0 1\n",              # child below 1
            "# nothing\n",            # no rules at all
            "1 T 97\x1c2 N 1 1\n",    # separators other than space, tab, newline
            "1 T 97\x0b2 N 1 1\n",
            "1 T 97\u20282 N 1 1\n",
            "1 T 97\r2 N 1 1\n",      # a carriage return not before a newline
            "1\xa0T\u200397\n",
            # more digits than int() converts
            pytest.param("1 T " + "9" * 5000 + "\n", id="byte of 5000 digits"),
            pytest.param("1 T 97\n2 N 1 " + "1" * 5000 + "\n", id="child of 5000 digits"),
        ],
    )
    def test_rejects(self, doc):
        with pytest.raises(SlpFormatError):
            parse_slp(doc)

    def test_rejects_every_other_whitespace(self):
        # Every character str.split() or str.splitlines() would break on.
        for c in map(chr, range(0x110000)):
            if (c.isspace() or len(f"a{c}b".splitlines()) > 1) and c not in " \t\n":
                for doc in (f"1 T 97{c}2 N 1 1\n", f"1{c}T 97\n", f"1 T 97\n2 N 1{c}1\n"):
                    with pytest.raises(SlpFormatError, match="line"):
                        parse_slp(doc)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(1, 60),
        st.integers(1, 5),
        st.integers(0, 2**32),
        st.sampled_from(["sign", "underscore", "digit", "range"]),
        st.data(),
    )
    def test_rejects_one_bad_token(self, rule_count, alphabet, seed, mutation, data):
        lines = serialize_slp(build_random(rule_count, alphabet, seed)).splitlines()
        k = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split()
        if mutation == "range":
            # a byte above 255, or a child index at or past its own rule
            pos = 2 if fields[1] == "T" else data.draw(st.sampled_from([2, 3]))
            low = 256 if fields[1] == "T" else k + 1
            token = str(data.draw(st.integers(low, low + 10**6)))
        else:
            pos = data.draw(st.sampled_from([0, *range(2, len(fields))]))
            token = fields[pos]
            cut = data.draw(st.integers(0, len(token) - 1))
            if mutation == "sign":
                token = data.draw(st.sampled_from("+-")) + token
            elif mutation == "underscore":
                token = token[:cut] + "_" + token[cut:]
            else:
                base = data.draw(st.sampled_from([0x660, 0x966, 0x9E6, 0xFF10]))
                token = token[:cut] + chr(base + int(token[cut])) + token[cut + 1 :]
        fields[pos] = token
        lines[k] = " ".join(fields)
        with pytest.raises(SlpFormatError, match=f"line {k + 1}:"):
            parse_slp("\n".join(lines) + "\n")


class TestSerialize:
    def test_g7_exact(self, g7):
        assert serialize_slp(g7) == G7_DOC

    def test_single(self):
        assert serialize_slp(SlpGrammar([0, 97], [0, -1])) == "1 T 97\n"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 120), st.integers(1, 256), st.integers(0, 2**32))
    def test_round_trip_random_grammars(self, rule_count, alphabet, seed):
        g = build_random(rule_count, alphabet, seed)
        assert parse_slp(serialize_slp(g)) == g


class TestExpand:
    def test_g7(self, g7):
        assert expand(g7) == G7_TEXT

    def test_chain_abc(self):
        assert expand(build_chain(b"abc")) == b"abc"

    def test_cap(self, g7):
        with pytest.raises(SlpError):
            expand(g7, max_bytes=5)

    def test_deep_grammar_is_fine(self):
        g = build_chain(b"a" * 5000)
        assert expand(g) == b"a" * 5000

    def test_comb_of_4000_teeth(self):
        # 12 000 rules of height about 4000, 8 MB of text: every tooth is
        # copied from the previous chain, not walked byte by byte.
        assert expand(comb_grammar(4000)) == comb_text(4000)

    def test_text_held_once(self):
        # 2^24 a's: the walk's buffer becomes the returned bytes, so the
        # peak stays near one copy of the text, not two.
        g = parse_slp(doubling_doc(25))
        tracemalloc.start()
        try:
            text = expand(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == b"a" * 2**24
        assert peak < 1.25 * len(text)

    def test_overflow_rejected(self):
        # 64 doublings: length 2**63 passes the 2**63 - 1 bound.
        with pytest.raises(ValidationError):
            expand(parse_slp(doubling_doc(64)))


class TestMetrics:
    def test_g7(self, g7, g7_metrics):
        assert g7_metrics.lengths[1:] == [1, 1, 2, 3, 5, 8, 13]
        assert g7_metrics.occurrences[1:] == [8, 5, 5, 3, 2, 1, 1]
        assert g7_metrics.text_length == 13
        assert g7_metrics.occurrences[1:] == derivation_occurrences(g7)[1:]

    def test_single(self):
        m = compute_metrics(parse_slp("1 T 97\n"))
        assert m.lengths[1:] == [1]
        assert m.occurrences[1:] == [1]

    def test_chain_aaaa(self):
        g = build_chain(b"aaaa")
        m = compute_metrics(g)
        assert m.occurrences[1] == 4
        assert m.occurrences[1:] == derivation_occurrences(g)[1:]

    def test_matches_tree_walk(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            assert m.occurrences[1:] == derivation_occurrences(g)[1:], name
            assert len(expand(g)) == m.text_length, name

    def test_terminal_occurrences_sum_to_text_length(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            total = sum(m.occurrences[i] for i in range(1, g.n + 1) if g.rights[i] < 0)
            assert total == m.text_length, name


class TestQMarks:
    def test_g7_q2(self, g7, g7_metrics):
        qm = compute_qmarks(g7, g7_metrics, 2)
        assert qm.leftmost[1:] == [None, None, 3, 4, 3, 4, 4]
        assert qm.rightmost[1:] == [None, None, 3, 3, 3, 3, 3]

    def test_g7_q13(self, g7, g7_metrics):
        qm = compute_qmarks(g7, g7_metrics, 13)
        assert qm.leftmost[1:] == [None] * 6 + [7]
        assert qm.rightmost[1:] == [None] * 6 + [7]

    def test_g7_q14_all_none(self, g7, g7_metrics):
        qm = compute_qmarks(g7, g7_metrics, 14)
        assert qm.leftmost[1:] == [None] * 7
        assert qm.rightmost[1:] == [None] * 7

    def test_q_below_two_rejected(self, g7, g7_metrics):
        with pytest.raises(ValueError):
            compute_qmarks(g7, g7_metrics, 1)

    def test_matches_descent_oracle(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            for q in (2, 3, 5, 8):
                qm = compute_qmarks(g, m, q)
                lm, rm = deepest_outer_marks(g, m.lengths, q)
                assert qm.leftmost == lm, (name, q)
                assert qm.rightmost == rm, (name, q)


class TestExtract:
    def test_prefix_examples(self, g7, g7_metrics):
        assert extract_prefix(g7, g7_metrics, 7, 5) == b"aabab"
        assert extract_prefix(g7, g7_metrics, 4, 3) == b"aab"
        assert extract_prefix(g7, g7_metrics, 7, 0) == b""

    def test_suffix_examples(self, g7, g7_metrics):
        assert extract_suffix(g7, g7_metrics, 6, 1) == b"b"
        assert extract_suffix(g7, g7_metrics, 3, 2) == b"ab"
        assert extract_suffix(g7, g7_metrics, 5, 0) == b""

    def test_bounds(self, g7, g7_metrics):
        with pytest.raises(ValueError):
            extract_prefix(g7, g7_metrics, 7, 14)
        with pytest.raises(ValueError):
            extract_suffix(g7, g7_metrics, 3, 3)
        with pytest.raises(ValueError):
            extract_prefix(g7, g7_metrics, 0, 0)
        with pytest.raises(ValueError):
            extract_prefix(g7, g7_metrics, 8, 1)

    def test_matches_expanded_slices(self, sample_grammars):
        grammars = [
            *sample_grammars,
            ("comb-200", comb_grammar(200)),
            ("doubling-20", parse_slp(doubling_doc(20))),
        ]
        for name, g in grammars:
            m = compute_metrics(g)
            # naive bottom-up expansion of every rule as the oracle
            val: list[bytes] = [b""] * (g.n + 1)
            for i in range(1, g.n + 1):
                left, right = g.lefts[i], g.rights[i]
                val[i] = bytes([left]) if right < 0 else val[left] + val[right]
            assert val[g.n] == expand(g), name
            for i in range(1, g.n + 1):
                size = m.lengths[i]
                for j in {0, 1, (size + 1) // 2, size}:
                    assert extract_prefix(g, m, i, j) == val[i][:j], (name, i, j)
                    assert extract_suffix(g, m, i, j) == val[i][size - j :], (name, i, j)


class TestAffixTables:
    def test_g7_q3(self, g7, g7_metrics):
        pre, suf = affix_tables(g7, g7_metrics, 3)
        assert pre[1:] == [b"a", b"b", b"ab", b"aa", b"ab", b"aa", b"aa"]
        assert suf[1:] == [b"a", b"b", b"ab", b"ab", b"ab", b"ab", b"ab"]

    def test_q_below_two_rejected(self, g7, g7_metrics):
        with pytest.raises(ValueError):
            affix_tables(g7, g7_metrics, 1)

    def test_matches_extraction(self, sample_grammars):
        rng = random.Random(0xAFF1)
        grammars = list(sample_grammars)
        for trial in range(12):
            sigma = rng.choice((2, 4, 256))
            text = bytes(rng.randrange(sigma) for _ in range(rng.randint(1, 600)))
            grammars.append((f"chain-{trial}", build_chain(text)))
            grammars.append((f"repair-{trial}", build_repair(text)))
        for name, g in grammars:
            m = compute_metrics(g)
            for q in (2, 3, 5, 17, 64):
                pre, suf = affix_tables(g, m, q)
                for i in range(1, g.n + 1):
                    take = min(q - 1, m.lengths[i])
                    assert pre[i] == extract_prefix(g, m, i, take), (name, q, i)
                    assert suf[i] == extract_suffix(g, m, i, take), (name, q, i)
                    if m.lengths[i] <= q - 1:
                        assert pre[i] is suf[i], (name, q, i)


class TestCharFrequencies:
    def test_g7(self, g7, g7_metrics):
        assert char_frequencies(g7, g7_metrics) == {97: 8, 98: 5}

    def test_single(self):
        g = parse_slp("1 T 97\n")
        assert char_frequencies(g, compute_metrics(g)) == {97: 1}

    def test_chain_aaaa(self):
        g = build_chain(b"aaaa")
        assert char_frequencies(g, compute_metrics(g)) == {97: 4}

    def test_matches_expansion(self, sample_grammars):
        for name, g in sample_grammars:
            m = compute_metrics(g)
            freq = char_frequencies(g, m)
            text = expand(g)
            assert freq == {b: text.count(bytes([b])) for b in set(text)}, name
            assert sum(freq.values()) == m.text_length, name


class TestValidate:
    def test_g7_clean(self, g7):
        assert validate(g7) == []

    def test_unused_is_warning(self):
        g = SlpGrammar([0, 97, 98, 1], [0, -1, -1, 1])
        assert validate(g) == [2]

    def test_hard_violations(self):
        with pytest.raises(ValidationError):
            validate(SlpGrammar([0, 300], [0, -1]))
        with pytest.raises(ValidationError):
            validate(SlpGrammar([0, 97, 2], [0, -1, 1]))
        with pytest.raises(ValidationError):
            validate(SlpGrammar([0, 97, 1], [0, -1, -2]))
        with pytest.raises(ValidationError):
            validate(SlpGrammar([0], [0]))
        with pytest.raises(ValidationError, match="differ in length"):
            validate(SlpGrammar([0, 97, 1], [0, -1]))
        with pytest.raises(ValidationError, match="differ in length"):
            validate(SlpGrammar([0, 97], [0, -1, 1]))
        with pytest.raises(ValidationError, match="padding"):
            validate(SlpGrammar([97, 1], [-1, 1]))
        with pytest.raises(ValidationError, match="padding"):
            validate(SlpGrammar([], []))

    def test_prune(self):
        g = SlpGrammar([0, 97, 98, 1], [0, -1, -1, 1])
        pruned = prune_unused(g)
        assert serialize_slp(pruned) == "1 T 97\n2 N 1 1\n"
        assert validate(pruned) == []
        assert expand(pruned) == expand(g)

    def test_prune_keeps_clean_grammar(self, g7):
        assert prune_unused(g7) is g7


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.binary(min_size=1, max_size=120))
def test_chain_round_trip_property(data):
    g = build_chain(data)
    assert validate(g) == []
    assert expand(g) == data
    assert parse_slp(serialize_slp(g)) == g
