import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import G7_DOC, G7_TEXT, comb_grammar, comb_text, doubling_doc
from oracles import deepest_outer_marks, derivation_occurrences, naive_rule_texts, validate_rules
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
    parse_slp,
    prune_unused,
    serialize_slp,
    validate,
)
from slpgram import slp


def _no_line_loop(doc):
    raise AssertionError("the line loop read a document in the serializer's form")


# Documents as serialize_slp writes them.
canonical_documents = st.one_of(
    st.builds(
        lambda rules, alphabet, seed: serialize_slp(build_random(rules, alphabet, seed)),
        st.integers(1, 120),
        st.integers(1, 256),
        st.integers(0, 2**32),
    ),
    st.text("abc", min_size=1, max_size=300).map(lambda t: serialize_slp(build_repair(t.encode()))),
    st.binary(min_size=1, max_size=100).map(lambda t: serialize_slp(build_chain(t))),
    st.integers(1, 80).map(doubling_doc),
)

REWRITES = ("comments", "blanks", "tabs", "crlf", "doubled", "leading", "trailing",
            "zeros", "no final newline")


def rewrite(doc, kinds, rng):
    """``doc`` with each rewrite in ``kinds`` applied at random places; the
    line loop reads every result as the same grammar."""
    newline = "\r\n" if "crlf" in kinds else "\n"
    separators = [" "] + [sep for kind, sep in (("tabs", "\t"), ("doubled", "  ")) if kind in kinds]
    lines = []
    for line in doc.splitlines():
        if "comments" in kinds and rng.random() < 0.3:
            lines.append(rng.choice(["#", "# 1 T 97", "#\tN"]))
        if "blanks" in kinds and rng.random() < 0.3:
            lines.append(rng.choice(["", " ", "\t"]))
        fields = line.split(" ")
        if "zeros" in kinds:
            fields = [f if f in "TN" else "0" * rng.randrange(4) + f for f in fields]
        line = "".join(f + rng.choice(separators) for f in fields[:-1]) + fields[-1]
        if "leading" in kinds and rng.random() < 0.5:
            line = rng.choice([" ", "  ", "\t"]) + line
        if "trailing" in kinds and rng.random() < 0.5:
            line += rng.choice([" ", "  ", "\t"])
        lines.append(line)
    rewritten = newline.join(lines)
    return rewritten if "no final newline" in kinds else rewritten + newline


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
            "1 T 97\n2 N 1 1\n4 N 2 2\n",
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
            # canonical-looking documents the array reader must pass on
            pytest.param(f"1 T {2**64 + 97}\n", id="byte of 2**64 + 97"),
            pytest.param("1 T 97\n2 N 1 " + "1" * 20 + "\n", id="child of 20 digits"),
            "1 T97\n",
            "1 T 9 7\n",
            "1 N 1 T\n",
            "1 T  T \n",
            "\n\n\n",              # only newlines
        ],
    )
    def test_rejects(self, doc):
        with pytest.raises(SlpFormatError) as raised:
            parse_slp(doc)
        # whichever reader saw it first, the line loop gives the message
        with pytest.raises(SlpFormatError) as expected:
            slp._parse_lines(doc)
        assert str(raised.value) == str(expected.value)

    def test_digit_runs_past_eighteen_go_to_the_line_loop(self):
        # Every run of 18 digits fits int64; the array reader reads no
        # longer one, so how np.fromstring treats overflow never matters.
        for digits, read in ((18, True), (19, False), (22, False)):
            doc = "1 T " + "97".zfill(digits) + "\n"
            assert (slp._parse_canonical(doc) is not None) == read, digits
            assert parse_slp(doc) == SlpGrammar([0, 97], [0, -1]), digits
        assert parse_slp("1 T " + "0" * 20 + "97") == SlpGrammar([0, 97], [0, -1])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(canonical_documents, st.sets(st.sampled_from(REWRITES)), st.integers(0, 2**32))
    def test_array_reader_matches_line_loop(self, doc, kinds, seed):
        g = slp._parse_lines(doc)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(slp, "_parse_lines", _no_line_loop)
            assert parse_slp(doc) == g
        other = rewrite(doc, kinds, random.Random(seed))
        assert slp._parse_lines(other) == g
        assert parse_slp(other) == g

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

    def test_cap(self):
        # 2^31 a's, past the 2^30 byte cap: refused before any byte is spelled.
        refusal = r"^expansion is 2147483648 bytes, above the 1073741824 byte cap$"
        with pytest.raises(SlpError, match=refusal):
            expand(parse_slp(doubling_doc(32)))

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

    def test_matches_naive_expansion(self, sample_grammars):
        # comb-200 and doubling-20 repeat rules, so their walks copy
        grammars = [
            *sample_grammars,
            ("comb-200", comb_grammar(200)),
            ("doubling-20", parse_slp(doubling_doc(20))),
        ]
        for name, g in grammars:
            assert expand(g) == naive_rule_texts(g)[g.n], name

    def test_overflow_rejected(self):
        # 64 doublings: length 2**63 passes the 2**63 - 1 bound.
        with pytest.raises(ValidationError):
            expand(parse_slp(doubling_doc(64)))

    def test_with_the_metrics_lengths(self, sample_grammars):
        # A caller holding the metrics passes their lengths; the walk and
        # the cap's refusal are the same.
        for name, g in [*sample_grammars, ("comb-200", comb_grammar(200))]:
            assert expand(g, compute_metrics(g).lengths) == naive_rule_texts(g)[g.n], name
        g = parse_slp(doubling_doc(32))
        refusal = r"^expansion is 2147483648 bytes, above the 1073741824 byte cap$"
        with pytest.raises(SlpError, match=refusal):
            expand(g, compute_metrics(g).lengths)


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
        assert qm.leftmost[1:] == [0, 0, 3, 4, 3, 4, 4]
        assert qm.rightmost[1:] == [0, 0, 3, 3, 3, 3, 3]

    def test_g7_q13(self, g7, g7_metrics):
        qm = compute_qmarks(g7, g7_metrics, 13)
        assert qm.leftmost[1:] == [0] * 6 + [7]
        assert qm.rightmost[1:] == [0] * 6 + [7]

    def test_g7_q14_all_none(self, g7, g7_metrics):
        qm = compute_qmarks(g7, g7_metrics, 14)
        assert qm.leftmost[1:] == [0] * 7
        assert qm.rightmost[1:] == [0] * 7

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


class TestAffixTables:
    def test_g7_q3(self, g7, g7_metrics):
        pre, suf = affix_tables(g7, g7_metrics, 3)
        assert pre[1:] == [b"a", b"b", b"ab", b"aa", b"ab", b"aa", b"aa"]
        assert suf[1:] == [b"a", b"b", b"ab", b"ab", b"ab", b"ab", b"ab"]

    def test_q_below_two_rejected(self, g7, g7_metrics):
        with pytest.raises(ValueError):
            affix_tables(g7, g7_metrics, 1)

    def test_matches_rule_texts(self, sample_grammars):
        rng = random.Random(0xAFF1)
        grammars = list(sample_grammars)
        for trial in range(12):
            sigma = rng.choice((2, 4, 256))
            text = bytes(rng.randrange(sigma) for _ in range(rng.randint(1, 600)))
            grammars.append((f"chain-{trial}", build_chain(text)))
            grammars.append((f"repair-{trial}", build_repair(text)))
        for name, g in grammars:
            m = compute_metrics(g)
            texts = naive_rule_texts(g)
            for q in (2, 3, 5, 17, 64):
                pre, suf = affix_tables(g, m, q)
                for i in range(1, g.n + 1):
                    assert pre[i] == texts[i][: q - 1], (name, q, i)
                    assert suf[i] == texts[i][-(q - 1) :], (name, q, i)
                    if m.lengths[i] <= q - 1:
                        assert pre[i] is suf[i], (name, q, i)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(1, 60),
    st.integers(1, 5),
    st.integers(0, 2**32),
    st.sampled_from([2, 3, 4, 5, 8, 17, 64, 1000]),
)
def test_affix_table_bytes_match_the_tables(rules, sigma, seed, q):
    # distinct terminal bytes, so no two rules' objects are equal by chance
    g = build_random(rules, sigma, seed)
    m = compute_metrics(g)
    pre, suf = affix_tables(g, m, q)
    distinct = {id(b): len(b) for b in pre[1:] + suf[1:]}
    assert slp.affix_table_bytes(g, m, q) == sum(distinct.values())
    slp.check_affix_tables(g, m, q)


def test_affix_tables_refused_past_the_cap(monkeypatch):
    # a chain of 40 bytes at q = 40: the two terminals and the chain rules
    # of 2..39 bytes hold their whole texts, and the root shares its left
    # child's 39 bytes as its prefix but needs a new 39-byte suffix
    g = build_chain(b"ab" * 20)
    m = compute_metrics(g)
    assert slp.affix_table_bytes(g, m, 40) == 2 + (39 * 40 // 2 - 1) + 39 == 820
    monkeypatch.setattr(slp, "DEFAULT_EXPAND_CAP", 820)
    slp.check_affix_tables(g, m, 40)
    monkeypatch.setattr(slp, "DEFAULT_EXPAND_CAP", 819)
    with pytest.raises(ValueError, match="^the affix tables for q=40 would hold 820 bytes,"
                       " above the 819 byte cap$"):
        slp.check_affix_tables(g, m, 40)


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


def outcome(check, g):
    """What ``check(g)`` returns, or the type and message of what it raises."""
    try:
        return check(g)
    except Exception as exc:
        return type(exc), str(exc)


ODD_ENTRIES = (
    0, -1, -2, 255, 256, 2**63 - 1, 2**63, 2**70, -(2**70),
    1.0, 1.5, -1.0, 97.0, "1", None, True, False, np.int64(1),
)


@st.composite
def rule_tables(draw):
    """A rule table of up to 9 rules, each a byte or a pair of smaller
    rules drawn at random (so many rules go unused), with up to three
    entries, the padding pair's too, replaced by an odd value, and now and
    then a column one entry short."""
    n = draw(st.integers(0, 9))
    lefts, rights = [0], [0]
    for i in range(1, n + 1):
        if i == 1 or draw(st.booleans()):
            lefts.append(draw(st.integers(0, 255)))
            rights.append(-1)
        else:
            lefts.append(draw(st.integers(1, i - 1)))
            rights.append(draw(st.integers(1, i - 1)))
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.sampled_from((lefts, rights)))
        at = draw(st.integers(0, len(column) - 1))
        column[at] = draw(st.one_of(st.sampled_from(ODD_ENTRIES), st.integers(-3, n + 2)))
    if n and draw(st.integers(0, 19)) == 0:
        draw(st.sampled_from((lefts, rights))).pop()
    return SlpGrammar(lefts, rights)


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

    @pytest.mark.parametrize(
        "lefts, rights, message",
        [
            ([0, 97, 0], [0, -1, 1], "rule 2: child index 0 not in 1..1"),
            ([0, 97, -2], [0, -1, 1], "rule 2: child index -2 not in 1..1"),
            ([0, 97, 1], [0, -1, 0], "rule 2: child index 0 not in 1..1"),
            ([0, 97, 1, 2], [0, -1, 1, 3], "rule 3: child index 3 not in 1..2"),
            ([0, 97, 1, 5], [0, -1, 1, 1], "rule 3: child index 5 not in 1..2"),
            ([0, -1], [0, -1], "rule 1: byte value -1 out of range"),
            ([0, 97, 256], [0, -1, -1], "rule 2: byte value 256 out of range"),
            ([0, 2**70], [0, -1], f"rule 1: byte value {2**70} out of range"),
            ([0, 97, 1], [0, -1, 2**70], f"rule 2: child index {2**70} not in 1..1"),
            ([0, 97, 1], [0, -1, 2**63 - 1], f"rule 2: child index {2**63 - 1} not in 1..1"),
            ([0, 97, 1], [0, -1, -(2**63)], f"rule 2: child index {-(2**63)} not in 1..1"),
            # the first fault in rule order, whatever comes after it
            ([0, 97, 1, 0, 1.5], [0, -1, 1, 7, None], "rule 3: child index 0 not in 1..2"),
            ([0, 97, 1.0, 2**70], [0, -1, 1, -1], f"rule 3: byte value {2**70} out of range"),
        ],
    )
    def test_first_fault_named(self, lefts, rights, message):
        g = SlpGrammar(lefts, rights)
        with pytest.raises(ValidationError) as raised:
            validate_rules(g)
        assert str(raised.value) == message
        with pytest.raises(ValidationError) as raised:
            validate(g)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "lefts, rights",
        [
            ([0, 97.0], [0, -1]),  # a float byte passes both checks
            ([0, 97, 1.0], [0, -1, 1]),  # a float child fails the occurrence count
            ([0, 97, 1.5], [0, -1, 1]),
            ([0, 97, 1], [0, -1.0, 1]),  # -1.0 == -1 marks a terminal
            ([0, 97, "1"], [0, -1, 1]),
            ([0, None], [0, -1]),
            ([0, 97, 1], [0, -1, [1]]),
            ([0, 97, True], [0, -1, True]),
            ([0, 97, np.int64(1)], [0, -1, np.int32(1)]),
            ([0.0, 97, 1], [0, -1, 1]),
            ([0, 97, 1], [0, -1, 2**63]),
        ],
    )
    def test_entries_not_int64(self, lefts, rights):
        g = SlpGrammar(lefts, rights)
        assert outcome(validate, g) == outcome(validate_rules, g)

    @pytest.mark.parametrize(
        "doc, unused",
        [
            # 5 -> 4 -> 3 -> 2 is dead: each is the child of the next, and
            # only the top one is nobody's child
            ("1 T 97\n2 T 98\n3 N 2 2\n4 N 3 3\n5 N 4 2\n6 N 1 1\n", [2, 3, 4, 5]),
            # a dead rule whose children live on
            ("1 T 97\n2 T 98\n3 N 1 2\n4 N 3 3\n5 N 3 1\n", [4]),
            # two dead chains sharing a dead rule
            ("1 T 97\n2 T 98\n3 N 2 2\n4 N 3 2\n5 N 3 3\n6 N 1 1\n7 N 6 1\n", [2, 3, 4, 5]),
            ("1 T 97\n2 N 1 1\n3 N 2 2\n4 N 3 3\n5 N 4 4\n6 N 1 1\n", [2, 3, 4, 5]),
        ],
        ids=["chain", "live-children", "shared", "doublings"],
    )
    def test_dead_chains_walked(self, doc, unused):
        g = parse_slp(doc)
        assert validate(g) == validate_rules(g) == unused
        assert validate(prune_unused(g)) == []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_rule_loop(self, data):
        """The result or the error, type and message, of the loop over the
        rules, on hand-made tables with a few entries out of range, past
        int64 or not ints, and many dead rules."""
        g = data.draw(rule_tables())
        assert outcome(validate, g) == outcome(validate_rules, g)

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
