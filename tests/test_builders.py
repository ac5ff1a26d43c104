import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_repair
from slpgram import (
    build_chain,
    build_random,
    build_repair,
    compute_metrics,
    expand,
    serialize_slp,
)
from slpgram import builders
from slpgram.builders import END, VOID, _PairLabels, _terminal_rules
from slpgram.cli import main
from slpgram.slp import validate
from test_acceptance import make_corpus


class TestRepair:
    def test_abab_trace(self):
        g = build_repair(b"abab")
        assert serialize_slp(g) == "1 T 97\n2 T 98\n3 N 1 2\n4 N 3 3\n"
        assert expand(g) == b"abab"

    def test_aaaa_trace(self):
        # "aa" occurs twice without overlap, then the root pairs the result.
        g = build_repair(b"aaaa")
        assert serialize_slp(g) == "1 T 97\n2 N 1 1\n3 N 2 2\n"
        assert expand(g) == b"aaaa"

    def test_aaa_overlap_not_counted(self):
        # only one non-overlapping "aa": below the threshold, so no pair rule
        # from replacement, just the balanced residual.
        g = build_repair(b"aaa")
        assert serialize_slp(g) == "1 T 97\n2 N 1 1\n3 N 1 2\n"
        assert expand(g) == b"aaa"

    def test_threshold_respected(self):
        # (a,b) occurs twice; with a threshold of 3 nothing is replaced and
        # the residual of four symbols binarizes into three pair rules.
        g = build_repair(b"abab", 3)
        assert serialize_slp(g) == "1 T 97\n2 T 98\n3 N 1 2\n4 N 1 2\n5 N 3 4\n"
        assert expand(g) == b"abab"

    def test_tie_breaks_toward_smaller_pair(self):
        # "ba" and "ab" both occur twice; (1, 2) = (a, b) wins the tie.
        g = build_repair(b"abab" + b"ba")
        first_pair = next(i for i in range(1, g.n + 1) if g.rights[i] >= 0)
        assert (g.lefts[first_pair], g.rights[first_pair]) == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_repair(b"")

    def test_round_trip_pinned_strings(self):
        for s in (b"mississippi", b"ab" * 50, b"abracadabra" * 9, bytes(range(256)), b"x"):
            g = build_repair(s)
            assert expand(g) == s
            assert validate(g) == []

    def test_config_validation(self):
        with pytest.raises(ValueError, match="^min_pair_frequency must be at least 2$"):
            build_repair(b"abab", 1)


class TestChain:
    def test_ab_trace(self):
        assert serialize_slp(build_chain(b"ab")) == "1 T 97\n2 T 98\n3 N 1 2\n"

    def test_single(self):
        assert serialize_slp(build_chain(b"a")) == "1 T 97\n"

    def test_aaaa(self):
        g = build_chain(b"aaaa")
        assert g.n == 4
        assert compute_metrics(g).occurrences[1] == 4

    def test_rule_count(self):
        for s in (b"mississippi", b"abc", b"aa", bytes(range(10)) * 3):
            g = build_chain(s)
            distinct = len(set(s))
            assert g.n == distinct + len(s) - 1
            assert g.rights.count(-1) == distinct

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_chain(b"")


class TestRandom:
    def test_single_terminal(self):
        g = build_random(1, 1, 7)
        assert serialize_slp(g) == "1 T 0\n"

    def test_deterministic(self):
        assert build_random(10, 2, 42) == build_random(10, 2, 42)

    def test_valid_and_fully_used(self):
        for seed in range(40):
            g = build_random(3 + seed, 2 + seed % 3, seed)
            assert validate(g) == [], seed

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            build_random(0, 2, 1)
        with pytest.raises(ValueError):
            build_random(5, 0, 1)
        with pytest.raises(ValueError):
            build_random(5, 257, 1)

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_fallback_pick_under_a_small_cap(self, cap, monkeypatch):
        # Under a cap this small most random picks would pass it, so the
        # builder often falls back to pairing the shortest rule with itself
        # (the one pick made with ``min(..., key=...)``).
        monkeypatch.setattr(builders, "RANDOM_LENGTH_CAP", cap)
        fallbacks = []

        def counted_min(*args, **kwargs):
            if "key" in kwargs:
                fallbacks.append(args)
            return min(*args, **kwargs)

        monkeypatch.setattr(builders, "min", counted_min, raising=False)
        for alphabet in (1, 2, 3):
            for seed in range(3):
                fallbacks.clear()
                g = build_random(120, alphabet, seed)
                assert fallbacks, (alphabet, seed)
                assert build_random(120, alphabet, seed) == g, (alphabet, seed)
                assert validate(g) == [], (alphabet, seed)
                assert max(compute_metrics(g).lengths) <= cap, (alphabet, seed)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.binary(min_size=1, max_size=300))
def test_repair_round_trip_property(data):
    g = build_repair(data)
    assert expand(g) == data
    assert validate(g) == []


def _letters(sigma):
    return st.sampled_from(b"abc"[:sigma])


# 1-300 bytes over 1-3 letters, drawn letter by letter or as long runs of one
# letter, where self-pairs overlap
repair_texts = st.integers(1, 3).flatmap(
    lambda sigma: st.one_of(
        st.lists(_letters(sigma), min_size=1, max_size=300).map(bytes),
        st.lists(st.tuples(_letters(sigma), st.integers(1, 60)), min_size=1, max_size=10).map(
            lambda runs: b"".join(bytes([c]) * k for c, k in runs)[:300]
        ),
    )
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(repair_texts, st.integers(2, 4))
def test_repair_matches_naive_oracle(text, threshold):
    g = build_repair(text, threshold)
    assert (g.lefts, g.rights) == naive_repair(text, threshold)


def _fresh_labels(seq):
    """Each pair start's packed pair where greedy left-to-right counting
    takes it, VOID where it skips a self-pair, then END twice."""
    seq = seq.tolist()
    labels = []
    for i, (a, b) in enumerate(zip(seq, seq[1:])):
        skipped = a == b and i > 0 and seq[i - 1] == a and labels[-1] != VOID
        labels.append(VOID if skipped else a << 32 | b)
    return labels + [END, END]


def _pieces(letters):
    letter = st.sampled_from(letters)
    return st.one_of(
        letter.map(lambda c: bytes([c])),
        # runs, where self-pairs overlap, next to whatever piece follows
        st.tuples(letter, st.integers(2, 12)).map(lambda t: bytes([t[0]]) * t[1]),
        # alternations, whose replacement makes runs of the new symbol
        st.tuples(letter, letter, st.integers(2, 8)).map(lambda t: bytes(t[:2]) * t[2]),
    )


label_texts = st.integers(1, 4).flatmap(
    lambda sigma: st.lists(_pieces(b"abcd"[:sigma]), min_size=1, max_size=12).map(b"".join)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(label_texts, st.integers(2, 4))
@example(b"aaab", 2)
@example(b"abbbbbbb", 2)
@example(b"abbbabbbab", 2)
@example(b"ababababa", 2)
@example(b"aaaaaaaaab", 3)
def test_round_labels_match_a_fresh_labelling(text, threshold):
    """After every round the ids a round kept or gave equal a labelling of
    the current symbols from scratch, and no two live ids name one pair."""
    lefts, rights, seq = _terminal_rules(text)
    pairs = _PairLabels(seq, len(lefts))
    symbol = len(lefts)
    while True:
        keys = np.array(pairs.keys)
        assert keys[pairs.pid].tolist() == _fresh_labels(pairs.seq)
        live = np.unique(pairs.pid[pairs.pid > END])
        assert np.unique(keys[live]).size == live.size
        pair = pairs.step(threshold, symbol)
        if pair is None:
            break
        lefts.append(pair[0])
        rights.append(pair[1])
        symbol += 1
    # the rounds' rules open the oracle's table, before the binarization
    expected_lefts, expected_rights = naive_repair(text, threshold)
    assert lefts == expected_lefts[: len(lefts)]
    assert rights == expected_rights[: len(rights)]


# SHA-256 of the SLP v1 documents, computed with the sort-per-round Re-Pair
# that came before the pair ids.
@pytest.mark.parametrize(
    "name, text, frequency, rules, digest",
    [
        (
            "bench corpus prefix",
            lambda: make_corpus(1 << 17),
            16,
            4158,
            "cb2515334c898832cddccbc95d2eeef9bcba1a30de0466d1b47b541107ce6818",
        ),
        (
            "two letters",
            lambda: bytes(random.Random(20).choices(b"ab", k=20_000)),
            2,
            2898,
            "3003ae15baa381d0588904b3216cdc827a6fadee99ff95a16d61fd5430d70a80",
        ),
        (
            "alternation",
            lambda: b"ab" * 50_000,
            2,
            23,
            "4cbe0fcf18e654c0f2f1159f359b44aa50e04554db728f0b9ae9b5286ea65443",
        ),
        (
            "one run",
            lambda: b"a" * 99_999 + b"b",
            2,
            28,
            "b94cde4a3446248930dac603cb5eb29b888a07b601ed303fc037b183cca97c2e",
        ),
    ],
)
def test_repair_rule_sequence_pinned(name, text, frequency, rules, digest):
    g = build_repair(text(), frequency)
    assert g.n == rules
    assert hashlib.sha256(serialize_slp(g).encode("ascii")).hexdigest() == digest


def test_frequency_past_int64_replaces_nothing(tmp_path, capsys):
    # no pair count reaches 2^63 + 1, so the grammar is the terminals and
    # the balanced binarization of the whole text
    text = b"mississippi" * 3
    raw = tmp_path / "in.txt"
    raw.write_bytes(text)
    for frequency in (2**63 + 1, 10**30):
        g = build_repair(text, frequency)
        assert (g.lefts, g.rights) == naive_repair(text, frequency)
        assert g.n == 4 + len(text) - 1
        argv = ["build", "-i", str(raw), "--min-pair-freq", str(frequency)]
        assert main(argv) == 0
        assert capsys.readouterr().out == serialize_slp(g)
