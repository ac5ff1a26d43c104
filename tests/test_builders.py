import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_repair
from slpgram import (
    BuilderConfig,
    build_chain,
    build_random,
    build_repair,
    compute_metrics,
    expand,
    serialize_slp,
    validate,
)


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
        g = build_repair(b"abab", BuilderConfig(min_pair_frequency=3))
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
        with pytest.raises(ValueError):
            BuilderConfig(min_pair_frequency=1)


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
    g = build_repair(text, BuilderConfig(min_pair_frequency=threshold))
    assert (g.lefts, g.rights) == naive_repair(text, threshold)
