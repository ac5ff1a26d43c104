import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import G7_DOC, doubling_doc
from oracles import sliding_histogram
from slpgram import (
    FlattenedTrie,
    WeightedText,
    build_chain,
    build_neighbor_graph,
    build_random,
    build_repair,
    compute_metrics,
    compute_qmarks,
    expand,
    flatten_neighbor_trie,
    parse_slp,
    serialize_slp,
)
from slpgram.cli import (
    CountRequest,
    escape_bytes,
    main,
    run_bench,
    run_count,
    run_stats,
    run_verify,
    unescape_bytes,
)
from slpgram.slp import DEFAULT_EXPAND_CAP

# Every byte value once, then the bytes the escaping rule treats apart
# (backslash, newline, NUL, DEL, 0xFF) repeated so that grammars share them.
ALL_BYTES_TEXT = (
    bytes(range(256))
    + b"\\\n\x00\x7f\xff" * 24
    + bytes(random.Random(11).randrange(256) for _ in range(500))
    + bytes(range(255, -1, -1))
    + b"a\\b\x00\xff~ \x7f\x1f" * 8
)


def escape_rule(b: int) -> str:
    if b == 0x5C:
        return "\\\\"
    if 0x20 <= b <= 0x7E:
        return chr(b)
    return "\\x" + "0123456789ABCDEF"[b >> 4] + "0123456789ABCDEF"[b & 15]


def doubling_grammar(path, rules: int) -> str:
    path.write_text(doubling_doc(rules))
    return str(path)


def corrupt_stsa(monkeypatch):
    """Make the trie pipeline count one more occurrence of its last gram,
    on a plain weighted text without the trie."""
    build = FlattenedTrie.to_weighted_text

    def corrupted(trie):
        wt = build(trie)
        weights = np.array(wt.end_weights)
        weights[-1] += 1
        return WeightedText(wt.text, weights, wt.gram)

    monkeypatch.setattr(FlattenedTrie, "to_weighted_text", corrupted)


@pytest.fixture
def g7_path(tmp_path):
    path = tmp_path / "g7.slp"
    path.write_text(G7_DOC)
    return str(path)


class TestEscaping:
    def test_examples(self):
        assert escape_bytes(b"ab c") == "ab c"
        assert escape_bytes(b"\\") == "\\\\"
        assert escape_bytes(b"\t") == "\\x09"
        assert escape_bytes(bytes([0, 255, 0x7F])) == "\\x00\\xFF\\x7F"

    def test_every_byte_matches_the_rule(self):
        for b in range(256):
            assert escape_bytes(bytes([b])) == escape_rule(b), b
        assert escape_bytes(ALL_BYTES_TEXT) == "".join(map(escape_rule, ALL_BYTES_TEXT))

    def test_round_trip_all_bytes(self):
        data = bytes(range(256))
        assert unescape_bytes(escape_bytes(data)) == data

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.binary(max_size=300))
    def test_round_trip_random(self, data):
        assert unescape_bytes(escape_bytes(data)) == data

    def test_bad_escape(self):
        # \x needs exactly two hex digits; literals are printable ASCII only
        for escaped in ["\\q", "\\x4", "\\x+4", "\\x 4", "\\x", "\\xzz", "\u00e9", "a\\"]:
            with pytest.raises(ValueError, match="bad escape at offset"):
                unescape_bytes(escaped)


class TestCount:
    def test_stsa_q2_expanded(self, g7_path):
        doc = run_count(CountRequest(g7_path, 2, "stsa", expand_output=True))
        assert doc == "aa\t3\nab\t5\nba\t4\n"

    def test_nsa_q3_expanded(self, g7_path):
        doc = run_count(CountRequest(g7_path, 3, "nsa", expand_output=True))
        assert doc == "aab\t3\naba\t4\nbaa\t2\nbab\t2\n"

    def test_q14_empty(self, g7_path):
        for algo in ("nsa", "ssa", "stsa"):
            doc = run_count(CountRequest(g7_path, 14, algo, expand_output=True))
            assert doc == ""

    def test_positions_with_header(self, g7_path):
        doc = run_count(CountRequest(g7_path, 2, "ssa"))
        assert doc == "# end positions refer to z\n4\t3\n2\t5\n3\t4\n"
        doc = run_count(CountRequest(g7_path, 2, "nsa"))
        # ends of the first aa/ab/ba occurrences in the text itself
        assert doc == "# end positions refer to T\n2\t3\n3\t5\n4\t4\n"
        # z = aabababa begins like the text, and its first nodes are the
        # text's first positions
        doc = run_count(CountRequest(g7_path, 2, "stsa"))
        assert doc == "# end positions refer to z\n2\t3\n3\t5\n4\t4\n"

    def test_q1_char_mode_for_every_algorithm(self, g7_path):
        for algo in ("nsa", "ssa", "stsa"):
            assert run_count(CountRequest(g7_path, 1, algo)) == "a\t8\nb\t5\n"

    def test_expanded_matches_histogram_for_all_algorithms(self, g7_path):
        text = expand(parse_slp(G7_DOC))
        for q in (2, 5, 13):
            expected = "".join(
                f"{k.decode()}\t{v}\n"
                for k, v in sorted(sliding_histogram(text, q).items())
            )
            for algo in ("nsa", "ssa", "stsa"):
                doc = run_count(CountRequest(g7_path, q, algo, expand_output=True))
                assert doc == expected, (algo, q)

    @pytest.mark.parametrize("builder", [build_repair, build_chain])
    def test_expanded_grams_over_all_byte_values(self, builder, tmp_path):
        path = tmp_path / "bytes.slp"
        path.write_text(serialize_slp(builder(ALL_BYTES_TEXT)))
        for q in (2, 3, 8, 64):
            expected = "".join(
                "".join(map(escape_rule, gram)) + f"\t{count}\n"
                for gram, count in sorted(sliding_histogram(ALL_BYTES_TEXT, q).items())
            )
            for algo in ("nsa", "ssa", "stsa"):
                out = tmp_path / f"{algo}-{q}.tsv"
                assert main(["count", "-i", str(path), "-q", str(q), "--algo", algo,
                             "--expand", "-o", str(out)]) == 0
                assert out.read_text() == expected, (algo, q)

    def test_deterministic(self, g7_path):
        req = CountRequest(g7_path, 3, "stsa", expand_output=True)
        assert run_count(req) == run_count(req)

    @pytest.mark.parametrize("seed", [None, *range(12)])
    def test_stsa_ends_are_the_earliest_trie_nodes(self, seed, tmp_path):
        # G7, then random grammars of 8 to 63 rules over 2 to 4 letters
        if seed is None:
            g = parse_slp(G7_DOC)
        else:
            g = build_random(8 + 5 * seed, 2 + seed % 3, 300 + seed)
        path = tmp_path / "g.slp"
        path.write_text(serialize_slp(g))
        m = compute_metrics(g)
        text = expand(g)
        for q in (2, 3, 5, 9):
            if q > m.text_length:
                continue
            qm = compute_qmarks(g, m, q)
            trie = flatten_neighbor_trie(g, m, build_neighbor_graph(g, m, qm))
            z = trie.text
            # every rule-0 run after the opener repeats the end of the parent
            # path: a later branch's context, which holds no trie node
            context, at = set(), 0
            for index, (rule, length) in enumerate(trie.runs):
                if index and not rule:
                    context.update(range(at, at + length))
                at += length
            earliest = {}
            for p in range(q - 1, len(z)):
                if p not in context:
                    earliest.setdefault(z[p - q + 1 : p + 1], p + 1)
            want = sliding_histogram(text, q)
            header, *lines = run_count(CountRequest(str(path), q, "stsa")).splitlines()
            assert header == "# end positions refer to z"
            assert len(lines) == len(want), (seed, q)
            for line in lines:
                end, count = map(int, line.split("\t"))
                gram = z[end - q : end]
                assert want[gram] == count, (seed, q, end)
                assert end - 1 not in context, (seed, q, end)
                assert earliest[gram] == end, (seed, q, end)


class TestVerify:
    def test_g7_passes(self, g7_path):
        code, report = run_verify(g7_path, 13)
        assert code == 0
        assert "verification passed" in report

    def test_chain_mississippi(self, tmp_path):
        path = tmp_path / "m.slp"
        from slpgram import build_chain, serialize_slp

        path.write_text(serialize_slp(build_chain(b"mississippi")))
        code, _ = run_verify(str(path), 11)
        assert code == 0

    def test_corrupted_weights_detected(self, g7_path, monkeypatch):
        corrupt_stsa(monkeypatch)
        code, report = run_verify(g7_path, 13)
        assert code == 1
        assert "q=2" in report
        assert "stsa[" in report
        assert "FAIL" in report


class TestStats:
    def test_g7_rows(self, g7_path):
        doc = run_stats(g7_path, [2, 13, 14])
        assert doc.splitlines() == [
            "q,sum_ti,trie_size,dup,flattened_len,edges,vertices",
            "2,10,6,7,8,7,5",
            "13,13,13,0,13,0,1",
            "14,0,0,0,0,0,0",
        ]


class TestBench:
    def test_structure(self, g7_path):
        lines = run_bench(g7_path, [2], 2).splitlines()
        assert lines[0] == "q,algo,mean_seconds,problem_size"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["nsa", "ssa", "stsa"]
        assert all(float(r[2]) > 0 for r in rows)
        assert [int(r[3]) for r in rows] == [13, 10, 8]


class TestMain:
    def test_build_count_decompress_round_trip(self, tmp_path, capsys):
        raw = tmp_path / "input.txt"
        raw.write_bytes(b"abracadabra" * 12)
        slp = tmp_path / "out.slp"
        assert main(["build", "-i", str(raw), "-o", str(slp)]) == 0

        out = tmp_path / "counts.tsv"
        assert main(["count", "-i", str(slp), "-q", "2", "--expand", "-o", str(out)]) == 0
        expected = "".join(
            f"{k.decode()}\t{v}\n"
            for k, v in sorted(sliding_histogram(raw.read_bytes(), 2).items())
        )
        assert out.read_text() == expected

        plain = tmp_path / "plain.bin"
        assert main(["decompress", "-i", str(slp), "-o", str(plain)]) == 0
        assert plain.read_bytes() == raw.read_bytes()

    def test_builders_and_verify(self, tmp_path):
        raw = tmp_path / "input.txt"
        raw.write_bytes(b"mississippi")
        for builder in ("repair", "chain"):
            slp = tmp_path / f"{builder}.slp"
            assert main(
                ["build", "-i", str(raw), "-o", str(slp), "--algo-builder", builder]
            ) == 0
            assert main(["verify", "-i", str(slp), "--q-max", "11", "-o",
                         str(tmp_path / "report.txt")]) == 0

        slp = tmp_path / "random.slp"
        assert main(["build", "--algo-builder", "random", "--rules", "40",
                     "--alphabet", "3", "--seed", "5", "-o", str(slp)]) == 0
        assert main(["verify", "-i", str(slp), "--q-max", "8", "-o",
                     str(tmp_path / "report.txt")]) == 0

    def test_stats_and_bench_commands(self, g7_path, tmp_path):
        out = tmp_path / "stats.csv"
        assert main(["stats", "-i", g7_path, "--q-list", "2,13", "-o", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "2,10,6,7,8,7,5"
        out = tmp_path / "bench.csv"
        assert main(["bench", "-i", g7_path, "--q-list", "2", "--reps", "1",
                     "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_unused_rules_pruned_on_load(self, tmp_path, capsys):
        # rule 2 derives "aa" but nothing references it
        slp = tmp_path / "dead.slp"
        slp.write_text("1 T 97\n2 N 1 1\n3 N 1 1\n4 N 3 3\n")
        assert main(["count", "-i", str(slp), "-q", "2", "--expand",
                     "-o", str(tmp_path / "c.tsv")]) == 0
        assert (tmp_path / "c.tsv").read_text() == "aa\t3\n"
        assert "pruning" in capsys.readouterr().err
        assert main(["verify", "-i", str(slp), "--q-max", "4",
                     "-o", str(tmp_path / "r.txt")]) == 0

    def test_input_errors_exit_2(self, tmp_path, g7_path, capsys):
        missing = str(tmp_path / "nope.slp")
        assert main(["count", "-i", missing, "-q", "2"]) == 2
        bad = tmp_path / "bad.slp"
        bad.write_text("1 N 2 3\n")
        assert main(["count", "-i", str(bad), "-q", "2"]) == 2
        assert main(["count", "-i", g7_path, "-q", "0"]) == 2
        assert main(["build", "-o", str(tmp_path / "x.slp")]) == 2  # repair without -i
        assert main(["stats", "-i", g7_path, "--q-list", "2,x"]) == 2
        # counts are plain ASCII digits: no sign, underscore or other script
        for bad in ("+4", "6_4", "\u0664"):
            with pytest.raises(SystemExit) as exc:
                main(["count", "-i", g7_path, "-q", bad])
            assert exc.value.code == 2, bad
            assert main(["stats", "-i", g7_path, "--q-list", f"2,{bad}"]) == 2, bad
        # a number too long for int() is named by its length, not echoed
        big = "1" * 5000
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["count", "-i", g7_path, "-q", big])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument -q: integer of 5000 digits is too long" in err
        assert big not in err
        assert main(["stats", "-i", g7_path, "--q-list", f"2,{big}"]) == 2
        assert capsys.readouterr().err == "error: bad q list: integer of 5000 digits is too long\n"
        out = str(tmp_path / "built.slp")
        for builder, option, bad in (
            ("repair", "--min-pair-freq", "\u0662"),
            ("repair", "--min-pair-freq", "+3"),
            ("random", "--rules", "1_0"),
            ("random", "--alphabet", "+2"),
            ("random", "--alphabet", "\u0663"),
            ("random", "--seed", "1_0"),
            ("random", "--seed", "+5"),
            ("random", "--seed", "\u0663"),
            ("random", "--seed", "-3"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["build", "-i", g7_path, "--algo-builder", builder, option, bad, "-o", out])
            assert exc.value.code == 2, (option, bad)

    def test_verify_past_the_expansion_cap(self, tmp_path, monkeypatch):
        # 2^62 bytes, far past the cap, so only ssa and stsa can be compared
        slp = doubling_grammar(tmp_path / "doubling.slp", 63)
        report = tmp_path / "r.txt"
        assert main(["verify", "-i", str(slp), "--q-max", "4", "-o", str(report)]) == 0
        assert report.read_text().splitlines() == [
            f"nsa skipped: the text is {2**62} bytes, above the {DEFAULT_EXPAND_CAP}"
            " byte expansion cap; stsa checked against ssa",
            "q=2: ok",
            "q=3: ok",
            "q=4: ok",
            "verification passed for q in 2..4",
        ]
        corrupt_stsa(monkeypatch)
        code, text = run_verify(slp, 4)
        assert code == 1
        assert f"q=2: stsa[aa]={2**62} != ssa[aa]={2**62 - 1}" in text

    def test_bench_past_the_expansion_cap(self, tmp_path, capsys):
        slp = doubling_grammar(tmp_path / "doubling.slp", 49)
        out = tmp_path / "bench.csv"
        assert main(["bench", "-i", slp, "--q-list", "4", "--reps", "1", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["q", "algo", "mean_seconds", "problem_size"]
        assert [(r[0], r[1]) for r in rows[1:]] == [("4", "ssa"), ("4", "stsa")]
        assert capsys.readouterr().err == (
            f"nsa skipped: the text is {2**48} bytes, above the"
            f" {DEFAULT_EXPAND_CAP} byte expansion cap\n"
        )

    @pytest.mark.parametrize("algo", ["ssa", "stsa"])
    def test_count_near_two_to_the_62(self, algo, tmp_path):
        # 2^62 a's hold 2^62 - 3 occurrences of aaaa: the weights and their
        # sums must stay exact up there
        slp = doubling_grammar(tmp_path / "doubling.slp", 63)
        out = tmp_path / "c.tsv"
        assert main(["count", "-i", slp, "-q", "4", "--algo", algo, "--expand",
                     "-o", str(out)]) == 0
        assert out.read_text() == f"aaaa\t{2**62 - 3}\n"

    def test_q_past_int64(self, g7_path, capsys):
        # 10^20 does not fit in int64; every pipeline finds no gram
        q = str(10**20)
        for algo, reference in (("nsa", "T"), ("ssa", "z"), ("stsa", "z")):
            assert main(["count", "-i", g7_path, "-q", q, "--algo", algo]) == 0, algo
            assert capsys.readouterr().out == f"# end positions refer to {reference}\n", algo
        assert main(["bench", "-i", g7_path, "--q-list", q, "--reps", "1"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[0], r[1], r[3]) for r in rows] == [
            (q, "nsa", "13"), (q, "ssa", "0"), (q, "stsa", "0")
        ]
        assert main(["stats", "-i", g7_path, "--q-list", q]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"{q},0,0,0,0,0,0"

    def test_string_too_long_to_rank_exits_2(self, g7_path, monkeypatch, capsys):
        # the real limit is 2^31 positions; G7's 13 bytes stand in for it
        monkeypatch.setattr("slpgram.suffix._MAX_POSITIONS", 13)
        assert main(["count", "-i", g7_path, "-q", "2", "--algo", "nsa"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot rank a string of 13 positions: the limit is 12\n"
        )
        assert main(["count", "-i", g7_path, "-q", "2", "--algo", "stsa"]) == 0

    def test_oversized_reduction_refused_before_any_table(self, g7_path, tmp_path,
                                                          monkeypatch, capsys):
        def no_tables(*args):
            raise AssertionError("affix tables built for a refused count")

        monkeypatch.setattr("slpgram.ssa.affix_tables", no_tables)
        monkeypatch.setattr("slpgram.neighbor.affix_tables", no_tables)
        # G7 at q = 2: the ssa string is sum_ti = 10 positions, the trie has
        # |T| - dup = 6 nodes
        monkeypatch.setattr("slpgram.suffix._MAX_POSITIONS", 10)
        refused = "error: cannot rank a string of 10 positions: the limit is 9\n"
        for argv in (["count", "-q", "2", "--algo", "ssa"], ["verify", "--q-max", "2"]):
            assert main(argv + ["-i", g7_path]) == 2, argv
            assert capsys.readouterr().err == refused, argv
        monkeypatch.setattr("slpgram.suffix._MAX_POSITIONS", 6)
        assert main(["count", "-i", g7_path, "-q", "2", "--algo", "stsa"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot rank a string of 6 positions: the limit is 5\n"
        )
        # at the real limit: 2^40 a's at q = 2^28 make 13 vertices, rule 29
        # with a window of 2^28 and twelve with 2(q - 1), so the ssa string
        # would be 25 * 2^28 - 24 positions and the trie 13 * 2^28 - 12 nodes
        monkeypatch.undo()
        monkeypatch.setattr("slpgram.ssa.affix_tables", no_tables)
        monkeypatch.setattr("slpgram.neighbor.affix_tables", no_tables)
        slp = doubling_grammar(tmp_path / "doubling.slp", 41)
        for algo, size in (("ssa", 25 * 2**28 - 24), ("stsa", 13 * 2**28 - 12)):
            assert main(["count", "-i", slp, "-q", str(2**28), "--algo", algo]) == 2
            assert capsys.readouterr().err == (
                f"error: cannot rank a string of {size} positions: the limit is {2**31 - 1}\n"
            )

    def test_oversized_trie_refused_by_stats(self, tmp_path, monkeypatch, capsys):
        # stats never ranks the trie, but building one too large to rank
        # would exhaust memory first, so it is refused the way count is
        def no_tables(*args):
            raise AssertionError("affix tables built for a refused trie")

        monkeypatch.setattr("slpgram.neighbor.affix_tables", no_tables)
        slp = doubling_grammar(tmp_path / "doubling.slp", 41)
        assert main(["stats", "-i", slp, "--q-list", str(2**28)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot rank a string of {13 * 2**28 - 12} positions:"
            f" the limit is {2**31 - 1}\n"
        )
