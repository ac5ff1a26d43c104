import dataclasses
import gc
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import G7_DOC, doubling_doc, periodic_grammar
from oracles import count_report, escape_gram, escape_rule, sliding_histogram
from slpgram import (
    FlattenedTrie,
    QGramReport,
    WeightedText,
    build_chain,
    build_neighbor_graph,
    build_random,
    build_repair,
    build_ssa_text,
    compute_metrics,
    compute_qmarks,
    expand,
    flatten_neighbor_trie,
    parse_slp,
    serialize_slp,
    weighted_qgram_counts,
)
from slpgram.cli import (
    escape_bytes,
    main,
    run_bench,
    run_count,
    run_stats,
    run_verify,
    unescape_bytes,
)
import slpgram.cli as cli
import slpgram.slp as slp_core
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

# Texts whose escaping takes each path of the writer: no byte written over,
# only backslashes (two copies of the byte spell the escape), only \xNN
# escapes, one at each end, and grams made of escapes alone.
ESCAPE_EDGES = {
    "empty": b"",
    "printable": bytes(b for b in range(0x20, 0x7F) if b != 0x5C),
    "backslashes": b"\\" * 9,
    "wide only": bytes([*range(0x20), *range(0x7F, 0x100)]),
    "wide first and last": b"\x00ab\\c d~\xff",
    "escapes only": b"\x00\\\x01\xff\\\\\x7f\x00\x1f\\",
}


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

    @pytest.mark.parametrize("name", ESCAPE_EDGES)
    def test_edge_texts_match_the_rule(self, name):
        text = ESCAPE_EDGES[name]
        assert escape_bytes(text) == escape_gram(text)

    @pytest.mark.parametrize("name", [name for name, text in ESCAPE_EDGES.items() if text])
    def test_count_expand_on_edge_texts(self, name, tmp_path):
        text = ESCAPE_EDGES[name]
        path = tmp_path / "g.slp"
        for builder in (build_repair, build_chain):
            path.write_text(serialize_slp(builder(text)))
            for q in (1, 2, 3, 5, len(text)):
                counts = sliding_histogram(text, q)
                grams = sorted(counts)
                expected = count_report(grams, [counts[gram] for gram in grams])
                for algo in ("nsa", "ssa", "stsa"):
                    doc = run_count(str(path), q, algo, True)
                    assert doc == expected, (builder.__name__, q, algo)

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
        doc = run_count(g7_path, 2, "stsa", True)
        assert doc == "aa\t3\nab\t5\nba\t4\n"

    def test_nsa_q3_expanded(self, g7_path):
        doc = run_count(g7_path, 3, "nsa", True)
        assert doc == "aab\t3\naba\t4\nbaa\t2\nbab\t2\n"

    def test_q14_empty(self, g7_path):
        for algo in ("nsa", "ssa", "stsa"):
            doc = run_count(g7_path, 14, algo, True)
            assert doc == ""

    def test_positions_with_header(self, g7_path):
        doc = run_count(g7_path, 2, "ssa", False)
        assert doc == "# end positions refer to z\n4\t3\n2\t5\n3\t4\n"
        doc = run_count(g7_path, 2, "nsa", False)
        # ends of the first aa/ab/ba occurrences in the text itself
        assert doc == "# end positions refer to T\n2\t3\n3\t5\n4\t4\n"
        # z = aabababa begins like the text, and its first nodes are the
        # text's first positions
        doc = run_count(g7_path, 2, "stsa", False)
        assert doc == "# end positions refer to z\n2\t3\n3\t5\n4\t4\n"

    def test_q1_char_mode_for_every_algorithm(self, g7_path):
        for algo in ("nsa", "ssa", "stsa"):
            assert run_count(g7_path, 1, algo, False) == "a\t8\nb\t5\n"

    def test_expanded_matches_histogram_for_all_algorithms(self, g7_path):
        text = expand(parse_slp(G7_DOC))
        for q in (2, 5, 13):
            expected = "".join(
                f"{k.decode()}\t{v}\n"
                for k, v in sorted(sliding_histogram(text, q).items())
            )
            for algo in ("nsa", "ssa", "stsa"):
                doc = run_count(g7_path, q, algo, True)
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
        assert run_count(g7_path, 3, "stsa", True) == run_count(g7_path, 3, "stsa", True)

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
            # the positions of z that hold no trie node repeat the end of a
            # parent path: a later branch's context
            nodes = trie.to_weighted_text().nodes.tolist()
            earliest = {}
            for p in nodes[q - 1 :]:
                earliest.setdefault(z[p - q + 1 : p + 1], p + 1)
            want = sliding_histogram(text, q)
            header, *lines = run_count(str(path), q, "stsa", False).splitlines()
            assert header == "# end positions refer to z"
            assert len(lines) == len(want), (seed, q)
            for line in lines:
                end, count = map(int, line.split("\t"))
                gram = z[end - q : end]
                assert want[gram] == count, (seed, q, end)
                assert end - 1 in nodes, (seed, q, end)
                assert earliest[gram] == end, (seed, q, end)


# Every decimal width from 1 to 19 digits at both of its ends: 1, 9, 10,
# 99, 100, ..., 10^18 and 2^63 - 1.
DECIMAL_EDGES = sorted({v for d in range(1, 20) for v in (10 ** (d - 1), min(10**d, 2**63) - 1)})


def engine_rows(g, q: int, algo: str) -> tuple[bytes, list[list[int]]]:
    """The string a pipeline counts on and the engine's (end, weight) rows,
    assembled from the public API."""
    m = compute_metrics(g)
    if algo == "nsa":
        text = expand(g)
        weights = np.zeros(len(text), dtype=np.int64)
        weights[q - 1 :] = 1
        wt = WeightedText(text, weights, q)
    elif algo == "ssa":
        wt = build_ssa_text(g, m, q)
    else:
        graph = build_neighbor_graph(g, m, compute_qmarks(g, m, q))
        wt = flatten_neighbor_trie(g, m, graph).to_weighted_text()
    return wt.text, weighted_qgram_counts(wt).entries.tolist()


def expected_count(g, q: int, algo: str, expand_output: bool) -> str:
    """``count``'s report from the report oracle."""
    if q == 1:
        freq = Counter(expand(g))
        return count_report([bytes([b]) for b in sorted(freq)], [freq[b] for b in sorted(freq)])
    text, rows = engine_rows(g, q, algo)
    weights = [w for _, w in rows]
    if expand_output:
        return count_report([text[end - q : end] for end, _ in rows], weights)
    header = f"# end positions refer to {'T' if algo == 'nsa' else 'z'}\n"
    return count_report([end for end, _ in rows], weights, header)


class TestReport:
    """``count``'s writer, byte for byte against the report oracle."""

    def check(self, g, qs, tmp_path):
        path = tmp_path / "g.slp"
        path.write_text(serialize_slp(g))
        for q in qs:
            for algo in ("nsa", "ssa", "stsa"):
                for expand_output in (False, True):
                    doc = run_count(str(path), q, algo, expand_output)
                    assert doc == expected_count(g, q, algo, expand_output), (q, algo, expand_output)

    @pytest.mark.parametrize("expand_output", [False, True])
    def test_every_decimal_width(self, expand_output, g7_path, monkeypatch):
        # Positions and weights of 1 to 19 digits, next to wider and
        # narrower ones; the ends of the expanded form stay inside G7.
        values = DECIMAL_EDGES
        ends = [2 + i % 12 for i in range(2 * len(values))] if expand_output else values * 2
        weights = values + values[::-1]
        rows = np.array([ends, weights], dtype=np.int64).T
        monkeypatch.setattr("slpgram.cli.weighted_qgram_counts", lambda wt: QGramReport(rows, 2))
        doc = run_count(g7_path, 2, "nsa", expand_output)
        text = expand(parse_slp(G7_DOC))
        if expand_output:
            assert doc == count_report([text[end - 2 : end] for end in ends], weights)
        else:
            assert doc == count_report(ends, weights, "# end positions refer to T\n")
        assert len(doc.splitlines()) == len(weights) + (not expand_output)

    def test_weights_near_two_to_the_63(self, tmp_path):
        # 2^63 - 1 a's, the longest text a grammar may derive: rule k derives
        # 2^(k-1) a's, and the root joins rules 63, 62, ..., 1
        doc = doubling_doc(63)
        root = 63
        for k in range(62, 0, -1):
            root += 1
            doc += f"{root} N {root - 1} {k}\n"
        path = tmp_path / "g.slp"
        path.write_text(doc)
        for algo in ("nsa", "ssa", "stsa"):
            assert run_count(str(path), 1, algo, False) == f"a\t{2**63 - 1}\n"
        for q in (2, 9, 64):
            expected = f"{'a' * q}\t{2**63 - q}\n"
            for algo in ("ssa", "stsa"):
                assert run_count(str(path), q, algo, True) == expected
                assert run_count(str(path), q, algo, False).endswith(f"\t{2**63 - q}\n")

    def test_all_byte_values(self, tmp_path):
        # every escape width (1, 2 and 4) in keys of 1, 2, 3 and 64 bytes
        self.check(build_repair(ALL_BYTES_TEXT), (1, 2, 3, 64), tmp_path)

    @pytest.mark.parametrize("wide", [b"\x7f", b"\\", b"\n"])
    def test_one_key_wider_than_the_rest(self, wide, tmp_path):
        text = b"ab" * 20 + wide + b"ba" * 20
        self.check(build_chain(text), (1, 2, 5), tmp_path)

    @pytest.mark.parametrize("run", [64, 200])
    def test_a_run_of_escaped_bytes(self, run, tmp_path, monkeypatch):
        # A run of NUL bytes makes a few grams up to four times wider than
        # the rest, each NUL written as \x00.  Those lines take a matrix of
        # their own, merged back by line, so the writer allocates a few times
        # the report's bytes: padding every line to the widest gram took 11.
        rng = random.Random(run)
        text = bytes(rng.choice(b"abcdefghij klmnop") for _ in range(20_000)) + b"\0" * run
        self.check(build_repair(text), (2, 64), tmp_path)
        real, peaks = cli._lines, []

        def traced(*args):
            tracemalloc.start()
            try:
                doc = real(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] / len(doc))
            finally:
                tracemalloc.stop()
            return doc

        monkeypatch.setattr(cli, "_lines", traced)
        doc = run_count(str(tmp_path / "g.slp"), 64, "nsa", True)
        assert "\\x00" * 64 in doc
        assert peaks[0] < 5

    def test_one_line_empty_and_single_byte_reports(self, tmp_path):
        g = parse_slp(doubling_doc(3))  # aaaa
        self.check(g, (1, 2, 4, 5), tmp_path)
        path = tmp_path / "g.slp"
        assert run_count(str(path), 1, "stsa", False) == "a\t4\n"
        assert run_count(str(path), 4, "ssa", True) == "aaaa\t1\n"
        assert run_count(str(path), 4, "nsa", False) == "# end positions refer to T\n4\t1\n"
        assert run_count(str(path), 5, "nsa", True) == ""
        assert run_count(str(path), 5, "stsa", False) == "# end positions refer to z\n"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.binary(min_size=1, max_size=40), st.integers(1, 6))
    def test_random_texts(self, text, q):
        g = build_repair(text)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.slp"
            path.write_text(serialize_slp(g))
            for algo in ("nsa", "ssa", "stsa"):
                for expand_output in (False, True):
                    doc = run_count(str(path), q, algo, expand_output)
                    assert doc == expected_count(g, q, algo, expand_output), (algo, expand_output)

    @pytest.mark.parametrize("argv", [["-q", "1"], ["-q", "3"], ["-q", "3", "--expand"],
                                      ["-q", "3", "--algo", "nsa", "--expand"]])
    def test_output_file_holds_the_report(self, argv, tmp_path):
        path = tmp_path / "bytes.slp"
        path.write_text(serialize_slp(build_repair(ALL_BYTES_TEXT)))
        out = tmp_path / "out.tsv"
        assert main(["count", "-i", str(path), *argv, "-o", str(out)]) == 0
        args = dict(zip(argv[::2], argv[1::2]))
        doc = run_count(str(path), int(args["-q"]), args.get("--algo", "stsa"), "--expand" in argv)
        assert out.read_bytes() == doc.encode("ascii")


class TestVerify:
    def test_g7_passes(self, g7_path):
        code, report = run_verify(g7_path, 13)
        assert code == 0
        assert "verification passed" in report

    def test_one_byte_text_checks_nothing(self, tmp_path):
        path = tmp_path / "one.slp"
        path.write_text("1 T 97\n")
        report = tmp_path / "r.txt"
        assert main(["verify", "-i", str(path), "--q-max", "5", "-o", str(report)]) == 0
        assert report.read_text() == "nothing checked: no q >= 2 fits a text of 1 byte\n"

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

    def test_built_trie_off_the_graph_sizes_fails(self, g7_path, monkeypatch, capsys):
        # one more zero-weight byte changes no count, only the trie's sizes
        real = flatten_neighbor_trie

        def one_byte_longer(*args):
            trie = real(*args)
            weights = np.append(trie.end_weights, 0)
            return dataclasses.replace(trie, text=trie.text + b"a", end_weights=weights)

        def second_vertex_branched(*args):
            # G7's second vertex, 3, follows its parent, the first, 4, whose
            # window "aa" opens z; emit it as a branch hanging from node 1,
            # the parent's last, instead: the same nodes and counts, q-1 = 1
            # more context byte
            trie = real(*args)
            at = 2
            return dataclasses.replace(
                trie,
                text=trie.text[:at] + trie.text[at - 1 : at] + trie.text[at:],
                end_weights=np.insert(trie.end_weights, at, 0),
                firsts=[at, *trie.firsts],
                hangs=[at - 1, *trie.hangs],
            )

        for fake, sizes in (
            (one_byte_longer, "7 nodes and 9"),
            (second_vertex_branched, "6 nodes and 9"),
        ):
            monkeypatch.setattr("slpgram.cli.flatten_neighbor_trie", fake)
            assert main(["verify", "-i", g7_path, "--q-max", "13"]) == 1
            assert capsys.readouterr().out == (
                f"q=2: built trie has {sizes} text bytes, the graph gives 6 and 8\n"
                "q=2: FAIL\n"
                "verification FAILED\n"
            )

    @pytest.mark.parametrize(
        "broken, problems",
        [
            # the trie size, from the window total, no longer equals |T| - dup
            (lambda g: {"dup": g.dup + 1}, ["trie size 6 != text length 13 minus dup 8"]),
            (lambda g: {"edge_count": 2 * 7 + 1}, ["edge count 15 exceeds 2n=14"]),
            # 5 more window bytes and 5 less dup keep the identity; the graph's
            # sizes then grow by 5 as well
            (
                lambda g: {"sum_ti": g.sum_ti + 5, "dup": g.dup - 5},
                [
                    "built trie has 6 nodes and 8 text bytes, the graph gives 11 and 13",
                    "window total 15 exceeds 2(q-1)n",
                ],
            ),
        ],
        ids=["dup", "edges", "window-total"],
    )
    def test_broken_graph_quantity_fails(self, broken, problems, g7_path, monkeypatch, capsys):
        real = build_neighbor_graph

        def broken_graph(*args):
            graph = real(*args)
            return dataclasses.replace(graph, **broken(graph))

        monkeypatch.setattr("slpgram.cli.build_neighbor_graph", broken_graph)
        assert main(["verify", "-i", g7_path, "--q-max", "13"]) == 1
        assert capsys.readouterr().out == "".join(
            f"q=2: {line}\n" for line in [*problems, "FAIL"]
        ) + "verification FAILED\n"


class TestStats:
    def test_g7_rows(self, g7_path, monkeypatch, capsys):
        # every column comes from the neighbor graph: no table, no trie
        def not_built(*args):
            raise AssertionError("stats built an affix table or a trie")

        monkeypatch.setattr("slpgram.neighbor.affix_tables", not_built)
        monkeypatch.setattr("slpgram.cli.affix_tables", not_built)
        monkeypatch.setattr("slpgram.cli.flatten_neighbor_trie", not_built)
        rows = [
            "q,sum_ti,trie_size,dup,flattened_len,edges,vertices",
            "2,10,6,7,8,7,5",
            "13,13,13,0,13,0,1",
            "14,0,0,0,0,0,0",
        ]
        assert run_stats(g7_path, [2, 13, 14]).splitlines() == rows
        assert main(["stats", "-i", g7_path, "--q-list", "2,13,14"]) == 0
        assert capsys.readouterr().out.splitlines() == rows


class TestBench:
    def test_structure(self, g7_path):
        lines = run_bench(g7_path, [2], 2).splitlines()
        assert lines[0] == "q,algo,mean_seconds,problem_size"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["nsa", "ssa", "stsa"]
        assert all(float(r[2]) > 0 for r in rows)
        assert [int(r[3]) for r in rows] == [13, 10, 8]


def test_no_command_leaves_reference_cycles(tmp_path):
    """Every command frees what it made by reference counting alone, so
    the cyclic collector finds nothing after any of them."""
    raw = tmp_path / "input.txt"
    raw.write_bytes(b"the cat sat on the mat; the rat sat on the hat. " * 40)
    slp, out = str(tmp_path / "g.slp"), str(tmp_path / "out")
    commands = [
        ["build", "-i", str(raw), "-o", slp, "--algo-builder", builder]
        for builder in ("random", "chain", "repair")
    ]
    commands.append(["decompress", "-i", slp, "-o", out])
    for algo in ("nsa", "ssa", "stsa"):
        for q in ("1", "4", "64"):
            for form in ([], ["--expand"]):
                commands.append(["count", "-i", slp, "-q", q, "--algo", algo, *form, "-o", out])
    commands.append(["stats", "-i", slp, "--q-list", "2,4,64", "-o", out])
    commands.append(["verify", "-i", slp, "--q-max", "4", "-o", out])
    commands.append(["bench", "-i", slp, "--q-list", "4,64", "--reps", "1", "-o", out])
    # the command-line parser is built once per process
    cli._build_parser()
    gc.disable()
    try:
        gc.collect()
        for argv in commands:
            assert main(argv) == 0, argv
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


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

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["verify", "--q-max", "1"], "q_max must be at least 2"),
            (["stats", "--q-list", "1"], "stats needs q >= 2"),
            (["stats", "--q-list", "3,1"], "stats needs q >= 2"),
            (["bench", "--q-list", "2", "--reps", "0"], "repetitions must be at least 1"),
            (["bench", "--q-list", "1"], "bench needs q >= 2"),
            (["stats", "--q-list", ","], "empty q list"),
            (["bench", "--q-list", ","], "empty q list"),
        ],
        ids=["verify-q-max", "stats-q", "stats-later-q", "bench-reps", "bench-q", "stats-empty",
             "bench-empty"],
    )
    def test_argument_refusals_exit_2(self, argv, refusal, g7_path, capsys):
        command, *options = argv
        assert main([command, "-i", g7_path, *options]) == 2
        assert capsys.readouterr() == ("", f"error: {refusal}\n")

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

    def test_verify_periodic_text_near_two_to_the_63(self, tmp_path):
        # "ab\xff" doubled 61 times: 3 * 2^61 bytes, weights up to 2^61
        slp = tmp_path / "periodic.slp"
        slp.write_text(serialize_slp(periodic_grammar(b"ab\xff", 61)))
        report = tmp_path / "r.txt"
        assert main(["verify", "-i", str(slp), "--q-max", "5", "-o", str(report)]) == 0
        assert report.read_text().splitlines() == [
            f"nsa skipped: the text is {3 * 2**61} bytes, above the {DEFAULT_EXPAND_CAP}"
            " byte expansion cap; stsa checked against ssa",
            "q=2: ok",
            "q=3: ok",
            "q=4: ok",
            "q=5: ok",
            "verification passed for q in 2..5",
        ]

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
            assert main(["count", "-i", g7_path, "-q", q, "--algo", algo, "--expand"]) == 0, algo
            assert capsys.readouterr().out == "", algo
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
        monkeypatch.setattr("slpgram.cli.affix_tables", no_tables)
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
        monkeypatch.setattr("slpgram.cli.affix_tables", no_tables)
        slp = doubling_grammar(tmp_path / "doubling.slp", 41)
        for algo, size in (("ssa", 25 * 2**28 - 24), ("stsa", 13 * 2**28 - 12)):
            assert main(["count", "-i", slp, "-q", str(2**28), "--algo", algo]) == 2
            assert capsys.readouterr().err == (
                f"error: cannot rank a string of {size} positions: the limit is {2**31 - 1}\n"
            )

    def test_window_total_past_int64_refused_exactly(self, tmp_path, monkeypatch, capsys):
        # a doubled 61 times, then six rules Y_k = Y_{k-1} b, at q = 2^61 - 5:
        # the 2^61-byte rule's window holds 2^61 bytes and each Y_k's
        # q = 2^61 - 5, so the ssa string would be 7 * 2^61 - 30 positions,
        # a total past int64 that must be stated exactly
        def no_tables(*args):
            raise AssertionError("affix tables built for a refused count")

        monkeypatch.setattr("slpgram.ssa.affix_tables", no_tables)
        rules = ["1 T 97"] + [f"{i} N {i - 1} {i - 1}" for i in range(2, 63)] + ["63 T 98"]
        rules += ["64 N 62 63"] + [f"{i} N {i - 1} 63" for i in range(65, 70)]
        slp = tmp_path / "wide.slp"
        slp.write_text("\n".join(rules) + "\n")
        q = 2**61 - 5
        assert main(["count", "-i", str(slp), "-q", str(q), "--algo", "ssa"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot rank a string of 16140901064495857634 positions:"
            " the limit is 2147483647\n"
        )
        assert 7 * 2**61 - 30 == 16140901064495857634

    def test_no_tables_when_no_rule_owns_a_window(self, tmp_path, monkeypatch, capsys):
        # 2^48 a's at q = 10^20: no rule is long enough to own a window, so
        # no affix table is built (every rule's whole text would be ~2^49 bytes)
        def no_tables(*args):
            raise AssertionError("affix tables built where no window needs them")

        for module in ("ssa", "neighbor", "cli"):
            monkeypatch.setattr(f"slpgram.{module}.affix_tables", no_tables)
        slp = doubling_grammar(tmp_path / "doubling.slp", 49)
        q = str(10**20)
        for algo in ("ssa", "stsa"):
            assert main(["count", "-i", slp, "-q", q, "--algo", algo]) == 0, algo
            assert capsys.readouterr().out == "# end positions refer to z\n", algo
            assert main(["count", "-i", slp, "-q", q, "--algo", algo, "--expand"]) == 0, algo
            assert capsys.readouterr().out == "", algo
        assert main(["stats", "-i", slp, "--q-list", q]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"{q},0,0,0,0,0,0"
        assert main(["bench", "-i", slp, "--q-list", q, "--reps", "1"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[0], r[1], r[3]) for r in rows] == [(q, "ssa", "0"), (q, "stsa", "0")]

    def test_verify_builds_the_affix_tables_once_per_q(self, tmp_path, monkeypatch):
        built = []
        real = slp_core.affix_tables

        def counted(g, m, q):
            built.append(q)
            return real(g, m, q)

        for module in ("ssa", "neighbor", "cli"):
            monkeypatch.setattr(f"slpgram.{module}.affix_tables", counted)
        slp = tmp_path / "g.slp"
        slp.write_text(serialize_slp(build_repair(ALL_BYTES_TEXT)))
        assert main(["verify", "-i", str(slp), "--q-max", "13", "-o", str(tmp_path / "r")]) == 0
        assert built == list(range(2, 14))

    def test_oversized_affix_tables_refused_before_any_table(self, tmp_path, monkeypatch,
                                                              capsys):
        # a chain of 40 bytes at q = 40 owns one window, but its tables
        # would hold 820 bytes (test_affix_tables_refused_past_the_cap);
        # verify builds them for every q up to 39, which need at most 818
        real = slp_core.affix_tables

        def below_40(g, m, q):
            assert q < 40, "affix tables built past their cap"
            return real(g, m, q)

        for module in ("ssa", "neighbor", "cli"):
            monkeypatch.setattr(f"slpgram.{module}.affix_tables", below_40)
        monkeypatch.setattr(slp_core, "DEFAULT_EXPAND_CAP", 819)
        slp = tmp_path / "chain.slp"
        slp.write_text(serialize_slp(build_chain(b"ab" * 20)))
        refused = "error: the affix tables for q=40 would hold 820 bytes, above the 819 byte cap\n"
        for argv in (
            ["count", "-q", "40", "--algo", "ssa"],
            ["count", "-q", "40", "--algo", "stsa", "--expand"],
            ["verify", "--q-max", "40"],
        ):
            assert main(argv + ["-i", str(slp)]) == 2, argv
            assert capsys.readouterr().err == refused, argv
        # nsa and stats build no tables
        assert main(["count", "-q", "40", "--algo", "nsa", "-i", str(slp)]) == 0
        assert capsys.readouterr().out.endswith("\t1\n")
        assert main(["stats", "--q-list", "40", "-i", str(slp)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "40,40,40,0,40,0,1"

    def test_affix_tables_of_a_long_chain_refused(self, tmp_path, monkeypatch, capsys):
        # at the real cap: a chain of 50 000 bytes at q = 50 000 would need
        # 1 + 1 + (2 + ... + 49 999) + 49 999 bytes of tables
        def no_tables(*args):
            raise AssertionError("affix tables built past their cap")

        for module in ("ssa", "neighbor", "cli"):
            monkeypatch.setattr(f"slpgram.{module}.affix_tables", no_tables)
        slp = tmp_path / "chain.slp"
        slp.write_text(serialize_slp(build_chain(b"ab" * 25_000)))
        total = 2 + (49_999 * 50_000 // 2 - 1) + 49_999
        for algo in ("ssa", "stsa"):
            assert main(["count", "-q", "50000", "--algo", algo, "-i", str(slp)]) == 2, algo
            assert capsys.readouterr().err == (
                f"error: the affix tables for q=50000 would hold {total} bytes,"
                f" above the {DEFAULT_EXPAND_CAP} byte cap\n"
            )

    def test_calls_in_one_process_are_independent(self, g7_path, capsys):
        # the parser is built once per process; nothing of one call's
        # arguments may reach the next
        assert main(["count", "-i", g7_path, "-q", "2", "--expand"]) == 0
        assert capsys.readouterr().out == "aa\t3\nab\t5\nba\t4\n"
        assert main(["count", "-i", g7_path, "-q", "2"]) == 0
        assert capsys.readouterr().out.startswith("# end positions refer to z\n")
        with pytest.raises(SystemExit) as exc:
            main(["count", "-i", g7_path, "-q", "2", "--algo", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["count", "-i", g7_path, "-q", "2", "--algo", "nsa"]) == 0
        assert capsys.readouterr().out.startswith("# end positions refer to T\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-i", g7_path])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["stats", "-i", g7_path, "--q-list", "2"]) == 0
        assert capsys.readouterr().out.startswith("q,sum_ti,")

    def test_stats_row_of_a_trie_too_large_to_rank(self, tmp_path, monkeypatch, capsys):
        # count refuses this trie of 13 * 2^28 - 12 nodes, but stats builds
        # neither tables nor trie, so it prints the row
        def not_built(*args):
            raise AssertionError("stats built an affix table or a trie")

        monkeypatch.setattr("slpgram.neighbor.affix_tables", not_built)
        monkeypatch.setattr("slpgram.cli.affix_tables", not_built)
        monkeypatch.setattr("slpgram.cli.flatten_neighbor_trie", not_built)
        slp = doubling_grammar(tmp_path / "doubling.slp", 41)
        assert main(["stats", "-i", slp, "--q-list", str(2**28)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            f"{2**28},6710886376,{13 * 2**28 - 12},1096021966860,6442450921,24,13"
        )


class TestGrammarFile:
    def test_canonical_and_commented_forms_print_the_same(self, tmp_path):
        # The serializer's form is read with array operations, the commented,
        # tabbed CRLF form by the line loop; every output must be the same.
        doc = serialize_slp(build_repair(ALL_BYTES_TEXT + b"the cat sat on the mat; " * 30))
        commented = "# grammar\r\n" + "".join(
            f"\t{line.replace(' ', chr(9))} \r\n# rule {line.split()[0]}\r\n\r\n"
            for line in doc.splitlines()
        )
        runs = [["verify", "--q-max", "6"], ["stats", "--q-list", "2,4,64"]]
        for algo in ("nsa", "ssa", "stsa"):
            for q in ("2", "4", "64"):
                runs.append(["count", "-q", q, "--algo", algo])
                runs.append(["count", "-q", q, "--algo", algo, "--expand"])
        assert slp_core._parse_canonical(commented) is None
        outputs = {}
        for form, text in (("canonical", doc), ("commented", commented)):
            path = tmp_path / f"{form}.slp"
            path.write_bytes(text.encode())
            with pytest.MonkeyPatch.context() as patch:
                if form == "canonical":
                    patch.setattr(slp_core, "_parse_lines", None)  # the array reader only
                for k, argv in enumerate(runs):
                    out = tmp_path / f"{form}-{k}.txt"
                    assert main([*argv, "-i", str(path), "-o", str(out)]) == 0, (form, argv)
                    outputs[form, k] = out.read_bytes()
        for k, argv in enumerate(runs):
            assert outputs["canonical", k] == outputs["commented", k], argv
            assert outputs["canonical", k], argv

    @pytest.mark.parametrize(
        "env",
        [{"LC_ALL": "C", "PYTHONUTF8": "0"}, {}],
        ids=["C locale", "inherited"],
    )
    def test_decoded_as_utf8_under_every_locale(self, env, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), **env}

        def count(data):
            path = tmp_path / "g.slp"
            path.write_bytes(data)
            return subprocess.run(
                [sys.executable, "-m", "slpgram.cli", "count", "-i", str(path), "-q", "2",
                 "--expand"],
                capture_output=True, env=env, timeout=120,
            )

        latin1 = count(b"1 T 97\n# caf\xe9\n2 N 1 1\n")
        assert latin1.returncode == 2
        assert latin1.stderr == b"error: line 2: byte 0xE9 is not UTF-8 (invalid continuation byte)\n"
        utf8 = count("1 T 97\n# café\n2 N 1 1\n".encode())
        assert (utf8.returncode, utf8.stdout, utf8.stderr) == (0, b"aa\t1\n", b"")

    def test_line_ends_as_the_format_defines_them(self, tmp_path, capsys):
        # No text-mode newline translation: "\r\n" ends a line, and a lone
        # "\r" is an error here as in parse_slp.
        path = tmp_path / "g.slp"
        path.write_bytes(b"1 T 97\r\n2 N 1 1\r\n")
        assert main(["count", "-i", str(path), "-q", "2", "--expand"]) == 0
        assert capsys.readouterr().out == "aa\t1\n"
        path.write_bytes(b"1 T 97\r2 N 1 1\r")
        assert main(["count", "-i", str(path), "-q", "2", "--expand"]) == 2
        assert capsys.readouterr().err == (
            "error: line 1: character '\\r' found; fields are separated by spaces and tabs only\n"
        )
