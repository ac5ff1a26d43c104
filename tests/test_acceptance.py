"""Acceptance suite: one test per exit criterion, exact tolerances.

Criteria 1/3/4/5 share a single sweep over the randomized instance corpus
(compressed strings plus random grammars); 6/7 share a ~1MB synthetic
natural-language corpus.  Each test prints one PASS/FAIL line.  The last
test runs the pipelines on a grammar whose height is linear in its size.
"""

import hashlib
import random

import numpy as np
import pytest

from conftest import G7_DOC, comb_grammar, comb_text, right_chain
from oracles import (
    count_report,
    derivation_occurrences,
    naive_rule_texts,
    sliding_histogram,
    trie_layout,
)
from slpgram import (
    ConsistencyError,
    WeightedText,
    build_chain,
    build_neighbor_graph,
    build_random,
    build_repair,
    build_ssa_text,
    compute_dup_stats,
    compute_metrics,
    compute_qmarks,
    expand,
    flatten_neighbor_trie,
    parse_slp,
    serialize_slp,
    weighted_qgram_counts,
)
from slpgram.cli import run_bench, run_count, run_stats

Q_RANGE = range(2, 13)


def _report(number, label, ok, detail=""):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {detail}"


def _unit_weighted(text, q):
    weights = np.zeros(len(text), dtype=np.int64)
    if len(text) >= q:
        weights[q - 1 :] = 1
    return WeightedText(text, weights, q)


def _window_len(g, m, q, i):
    return min(q - 1, m.lengths[g.lefts[i]]) + min(q - 1, m.lengths[g.rights[i]])


# ---------------------------------------------------------------------------
# criteria 1, 3, 4, 5: shared instance sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    rng = random.Random(0xC0FFEE)
    grammars = []
    strings = 0
    for _ in range(500):
        sigma = rng.randint(2, 4)
        text = bytes(97 + rng.randrange(sigma) for _ in range(rng.randint(1, 300)))
        strings += 1
        grammars.append(build_repair(text))
        grammars.append(build_chain(text))
    randoms = 0
    seed = 0
    while randoms < 200:
        g = build_random(3 + seed % 38, 2 + seed % 3, 10_000 + seed)
        seed += 1
        if compute_metrics(g).text_length <= 4000:
            grammars.append(g)
            randoms += 1

    violations = {1: [], 3: [], 4: [], 5: []}
    checks = 0
    for index, g in enumerate(grammars):
        m = compute_metrics(g)
        text = expand(g)
        texts = naive_rule_texts(g)
        occurrences = derivation_occurrences(g)
        for q in Q_RANGE:
            checks += 1
            naive = sliding_histogram(text, q)
            nsa_wt = _unit_weighted(text, q)
            nsa = weighted_qgram_counts(nsa_wt).materialize(text)
            ssa_wt = build_ssa_text(g, m, q)
            ssa = weighted_qgram_counts(ssa_wt).materialize(ssa_wt.text)
            qm = compute_qmarks(g, m, q)
            graph = build_neighbor_graph(g, m, qm)
            trie = flatten_neighbor_trie(g, m, graph)
            trie_wt = trie.to_weighted_text()
            stsa = weighted_qgram_counts(trie_wt).materialize(trie_wt.text)
            if not (naive == nsa == ssa == stsa):
                violations[1].append(f"instance {index} q={q}: count maps differ")

            try:
                stats = compute_dup_stats(m, graph)
            except ConsistencyError as exc:
                violations[3].append(f"instance {index} q={q}: {exc}")
                continue
            # the stats row's sizes, read from the graph, against the built trie
            if (stats.trie_size, stats.flattened_len) != (trie.body_total, len(trie.text)):
                violations[3].append(f"instance {index} q={q}: graph sizes vs built trie")
            if m.text_length < q:
                if stats.csv_row() != f"{q},0,0,0,0,0,0":
                    violations[3].append(f"instance {index} q={q}: row past the text")
            else:
                if stats.trie_size != m.text_length - stats.dup:
                    violations[3].append(f"instance {index} q={q}: size identity")
                # the engine ranks the trie's nodes, not the flattened text
                if trie_wt.nodes.size != trie.body_total:
                    violations[3].append(f"instance {index} q={q}: ranked node count")
                occ_total = sum(
                    m.occurrences[i] * (_window_len(g, m, q, i) - (q - 1))
                    for i in graph.vertices
                )
                if occ_total != m.text_length - q + 1:
                    violations[3].append(f"instance {index} q={q}: occurrence total")

            if len(graph.edges) > 2 * g.n:
                violations[4].append(f"instance {index} q={q}: edge bound")
            # each vertex's label once, every context and every weight
            layout = (trie.text, trie.end_weights.tolist(), trie.firsts.tolist(), trie.hangs.tolist())
            if layout != trie_layout(g, graph, texts, occurrences):
                violations[4].append(f"instance {index} q={q}: vertex coverage")

            if stats.flattened_len > stats.sum_ti:
                violations[5].append(f"instance {index} q={q}: flattened vs windows")
            if stats.sum_ti > 2 * (q - 1) * g.n:
                violations[5].append(f"instance {index} q={q}: window bound")

    return {
        "strings": strings,
        "randoms": randoms,
        "instances": len(grammars),
        "checks": checks,
        "violations": violations,
    }


def test_criterion_1_oracle_equivalence(sweep):
    ok = sweep["strings"] >= 500 and sweep["randoms"] >= 200 and not sweep["violations"][1]
    detail = (
        f"({sweep['instances']} instances x q in 2..12 = {sweep['checks']} checks; "
        f"{len(sweep['violations'][1])} mismatches)"
    )
    _report(1, "oracle equivalence nsa=ssa=stsa=naive", ok, detail)


def test_criterion_3_size_identity(sweep):
    bad = sweep["violations"][3]
    label = "ranked nodes = trie size = text - dup, occurrence totals"
    _report(3, label, not bad, f"({len(bad)} failures)")


def test_criterion_4_edge_bound_and_coverage(sweep):
    bad = sweep["violations"][4]
    _report(4, "edge bound <= 2n and single-visit coverage", not bad, f"({len(bad)} failures)")


def test_criterion_5_size_dominance(sweep):
    bad = sweep["violations"][5]
    _report(5, "flattened <= sum windows <= 2(q-1)n", not bad, f"({len(bad)} failures)")


# ---------------------------------------------------------------------------
# criterion 2: the 13-character fixture
# ---------------------------------------------------------------------------


def test_criterion_2_fixture_counts():
    g = parse_slp(G7_DOC)
    m = compute_metrics(g)
    text = expand(g)
    expected = {
        2: {b"aa": 3, b"ab": 5, b"ba": 4},
        3: {b"aab": 3, b"aba": 4, b"baa": 2, b"bab": 2},
        13: {text: 1},
    }
    ok = True
    for q, want in expected.items():
        qm = compute_qmarks(g, m, q)
        graph = build_neighbor_graph(g, m, qm)
        wt = flatten_neighbor_trie(g, m, graph).to_weighted_text()
        z = build_ssa_text(g, m, q)
        nsa_wt = _unit_weighted(text, q)
        for label, candidate in (
            ("stsa", weighted_qgram_counts(wt).materialize(wt.text)),
            ("ssa", weighted_qgram_counts(z).materialize(z.text)),
            ("nsa", weighted_qgram_counts(nsa_wt).materialize(text)),
        ):
            if candidate != want:
                ok = False
    _report(2, "fixture counts at q=2,3,13", ok)


# ---------------------------------------------------------------------------
# criteria 6 and 7: ~1MB corpus trends
# ---------------------------------------------------------------------------

WORDS = (
    "the of and to in is that it was for on are with as his they be at one "
    "have this from or had by hot word but what some we can out other were "
    "all there when up use your how said an each she which do their time if "
    "will way about many then them write would like so these her long make "
    "thing see him two has look more day could go come did number sound no "
    "most people my over know water than call first who may down side been "
    "now find any new work part take get place made live where after back "
    "little only round man year came show every good me give our under name "
    "very through just form sentence great think say help low line differ "
    "turn cause much mean before move right boy old too same tell does set "
    "three want air well also play small end put home read hand port large "
    "spell add even land here must big high such follow act why ask men "
    "change went light kind off need house picture try us again animal "
    "point mother world near build self earth father head stand own page"
).split()


def make_corpus(size=1_000_000, seed=0x5EED) -> bytes:
    """Deterministic English-like sample with document-style duplication.

    Half the stream repeats one of eight boilerplate paragraphs, the rest
    draws sentences from a fixed pool, so pair-replacement compression finds
    both long exact repeats and word-level structure.
    """
    rng = random.Random(seed)

    def sentence():
        count = rng.randint(6, 12)
        return " ".join(rng.choice(WORDS) for _ in range(count)) + ". "

    paragraphs = ["".join(sentence() for _ in range(rng.randint(8, 12))) + "\n" for _ in range(8)]
    pool = [sentence() for _ in range(150)]
    parts = []
    total = 0
    while total < size:
        piece = rng.choice(paragraphs) if rng.random() < 0.5 else rng.choice(pool)
        parts.append(piece)
        total += len(piece)
    return "".join(parts).encode("ascii")[:size]


@pytest.fixture(scope="module")
def corpus():
    return make_corpus()


@pytest.fixture(scope="module")
def corpus_grammar(corpus):
    return build_repair(corpus, 32)


# SHA-256 of the corpus grammar's SLP v1 document; any change to Re-Pair's
# counting, tie-break or replacement changes the rule sequence.
CORPUS_GRAMMAR_SHA256 = "791c9d91a10464697a8aef63d8d7716c512b6b90df3f4e610f61c69dce0807d3"


def test_corpus_rule_sequence_pinned(corpus_grammar):
    assert corpus_grammar.n == 21866
    digest = hashlib.sha256(serialize_slp(corpus_grammar).encode("ascii")).hexdigest()
    assert digest == CORPUS_GRAMMAR_SHA256


# SHA-256 of count's reports on a Re-Pair grammar of a 40 000-byte corpus,
# as written by the list-join formatter before the reports became one byte
# array: a later change to the writer must keep them byte-identical.
# "newlines" is the corpus itself, whose newlines print as \x0A; in "spaces"
# they are spaces, so no byte needs an escape.  Keys are (text, algorithm
# or "expand" for the expanded form of all three, q).
COUNT_REPORT_SHA256 = {
    ("newlines", "nsa", 4): "14bd57a331db7404e8b8bdd0255680f9c7cd67c48930f8c5cd117eeb37887b07",
    ("newlines", "nsa", 64): "7602397d325c6fda2435b1297aa301035c4a72bb5713c9319e786e7b012f3895",
    ("newlines", "ssa", 4): "bf83efeac7ff6ee0c5ccb383f9ba890523c8f51157f1a2b1337147b3d0ec4ae6",
    ("newlines", "ssa", 64): "ea4f64a8963e2f1744b8dc5479eb2026ca05a5eecb9e626fbb5d2b5f573be8e2",
    ("newlines", "stsa", 4): "383ae27679cc015beea3d1620d222286d971784350a28b7eb963185d5f87193a",
    ("newlines", "stsa", 64): "074890c26b6d6769faa9653de94ef466bbce070327a79ff5a4e12bf62e1c2993",
    ("newlines", "expand", 4): "42f8f61a559f9ea3a8a37eb33ca81d7fddb8e337931cf3332f2b149069c2fb31",
    ("newlines", "expand", 64): "44647a3c0801a613e7178af737d59c26d728dd4df1e26f4887863b0cb1347d8e",
    ("spaces", "nsa", 4): "d332c1f9413e1b7148faa6ecb617f1e39ea58afa8be4525d0ff1cfd6b87f0460",
    ("spaces", "nsa", 64): "5538fcda87baf040990f649967dc1e29c48c6d49324fd8e9575544ae78875033",
    ("spaces", "ssa", 4): "1ecd6269e535408f0f5b9650239b1219fc07dc7b81ee648db1b5614533f86db3",
    ("spaces", "ssa", 64): "d558d0bacc0f8795a6c53fc2b2a26a087a89a93217fb98aaff90f6b1a99a377b",
    ("spaces", "stsa", 4): "b904bbdfd4b80098b3dbea36c43ec9a240e723cc5d1dd064c7a0e4cf8e969fd6",
    ("spaces", "stsa", 64): "a43a77701d47dc93ffb62be4f4fd93921c0b4df92c4d8d6f97d294493b1ecc95",
    ("spaces", "expand", 4): "bf271f485fc8c17f0404dc2a48f87a5197256928f9399c91dcf58eda21acc6ba",
    ("spaces", "expand", 64): "75bed4f28e766a102bdfed7687d492c56e454fef8ee5114564cd5c98b61d0a2d",
}


@pytest.mark.parametrize("name", ["newlines", "spaces"])
def test_count_reports_pinned(name, tmp_path):
    text = make_corpus(40_000, seed=23)
    if name == "spaces":
        text = text.replace(b"\n", b" ")
    path = tmp_path / "g.slp"
    path.write_text(serialize_slp(build_repair(text, 8)))
    for q in (4, 64):
        for algo in ("nsa", "ssa", "stsa"):
            for expand_output, key in ((False, algo), (True, "expand")):
                doc = run_count(str(path), q, algo, expand_output)
                digest = hashlib.sha256(doc.encode("ascii")).hexdigest()
                assert digest == COUNT_REPORT_SHA256[name, key, q], (algo, q, expand_output)


def test_criterion_6_size_trend_on_corpus(corpus, corpus_grammar):
    g = corpus_grammar
    m = compute_metrics(g)
    assert m.text_length == len(corpus)
    assert expand(g) == corpus
    ratio_q2 = None
    ok = True
    worst = ""
    for q in range(2, 101):
        qm = compute_qmarks(g, m, q)
        graph = build_neighbor_graph(g, m, qm)
        trie = flatten_neighbor_trie(g, m, graph)
        stats = compute_dup_stats(m, graph)
        if q == 2:
            ratio_q2 = stats.trie_size / stats.sum_ti
        if stats.trie_size != trie.body_total:
            ok = False
            worst = f"q={q}: graph's trie size {stats.trie_size} != built {trie.body_total}"
            break
        if not stats.trie_size < stats.sum_ti:
            ok = False
            worst = f"q={q}: trie {stats.trie_size} !< windows {stats.sum_ti}"
            break
    if ok and not 0.45 <= ratio_q2 <= 0.55:
        ok = False
        worst = f"q=2 ratio {ratio_q2:.4f} outside [0.45, 0.55]"
    _report(
        6,
        "corpus trend: trie < windows for q in 2..100, ratio at q=2",
        ok,
        worst or f"(n={g.n}, ratio at q=2 = {ratio_q2:.4f})",
    )


def test_criterion_7_problem_size_trend(corpus_grammar, tmp_path):
    path = tmp_path / "corpus.slp"
    path.write_text(serialize_slp(corpus_grammar))
    doc = run_bench(str(path), [2, 3, 8], 1)
    sizes = {}
    for line in doc.splitlines()[1:]:
        q, algo, _, size = line.split(",")
        sizes[(int(q), algo)] = int(size)
    ok = True
    detail = ""
    for q in (2, 3, 8):
        stsa, ssa = sizes[(q, "stsa")], sizes[(q, "ssa")]
        if stsa > ssa or (q >= 3 and stsa >= ssa):
            ok = False
            detail = f"q={q}: stsa {stsa} vs ssa {ssa}"
            break
    _report(7, "bench problem sizes: stsa <= ssa, strict for q >= 3", ok,
            detail or f"(sizes {sorted(sizes.items())})")


# ---------------------------------------------------------------------------
# criterion 8: the string ranker behind nsa against naive oracles
# ---------------------------------------------------------------------------


def test_criterion_8_gram_counts_match_sliding_window():
    rng = random.Random(0xABCD)
    failures = 0
    for _ in range(1000):
        sigma = rng.choice((2, 4, 256))
        text = bytes(rng.randrange(sigma) for _ in range(rng.randint(1, 2000)))
        for q in (2, 8, 9, 64):
            entries = weighted_qgram_counts(_unit_weighted(text, q)).entries.tolist()
            grams = [text[end - q : end] for end, _ in entries]
            counts = dict(zip(grams, (count for _, count in entries)))
            # rows strictly ascending: one per gram, in byte order
            if counts != sliding_histogram(text, q) or grams != sorted(set(grams)):
                failures += 1
                break
    _report(8, "nsa gram counts match a sliding window, in byte order, on 1000 strings",
            failures == 0, f"({failures} failures)")


# ---------------------------------------------------------------------------
# grammars of height Theta(n)
# ---------------------------------------------------------------------------


def test_comb_grammar_of_linear_height():
    teeth = 1000
    g = comb_grammar(teeth)
    m = compute_metrics(g)
    text = expand(g)
    assert text == comb_text(teeth)
    for q in (4, 64):
        nsa = weighted_qgram_counts(_unit_weighted(text, q)).materialize(text)
        ssa_wt = build_ssa_text(g, m, q)
        assert weighted_qgram_counts(ssa_wt).materialize(ssa_wt.text) == nsa, q
        qm = compute_qmarks(g, m, q)
        graph = build_neighbor_graph(g, m, qm)
        trie = flatten_neighbor_trie(g, m, graph)
        trie_wt = trie.to_weighted_text()
        assert weighted_qgram_counts(trie_wt).materialize(trie_wt.text) == nsa, q
        stats = compute_dup_stats(m, graph)
        assert stats.trie_size == m.text_length - stats.dup == trie.body_total, q
        assert stats.flattened_len == len(trie.text), q


def test_chain_of_20000_rules(tmp_path):
    """A left-leaning chain 20 000 rules deep through ``stats`` and every
    ``count`` pipeline.  Each rule occurs once, so dup is 0 and the trie is
    the text; each of the V = |T| - q + 1 vertices has a window of q
    characters, follows its parent, the rule below it, and has one edge
    from it, but the first."""
    rng = random.Random(20_000)
    text = bytes(rng.choice(b"acgt") for _ in range(19_997))
    g = build_chain(text)
    assert g.n == 20_000
    path = tmp_path / "chain.slp"
    path.write_text(serialize_slp(g))
    rows = run_stats(str(path), [2, 5]).splitlines()
    for q, row in zip((2, 5), rows[1:]):
        v = len(text) - q + 1
        assert row == f"{q},{q * v},{len(text)},0,{len(text)},{v - 1},{v}", q
        counts = sliding_histogram(text, q)
        grams = sorted(counts)
        expected = count_report(grams, [counts[gram] for gram in grams])
        for algo in ("nsa", "ssa", "stsa"):
            report = run_count(str(path), q, algo, True)
            assert report == expected, (q, algo)


def test_right_leaning_chain_of_20000_rules(tmp_path):
    """The chain X_k = c X_(k-1), 20 000 rules deep, through ``stats`` and
    stsa: its right-most paths are the longest a grammar of this size has.
    Each vertex has a one-byte left child, so it hangs below its one
    in-neighbor, the rule above it, which comes just before it in seam
    order; the row is the left chain's."""
    rng = random.Random(20_001)
    text = bytes(rng.choice(b"acgt") for _ in range(19_997))
    g = right_chain(text)
    assert g.n == 20_000
    path = tmp_path / "right-chain.slp"
    path.write_text(serialize_slp(g))
    rows = run_stats(str(path), [2, 5]).splitlines()
    for q, row in zip((2, 5), rows[1:]):
        v = len(text) - q + 1
        assert row == f"{q},{q * v},{len(text)},0,{len(text)},{v - 1},{v}", q
        counts = sliding_histogram(text, q)
        grams = sorted(counts)
        expected = count_report(grams, [counts[gram] for gram in grams])
        assert run_count(str(path), q, "stsa", True) == expected, q
