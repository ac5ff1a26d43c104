"""Acceptance suite: one test per exit criterion, exact tolerances.

Criteria 1/3/4/5 share a single sweep over the randomized instance corpus
(compressed strings plus random grammars); 6/7 share a ~1MB synthetic
natural-language corpus.  Each test prints one PASS/FAIL line.  The last
test runs the pipelines on a grammar whose height is linear in its size.
"""

import random
from collections import Counter

import numpy as np
import pytest

from conftest import G7_DOC, comb_grammar, comb_text
from oracles import naive_lcp_array, naive_suffix_array, sliding_histogram
from slpgram import (
    BuilderConfig,
    ConsistencyError,
    WeightedText,
    build_chain,
    build_lcp_array,
    build_neighbor_graph,
    build_random,
    build_repair,
    build_ssa_text,
    build_suffix_array,
    compute_dup_stats,
    compute_metrics,
    compute_qmarks,
    expand,
    flatten_neighbor_trie,
    parse_slp,
    serialize_slp,
    weighted_qgram_counts,
)
from slpgram.cli import run_bench

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
                stats = compute_dup_stats(m, graph, trie)
            except ConsistencyError as exc:
                violations[3].append(f"instance {index} q={q}: {exc}")
                continue
            if m.text_length >= q:
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
            emitted = [v for v, _ in trie.runs if v]
            once = Counter(emitted)
            if m.text_length >= q and (
                set(once) != set(graph.vertices) or any(c != 1 for c in once.values())
            ):
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
    return build_repair(corpus, BuilderConfig(min_pair_frequency=32))


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
        stats = compute_dup_stats(m, graph, trie)
        if q == 2:
            ratio_q2 = stats.trie_size / stats.sum_ti
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
# criterion 8: suffix machinery against naive oracles
# ---------------------------------------------------------------------------


def test_criterion_8_suffix_and_lcp_oracles():
    rng = random.Random(0xABCD)
    failures = 0
    for trial in range(1000):
        sigma = rng.choice((2, 4, 256))
        text = bytes(rng.randrange(sigma) for _ in range(rng.randint(1, 2000)))
        sa = build_suffix_array(text)
        if sa != naive_suffix_array(text):
            failures += 1
            continue
        if build_lcp_array(text, sa) != naive_lcp_array(text, sa):
            failures += 1
    _report(8, "suffix/LCP arrays match naive oracles on 1000 strings", failures == 0,
            f"({failures} failures)")


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
        stats = compute_dup_stats(m, graph, trie)
        assert stats.trie_size == m.text_length - stats.dup, q
