"""The benchmark's oracles accept correct outputs and reject corrupted ones."""

import json
from pathlib import Path

import pytest

import bench_inputs
import bench_oracles as oracles
import run


def tsv(counts: dict[bytes, int]) -> str:
    def escape(gram: bytes) -> str:
        return "".join(
            "\\\\" if b == 0x5C else chr(b) if 0x20 <= b <= 0x7E else f"\\x{b:02X}" for b in gram
        )

    return "".join(f"{escape(g)}\t{c}\n" for g, c in sorted(counts.items()))


TEXT = b"ab\\ab\nab\\ab\x00ba" * 5


def test_count_check_accepts_a_correct_tsv():
    expected = oracles.sliding_counts(TEXT, 3)
    assert oracles.check_count_tsv(tsv(expected), 3, expected, len(TEXT)) == []


def test_count_check_rejects_one_changed_count():
    expected = oracles.sliding_counts(TEXT, 3)
    changed = dict(expected)
    changed[b"ab\\"] += 1
    problems = oracles.check_count_tsv(tsv(changed), 3, expected, len(TEXT))
    assert any("total" in p for p in problems)
    assert any("differ" in p for p in problems)


def test_count_check_rejects_one_dropped_gram():
    expected = oracles.sliding_counts(TEXT, 3)
    dropped = dict(expected)
    del dropped[b"\x00ba"]
    assert oracles.check_count_tsv(tsv(dropped), 3, expected, len(TEXT))


def test_count_check_rejects_unsorted_or_malformed_lines():
    expected = oracles.sliding_counts(TEXT, 3)
    lines = tsv(expected).splitlines(keepends=True)
    assert oracles.check_count_tsv("".join(lines[1:] + lines[:1]), 3, expected, len(TEXT))
    for bad in ("abc\t+1\n", "abc\t0\n", "abcd\t1\n", "ab\t1\t2\n"):
        assert oracles.check_count_tsv(bad, 3, {b"abc": 1}, 3)


def test_unescape_is_strict():
    assert oracles.unescape("a\\\\b\\x0A\\xff") == b"a\\b\n\xff"
    for bad in ("\\x4", "\\x4G", "\\q", "\\", "é", "a\tb"):
        with pytest.raises(oracles.OracleError):
            oracles.unescape(bad)


def test_slp_reader_is_strict_and_expands():
    rules = oracles.read_slp("# g\n1 T 97\n\n2 T 98\n3 N 1 2\n4 N 3 3\n")
    assert oracles.slp_expand(rules, 100) == b"abab"
    for bad in ("1 T +97\n", "1 T 9_7\n", "1 T ٩٧\n", "1 T 256\n", "1 N 1 1\n", "2 T 97\n"):
        with pytest.raises(oracles.OracleError):
            oracles.read_slp(bad)
    with pytest.raises(oracles.OracleError):
        oracles.slp_expand(rules, 3)


@pytest.mark.parametrize("q", [2, 4, 9, 32])
def test_versions_closed_form_matches_the_expanded_text(q):
    v = bench_inputs.make_versions(seed=3, base_bytes=32, copies=5, edits=3, doublings=3)
    text = oracles.slp_expand(oracles.read_slp(v.document), 1 << 20)
    assert text == b"".join(v.versions) * 8
    assert len(text) == v.text_length
    assert oracles.versions_counts(v, q) == oracles.sliding_counts(text, q)


def test_stats_check_rejects_rows_off_the_paper_bounds():
    header = "q,sum_ti,trie_size,dup,flattened_len,edges,vertices\n"
    good = header + "4,30,12,8,20,9,5\n"
    assert oracles.check_stats_csv(good, [4], 20, 6) == []
    assert oracles.check_stats_csv(header + "4,30,13,8,20,9,5\n", [4], 20, 6)
    assert oracles.check_stats_csv(header + "4,30,12,8,31,9,5\n", [4], 20, 6)
    assert oracles.check_stats_csv(header + "4,37,12,8,20,9,5\n", [4], 20, 6)
    assert oracles.check_stats_csv(header + "4,30,12,8,20,13,5\n", [4], 20, 6)
    assert oracles.check_stats_csv(good, [4, 8], 20, 6)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_workload_times_every_call_metric(name, tmp_path):
    workload = run.WORKLOADS[name](seed=1, work=tmp_path)
    workload.prepare()
    timed = {call.metric for call in workload.round()}
    assert timed == set(run.END_TO_END) - {"setup_s", "peak_rss_mb"}


def test_host_speed_scales_by_the_samples_near_a_call():
    speed = run.HostSpeed()
    speed.samples = [(0.0, 1.0), (3.0, 1.2), (6.0, 1.4), (30.0, 2.0)]
    assert speed.at(2.0) == pytest.approx(1.2)  # median of the first three
    assert speed.at(20.0) == pytest.approx(2.0)  # none within the window: nearest
    assert speed.at(30.0) == pytest.approx(2.0)


def test_speed_factor_is_near_one_at_reference_speed(monkeypatch):
    import bench_calib

    monkeypatch.setattr(bench_calib, "piece_times", lambda: dict(bench_calib.REFERENCE_S))
    assert bench_calib.speed_factor() == pytest.approx(1.0)
    doubled = {n: 2 * t for n, t in bench_calib.REFERENCE_S.items()}
    monkeypatch.setattr(bench_calib, "piece_times", lambda: doubled)
    assert bench_calib.speed_factor() == pytest.approx(2.0)
