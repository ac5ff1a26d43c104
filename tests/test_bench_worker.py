"""The benchmark's tracer reads attributes of the package's results by name;
this runs its worker over the JSON-lines protocol so that a reshaped result
breaks here, not only in a traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_worker_reads_every_span(tmp_path):
    raw = tmp_path / "input.txt"
    raw.write_bytes(b"the cat sat on the mat; the rat sat on the hat. " * 40)
    slp = str(tmp_path / "g.slp")
    requests = [["build", "-i", str(raw), "-o", slp]]
    for algo in ("nsa", "ssa", "stsa"):
        for q in ("4", "64"):
            requests.append(["count", "-i", slp, "-q", q, "--algo", algo, "--expand",
                             "-o", str(tmp_path / f"{algo}-{q}.tsv")])
    requests.append(["stats", "-i", slp, "--q-list", "4,64", "-o", str(tmp_path / "s.csv")])
    requests.append(["verify", "-i", slp, "--q-max", "4", "-o", str(tmp_path / "v.txt")])
    lines = [json.dumps({"argv": argv}) for argv in requests] + [json.dumps({"quit": True})]
    worker = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "bench_worker.py"), str(ROOT / "src"), "1"],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    ready, *replies, last = map(json.loads, worker.stdout.splitlines())
    assert ready == {"ready": True}
    assert isinstance(last["maxrss_kb"], int)
    assert len(replies) == len(requests)
    # every load parses, prunes and takes the metrics, each in its own span
    loaded = {"slp.parse", "slp.validate", "slp.metrics"}
    required = {
        "slp.parse": {"rules"},
        "slp.validate": set(),
        "slp.metrics": {"text_bytes"},
        "neighbor.graph": {"q", "edges"},
        "neighbor.flatten": {"q", "trie_bytes", "branches"},
        "neighbor.weighted_text": {"q", "bytes"},
        "neighbor.dup_stats": {"q", "dup"},
        "suffix.count": {"q", "grams"},
    }
    seen = set()
    for argv, reply in zip(requests, replies):
        assert reply["code"] == 0, (argv, reply["stderr"])
        for name, _, _, _, attrs in reply["spans"]:
            assert "error" not in attrs, (argv, name, attrs)
            if name in required:
                seen.add(name)
                ints = {key for key, value in attrs.items() if isinstance(value, int)}
                assert required[name] <= ints, (argv, name, attrs)
        if argv[0] != "build":
            assert loaded <= {span[0] for span in reply["spans"]}, (argv, reply["spans"])
        if argv[0] == "count":
            # one count per call, and its gram count is the TSV's line count
            counts = [attrs for name, _, _, _, attrs in reply["spans"] if name == "suffix.count"]
            lines = Path(argv[-1]).read_bytes().count(b"\n")
            assert counts == [{"q": int(argv[4]), "grams": lines}], (argv, counts)
        if argv[0] == "stats":
            # the tracer reads the graph's edges as the stats row counts them
            traced = [(a["q"], a["edges"]) for name, _, _, _, a in reply["spans"]
                      if name == "neighbor.graph"]
            header, *rows = Path(argv[-1]).read_text().splitlines()
            column = header.split(",").index("edges")
            printed = [(int(row.split(",")[0]), int(row.split(",")[column])) for row in rows]
            assert [q for q, _ in printed] == [4, 64]
            assert traced == printed, (traced, printed)
    assert seen == set(required)
