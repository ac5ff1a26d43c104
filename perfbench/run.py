"""End-to-end and per-layer benchmark of the ``slpgram`` command.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload corpus|versions|sweep|all] [--seed N]
                             [--seconds S] [--trace 0|1]

One worker process (``bench_worker.py``) runs the program's calls through
``slpgram.cli.main``, one at a time in a closed loop; this process writes
the inputs, sends each call, and checks every output against the
independent oracles in ``bench_oracles.py``.  A run repeats whole rounds of
the workload's calls until ``--seconds`` have passed.  Every timing is
divided by the host's speed factor measured around it (``bench_calib.py``),
which gives the time at reference speed.  Each distinct call is timed at
the median of its repetitions in the run, and an end-to-end time sums
those medians over the calls of that kind in one round.  The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, holding the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import bench_calib
import bench_inputs
import bench_oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

# Set-ups per run; setup_s is this many times their median.
SETUP_REPEATS = 6
# The host's speed is sampled at least this often, and a call is scaled by
# the median of the samples within CALIB_WINDOW_S of it.
CALIB_EVERY_S = 2.0
CALIB_WINDOW_S = 4.0
# No call is started past the soft deadline, and a call still running at
# the hard one is taken for a hang.  Both count from the start of a workload.
SOFT_DEADLINE_S = 150.0
HARD_DEADLINE_S = 170.0
COUNT_Q = (4, 64)
STATS_Q = [4, 64]
EXPAND_CAP = 1 << 26

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "count_nsa_q4_s": "s",
    "count_nsa_q64_s": "s",
    "count_ssa_q4_s": "s",
    "count_ssa_q64_s": "s",
    "count_stsa_q4_s": "s",
    "count_stsa_q64_s": "s",
    "stats_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    ["builders.repair_s", "builders.repair_rules"]
    + ["slp.parse_s", "slp.validate_s", "slp.metrics_s", "slp.qmarks_q4_s", "slp.qmarks_q64_s"]
    + ["slp.expand_s", "slp.rules", "slp.text_bytes"]
    + [f"ssa.windows_q{q}_s" for q in COUNT_Q]
    + [f"ssa.text_q{q}_bytes" for q in COUNT_Q]
    + [f"neighbor.{part}_q{q}_s" for part in ("graph", "flatten", "weighted_text", "dup_stats") for q in COUNT_Q]
    + [f"neighbor.{part}_q{q}{unit}" for part, unit in (("text", "_bytes"), ("trie", "_bytes"), ("dup", ""), ("edges", ""), ("branches", "")) for q in COUNT_Q]
    + [f"suffix.count_{algo}_q{q}_s" for algo in ("nsa", "ssa", "stsa") for q in COUNT_Q]
    + [f"suffix.grams_q{q}" for q in COUNT_Q]
    + [f"cli.self_count_q{q}_s" for q in COUNT_Q]
    + ["cli.self_stats_s", "cli.self_verify_s"]
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


class BenchError(RuntimeError):
    """The benchmark itself could not run to the end."""


@dataclass
class Call:
    """One program call: the metric its time adds to and how to check it."""

    metric: str
    kind: str
    argv: list[str]
    input: str
    check: Callable[[], list[str]]
    algo: str | None = None
    q: int | None = None


class Worker:
    """The process that runs only the program's calls."""

    def __init__(self, trace: bool, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "bench_worker.py"), str(ROOT / "src"), str(int(trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            self._read()
        except BenchError:
            self.kill()
            raise

    def _read(self) -> dict:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        if not ready:
            raise BenchError("the run passed its deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> int:
        """Stop the worker; returns its high-water RSS in KiB."""
        self.proc.stdin.write(json.dumps({"quit": True}) + "\n")
        self.proc.stdin.flush()
        final = self._read()
        self.proc.stdin.close()
        self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        return final["maxrss_kb"]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def spread(kinds: list[tuple[Call, int]]) -> list[Call]:
    """Each call repeated as often as given, spaced evenly over a round;
    calls due at the same point keep their list order."""
    slots = [((rep + 0.5) / reps, order, call) for order, (call, reps) in enumerate(kinds) for rep in range(reps)]
    return [call for _, _, call in sorted(slots, key=lambda s: s[:2])]


class Workload:
    """Inputs written under ``work`` and the calls of one round."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self._expected: dict[tuple[str, int], dict[bytes, int]] = {}
        self.rules: dict[str, int] = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Call]:
        raise NotImplementedError

    def text_length(self, name: str) -> int:
        raise NotImplementedError

    def reference_counts(self, name: str, q: int) -> dict[bytes, int]:
        raise NotImplementedError

    def path(self, name: str) -> str:
        return str(self.work / name)

    def expected(self, name: str, q: int) -> dict[bytes, int]:
        key = (name, q)
        if key not in self._expected:
            self._expected[key] = self.reference_counts(name, q)
        return self._expected[key]

    def build(self, raw: str, slp: str, data: bytes, extra: list[str]) -> Call:
        def check() -> list[str]:
            try:
                rules = bench_oracles.read_slp(Path(self.path(slp)).read_text())
                text = bench_oracles.slp_expand(rules, EXPAND_CAP)
            except bench_oracles.OracleError as exc:
                return [f"build output {slp}: {exc}"]
            self.rules[slp] = len(rules)
            return [] if text == data else [f"build output {slp} does not expand to its input"]

        argv = ["build", "-i", self.path(raw), "-o", self.path(slp)] + extra
        return Call("build_s", "build", argv, raw, check)

    def count(self, slp: str, algo: str, q: int) -> Call:
        out = self.path(f"{slp}.{algo}.q{q}.tsv")

        def check() -> list[str]:
            doc = Path(out).read_text()
            problems = bench_oracles.check_count_tsv(doc, q, self.expected(slp, q), self.text_length(slp))
            return [f"count --algo {algo} -q {q} on {slp}: {p}" for p in problems]

        argv = ["count", "-i", self.path(slp), "-q", str(q), "--algo", algo, "--expand", "-o", out]
        return Call(f"count_{algo}_q{q}_s", "count", argv, slp, check, algo, q)

    def stats(self, slp: str) -> Call:
        out = self.path(f"{slp}.stats.csv")

        def check() -> list[str]:
            doc = Path(out).read_text()
            problems = bench_oracles.check_stats_csv(doc, STATS_Q, self.text_length(slp), self.rules[slp])
            return [f"stats on {slp}: {p}" for p in problems]

        argv = ["stats", "-i", self.path(slp), "--q-list", ",".join(map(str, STATS_Q)), "-o", out]
        return Call("stats_s", "stats", argv, slp, check)

    def verify(self, slp: str, q_max: int) -> Call:
        argv = ["verify", "-i", self.path(slp), "--q-max", str(q_max), "-o", self.path(f"{slp}.verify.txt")]
        return Call("verify_s", "verify", argv, slp, lambda: [])


class Corpus(Workload):
    """The start of the acceptance corpus, built with Re-Pair; ignores the seed."""

    name = "corpus"

    def prepare(self) -> None:
        self.data = bench_inputs.make_corpus()
        Path(self.path("corpus.txt")).write_bytes(self.data)

    def text_length(self, name: str) -> int:
        return len(self.data)

    def reference_counts(self, name: str, q: int) -> dict[bytes, int]:
        return bench_oracles.sliding_counts(self.data, q)

    def round(self) -> list[Call]:
        g = "corpus.slp"
        freq = str(bench_inputs.CORPUS_MIN_PAIR_FREQ)
        build = self.build("corpus.txt", g, self.data, ["--min-pair-freq", freq])
        # The first build makes the grammar every other call reads.
        return [build] + spread([
            (self.count(g, "nsa", 4), 3),
            (self.count(g, "ssa", 64), 3),
            (self.count(g, "stsa", 4), 9),
            (self.stats(g), 11),
            (build, 1),
            (self.count(g, "nsa", 64), 3),
            (self.count(g, "ssa", 4), 11),
            (self.count(g, "stsa", 64), 3),
            (self.verify(g, 2), 3),
        ])


class VersionsWorkload(Workload):
    """A versioned collection of |T| >= 2**40 bytes, far past the expansion cap,
    and its first copies joined once as a raw text for build, nsa and verify."""

    name = "versions"
    FULL = "versions.slp"

    def prepare(self) -> None:
        self.collection = bench_inputs.make_versions(self.seed)
        self.head = b"".join(self.collection.versions[: bench_inputs.VERSIONS_HEAD_COPIES])
        Path(self.path(self.FULL)).write_text(self.collection.document)
        Path(self.path("head.txt")).write_bytes(self.head)
        self.rules[self.FULL] = self.collection.rules

    def text_length(self, name: str) -> int:
        return self.collection.text_length if name == self.FULL else len(self.head)

    def reference_counts(self, name: str, q: int) -> dict[bytes, int]:
        if name == self.FULL:
            return bench_oracles.versions_counts(self.collection, q)
        return bench_oracles.sliding_counts(self.head, q)

    def round(self) -> list[Call]:
        g, h = self.FULL, "head.slp"
        build = self.build("head.txt", h, self.head, [])
        # The first build makes the grammar the nsa counts and verify read.
        return [build] + spread([
            (self.count(g, "ssa", 4), 10),
            (self.count(h, "nsa", 64), 4),
            (self.count(g, "stsa", 64), 3),
            (self.stats(g), 10),
            (build, 3),
            (self.count(g, "stsa", 4), 8),
            (self.count(h, "nsa", 4), 4),
            (self.count(g, "ssa", 64), 3),
            (self.verify(h, 4), 3),
            (self.verify(g, 4), 1),
        ])


class Sweep(Workload):
    """Many small texts over 2 to 4 letters, each built, counted, statted, verified."""

    name = "sweep"

    def prepare(self) -> None:
        self.texts = {f"s{k:04d}": text for k, text in enumerate(bench_inputs.make_sweep(self.seed))}
        for stem, text in self.texts.items():
            Path(self.path(f"{stem}.txt")).write_bytes(text)

    def text_length(self, name: str) -> int:
        return len(self.texts[Path(name).stem])

    def reference_counts(self, name: str, q: int) -> dict[bytes, int]:
        return bench_oracles.sliding_counts(self.texts[Path(name).stem], q)

    def round(self) -> list[Call]:
        calls = []
        for k, (stem, text) in enumerate(self.texts.items()):
            g = f"{stem}.slp"
            rest = [
                self.count(g, "nsa", 4),
                self.count(g, "ssa", 64),
                self.count(g, "stsa", 4),
                self.stats(g),
                self.count(g, "nsa", 64),
                self.count(g, "ssa", 4),
                self.count(g, "stsa", 64),
                self.verify(g, 4),
            ]
            shift = k % len(rest)
            calls += [self.build(f"{stem}.txt", g, text, [])] + rest[shift:] + rest[:shift]
        return calls


WORKLOADS = {w.name: w for w in (Corpus, VersionsWorkload, Sweep)}


# Exact counts taken from span attributes: span -> (metric, attribute);
# "{tag}" stands for _q4 or _q64.
SPAN_COUNTS = {
    "builders.repair": [("builders.repair_rules", "rules")],
    "slp.parse": [("slp.rules", "rules")],
    "slp.metrics": [("slp.text_bytes", "text_bytes")],
    "ssa.windows": [("ssa.text{tag}_bytes", "bytes")],
    "neighbor.graph": [("neighbor.edges{tag}", "edges")],
    "neighbor.flatten": [("neighbor.trie{tag}_bytes", "trie_bytes"), ("neighbor.branches{tag}", "branches")],
    "neighbor.weighted_text": [("neighbor.text{tag}_bytes", "bytes")],
    "neighbor.dup_stats": [("neighbor.dup{tag}", "dup")],
}


def layer_samples(call: Call, reply: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer busy times of one traced call, and the exact counts it saw."""
    times: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = {}
    for span, _depth, seconds, _self_s, attrs in reply["spans"]:
        q = attrs.get("q")
        if "error" in attrs or (q is not None and q not in COUNT_Q):
            continue
        tag = f"_q{q}" if q else ""
        if span == "suffix.count":
            # The engine is attributed to the pipeline of the count call it runs in.
            if call.kind == "count" and q == call.q:
                times[f"suffix.count_{call.algo}{tag}_s"] += seconds
                counts[f"suffix.grams{tag}"] = attrs["grams"]
            continue
        times[f"{span}{tag}_s"] += seconds
        for metric, attr in SPAN_COUNTS.get(span, ()):
            counts[metric.format(tag=tag)] = attrs[attr]
    uncovered = reply["seconds"] - reply["covered"]
    if call.kind == "count" and call.algo == "stsa":
        times[f"cli.self_count_q{call.q}_s"] += uncovered
    elif call.kind in ("stats", "verify"):
        times[f"cli.self_{call.kind}_s"] += uncovered
    return times, counts


def pooled_medians(samples: dict[str, dict[int, list[float]]], calls: list[Call]) -> dict[str, float]:
    """Per metric, the median time of each call of a round, summed over the round.

    Identical calls (same argv) pool their times from every round, so a
    call made k times a round counts k times its median over the run.
    """
    totals = {}
    for metric, by_call in samples.items():
        pooled: dict[tuple[str, ...], list[float]] = defaultdict(list)
        for index, times in by_call.items():
            pooled[tuple(calls[index].argv)] += times
        totals[metric] = sum(statistics.median(pooled[tuple(calls[i].argv)]) for i in by_call)
    return totals


class HostSpeed:
    """The host's speed factor (``bench_calib``) sampled through a run."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        begin = time.monotonic()
        factor = bench_calib.speed_factor()
        self.samples.append(((begin + time.monotonic()) / 2, factor))

    def due(self) -> bool:
        return not self.samples or time.monotonic() - self.samples[-1][0] >= CALIB_EVERY_S

    def at(self, moment: float) -> float:
        """Median factor of the samples within CALIB_WINDOW_S of ``moment``,
        or the nearest sample if none is that close."""
        near = [f for t, f in self.samples if abs(t - moment) <= CALIB_WINDOW_S]
        return statistics.median(near) if near else min(self.samples, key=lambda s: abs(s[0] - moment))[1]


def set_up(name: str, seed: int, work: Path, trace: bool, deadline: float) -> tuple[Worker, Workload]:
    """Everything before the first timed call: start the worker, make and write the inputs."""
    worker = Worker(trace, deadline)
    try:
        workload = WORKLOADS[name](seed, work)
        workload.prepare()
    except BaseException:
        worker.kill()
        raise
    return worker, workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + HARD_DEADLINE_S
    work = OUT_DIR / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    speed = HostSpeed()
    setups: list[tuple[float, float]] = []

    def timed_setup(where: Path) -> tuple[Worker, Workload]:
        speed.sample()
        begin = time.monotonic()
        made = set_up(name, seed, where, trace, deadline)
        setups.append(((begin + time.monotonic()) / 2, time.monotonic() - begin))
        speed.sample()
        return made

    def extra_setup() -> None:
        where = work / f"setup-{len(setups)}"
        where.mkdir()
        spare, _ = timed_setup(where)
        spare.close()
        shutil.rmtree(where)

    worker = None
    try:
        worker, workload = timed_setup(work)
        calls = workload.round()
        e2e_samples: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        layer_times: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        layer_counts: dict[str, dict[str, int]] = defaultdict(dict)
        call_log: list[list] = []
        spans_log = []
        problems: list[str] = []
        failures: dict[str, int] = defaultdict(int)
        attempted = failed = rounds = 0
        # Set-ups after the first are spread evenly over the measuring time.
        marks = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
        measuring = time.monotonic()
        while True:
            made, round_failures = [], []
            for index, call in enumerate(calls):
                if time.monotonic() - started > SOFT_DEADLINE_S:
                    break
                if marks and time.monotonic() - measuring >= marks[0]:
                    marks.pop(0)
                    extra_setup()
                if speed.due():
                    speed.sample()
                sent = time.monotonic()
                reply = worker.call(call.argv)
                moment = (sent + time.monotonic()) / 2
                if reply["code"] not in (0, 1) or (reply["code"] == 1 and call.kind != "verify"):
                    last = (reply["stderr"].strip().splitlines() or ["no message"])[-1]
                    round_failures.append(f"{call.kind} exit {reply['code']}: {last[:160]}")
                    continue
                if reply["code"] == 1:
                    problems.append(f"verify on {call.input} reported a divergence: {reply['stderr'][:200]}")
                else:
                    try:
                        problems += call.check()
                    except (OSError, ValueError) as exc:
                        problems.append(f"{call.kind} on {call.input}: output unreadable: {exc}")
                made.append((index, call, reply, moment))
            else:
                # Only whole rounds count, so the failed share is the same in every run.
                rounds += 1
                attempted += len(calls)
                failed += len(round_failures)
                for failure in round_failures:
                    failures[failure] += 1
                for index, call, reply, moment in made:
                    factor = speed.at(moment)
                    e2e_samples[call.metric][index].append(reply["seconds"] / factor)
                    call_log.append([rounds, index, round(moment - started, 3), reply["seconds"], factor])
                    if trace:
                        spans_log.append({"round": rounds, "call": index, "metric": call.metric,
                                          "input": call.input, "seconds": reply["seconds"],
                                          "factor": factor, "spans": reply["spans"]})
                        times, counts = layer_samples(call, reply)
                        for metric, value in times.items():
                            layer_times[metric][index].append(value / factor)
                        for metric, value in counts.items():
                            layer_counts[metric][call.input] = value
                if time.monotonic() - measuring >= seconds:
                    break
                continue
            if not rounds:
                raise BenchError(f"no whole round finished within {SOFT_DEADLINE_S:.0f} s")
            break
        for _ in marks:
            extra_setup()
        peak_kb = worker.close()
        worker = None
    finally:
        if worker is not None:
            worker.kill()
        shutil.rmtree(work, ignore_errors=True)

    setup_times = [s / speed.at(moment) for moment, s in setups]
    e2e = {"setup_s": SETUP_REPEATS * statistics.median(setup_times)}
    medians = pooled_medians(e2e_samples, calls)
    e2e.update((m, medians[m]) for m in END_TO_END if m in medians)
    e2e["peak_rss_mb"] = peak_kb / 1024
    layer_medians = pooled_medians(layer_times, calls)
    layer = {}
    for metric in PER_LAYER:
        if metric in layer_counts:
            layer[metric] = sum(layer_counts[metric].values())
        elif metric in layer_medians:
            layer[metric] = layer_medians[metric]
    chosen = layer if trace else e2e
    units = {m: layer_unit(m) for m in layer} if trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": chosen[m], "unit": units[m]} for m in chosen},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "wall_s": time.monotonic() - started,
        "setups_s": [[round(moment - started, 3), s] for moment, s in setups],
        "speed_factors": [[round(moment - started, 3), f] for moment, f in speed.samples],
        "calls": {"columns": ["round", "call", "at_s", "seconds", "factor"], "rows": call_log},
        "round_calls": [[call.metric, call.argv] for call in calls],
        "end_to_end": e2e, "per_layer": layer, "failures": dict(failures),
        "problems": problems[:50], "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record) + "\n")
    if trace:
        with open(OUT_DIR / f"trace-{tag}.jsonl", "w") as fh:
            fh.writelines(json.dumps(entry) + "\n" for entry in spans_log)
    missing = [m for m in (PER_LAYER if trace else END_TO_END) if m not in chosen]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}: none of its calls ran to the end")
    return record


def report(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"rounds={record['rounds']} wall={record['wall_s']:.1f}s")
    for metric, entry in record["result"]["metrics"].items():
        print(f"  {metric:28s} {entry['value']:14.6g} {entry['unit']}")
    if record["trace"]:
        for metric, value in record["end_to_end"].items():
            print(f"  traced {metric:21s} {value:14.6g} {END_TO_END[metric]}")
    result = record["result"]
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for failure, count in record["failures"].items():
        print(f"  failed x{count}: {failure}")
    for problem in record["problems"]:
        print(f"  WRONG: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slpgram" / "cli.py").is_file():
        print(f"perfbench: no slpgram source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The probe and the program take turns, so on one CPU the probe sees
    # the host load of the calls it scales, and the worker inherits it.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        report(records[-1])
    results = [r["result"] for r in records]
    if len(records) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rec['workload']}:{m}": v for rec in records for m, v in rec["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
