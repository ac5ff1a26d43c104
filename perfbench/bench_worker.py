"""Process that runs only the program's own calls, one at a time.

Usage: ``python3 bench_worker.py <src dir> <trace 0|1>``.  It imports
``slpgram.cli`` from the given source tree, answers with a ready line, then
reads one JSON request per line on stdin and runs ``slpgram.cli.main`` on
its ``argv`` in this process, timing the call.  Each reply is one JSON line
on stdout.  A ``{"quit": true}`` request ends the loop; the last reply
carries the high-water RSS of this process, which holds nothing but the
program and its inputs.

With tracing on, the public calls listed in ``TRACED`` are wrapped wherever
the package refers to them, and each reply lists the spans of that call.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (module, public name, span name, attributes taken from the call and its result)
TRACED = (
    ("builders", "build_repair", "builders.repair", lambda a, k, r: {"rules": r.n}),
    ("slp", "parse_slp", "slp.parse", lambda a, k, r: {"rules": r.n}),
    ("slp", "validate", "slp.validate", lambda a, k, r: {}),
    ("slp", "prune_unused", "slp.validate", lambda a, k, r: {}),
    ("slp", "compute_metrics", "slp.metrics", lambda a, k, r: {"text_bytes": r.text_length}),
    ("slp", "compute_qmarks", "slp.qmarks", lambda a, k, r: {"q": _arg(a, k, 2, "q")}),
    ("slp", "expand", "slp.expand", lambda a, k, r: {}),
    (
        "ssa",
        "build_ssa_text",
        "ssa.windows",
        lambda a, k, r: {"q": _arg(a, k, 2, "q"), "bytes": len(r.text)},
    ),
    (
        "neighbor",
        "build_neighbor_graph",
        "neighbor.graph",
        lambda a, k, r: {"q": _arg(a, k, 2, "qm").q, "edges": len(r.edges)},
    ),
    (
        "neighbor",
        "flatten_neighbor_trie",
        "neighbor.flatten",
        lambda a, k, r: {"q": r.q, "trie_bytes": r.body_total, "branches": r.branch_count},
    ),
    ("neighbor", "compute_dup_stats", "neighbor.dup_stats", lambda a, k, r: {"q": r.q, "dup": r.dup}),
    (
        "suffix",
        "weighted_qgram_counts",
        "suffix.count",
        lambda a, k, r: {"q": r.gram, "grams": len(r.entries)},
    ),
)


class Tracer:
    """Spans of wrapped calls, with self time, grouped per request."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        # Busy time of the children of each open span; the bottom entry
        # belongs to the request itself.
        self._child_time: list[float] = [0.0]

    def wrap(self, span: str, fn, describe):
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            start = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                seconds = time.perf_counter() - start
                children = self._child_time.pop()
                self._child_time[-1] += seconds
                attrs = describe(args, kwargs, result) if error is None else {"error": error}
                depth = len(self._child_time) - 1
                self.spans.append([span, depth, seconds, seconds - children, attrs])

        return traced

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == package.__name__]
        for module_name, name, span, describe in TRACED:
            original = getattr(getattr(package, module_name), name)
            wrapped = self.wrap(span, original, describe)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapped)
        trie_type = package.neighbor.FlattenedTrie
        trie_type.to_weighted_text = self.wrap(
            "neighbor.weighted_text",
            trie_type.to_weighted_text,
            lambda a, k, r: {"q": r.gram, "bytes": len(r.text)},
        )

    def take(self) -> tuple[list[list], float]:
        """Spans recorded since the last call, and their top-level busy time."""
        spans, covered = self.spans, self._child_time[0]
        self.spans, self._child_time = [], [0.0]
        return spans, covered


def peak_rss_kb() -> int:
    """High-water RSS of this process since it started its interpreter.

    Linux keeps in ``ru_maxrss`` the RSS of the process image before
    ``exec``, which is the benchmark's own process at the moment it started
    this one; ``VmHWM`` counts only the pages of this interpreter.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _send(stream, message: dict) -> None:
    stream.write(json.dumps(message) + "\n")
    stream.flush()


def main() -> int:
    src, trace = sys.argv[1], sys.argv[2] == "1"
    channel = sys.stdout
    sys.path.insert(0, src)
    try:
        import slpgram
        import slpgram.cli as cli
    except ImportError as exc:
        print(f"bench_worker: cannot import slpgram from {src}: {exc}", file=sys.stderr)
        return 3
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(slpgram)
    _send(channel, {"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            break
        captured_out, captured_err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
                code = cli.main(request["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # A crash inside the program is that call's failure, not the worker's.
            code = None
            captured_err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        reply = {"code": code, "seconds": seconds, "stderr": captured_err.getvalue()[-4000:]}
        if tracer:
            reply["spans"], reply["covered"] = tracer.take()
        _send(channel, reply)
    _send(channel, {"maxrss_kb": peak_rss_kb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
