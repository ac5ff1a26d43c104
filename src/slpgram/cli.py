"""Command-line front end.

Subcommands build grammars from raw bytes, decompress them back, count
q-gram frequencies with one of three pipelines, cross-verify the pipelines
against each other, and emit size or timing tables.

Pipelines: ``nsa`` counts on the expanded text, ``ssa`` on the
boundary-window reduction string, ``stsa`` on the flattened neighbor trie.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .builders import BuilderConfig, build_chain, build_random, build_repair
from .neighbor import (
    CSV_HEADER,
    build_neighbor_graph,
    compute_dup_stats,
    flatten_neighbor_trie,
)
from .slp import (
    DEFAULT_EXPAND_CAP,
    ConsistencyError,
    SlpError,
    SlpGrammar,
    char_frequencies,
    compute_metrics,
    compute_qmarks,
    expand,
    parse_slp,
    prune_unused,
    serialize_slp,
    validate,
)
from .ssa import build_ssa_text
from .suffix import WeightedText, weighted_qgram_counts

ALGORITHMS = ("nsa", "ssa", "stsa")
_HEX_ESCAPE = re.compile(r"\\x([0-9A-Fa-f]{2})")


@dataclass(frozen=True)
class CountRequest:
    grammar_path: str
    q: int
    algorithm: str = "stsa"
    expand_output: bool = False


# The escape of every byte value, indexed by it: a latin-1 decode turns each
# byte into the character of the same number, which str.translate looks up.
_ESCAPES = [
    "\\\\" if b == 0x5C else chr(b) if 0x20 <= b <= 0x7E else f"\\x{b:02X}"
    for b in range(256)
]
_ESCAPE_WIDTHS = np.array([len(e) for e in _ESCAPES], dtype=np.int64)


def escape_bytes(data: bytes) -> str:
    """Printable ASCII stays literal, backslash doubles, the rest is \\xNN.

    One table lookup per byte: ``data`` is decoded as latin-1 and translated
    through a 256-entry table of escapes.
    """
    return data.decode("latin-1").translate(_ESCAPES)


def unescape_bytes(escaped: str) -> bytes:
    """Inverse of :func:`escape_bytes`; anything it cannot write raises
    ValueError, including ``\\x`` without exactly two hex digits."""
    out = bytearray()
    i = 0
    while i < len(escaped):
        c = escaped[i]
        if " " <= c <= "~" and c != "\\":
            out.append(ord(c))
            i += 1
        elif escaped.startswith("\\\\", i):
            out.append(0x5C)
            i += 2
        elif hex_escape := _HEX_ESCAPE.match(escaped, i):
            out.append(int(hex_escape[1], 16))
            i += 4
        else:
            raise ValueError(f"bad escape at offset {i} in {escaped!r}")
    return bytes(out)


def _load_grammar(path: str) -> SlpGrammar:
    g = parse_slp(Path(path).read_text())
    unused = validate(g)
    if unused:
        # Counting assumes every rule occurs in the derivation tree; dead
        # rules change nothing about the text, so drop them up front.
        shown = ", ".join(map(str, unused[:8]))
        print(f"warning: pruning {len(unused)} unused rule(s) (e.g. {shown})", file=sys.stderr)
        g = prune_unused(g)
    return g


def _unit_weighted(text: bytes, q: int) -> WeightedText:
    weights = np.zeros(len(text), dtype=np.int64)
    if len(text) >= q:
        weights[q - 1 :] = 1
    return WeightedText(text, weights, q)


def _neighbor_trie(g, m, q: int):
    """(neighbor graph, flattened trie) for one gram length."""
    graph = build_neighbor_graph(g, m, compute_qmarks(g, m, q))
    return graph, flatten_neighbor_trie(g, m, graph)


def _pipeline_text(g, m, q: int, algorithm: str) -> tuple[str, WeightedText]:
    """The weighted string a pipeline counts on, plus its reference name."""
    if algorithm == "nsa":
        return "T", _unit_weighted(expand(g), q)
    if algorithm == "ssa":
        return "z", build_ssa_text(g, m, q)
    return "z", _neighbor_trie(g, m, q)[1].to_weighted_text()


def run_count(req: CountRequest) -> str:
    """TSV of q-gram counts, sorted by gram byte order.

    With ``expand_output`` each line is "<escaped gram>\\t<count>"; without
    it, lines are "<end position>\\t<count>" after a header naming the string
    positions refer to.  The expanded form escapes the counted string once
    and cuts each gram out of it: ``offsets[p]`` is the escaped width of its
    first p bytes, so the gram ending at ``end`` is
    ``escaped[offsets[end - q] : offsets[end]]``.  q = 1 always uses the
    escaped byte form (character counts come straight off the grammar and
    have no reduction string).
    """
    if req.q < 1:
        raise SlpError("q must be at least 1")
    if req.algorithm not in ALGORITHMS:
        raise SlpError(f"algorithm must be one of {', '.join(ALGORITHMS)}")
    g = _load_grammar(req.grammar_path)
    m = compute_metrics(g)
    lines: list[str] = []
    if req.q == 1:
        freq = char_frequencies(g, m)
        for byte in sorted(freq):
            lines.append(f"{escape_bytes(bytes([byte]))}\t{freq[byte]}")
    else:
        reference, wt = _pipeline_text(g, m, req.q, req.algorithm)
        report = weighted_qgram_counts(wt)
        # Formatting reads the text only: drop the weights and the trie.
        text = wt.text
        del wt
        if req.expand_output:
            escaped = escape_bytes(text)
            offsets = np.zeros(len(text) + 1, dtype=np.int64)
            np.cumsum(_ESCAPE_WIDTHS[np.frombuffer(text, dtype=np.uint8)], out=offsets[1:])
            for end, weight in report.entries:
                lines.append(f"{escaped[offsets[end - req.q] : offsets[end]]}\t{weight}")
        else:
            lines.append(f"# end positions refer to {reference}")
            for end, weight in report.entries:
                lines.append(f"{end}\t{weight}")
    return "\n".join(lines) + "\n" if lines else ""


def _nsa_skipped(text_length: int) -> str:
    return (
        f"nsa skipped: the text is {text_length} bytes,"
        f" above the {DEFAULT_EXPAND_CAP} byte expansion cap"
    )


def _verify_one(g, m, text: bytes | None, q: int) -> list[str]:
    problems: list[str] = []
    # The ssa string is never shorter than the trie, so building it first
    # refuses an oversized reduction before the trie or nsa's weights.
    ssa = build_ssa_text(g, m, q)
    graph, trie = _neighbor_trie(g, m, q)
    texts = {} if text is None else {"nsa": _unit_weighted(text, q)}
    texts.update(ssa=ssa, stsa=trie.to_weighted_text())
    counts = {name: weighted_qgram_counts(wt).materialize(wt.text) for name, wt in texts.items()}
    reference, *others = counts
    base = counts[reference]
    for algorithm in others:
        if counts[algorithm] == base:
            continue
        for gram in sorted(set(base) | set(counts[algorithm])):
            if base.get(gram) != counts[algorithm].get(gram):
                problems.append(
                    f"q={q}: {algorithm}[{escape_bytes(gram)}]={counts[algorithm].get(gram, 0)}"
                    f" != {reference}[{escape_bytes(gram)}]={base.get(gram, 0)}"
                )
                break
    try:
        stats = compute_dup_stats(m, graph, trie)
    except ConsistencyError as exc:
        problems.append(f"q={q}: {exc}")
        return problems
    if stats.edge_count > 2 * g.n:
        problems.append(f"q={q}: edge count {stats.edge_count} exceeds 2n={2 * g.n}")
    if stats.flattened_len > stats.sum_ti:
        problems.append(
            f"q={q}: flattened length {stats.flattened_len} exceeds window total {stats.sum_ti}"
        )
    if stats.sum_ti > 2 * (q - 1) * g.n:
        problems.append(f"q={q}: window total {stats.sum_ti} exceeds 2(q-1)n")
    return problems


def run_verify(grammar_path: str, q_max: int) -> tuple[int, str]:
    """Cross-check the three pipelines for every q in 2..min(q_max, |T|).

    T is expanded once, before the first q, and ssa and stsa are checked
    against nsa.  Past the expansion cap nsa is skipped instead (the report's
    first line says so) and stsa is checked against ssa; the size identities
    and bounds are checked either way.  Returns (exit code, report); the
    report stops at the first divergence.
    """
    if q_max < 2:
        raise SlpError("q_max must be at least 2")
    g = _load_grammar(grammar_path)
    m = compute_metrics(g)
    top = min(q_max, m.text_length)
    lines = []
    text = expand(g) if m.text_length <= DEFAULT_EXPAND_CAP else None
    if text is None:
        lines.append(f"{_nsa_skipped(m.text_length)}; stsa checked against ssa")
    for q in range(2, top + 1):
        problems = _verify_one(g, m, text, q)
        if problems:
            lines.extend(problems)
            lines.append(f"q={q}: FAIL")
            lines.append("verification FAILED")
            return 1, "\n".join(lines) + "\n"
        lines.append(f"q={q}: ok")
    lines.append(f"verification passed for q in 2..{top}")
    return 0, "\n".join(lines) + "\n"


def run_stats(grammar_path: str, q_list: list[int]) -> str:
    """CSV with one size-accounting row per requested q.

    A trie the counting engine could not rank is refused, as ``count``
    refuses it, before its tables are built.
    """
    g = _load_grammar(grammar_path)
    m = compute_metrics(g)
    rows = [CSV_HEADER]
    for q in q_list:
        if q < 2:
            raise SlpError("stats needs q >= 2")
        graph, trie = _neighbor_trie(g, m, q)
        rows.append(compute_dup_stats(m, graph, trie).csv_row())
    return "\n".join(rows) + "\n"


def run_bench(grammar_path: str, q_list: list[int], repetitions: int) -> str:
    """CSV of mean wall-clock seconds per q and pipeline.

    The grammar is loaded before the clock starts; each timed repetition
    runs one pipeline from the loaded grammar through counting: metrics,
    then the expansion of T for nsa or the reduction string for ssa and
    stsa.  The problem_size column is the length of the string each
    pipeline counts on.  Past the expansion cap the nsa rows are left out,
    with a note on stderr.
    """
    if repetitions < 1:
        raise SlpError("repetitions must be at least 1")
    g = _load_grammar(grammar_path)
    algorithms = ALGORITHMS
    text_length = compute_metrics(g).text_length
    if text_length > DEFAULT_EXPAND_CAP:
        print(_nsa_skipped(text_length), file=sys.stderr)
        algorithms = ("ssa", "stsa")
    rows = ["q,algo,mean_seconds,problem_size"]
    for q in q_list:
        if q < 2:
            raise SlpError("bench needs q >= 2")
        for algorithm in algorithms:
            elapsed = 0.0
            for _ in range(repetitions):
                begin = time.perf_counter()
                _, wt = _pipeline_text(g, compute_metrics(g), q, algorithm)
                weighted_qgram_counts(wt)
                elapsed += time.perf_counter() - begin
                size = len(wt.text)
            rows.append(f"{q},{algorithm},{elapsed / repetitions:.6f},{size}")
    return "\n".join(rows) + "\n"


def _write_text(path: str | None, doc: str) -> None:
    if path:
        Path(path).write_text(doc)
    else:
        sys.stdout.write(doc)


def _decimal(raw: str) -> int:
    # int() would also take signs, underscores and non-ASCII digits.
    if not (raw.isascii() and raw.isdigit()):
        raise argparse.ArgumentTypeError(f"ASCII digits expected, got {raw!r}")
    try:
        return int(raw)
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(f"integer of {len(raw)} digits is too long") from None


def _parse_q_list(raw: str) -> list[int]:
    try:
        values = [_decimal(part.strip()) for part in raw.split(",") if part.strip()]
    except argparse.ArgumentTypeError as exc:
        raise SlpError(f"bad q list: {exc}") from None
    if not values:
        raise SlpError("empty q list")
    return values


def _cmd_build(args) -> int:
    if args.builder == "random":
        g = build_random(args.rule_count, args.alphabet, args.seed)
    else:
        if args.input is None:
            raise SlpError("build needs -i unless --algo-builder random")
        data = Path(args.input).read_bytes()
        if args.builder == "chain":
            g = build_chain(data)
        else:
            g = build_repair(data, BuilderConfig(min_pair_frequency=args.min_pair_freq))
    _write_text(args.output, serialize_slp(g))
    return 0


def _cmd_decompress(args) -> int:
    data = expand(_load_grammar(args.input))
    if args.output:
        Path(args.output).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
    return 0


def _cmd_count(args) -> int:
    req = CountRequest(args.input, args.q, args.algo, args.expand)
    _write_text(args.output, run_count(req))
    return 0


def _cmd_verify(args) -> int:
    code, report = run_verify(args.input, args.q_max)
    _write_text(args.output, report)
    return code


def _cmd_stats(args) -> int:
    _write_text(args.output, run_stats(args.input, _parse_q_list(args.q_list)))
    return 0


def _cmd_bench(args) -> int:
    _write_text(args.output, run_bench(args.input, _parse_q_list(args.q_list), args.reps))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slpgram",
        description="q-gram frequencies over grammar-compressed (SLP) strings",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("build", help="compress a byte file into an SLP v1 document")
    p.add_argument("-i", "--input", help="raw input file (unused for random)")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.add_argument(
        "--algo-builder",
        dest="builder",
        choices=("repair", "chain", "random"),
        default="repair",
    )
    p.add_argument("--min-pair-freq", type=_decimal, default=2, help="repair stop threshold")
    p.add_argument("--seed", type=_decimal, default=0, help="random builder seed")
    p.add_argument(
        "--rules", dest="rule_count", type=_decimal, default=64, help="random builder rule budget"
    )
    p.add_argument("--alphabet", type=_decimal, default=4, help="random builder alphabet size")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("decompress", help="expand an SLP back to bytes")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_decompress)

    p = sub.add_parser("count", help="count q-gram frequencies")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-q", type=_decimal, required=True)
    p.add_argument("--algo", choices=ALGORITHMS, default="stsa")
    p.add_argument("--expand", action="store_true", help="print gram strings, not positions")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("verify", help="cross-check all pipelines over a q range")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--q-max", type=_decimal, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("stats", help="size statistics CSV per q")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--q-list", required=True, help="comma separated, e.g. 2,3,8")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("bench", help="wall-clock timing CSV per q and pipeline")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--q-list", required=True)
    p.add_argument("--reps", type=_decimal, default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SlpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
