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
import functools
import re
import sys
import time
from pathlib import Path

import numpy as np

from .builders import build_chain, build_random, build_repair
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
    SlpFormatError,
    SlpGrammar,
    SlpMetrics,
    affix_tables,
    char_frequencies,
    check_affix_tables,
    compute_metrics,
    compute_qmarks,
    expand,
    parse_slp,
    prune_unused,
    seam_order,
    serialize_slp,
)
from .ssa import build_ssa_text
from .suffix import WeightedText, check_rankable, weighted_qgram_counts

ALGORITHMS = ("nsa", "ssa", "stsa")
_HEX_ESCAPE = re.compile(r"\\x([0-9A-Fa-f]{2})")


def _escape(b: int) -> bytes:
    return b"\\\\" if b == 0x5C else bytes([b]) if 0x20 <= b <= 0x7E else b"\\x%02X" % b


# Row b holds the escape of byte value b, zero-padded to four bytes (no
# escape holds a zero byte); read as uint32, a row is one value.
_ESCAPES = np.array([list(_escape(b).ljust(4, b"\0")) for b in range(256)], dtype=np.uint8)
_ESCAPE_CELLS = _ESCAPES.view(np.uint32).ravel()
_ESCAPE_WIDTHS = np.count_nonzero(_ESCAPES, axis=1).astype(np.int64)

# The ASCII digits of 0000 to 9999, each group read as one uint32 (made of
# two digit pairs, which keeps the table's set-up small), and the powers of
# 10^4 that cut an int64 into such groups, the highest first.
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
_DIGIT_GROUPS = (
    np.stack(np.broadcast_arrays(_DIGIT_PAIRS[:, None], _DIGIT_PAIRS), axis=-1)
    .view(np.uint32)
    .ravel()
)
_GROUP_POWERS = 10 ** np.arange(16, -1, -4, dtype=np.int64)
# The last d of these are the least number that has a digit in each of d
# right-aligned digit columns; every number has one in the last.
_DIGIT_FLOORS = np.append(10 ** np.arange(18, 0, -1, dtype=np.int64), 0)


def _escaped(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The escapes of a uint8 array's bytes, one after the other, and their
    offsets: ``offsets[p]`` is the escaped width of the first p bytes.

    Each byte is repeated as often as its escape is wide.  That already
    spells a printable byte and a backslash, whose escape is two of them;
    only the bytes of width 4 are written over, their whole escape as one
    uint32 at their offset, through an unaligned view of the output.  The
    widths are taken into the offsets' array and summed there in place, so
    the offsets are the stage's only array of 8 bytes a byte.
    """
    offsets = np.zeros(data.size + 1, dtype=np.int64)
    widths = np.take(_ESCAPE_WIDTHS, data, out=offsets[1:])
    escaped = np.repeat(data, widths)
    wide = np.flatnonzero(widths == 4)
    np.cumsum(widths, out=widths)
    if wide.size:
        # Cell p is escaped[p : p + 4]; a byte of width 4 starts at most 4
        # bytes before the end.
        cells = np.ndarray((escaped.size - 3,), np.uint32, escaped, strides=(1,))
        cells[np.take(offsets, wide)] = np.take(_ESCAPE_CELLS, np.take(data, wide))
    return escaped, offsets


def escape_bytes(data: bytes) -> str:
    """Printable ASCII stays literal, backslash doubles, the rest is \\xNN.

    The escape ``count`` writes its grams with: each byte repeated to its
    escape's width, and only the \\xNN ones written over (see ``_escaped``).
    """
    return str(_escaped(np.frombuffer(data, dtype=np.uint8))[0], "ascii")


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


def _read_document(path: str) -> str:
    """The grammar file decoded as UTF-8 under every locale, with its line
    ends as they are (the format, not text mode, says what a "\r" means)."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise SlpFormatError(
            f"line {lineno}: byte 0x{data[exc.start]:02X} is not UTF-8 ({exc.reason})"
        ) from None


def _load_grammar(path: str) -> tuple[SlpGrammar, SlpMetrics]:
    """The grammar in the file at ``path`` and its metrics, in one pass:
    parse, metrics, then prune.

    The parsers already guarantee bytes in range and children below their
    rule, so ``validate`` is not called; the metrics check every rule's
    length, used or not, before any occurrence is counted, and name a rule
    by its index in the file.  Counting assumes every rule occurs in the
    derivation tree; dead rules change nothing about the text, so they are
    dropped with a warning, and only then are the metrics computed again.
    """
    g = parse_slp(_read_document(path))
    m = compute_metrics(g)
    pruned = prune_unused(g, m)
    if pruned is not g:
        unused = [i for i in range(1, g.n + 1) if not m.occurrences[i]]
        shown = ", ".join(map(str, unused[:8]))
        print(f"warning: pruning {len(unused)} unused rule(s) (e.g. {shown})", file=sys.stderr)
        g, m = pruned, compute_metrics(pruned)
    return g, m


def _pipeline_text(g, m, q: int, algorithm: str) -> tuple[str, WeightedText]:
    """The weighted string a pipeline counts on, plus its reference name;
    nsa's is the text with implicit unit weights."""
    if algorithm == "nsa":
        return "T", WeightedText(expand(g, m.lengths), None, q)
    if algorithm == "ssa":
        return "z", build_ssa_text(g, m, q)
    order = seam_order(g, m, q)
    graph = build_neighbor_graph(g, m, compute_qmarks(g, m, q, order), order)
    # The flattening reads the graph alone, so the order's arrays go first.
    del order
    return "z", flatten_neighbor_trie(g, m, graph).to_weighted_text()


def _decimals(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal digits of positive int64 values, one row of ASCII bytes
    each, right-aligned in as many columns as the largest has digits and
    led by zeros, and the floors of those columns (see ``_DIGIT_FLOORS``).

    The digits come in groups of four from one table, so the calls made do
    not grow with the number of digits.
    """
    width = len(str(int(values.max())))
    # -width // 4 is minus the number of groups
    groups = values[:, None] // _GROUP_POWERS[-width // 4 :]
    groups %= 10_000
    return _DIGIT_GROUPS[groups].view(np.uint8)[:, -width:], _DIGIT_FLOORS[-width:]


def _row_bytes(flat, starts, widths, digits, weights, floors) -> np.ndarray:
    """The bytes of lines "<key>\\t<weight>\\n", one line after the other
    (see ``_lines``), each laid out as one row of a byte matrix: the key,
    the bytes that follow it in ``flat`` up to the widest key's width, a
    tab, the weight's digits right-aligned and a newline.
    """
    low, split = int(widths.min()), int(widths.max())
    size = split + digits.shape[1] + 2
    # Row p of the view is flat[p : p + size]; the zeros after flat keep
    # every row inside the buffer.
    padded = np.concatenate((flat, np.zeros(size, dtype=np.uint8)))
    rows = np.ndarray((len(flat) + 1, size), np.uint8, padded, strides=(1, 1))[starts]
    del padded  # the rows are a copy
    rows[:, split] = ord("\t")
    rows[:, split + 1 : -1] = digits
    rows[:, -1] = ord("\n")
    # Every key fills its first ``low`` columns, so only the later ones are
    # tested, transposed: each comparison then runs along all the lines.
    tail = np.ones((size - low, len(weights)), dtype=bool)
    np.less(np.arange(low, split)[:, None], widths, out=tail[: split - low])
    np.greater_equal(weights, floors[:, None], out=tail[split - low + 1 : -1])
    kept = np.ones(rows.shape, dtype=bool)
    kept[:, low:] = tail.T
    del tail  # freed before the report is made
    return rows[kept]


def _narrow_width(widths: np.ndarray) -> int:
    """The widest key that goes in the first of ``_lines``' two matrices.

    That is every key, unless padding them all to the widest would take
    more than twice their bytes; then it is the width at which the two
    matrices, each padded to its own widest key, hold the fewest bytes.
    """
    low, widest = int(widths.min()), int(widths.max())
    if len(widths) * widest <= 2 * int(widths.sum()):
        return widest
    narrow = np.cumsum(np.bincount(widths - low))  # lines no wider than low + i
    cells = narrow * np.arange(low, widest + 1) + (len(widths) - narrow) * widest
    return low + int(cells.argmin())


def _lines(flat: np.ndarray, starts: np.ndarray, widths: np.ndarray, weights: np.ndarray) -> str:
    """Lines "<key>\\t<weight>\\n", where key i is the uint8 array ``flat``
    from ``starts[i]`` on, ``widths[i]`` bytes long.

    Each line is one row of a byte matrix, gathered at once from a strided
    view of ``flat``; one boolean compress drops the padding after each key
    and the digits' leading zeros (see ``_row_bytes``), and one decode makes
    the text.  A row is as wide as the widest key in its matrix, so the few
    keys much wider than the rest (a gram of many escaped bytes) are written
    in a second matrix and merged back by line (see ``_narrow_width``).
    """
    digits, floors = _decimals(weights)
    narrow = widths <= _narrow_width(widths)
    if narrow.all():
        report = _row_bytes(flat, starts, widths, digits, weights, floors)
    else:
        parts = [
            _row_bytes(flat, starts[rows], widths[rows], digits[rows], weights[rows], floors)
            for rows in (narrow, ~narrow)
        ]
        # Each line's bytes: its key, a tab, its weight's digits, a newline.
        sizes = widths + np.count_nonzero(weights[:, None] >= floors, axis=1) + 2
        at = np.repeat(narrow, sizes)
        report = np.empty(len(at), dtype=np.uint8)
        # Each part is dropped once placed.
        report[at] = parts.pop(0)
        report[np.logical_not(at, out=at)] = parts.pop()
        del at
    return str(report, "ascii")


def run_count(grammar_path: str, q: int, algorithm: str, expand_output: bool) -> str:
    """TSV of q-gram counts of the grammar file at ``grammar_path``, sorted
    by gram byte order, counted with ``algorithm`` (one of ``ALGORITHMS``).

    With ``expand_output`` each line is "<escaped gram>\\t<count>"; without
    it, lines are "<end position>\\t<count>" after a header naming the string
    positions refer to.  q = 1 always uses the escaped byte form (character
    counts come straight off the grammar and have no reduction string).

    The report is written as one byte array, with no Python string per
    line (see ``_lines``).  The expanded form escapes the counted string
    once, by repeating each byte to its escape's width and writing over
    only the \\xNN ones (``_escaped``).  ``offsets[p]`` is the escaped width
    of its first p bytes, so the gram ending at ``end`` is the escaped text
    from ``offsets[end - q]`` to ``offsets[end]``.  Without
    ``expand_output`` the keys are the end positions' digits, and with
    q = 1 the byte values' escapes.
    """
    if q < 1:
        raise SlpError("q must be at least 1")
    if algorithm not in ALGORITHMS:
        raise SlpError(f"algorithm must be one of {', '.join(ALGORITHMS)}")
    g, m = _load_grammar(grammar_path)
    if q == 1:
        freq = char_frequencies(g, m)
        found = sorted(freq)
        weights = np.array([freq[b] for b in found], dtype=np.int64)
        return _lines(_ESCAPES.ravel(), np.multiply(found, 4), _ESCAPE_WIDTHS[found], weights)
    reference, wt = _pipeline_text(g, m, q, algorithm)
    ends, weights = weighted_qgram_counts(wt).entries.T
    # Only the expanded form reads the text, and only to escape it: drop
    # the weights and the trie now, and the text once it is escaped.
    data = np.frombuffer(wt.text, dtype=np.uint8) if expand_output else None
    del wt
    header = "" if expand_output else f"# end positions refer to {reference}\n"
    if not ends.size:
        # q may not fit in int64, so ends - q is only taken when a gram exists
        return header
    if not expand_output:
        # The ends written out one after the other are the keys.
        digits, floors = _decimals(ends)
        filled = ends[:, None] >= floors
        widths = np.count_nonzero(filled, axis=1)
        starts = np.cumsum(widths) - widths
        return header + _lines(digits[filled], starts, widths, weights)
    escaped, offsets = _escaped(data)
    del data
    starts = offsets[ends - q]
    widths = offsets[ends] - starts
    del offsets  # 8 bytes a text byte, freed before the report is made
    return _lines(escaped, starts, widths, weights)


def _nsa_skipped(text_length: int) -> str:
    return (
        f"nsa skipped: the text is {text_length} bytes,"
        f" above the {DEFAULT_EXPAND_CAP} byte expansion cap"
    )


def _verify_one(g, m, text: bytes | None, q: int, order) -> list[str]:
    problems: list[str] = []
    graph = build_neighbor_graph(g, m, compute_qmarks(g, m, q, order), order)
    # The ssa string, sum_ti positions, is never shorter than the trie, so
    # refusing it first refuses an oversized reduction before the affix
    # tables, the trie or nsa's weights; both then share the tables, which
    # are refused past their own cap before they are built.
    check_rankable(graph.sum_ti)
    check_affix_tables(g, m, q)
    tables = affix_tables(g, m, q)
    ssa = build_ssa_text(g, m, q, tables)
    trie = flatten_neighbor_trie(g, m, graph, tables)
    del tables  # counting needs the texts only
    texts = {} if text is None else {"nsa": WeightedText(text, None, q)}
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
        compute_dup_stats(m, graph)
    except ConsistencyError as exc:
        problems.append(f"q={q}: {exc}")
        return problems
    nodes, length = trie.body_total, len(trie.text)
    flattened_len = graph.flattened_len
    if (nodes, length) != (graph.trie_size, flattened_len):
        problems.append(
            f"q={q}: built trie has {nodes} nodes and {length} text bytes,"
            f" the graph gives {graph.trie_size} and {flattened_len}"
        )
    if graph.edge_count > 2 * g.n:
        problems.append(f"q={q}: edge count {graph.edge_count} exceeds 2n={2 * g.n}")
    if flattened_len > graph.sum_ti:
        problems.append(
            f"q={q}: flattened length {flattened_len} exceeds window total {graph.sum_ti}"
        )
    if graph.sum_ti > 2 * (q - 1) * g.n:
        problems.append(f"q={q}: window total {graph.sum_ti} exceeds 2(q-1)n")
    return problems


def run_verify(grammar_path: str, q_max: int) -> tuple[int, str]:
    """Cross-check the three pipelines for every q in 2..min(q_max, |T|).

    T is expanded once, before the first q, and ssa and stsa are checked
    against nsa.  Past the expansion cap nsa is skipped instead (the report's
    first line says so) and stsa is checked against ssa; the size identities
    and bounds, and the built trie's node count and text length against the
    graph's, are checked either way.  Returns (exit code, report); the
    report stops at the first divergence.  A one-byte text has no q to
    check, and its report says that nothing was checked.  The graphs of
    every q share one seam order, built for q = 2.
    """
    if q_max < 2:
        raise SlpError("q_max must be at least 2")
    g, m = _load_grammar(grammar_path)
    top = min(q_max, m.text_length)
    if top < 2:
        return 0, f"nothing checked: no q >= 2 fits a text of {m.text_length} byte\n"
    lines = []
    text = expand(g, m.lengths) if m.text_length <= DEFAULT_EXPAND_CAP else None
    if text is None:
        lines.append(f"{_nsa_skipped(m.text_length)}; stsa checked against ssa")
    order = seam_order(g, m, 2)
    for q in range(2, top + 1):
        problems = _verify_one(g, m, text, q, order)
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

    Every column comes from the neighbor graph's pass, so no affix table or
    trie is built, and a q whose trie ``count`` would refuse as too large
    to rank still gets its row.  The graphs of every q share one seam
    order, built for the smallest.
    """
    g, m = _load_grammar(grammar_path)
    if any(q < 2 for q in q_list):
        raise SlpError("stats needs q >= 2")
    order = seam_order(g, m, min(q_list, default=2))
    rows = [CSV_HEADER]
    for q in q_list:
        graph = build_neighbor_graph(g, m, compute_qmarks(g, m, q, order), order)
        rows.append(compute_dup_stats(m, graph).csv_row())
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
    if any(q < 2 for q in q_list):
        raise SlpError("bench needs q >= 2")
    g, m = _load_grammar(grammar_path)
    algorithms = ALGORITHMS
    text_length = m.text_length
    if text_length > DEFAULT_EXPAND_CAP:
        print(_nsa_skipped(text_length), file=sys.stderr)
        algorithms = ("ssa", "stsa")
    rows = ["q,algo,mean_seconds,problem_size"]
    for q in q_list:
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
            g = build_repair(data, args.min_pair_freq)
    _write_text(args.output, serialize_slp(g))
    return 0


def _cmd_decompress(args) -> int:
    g, m = _load_grammar(args.input)
    data = expand(g, m.lengths)
    if args.output:
        Path(args.output).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
    return 0


def _cmd_count(args) -> int:
    _write_text(args.output, run_count(args.input, args.q, args.algo, args.expand))
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it was, and each call gets a fresh namespace."""
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
