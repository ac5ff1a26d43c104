"""Reference computations that the program's outputs are checked against.

Nothing here imports ``slpgram`` or reuses its code: the SLP reader and
expander, the gram unescaping, the counts and the size bounds are written
out again from the file formats and the paper's definitions.  Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import re
from collections import Counter

from bench_inputs import Versions

# Rules whose expansion is at most this long are kept as byte strings while
# expanding; longer ones are walked with an explicit stack.
_MEMO_BYTES = 4096

_ESCAPED = re.compile(r"(?:[\x20-\x5b\x5d-\x7e]|\\\\|\\x[0-9A-Fa-f]{2})*")
_ESCAPE = re.compile(r"\\(?:(\\)|x([0-9A-Fa-f]{2}))")
_DECIMAL = re.compile(r"0|[1-9][0-9]*")
_POSITIVE = re.compile(r"[1-9][0-9]*")


class OracleError(ValueError):
    """An output does not follow its documented format."""


def unescape(field: str) -> bytes:
    """Decode a gram field: printable ASCII, ``\\\\`` and ``\\xNN`` only."""
    if "\\" not in field:
        if field.isascii() and field.isprintable():
            return field.encode("ascii")
        raise OracleError(f"gram field {field!r} holds a character that must be escaped")
    if _ESCAPED.fullmatch(field) is None:
        raise OracleError(f"gram field {field!r} is not validly escaped")
    decoded = _ESCAPE.sub(lambda m: "\\" if m.group(1) else chr(int(m.group(2), 16)), field)
    return decoded.encode("latin-1")


def read_slp(doc: str) -> list[tuple[int, ...]]:
    """Rules of an SLP v1 document: ``(byte,)`` or ``(left, right)``, 1-based."""
    rules: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(doc.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if not all(_DECIMAL.fullmatch(f) for f in fields[:1] + fields[2:]):
            raise OracleError(f"line {lineno}: non-decimal field in {raw!r}")
        index = int(fields[0])
        if index != len(rules) + 1:
            raise OracleError(f"line {lineno}: rule {len(rules) + 1} expected, got {index}")
        if fields[1:2] == ["T"] and len(fields) == 3 and int(fields[2]) < 256:
            rules.append((int(fields[2]),))
        elif fields[1:2] == ["N"] and len(fields) == 4 and all(
            1 <= int(f) < index for f in fields[2:]
        ):
            rules.append((int(fields[2]), int(fields[3])))
        else:
            raise OracleError(f"line {lineno}: malformed rule {raw!r}")
    if not rules:
        raise OracleError("document holds no rules")
    return rules


def slp_lengths(rules: list[tuple[int, ...]]) -> list[int]:
    """``lengths[i]`` is the length of rule i's expansion; index 0 unused."""
    lengths = [0]
    for rule in rules:
        lengths.append(1 if len(rule) == 1 else lengths[rule[0]] + lengths[rule[1]])
    return lengths


def slp_expand(rules: list[tuple[int, ...]], cap: int) -> bytes:
    """The text the last rule derives; refuses texts longer than ``cap``."""
    lengths = slp_lengths(rules)
    if lengths[-1] > cap:
        raise OracleError(f"text of {lengths[-1]} bytes is above the {cap} byte cap")
    memo: dict[int, bytes] = {}
    for i, rule in enumerate(rules, start=1):
        if lengths[i] <= _MEMO_BYTES:
            memo[i] = bytes(rule) if len(rule) == 1 else memo[rule[0]] + memo[rule[1]]
    out = bytearray()
    stack = [len(rules)]
    while stack:
        i = stack.pop()
        if i in memo:
            out += memo[i]
        else:
            stack.append(rules[i - 1][1])
            stack.append(rules[i - 1][0])
    return bytes(out)


def sliding_counts(text: bytes, q: int) -> dict[bytes, int]:
    """Occurrences of every q-gram, read off a window sliding over the text."""
    return dict(Counter(text[i : i + q] for i in range(len(text) - q + 1)))


def versions_counts(v: Versions, q: int) -> dict[bytes, int]:
    """q-gram counts of a versioned collection in closed form.

    The base document's counts are corrected around each edit, then the
    grams across each seam between consecutive copies are added; the whole
    collection repeats 2**d times, with d-fold more seams across copies of
    it (the wrap-around grams).
    """
    base, copies = v.base, len(v.versions)
    if len(base) < q:
        raise OracleError("the closed form needs a base document of at least q bytes")
    per_copy = Counter(sliding_counts(base, q))
    collection: Counter = Counter({gram: count * copies for gram, count in per_copy.items()})
    for text, spots in zip(v.versions, v.edits):
        starts = {s for p in spots for s in range(max(0, p - q + 1), min(p, len(base) - q) + 1)}
        for s in starts:
            collection[base[s : s + q]] -= 1
            collection[text[s : s + q]] += 1
    for left, right in zip(v.versions, v.versions[1:]):
        collection.update(sliding_counts(left[len(left) - q + 1 :] + right[: q - 1], q))
    wrap = sliding_counts(v.versions[-1][len(base) - q + 1 :] + v.versions[0][: q - 1], q)
    repeats = 1 << v.doublings
    counts = {gram: count * repeats for gram, count in collection.items() if count}
    for gram, count in wrap.items():
        counts[gram] = counts.get(gram, 0) + count * (repeats - 1)
    return counts


def check_count_tsv(doc: str, q: int, expected: dict[bytes, int], text_length: int) -> list[str]:
    """``count --expand`` output against reference counts.

    Lines are "<escaped gram>\\t<count>" in strictly increasing gram byte
    order; the counts total |T| - q + 1 and equal ``expected`` gram by gram.
    """
    counts: dict[bytes, int] = {}
    previous = b""
    for lineno, line in enumerate(doc.splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) != 2 or _POSITIVE.fullmatch(fields[1]) is None:
            return [f"line {lineno}: malformed count line {line!r}"]
        try:
            gram = unescape(fields[0])
        except OracleError as exc:
            return [f"line {lineno}: {exc}"]
        if len(gram) != q:
            return [f"line {lineno}: gram {fields[0]!r} is not {q} bytes long"]
        if lineno > 1 and gram <= previous:
            return [f"line {lineno}: gram {fields[0]!r} out of byte order"]
        previous = gram
        counts[gram] = int(fields[1])
    problems = []
    total = sum(counts.values())
    if total != max(0, text_length - q + 1):
        problems.append(f"counts total {total}, expected |T| - q + 1 = {text_length - q + 1}")
    if counts != expected:
        wrong = sorted(g for g in counts.keys() | expected.keys() if counts.get(g) != expected.get(g))
        shown = ", ".join(f"{g!r}: {counts.get(g, 0)} != {expected.get(g, 0)}" for g in wrong[:3])
        problems.append(f"{len(wrong)} gram counts differ from the reference ({shown})")
    return problems


def check_stats_csv(doc: str, q_list: list[int], text_length: int, rules: int) -> list[str]:
    """``stats`` rows against the paper's size bounds.

    trie_size = |T| - dup, flattened_len <= sum_ti <= 2(q-1)n, edges <= 2n.
    """
    lines = doc.splitlines()
    if not lines:
        return ["stats output is empty"]
    header = lines[0].split(",")
    needed = ("q", "sum_ti", "trie_size", "dup", "flattened_len", "edges")
    if any(name not in header for name in needed):
        return [f"stats header {lines[0]!r} lacks one of {needed}"]
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header) or not all(_DECIMAL.fullmatch(f) for f in fields):
            return [f"malformed stats row {line!r}"]
        rows.append(dict(zip(header, map(int, fields))))
    if [row["q"] for row in rows] != q_list:
        return [f"stats rows are for q = {[row['q'] for row in rows]}, expected {q_list}"]
    problems = []
    for row in rows:
        q = row["q"]
        if row["trie_size"] != text_length - row["dup"]:
            problems.append(f"q={q}: trie_size {row['trie_size']} != |T| - dup")
        if not row["flattened_len"] <= row["sum_ti"] <= 2 * (q - 1) * rules:
            problems.append(f"q={q}: flattened_len <= sum_ti <= 2(q-1)n fails")
        if row["edges"] > 2 * rules:
            problems.append(f"q={q}: {row['edges']} edges exceed 2n = {2 * rules}")
    return problems
