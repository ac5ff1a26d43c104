"""Core straight-line program (SLP) machinery.

An SLP is a context-free grammar in Chomsky normal form deriving exactly
one byte string: rule i is either a terminal byte or an ordered pair of two
smaller-indexed rules, and the last rule is the start symbol.  A grammar is
stored as two 1-indexed child lists, ``lefts`` and ``rights``: a terminal
keeps its byte in ``lefts`` and -1 in ``rights``, and index 0 holds the
padding pair (0, 0).  Every derived per-rule array in this package is padded
the same way, so ``array[i]`` belongs to rule i and ``array[0]`` is unused.

Decompression is one walk over whole rules into an output of known length:
a rule already written whole is copied from its first offset instead of
being walked again.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain

import numpy as np

MAX_TEXT_LENGTH = 2**63 - 1
DEFAULT_EXPAND_CAP = 1 << 30


class SlpError(Exception):
    """Base error for this package."""


class SlpFormatError(SlpError):
    """Malformed SLP v1 document."""


class ValidationError(SlpError):
    """Grammar violates a structural invariant."""


class ConsistencyError(SlpError):
    """Two independent computations of the same quantity disagreed."""


@dataclass(frozen=True)
class SlpGrammar:
    """The rule table as two 1-indexed child lists; rule n starts.

    When ``rights[i]`` is -1, rule i is the byte ``lefts[i]``; otherwise it
    is the pair (``lefts[i]``, ``rights[i]``).  Index 0 holds the padding
    pair (0, 0).
    """

    lefts: list[int]
    rights: list[int]

    @property
    def n(self) -> int:
        return len(self.lefts) - 1


@dataclass(frozen=True)
class SlpMetrics:
    """Per-rule expansion lengths and derivation-tree occurrence counts."""

    lengths: list[int]
    occurrences: list[int]

    @property
    def text_length(self) -> int:
        return self.lengths[-1]


@dataclass(frozen=True, eq=False)
class QMarks:
    """Deepest long-enough rule along each rule's outer paths.

    ``leftmost[i]`` (``rightmost[i]``) is the deepest variable with expansion
    length at least q on the left-most (right-most) path under rule i, or 0,
    which names no rule, when rule i itself is shorter than q.  Both are
    int64 arrays of g.n + 1 entries, padded like the rule table.
    """

    q: int
    leftmost: np.ndarray
    rightmost: np.ndarray


@dataclass(frozen=True, eq=False)
class SeamOrder:
    """The q-independent part of the neighbor graph, for every q >= ``q``:
    the rule table and the metrics as int64 arrays, and ``rules``, the pair
    rules of at least ``q`` bytes in the order of their first seams (the
    text offset between a rule's children in its first occurrence).
    ``children`` holds the left children in row 0 and the right ones in
    row 1, with 0 for a terminal's."""

    q: int
    children: np.ndarray
    lengths: np.ndarray
    occurrences: np.ndarray
    rules: np.ndarray


def parse_slp(doc: str) -> SlpGrammar:
    """Parse an SLP v1 document.

    One rule per line ("<i> T <byte>" or "<i> N <left> <right>"), indices
    consecutive from 1, '#' comment lines and blank lines ignored.  Lines
    end at "\n" (a "\r" just before it counts as whitespace) and fields are
    separated by ASCII spaces and tabs; any other separator is an error.

    A document in the form :func:`serialize_slp` writes is read with array
    operations (:func:`_parse_canonical`); any other document, and every
    malformed one, goes through the line loop (:func:`_parse_lines`), which
    gives every error message.  Both give the same grammar.
    """
    g = _parse_canonical(doc)
    return _parse_lines(doc) if g is None else g


# Every byte serialize_slp writes.
_CANONICAL_BYTES = b"0123456789 TN\n"


def _parse_canonical(doc: str) -> SlpGrammar | None:
    """The grammar of a document made only of digits, spaces, "T", "N" and
    newlines, ending in a newline, with no digit run longer than 18; None
    for any other document, or when a rule fails a check.

    " T ", " N " and "\\n" become the tokens -1, -2 and -3.  That leaves
    only digit runs and those tokens, between spaces, so one
    ``np.fromstring`` reads every integer up to the end, and no run of at
    most 18 digits overflows int64.  The checks are array operations: each
    rule is [i, -1, b, -3] or [i, -2, l, r, -3], with i = 1..n,
    0 <= b <= 255 and both children in 1..i-1.
    """
    if not (doc.endswith("\n") and doc.isascii()):
        return None
    data = doc.encode("ascii")
    if data.translate(None, _CANONICAL_BYTES):
        return None
    # The non-digits bound every digit run; the last byte is one of them.
    separators = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) - 48 > 9)
    if np.diff(separators, prepend=-1).max() > 19:
        return None
    doc = doc.replace(" T ", " -1 ").replace(" N ", " -2 ")
    if "T" in doc or "N" in doc:
        return None  # a kind letter not alone between two spaces
    tokens = np.fromstring(doc.replace("\n", " -3 "), dtype=np.int64, sep=" ")
    ends = np.flatnonzero(tokens == -3)
    starts = np.concatenate(([0], ends[:-1] + 1))
    sizes = ends - starts
    terminal = sizes == 3
    if not np.all(terminal | (sizes == 4)):
        return None
    rules = np.arange(1, len(ends) + 1)
    lefts = tokens[starts + 2]
    rights = np.where(terminal, -1, tokens[starts + 3])
    byte_ok = (lefts >= 0) & (lefts <= 255)
    children_ok = (np.minimum(lefts, rights) >= 1) & (np.maximum(lefts, rights) < rules)
    if not (
        np.array_equal(tokens[starts], rules)
        and np.array_equal(tokens[starts + 1], np.where(terminal, -1, -2))
        and np.all(np.where(terminal, byte_ok, children_ok))
    ):
        return None
    return SlpGrammar([0, *lefts.tolist()], [0, *rights.tolist()])


def _parse_lines(doc: str) -> SlpGrammar:
    """Parse an SLP v1 document one line at a time (see :func:`parse_slp`);
    this loop raises every format error."""
    lefts = [0]
    rights = [0]
    for lineno, raw in enumerate(doc.replace("\r\n", "\n").split("\n"), start=1):
        line = raw.strip(" \t")
        if not line or line[0] == "#":
            continue
        if not line.isprintable():
            # The space is the only printable character str.split() breaks
            # on, and the tab is the only other separator allowed.
            line = line.replace("\t", " ")
            if not line.isprintable():
                bad = next(c for c in line if not c.isprintable())
                raise SlpFormatError(
                    f"line {lineno}: character {bad!r} found; fields are separated"
                    " by spaces and tabs only"
                )
        parts = line.split()
        idx = _int_field(parts[0], lineno)
        if idx != len(lefts):
            raise SlpFormatError(f"line {lineno}: rule {len(lefts)} expected, got {idx}")
        kind = parts[1] if len(parts) > 1 else ""
        if kind == "T" and len(parts) == 3:
            byte = _int_field(parts[2], lineno)
            if not 0 <= byte <= 255:
                raise SlpFormatError(f"line {lineno}: byte value {byte} out of range")
            lefts.append(byte)
            rights.append(-1)
        elif kind == "N" and len(parts) == 4:
            left = _int_field(parts[2], lineno)
            right = _int_field(parts[3], lineno)
            for child in (left, right):
                if child < 1:
                    raise SlpFormatError(f"line {lineno}: child index {child} out of range")
                if child >= idx:
                    raise SlpFormatError(f"line {lineno}: forward reference to rule {child}")
            lefts.append(left)
            rights.append(right)
        else:
            raise SlpFormatError(f"line {lineno}: malformed rule {line!r}")
    if len(lefts) == 1:
        raise SlpFormatError("document contains no rules")
    return SlpGrammar(lefts, rights)


def _int_field(token: str, lineno: int) -> int:
    # int() would also take signs, underscores and non-ASCII digits.
    if not (token.isascii() and token.isdigit()):
        raise SlpFormatError(f"line {lineno}: integer expected, got {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise SlpFormatError(
            f"line {lineno}: integer of {len(token)} digits is too long"
        ) from None


def serialize_slp(g: SlpGrammar) -> str:
    """Render a grammar back into the SLP v1 format (parse round trips)."""
    lefts, rights = g.lefts, g.rights
    lines = [
        f"{i} T {lefts[i]}" if rights[i] < 0 else f"{i} N {lefts[i]} {rights[i]}"
        for i in range(1, g.n + 1)
    ]
    return "\n".join(lines) + "\n"


def validate(g: SlpGrammar) -> list[int]:
    """Check a rule table built by hand; return unused rule indices.

    Mismatched or unpadded child lists, byte ranges and child ordering
    violations raise ValidationError, naming the first rule at fault and,
    in a pair rule, its first child at fault.  Rules that never occur in
    the derivation tree are only reported (callers may pass the grammar
    through :func:`prune_unused` instead).  One loop checks the rules in
    index order; then, as in :func:`compute_metrics`, every rule's length is
    checked against 2**63 - 1 before any occurrence is counted, naming the
    first rule past it.  Loading a file never calls this: the parsers and
    the metrics already make every check it makes.
    """
    lefts, rights = g.lefts, g.rights
    if len(lefts) != len(rights):
        raise ValidationError(
            f"child lists differ in length: {len(lefts)} lefts, {len(rights)} rights"
        )
    if not lefts or lefts[0] != 0 or rights[0] != 0:
        raise ValidationError("child lists must start with the padding pair (0, 0)")
    if g.n < 1:
        raise ValidationError("grammar has no rules")
    for i in range(1, g.n + 1):
        r = rights[i]
        if r == -1:
            if not 0 <= lefts[i] <= 255:
                raise ValidationError(f"rule {i}: byte value {lefts[i]} out of range")
        else:
            for child in (lefts[i], r):
                if not 1 <= child < i:
                    raise ValidationError(f"rule {i}: child index {child} not in 1..{i - 1}")
    _rule_lengths(g)
    occurrences = _rule_occurrences(g)
    return [i for i in range(1, g.n + 1) if occurrences[i] == 0]


def prune_unused(g: SlpGrammar, m: SlpMetrics) -> SlpGrammar:
    """Drop the rules that never occur in the derivation tree, read off
    ``m.occurrences``, renumbering the rest; ``g`` itself when every rule
    occurs.  The new grammar needs metrics of its own."""
    occurrences = m.occurrences
    if all(occurrences[1:]):
        return g
    old_lefts, old_rights = g.lefts, g.rights
    remap = [0] * (g.n + 1)
    lefts = [0]
    rights = [0]
    for i in range(1, g.n + 1):
        if occurrences[i] == 0:
            continue
        r = old_rights[i]
        if r < 0:
            lefts.append(old_lefts[i])
            rights.append(-1)
        else:
            lefts.append(remap[old_lefts[i]])
            rights.append(remap[r])
        remap[i] = len(lefts) - 1
    return SlpGrammar(lefts, rights)


def _rule_lengths(g: SlpGrammar) -> list[int]:
    lefts, rights = g.lefts, g.rights
    lengths = [0] * (g.n + 1)
    for i in range(1, g.n + 1):
        r = rights[i]
        if r < 0:
            lengths[i] = 1
        else:
            total = lengths[lefts[i]] + lengths[r]
            if total > MAX_TEXT_LENGTH:
                raise ValidationError(f"rule {i} expands past 2**63 - 1 characters")
            lengths[i] = total
    return lengths


def _rule_occurrences(g: SlpGrammar) -> list[int]:
    occurrences = [0] * (g.n + 1)
    occurrences[g.n] = 1
    lefts, rights = g.lefts, g.rights
    for i in range(g.n, 0, -1):
        r = rights[i]
        if r >= 0:
            count = occurrences[i]
            occurrences[lefts[i]] += count
            occurrences[r] += count
    return occurrences


def compute_metrics(g: SlpGrammar) -> SlpMetrics:
    """Lengths bottom-up, then occurrence counts top-down, both in O(n).

    Every rule's length, used or not, is checked against 2**63 - 1 before
    any occurrence is counted.  A rule that occurs c times spells c copies
    of its text inside T, and a rule that never occurs passes no count on,
    so checked lengths keep every count below 2**63.  Counted first, the
    counts of a doubling chain too long to spell would grow to n bits each.
    """
    return SlpMetrics(_rule_lengths(g), _rule_occurrences(g))


def _rule_table(g: SlpGrammar, m: SlpMetrics) -> np.ndarray:
    """The left and right child lists, the lengths and the occurrence counts
    as the rows of one int64 array, with 0 for a terminal's children, so
    that no child indexes past the table."""
    size = g.n + 1
    values = chain(g.lefts, g.rights, m.lengths, m.occurrences)
    table = np.fromiter(values, np.int64, 4 * size).reshape(4, size)
    table[:2] *= table[1] > 0
    return table


def seam_order(g: SlpGrammar, m: SlpMetrics, q: int) -> SeamOrder:
    """The first-seam order that :func:`compute_qmarks` and
    :func:`~slpgram.neighbor.build_neighbor_graph` share for every gram
    length from ``q`` on.  A caller that takes several q builds it once, for
    the smallest.

    First offsets come top-down in descending rule order, like occurrence
    counts: a left child starts where its rule does, a right child at its
    rule's seam.  The pass visits only the rules of at least q bytes: every
    ancestor of a rule's first occurrence is longer than the rule, so the
    first offsets, and so the seams, of those rules are exact.  Distinct
    rules have distinct first seams, so one sort orders them strictly:
    ``ndarray.sort`` of (seam, rule) packed in one int64 word while both
    fit, an argsort of the seams past that.  Every rule must occur in the
    text.
    """
    table = _rule_table(g, m)
    lengths = table[2]
    # No rule is longer than MAX_TEXT_LENGTH, so a q past it keeps no rule.
    descending = (lengths > min(q - 1, MAX_TEXT_LENGTH)).nonzero()[0][::-1]
    lefts, rights, spans = g.lefts, g.rights, m.lengths
    # Every occurrence starts below the text length.
    first = [m.text_length] * (g.n + 1)
    first[g.n] = 0
    seams = []
    for i in descending.tolist():
        start = first[i]
        left = lefts[i]
        seam = start + spans[left]
        if start < first[left]:
            first[left] = start
        r = rights[i]
        if seam < first[r]:
            first[r] = seam
        seams.append(seam)
    seams = np.fromiter(seams, np.int64, len(seams))
    bits = g.n.bit_length()
    if m.text_length.bit_length() + bits < 64:
        seams <<= bits
        seams |= descending
        seams.sort()
        rules = seams & ((1 << bits) - 1)
    else:
        rules = descending[seams.argsort()]
    return SeamOrder(q, table[:2], lengths, table[3], rules)


def compute_qmarks(g: SlpGrammar, m: SlpMetrics, q: int, order: SeamOrder | None = None) -> QMarks:
    """Deepest length >= q variable on the outer paths of every rule.

    A pair rule of length >= q whose left child is shorter than q is its own
    left mark, otherwise it inherits the left child's mark; right marks are
    symmetric.  Terminals and short rules get 0.

    The marks come from pointer doubling: each long rule links to its long
    child, or to itself at the end of its path, and one gather over the left
    and right links together doubles every path's reach, until no link
    moves; so a chain of height h costs O(log h) gathers.  A caller that
    holds a :func:`seam_order` passes it as ``order``, and the doubling
    reads its arrays.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if order is None:
        table = _rule_table(g, m)
        marks = _doubled_marks(table[:2], table[2], q)
    else:
        marks = _doubled_marks(order.children, order.lengths, q)
    return QMarks(q, *marks)


def _doubled_marks(
    children: np.ndarray, lengths: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray]:
    size = len(lengths)
    # Terminals are one byte, so every long rule is a pair rule, and a short
    # rule has only short children.
    long = lengths > min(q - 1, MAX_TEXT_LENGTH)
    own = np.arange(size)
    own *= long
    # Row 0 links rule i down its left-most path, row 1 down its right-most
    # one: to the long child, to the rule itself where the path ends, and to
    # the row's 0 from a short rule.  Flattened, row 1 follows row 0, so its
    # links are shifted by size, and take gathers through both rows.
    links = np.where(long[children], children, own)
    links[1] += size
    while True:
        reach = links.take(links)
        if (reach == links).all():
            break
        links = reach
    leftmost, rightmost = links
    rightmost -= size
    return leftmost, rightmost


def affix_tables(g: SlpGrammar, m: SlpMetrics, q: int) -> tuple[list[bytes], list[bytes]]:
    """``(pre, suf)``: the first and last min(q-1, |X_i|) bytes of every rule.

    One pass in rule-index order, so the cost does not depend on grammar
    height.  A left child whose prefix is already q-1 bytes long passes it
    on unchanged; otherwise the rule's prefix is cut from the two children's
    prefixes.  Suffixes are symmetric.  A rule of at most q-1 bytes (every
    terminal among them) is its own prefix and suffix and keeps one bytes
    object for both tables.

    Memory: the tables hold at most 2 * min(q-1, |X_i|) bytes per rule, so
    at most 2(q-1)n bytes, like the ssa string (a prefix or suffix passed on
    from a child is shared, not copied).  At large q that can outgrow the
    flattened trie: on a Re-Pair grammar of 4158 rules for 128 KiB of
    English-like text, at q = 1024, the tables' bytes objects take 814 KB
    against a 257 KB flattened trie.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    k = q - 1
    lefts, rights = g.lefts, g.rights
    lengths = m.lengths
    pre = [b""] * (g.n + 1)
    suf = [b""] * (g.n + 1)
    for i in range(1, g.n + 1):
        r = rights[i]
        if r < 0:
            pre[i] = suf[i] = bytes((lefts[i],))
            continue
        left = lefts[i]
        if lengths[i] <= k:
            pre[i] = suf[i] = pre[left] + pre[r]
            continue
        head = pre[left]
        pre[i] = head if len(head) == k else (head + pre[r])[:k]
        tail = suf[r]
        suf[i] = tail if len(tail) == k else (suf[left] + tail)[-k:]
    return pre, suf


def affix_table_bytes(g: SlpGrammar, m: SlpMetrics, q: int) -> int:
    """Bytes the tables of :func:`affix_tables` would hold for this q, from
    the rule lengths alone.

    A rule of at most q-1 bytes holds its text once.  A longer rule holds a
    new (q-1)-byte prefix only when its left child is shorter than q-1, and
    shares the child's otherwise; suffixes are symmetric.  On a left-leaning
    chain at q = |T| that is about |T|^2/2 bytes.
    """
    k = q - 1
    lefts, rights = g.lefts, g.rights
    lengths = m.lengths
    total = 0
    for i in range(1, g.n + 1):
        size = lengths[i]
        if size <= k:
            total += size
        else:
            total += k * ((lengths[lefts[i]] < k) + (lengths[rights[i]] < k))
    return total


def check_affix_tables(g: SlpGrammar, m: SlpMetrics, q: int) -> None:
    """Raise ValueError, before any table is built, if the affix tables for
    this q would hold more than ``DEFAULT_EXPAND_CAP`` bytes.  No rule holds
    more than 2(q-1) bytes, so most grammars need no count."""
    if 2 * (q - 1) * g.n <= DEFAULT_EXPAND_CAP:
        return
    total = affix_table_bytes(g, m, q)
    if total > DEFAULT_EXPAND_CAP:
        raise ValueError(
            f"the affix tables for q={q} would hold {total} bytes,"
            f" above the {DEFAULT_EXPAND_CAP} byte cap"
        )


def _spell(g: SlpGrammar, lengths: list[int], rule: int) -> bytes:
    """val(X_rule), in ``lengths[rule]`` bytes.

    One walk over whole rules with an explicit stack, writing into an
    output of known length.  A pair rule met for the first time is split
    into its children and its offset recorded; every later occurrence is
    copied from that offset.  The source is always complete by then,
    because a rule never recurs inside its own expansion.  Each pair rule is
    split at most once, so the walk takes O(n) steps plus the copies.

    The walk writes through the buffer of a BytesIO, which hands that
    buffer over as the returned bytes without a copy once the view is
    released, so the text is held once, not twice.
    """
    lefts, rights = g.lefts, g.rights
    stream = io.BytesIO(bytes(lengths[rule]))
    first: dict[int, int] = {}
    pos = 0
    stack = [rule]
    with stream.getbuffer() as out:
        while stack:
            k = stack.pop()
            r = rights[k]
            if r < 0:
                out[pos] = lefts[k]
                pos += 1
                continue
            source = first.get(k)
            if source is None:
                first[k] = pos
                stack.append(r)
                stack.append(lefts[k])
            else:
                size = lengths[k]
                out[pos : pos + size] = out[source : source + size]
                pos += size
    return stream.getvalue()


def expand(g: SlpGrammar, lengths: list[int] | None = None) -> bytes:
    """Decompress the whole text iteratively.

    A caller that holds the grammar's metrics passes their ``lengths``,
    which are otherwise computed here.  Refuses to materialize more than
    ``DEFAULT_EXPAND_CAP`` bytes; grammar height may be Theta(n), so
    nothing here recurses.
    """
    if lengths is None:
        lengths = _rule_lengths(g)
    if lengths[-1] > DEFAULT_EXPAND_CAP:
        raise SlpError(
            f"expansion is {lengths[-1]} bytes, above the {DEFAULT_EXPAND_CAP} byte cap"
        )
    return _spell(g, lengths, g.n)


def char_frequencies(g: SlpGrammar, m: SlpMetrics) -> dict[int, int]:
    """Exact byte histogram of the derived text, computed without expanding."""
    lefts, rights = g.lefts, g.rights
    freq: dict[int, int] = {}
    for i in range(1, g.n + 1):
        count = m.occurrences[i]
        if rights[i] < 0 and count:
            freq[lefts[i]] = freq.get(lefts[i], 0) + count
    return freq
