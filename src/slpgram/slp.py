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


@dataclass(frozen=True)
class QMarks:
    """Deepest long-enough rule along each rule's outer paths.

    ``leftmost[i]`` (``rightmost[i]``) is the deepest variable with expansion
    length at least q on the left-most (right-most) path under rule i, or
    None when rule i itself is shorter than q.
    """

    q: int
    leftmost: list[int | None]
    rightmost: list[int | None]


def parse_slp(doc: str) -> SlpGrammar:
    """Parse an SLP v1 document.

    One rule per line ("<i> T <byte>" or "<i> N <left> <right>"), indices
    consecutive from 1, '#' comment lines and blank lines ignored.  Lines
    end at "\n" (a "\r" just before it counts as whitespace) and fields are
    separated by ASCII spaces and tabs; any other separator is an error.
    """
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
    """Check hard structural invariants; return unused rule indices.

    Mismatched or unpadded child lists, byte ranges and child ordering
    violations raise ValidationError.  Rules that never occur in the
    derivation tree are only reported (callers may pass the grammar through
    :func:`prune_unused` instead).
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
    occurrences = _rule_occurrences(g)
    return [i for i in range(1, g.n + 1) if occurrences[i] == 0]


def prune_unused(g: SlpGrammar) -> SlpGrammar:
    """Drop rules that never occur in the derivation tree, renumbering the rest."""
    occurrences = _rule_occurrences(g)
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
    """Lengths bottom-up, occurrence counts top-down, both in O(n)."""
    return SlpMetrics(_rule_lengths(g), _rule_occurrences(g))


def compute_qmarks(g: SlpGrammar, m: SlpMetrics, q: int) -> QMarks:
    """Deepest length >= q variable on the outer paths of every rule.

    A pair rule of length >= q whose left child is shorter than q is its own
    left mark, otherwise it inherits the left child's mark; right marks are
    symmetric.  Terminals and short rules get None.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    lefts, rights = g.lefts, g.rights
    lengths = m.lengths
    leftmost: list[int | None] = [None] * (g.n + 1)
    rightmost: list[int | None] = [None] * (g.n + 1)
    for i in range(1, g.n + 1):
        r = rights[i]
        if r < 0 or lengths[i] < q:
            continue
        left = lefts[i]
        leftmost[i] = i if lengths[left] < q else leftmost[left]
        rightmost[i] = i if lengths[r] < q else rightmost[r]
    return QMarks(q, leftmost, rightmost)


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


def _spell(g: SlpGrammar, lengths: list[int], pieces: list[int]) -> bytes:
    """val(X_k) of every rule k in ``pieces``, concatenated left to right.

    One walk over whole rules with an explicit stack, writing into an
    output of known length.  A pair rule met for the first time is split
    into its children and its offset recorded; every later occurrence is
    copied from that offset.  The source is always complete by then,
    because a rule never recurs inside its own expansion.  Each pair rule is
    split at most once, so the walk takes O(n + len(pieces)) steps plus the
    copies.

    The walk writes through the buffer of a BytesIO, which hands that
    buffer over as the returned bytes without a copy once the view is
    released, so the text is held once, not twice.
    """
    lefts, rights = g.lefts, g.rights
    stream = io.BytesIO(bytes(sum(lengths[k] for k in pieces)))
    first: dict[int, int] = {}
    pos = 0
    stack = pieces[::-1]
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


def _check_extract_args(g: SlpGrammar, m: SlpMetrics, i: int, j: int) -> None:
    if not 1 <= i <= g.n:
        raise ValueError(f"rule index {i} not in 1..{g.n}")
    if not 0 <= j <= m.lengths[i]:
        raise ValueError(f"cannot take {j} characters from a rule of length {m.lengths[i]}")


def extract_prefix(g: SlpGrammar, m: SlpMetrics, i: int, j: int) -> bytes:
    """First j characters of rule i's expansion, without full decompression.

    The descent collects, left to right, the whole rules that spell them:
    each left child it passes on its way right, then the rule it stops at.
    """
    _check_extract_args(g, m, i, j)
    lengths = m.lengths
    pieces = []
    while j:
        if j == lengths[i]:
            pieces.append(i)
            break
        left = g.lefts[i]
        if j > lengths[left]:
            pieces.append(left)
            j -= lengths[left]
            i = g.rights[i]
        else:
            i = left
    return _spell(g, lengths, pieces)


def extract_suffix(g: SlpGrammar, m: SlpMetrics, i: int, j: int) -> bytes:
    """Last j characters of rule i's expansion, without full decompression.

    The mirror image of :func:`extract_prefix`: the pieces are collected
    right to left and spelled in reverse order.
    """
    _check_extract_args(g, m, i, j)
    lengths = m.lengths
    pieces = []
    while j:
        if j == lengths[i]:
            pieces.append(i)
            break
        right = g.rights[i]
        if j > lengths[right]:
            pieces.append(right)
            j -= lengths[right]
            i = g.lefts[i]
        else:
            i = right
    return _spell(g, lengths, pieces[::-1])


def expand(g: SlpGrammar, max_bytes: int = DEFAULT_EXPAND_CAP) -> bytes:
    """Decompress the whole text iteratively.

    Refuses to materialize more than ``max_bytes``; grammar height may be
    Theta(n), so nothing here recurses.
    """
    lengths = _rule_lengths(g)
    if lengths[-1] > max_bytes:
        raise SlpError(f"expansion is {lengths[-1]} bytes, above the {max_bytes} byte cap")
    return _spell(g, lengths, [g.n])


def char_frequencies(g: SlpGrammar, m: SlpMetrics) -> dict[int, int]:
    """Exact byte histogram of the derived text, computed without expanding."""
    lefts, rights = g.lefts, g.rights
    freq: dict[int, int] = {}
    for i in range(1, g.n + 1):
        count = m.occurrences[i]
        if rights[i] < 0 and count:
            freq[lefts[i]] = freq.get(lefts[i], 0) + count
    return freq
