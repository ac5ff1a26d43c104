"""Core straight-line program (SLP) machinery.

An SLP is a context-free grammar in Chomsky normal form deriving exactly
one byte string: rule i is either a terminal byte or an ordered pair of two
smaller-indexed rules, and the last rule is the start symbol.  Rule indices
are 1-based; every derived per-rule array in this package is padded so that
``array[i]`` belongs to rule i and ``array[0]`` is unused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

MAX_TEXT_LENGTH = 2**63 - 1
DEFAULT_EXPAND_CAP = 1 << 30

# Variables at most this long are materialized once and then emitted as
# cached byte chunks during extraction.
_CHUNK = 64


class SlpError(Exception):
    """Base error for this package."""


class SlpFormatError(SlpError):
    """Malformed SLP v1 document."""


class ValidationError(SlpError):
    """Grammar violates a structural invariant."""


class ConsistencyError(SlpError):
    """Two independent computations of the same quantity disagreed."""


@dataclass(frozen=True)
class Rule:
    """One assignment: a terminal byte when ``right`` is None, else a pair."""

    left: int
    right: int | None = None

    @property
    def is_terminal(self) -> bool:
        return self.right is None


@dataclass(frozen=True)
class SlpGrammar:
    """Ordered rule table; rule ``i`` is ``rules[i - 1]`` and rule n starts."""

    rules: list[Rule]

    @property
    def n(self) -> int:
        return len(self.rules)

    def rule(self, i: int) -> Rule:
        return self.rules[i - 1]

    @cached_property
    def _arrays(self) -> tuple[list[int], list[int]]:
        # 1-indexed child tables; terminals keep the byte in lefts, -1 in rights.
        lefts = [0] * (self.n + 1)
        rights = [0] * (self.n + 1)
        for i, rule in enumerate(self.rules, start=1):
            lefts[i] = rule.left
            rights[i] = -1 if rule.right is None else rule.right
        return lefts, rights


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
    consecutive from 1, '#' comment lines and blank lines ignored.
    """
    rules: list[Rule] = []
    for lineno, raw in enumerate(doc.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        idx = _int_field(parts[0], lineno)
        want = len(rules) + 1
        if idx != want:
            raise SlpFormatError(f"line {lineno}: rule {want} expected, got {idx}")
        kind = parts[1] if len(parts) > 1 else ""
        if kind == "T" and len(parts) == 3:
            byte = _int_field(parts[2], lineno)
            if not 0 <= byte <= 255:
                raise SlpFormatError(f"line {lineno}: byte value {byte} out of range")
            rules.append(Rule(byte))
        elif kind == "N" and len(parts) == 4:
            left = _int_field(parts[2], lineno)
            right = _int_field(parts[3], lineno)
            for child in (left, right):
                if child < 1:
                    raise SlpFormatError(f"line {lineno}: child index {child} out of range")
                if child >= idx:
                    raise SlpFormatError(f"line {lineno}: forward reference to rule {child}")
            rules.append(Rule(left, right))
        else:
            raise SlpFormatError(f"line {lineno}: malformed rule {line!r}")
    if not rules:
        raise SlpFormatError("document contains no rules")
    return SlpGrammar(rules)


def _int_field(token: str, lineno: int) -> int:
    # int() would also take signs, underscores and non-ASCII digits.
    if not (token.isascii() and token.isdigit()):
        raise SlpFormatError(f"line {lineno}: integer expected, got {token!r}")
    return int(token)


def serialize_slp(g: SlpGrammar) -> str:
    """Render a grammar back into the SLP v1 format (parse round trips)."""
    lines = []
    for i, rule in enumerate(g.rules, start=1):
        if rule.is_terminal:
            lines.append(f"{i} T {rule.left}")
        else:
            lines.append(f"{i} N {rule.left} {rule.right}")
    return "\n".join(lines) + "\n"


def validate(g: SlpGrammar) -> list[int]:
    """Check hard structural invariants; return unused rule indices.

    Byte ranges and child ordering violations raise ValidationError.  Rules
    that never occur in the derivation tree are only reported (callers may
    pass the grammar through :func:`prune_unused` instead).
    """
    if g.n < 1:
        raise ValidationError("grammar has no rules")
    for i, rule in enumerate(g.rules, start=1):
        if rule.is_terminal:
            if not 0 <= rule.left <= 255:
                raise ValidationError(f"rule {i}: byte value {rule.left} out of range")
        else:
            for child in (rule.left, rule.right):
                if not 1 <= child < i:
                    raise ValidationError(f"rule {i}: child index {child} not in 1..{i - 1}")
    occurrences = _rule_occurrences(g)
    return [i for i in range(1, g.n + 1) if occurrences[i] == 0]


def prune_unused(g: SlpGrammar) -> SlpGrammar:
    """Drop rules that never occur in the derivation tree, renumbering the rest."""
    occurrences = _rule_occurrences(g)
    if all(occurrences[i] for i in range(1, g.n + 1)):
        return g
    remap: dict[int, int] = {}
    kept: list[Rule] = []
    for i, rule in enumerate(g.rules, start=1):
        if occurrences[i] == 0:
            continue
        if rule.is_terminal:
            kept.append(rule)
        else:
            kept.append(Rule(remap[rule.left], remap[rule.right]))
        remap[i] = len(kept)
    return SlpGrammar(kept)


def _rule_lengths(g: SlpGrammar) -> list[int]:
    lefts, rights = g._arrays
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
    lefts, rights = g._arrays
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
    lefts, rights = g._arrays
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
    lefts, rights = g._arrays
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


class Expander:
    """Iterative partial decompressor for one grammar.

    Prefix and suffix extraction descend with an explicit stack, costing
    O(grammar height + extracted length).  A subtree of at most ``_CHUNK``
    bytes is materialized once and then copied as a cached chunk wherever
    it recurs.  It serves :func:`expand` and the ``extract_*`` functions;
    the reductions read :func:`affix_tables` instead.
    """

    def __init__(self, g: SlpGrammar, lengths: list[int]):
        self._lefts, self._rights = g._arrays
        self._lengths = lengths
        self._chunks: dict[int, bytes] = {}

    def _chunk(self, i: int) -> bytes:
        cached = self._chunks.get(i)
        if cached is None:
            lefts, rights = self._lefts, self._rights
            out = bytearray()
            stack = [i]
            while stack:
                k = stack.pop()
                r = rights[k]
                if r < 0:
                    out.append(lefts[k])
                else:
                    stack.append(r)
                    stack.append(lefts[k])
            cached = bytes(out)
            self._chunks[i] = cached
        return cached

    def _emit(self, i: int, out: bytearray) -> None:
        # All of val(X_i), left to right.
        lengths = self._lengths
        if lengths[i] <= _CHUNK:
            out += self._chunk(i)
            return
        lefts, rights = self._lefts, self._rights
        stack = [i]
        while stack:
            k = stack.pop()
            if lengths[k] <= _CHUNK:
                out += self._chunk(k)
            else:
                stack.append(rights[k])
                stack.append(lefts[k])

    def prefix(self, i: int, take: int) -> bytes:
        """First ``take`` characters of val(X_i)."""
        if take <= 0:
            return b""
        lengths = self._lengths
        lefts, rights = self._lefts, self._rights
        out = bytearray()
        stack = [(i, take)]
        while stack:
            k, t = stack.pop()
            while True:
                if t == lengths[k]:
                    self._emit(k, out)
                    break
                left = lefts[k]
                ll = lengths[left]
                if t <= ll:
                    k = left
                else:
                    stack.append((rights[k], t - ll))
                    k = left
                    t = ll
        return bytes(out)

    def suffix(self, i: int, take: int) -> bytes:
        """Last ``take`` characters of val(X_i)."""
        if take <= 0:
            return b""
        lengths = self._lengths
        lefts, rights = self._lefts, self._rights
        out = bytearray()
        stack = [(i, take)]
        while stack:
            k, t = stack.pop()
            while True:
                if t == lengths[k]:
                    self._emit(k, out)
                    break
                right = rights[k]
                rl = lengths[right]
                if t <= rl:
                    k = right
                else:
                    stack.append((right, rl))
                    k = lefts[k]
                    t -= rl
        return bytes(out)


def _check_extract_args(g: SlpGrammar, m: SlpMetrics, i: int, j: int) -> None:
    if not 1 <= i <= g.n:
        raise ValueError(f"rule index {i} not in 1..{g.n}")
    if not 0 <= j <= m.lengths[i]:
        raise ValueError(f"cannot take {j} characters from a rule of length {m.lengths[i]}")


def extract_prefix(g: SlpGrammar, m: SlpMetrics, i: int, j: int) -> bytes:
    """First j characters of rule i's expansion, without full decompression."""
    _check_extract_args(g, m, i, j)
    return Expander(g, m.lengths).prefix(i, j)


def extract_suffix(g: SlpGrammar, m: SlpMetrics, i: int, j: int) -> bytes:
    """Last j characters of rule i's expansion, without full decompression."""
    _check_extract_args(g, m, i, j)
    return Expander(g, m.lengths).suffix(i, j)


def expand(g: SlpGrammar, max_bytes: int = DEFAULT_EXPAND_CAP) -> bytes:
    """Decompress the whole text iteratively.

    Refuses to materialize more than ``max_bytes``; grammar height may be
    Theta(n), so nothing here recurses.
    """
    lengths = _rule_lengths(g)
    if lengths[-1] > max_bytes:
        raise SlpError(f"expansion is {lengths[-1]} bytes, above the {max_bytes} byte cap")
    return Expander(g, lengths).prefix(g.n, lengths[-1])


def char_frequencies(g: SlpGrammar, m: SlpMetrics) -> dict[int, int]:
    """Exact byte histogram of the derived text, computed without expanding."""
    freq: dict[int, int] = {}
    for i, rule in enumerate(g.rules, start=1):
        if rule.is_terminal:
            count = m.occurrences[i]
            if count:
                freq[rule.left] = freq.get(rule.left, 0) + count
    return freq
