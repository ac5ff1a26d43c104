"""Suffix arrays, LCP arrays, and the weighted q-gram counting engine.

Every counting pipeline in this package reduces its input to one
:class:`WeightedText` and feeds it through :func:`weighted_qgram_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class WeightedText:
    """A byte string where each position carries the weight of the q-gram
    ending there.

    ``end_weights[p]`` (0-based) belongs to the gram ``text[p - gram + 1 : p + 1]``;
    the first ``gram - 1`` positions cannot end a gram and must weigh zero.

    The text of a flattened trie also carries the trie itself: ``nodes[v]``
    is the text position of trie node v and ``parents[v]`` the node above
    it, -1 at the root, node 0.  The gram ending at node v is then read
    down the parent chain to v; it must equal the text's gram ending at
    ``nodes[v]``, which is what a report prints.  Positions outside
    ``nodes`` repeat bytes of the trie and must weigh zero.  So must every
    node with fewer than ``gram - 1`` ancestors, since no whole gram ends
    there; :func:`weighted_qgram_counts` checks that, as it finds those
    nodes while ranking.
    """

    text: bytes
    end_weights: np.ndarray
    gram: int
    nodes: np.ndarray | None = None
    parents: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.gram < 1:
            raise ValueError("gram length must be at least 1")
        weights = np.asarray(self.end_weights, dtype=np.int64)
        object.__setattr__(self, "end_weights", weights)
        if weights.shape != (len(self.text),):
            raise ValueError("end_weights must hold one entry per text position")
        if weights[: self.gram - 1].any():
            raise ValueError(f"no q-gram can end before position {self.gram}")
        if self.nodes is None and self.parents is None:
            return
        if self.nodes is None or self.parents is None:
            raise ValueError("a trie needs both nodes and parents")
        nodes = np.asarray(self.nodes, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "parents", parents)
        if nodes.ndim != 1 or parents.shape != nodes.shape:
            raise ValueError("nodes and parents must hold one entry per trie node")
        if nodes.size and (nodes[0] < 0 or nodes[-1] >= len(self.text)):
            raise ValueError("node positions must lie in the text")
        if (nodes[1:] <= nodes[:-1]).any():
            raise ValueError("node positions must strictly increase")
        if (parents >= np.arange(parents.size)).any():
            raise ValueError("every parent must precede its node")
        if (parents[1:] < 0).any() or (parents[:1] != -1).any():
            raise ValueError("node 0 must be the one root, with parent -1")
        # The nodes are distinct positions in the text, so every nonzero
        # weight lies on one exactly when the two counts agree.
        if np.count_nonzero(weights) != np.count_nonzero(weights[nodes]):
            raise ValueError("positions outside the trie's nodes must weigh zero")


@dataclass(frozen=True, eq=False)
class QGramReport:
    """Distinct q-grams of a string with their total weights.

    ``entries`` is a (k, 2) int64 array with one row ``(end, weight)`` per
    gram: ``end`` is the 1-based end position of the gram's earliest
    occurrence in the source string, so its bytes are
    ``source[end - gram : end]``.  For a trie's text (stsa) the earliest
    occurrence is taken among the trie's nodes only, so it never lies in a
    context that repeats the parent path.  Rows are in gram byte order and
    only grams with positive total weight appear.
    """

    entries: np.ndarray
    gram: int

    def materialize(self, source: bytes) -> dict[bytes, int]:
        """Resolve entries into gram bytes using the string they refer to."""
        return {source[end - self.gram : end]: w for end, w in self.entries.tolist()}


# A round's sort key is below base^2 with base = max(n, 256) + 1, which fits
# in int64 only while n is below about 3 * 10^9.
_MAX_POSITIONS = 2**31


def check_rankable(positions: int) -> None:
    """Raise ValueError if the engine cannot rank this many positions,
    before anything of that size is built."""
    if positions >= _MAX_POSITIONS:
        limit = _MAX_POSITIONS - 1
        raise ValueError(f"cannot rank a string of {positions} positions: the limit is {limit}")


def _rerank(key: np.ndarray, rank: np.ndarray, first: int) -> tuple[np.ndarray, bool]:
    """One doubling round: sort the positions by ``key`` and write into
    ``rank`` their dense ranks from ``first`` on, equal where the key is.
    Returns the sorted order and whether every rank is distinct."""
    n = key.size
    order = np.argsort(key)
    key = key[order]
    fresh = np.empty(n, dtype=np.int64)
    fresh[0] = first
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    np.cumsum(fresh, out=fresh)
    rank[order] = fresh
    return order, fresh[-1] == first + n - 1


def _prefix_ranks(data: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, rank)``: positions sorted by their first ``depth`` bytes
    (equal prefixes in no fixed order), and ranks that are equal exactly
    where those prefixes are (a prefix cut short by the end of the data sorts
    first).  :func:`build_suffix_array` ranks whole suffixes with it;
    counting q-grams takes :func:`_gram_ranks`, which never cuts a prefix.

    A depth below 2 is one stable sort of the bytes.  Deeper prefixes take
    prefix doubling whose last step is cut to ``depth - span``, stopping
    early once every rank is distinct; the first round sorts from the bytes
    alone.  A round that extends prefixes by ``step`` bytes sorts one int64
    key per position, ``rank[p] * base + second`` where ``second`` is
    ``rank[p + step] + 1``, or 0 past the end of the data, and
    ``base = max(n, 256) + 1`` exceeds every ``second``.  Raises ValueError
    for data of ``_MAX_POSITIONS`` or more positions, where the key could
    overflow.
    """
    n = data.size
    check_rankable(n)
    base = max(n, 256) + 1
    rank = data.astype(np.int64)
    if depth < 2:
        return np.argsort(data, kind="stable"), rank
    span = 1
    while span < depth:
        step = min(span, depth - span)
        key = rank * base
        key[: n - step] += rank[step:] + 1
        order, distinct = _rerank(key, rank, 0)
        if distinct:
            break
        span += step
    return order, rank


def _gram_ranks(data: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, rank)`` over the positions 0..n-q of ``data`` (n >= q),
    which start a whole q-gram: ``order`` sorts them by their grams in byte
    order (equal grams in no fixed order), and ranks are equal exactly where
    the grams are.

    The first round sorts one uint64 per position: its first min(q, 8)
    bytes, read big-endian through a strided view of a copy padded with 7
    zero bytes, and shifted right past the bytes beyond the gram when q < 8.
    The key is unsigned because a signed one would sort bytes >= 0x80 first.
    Prefix doubling then extends the ranked prefixes from ``span`` to
    ``span + step`` bytes, with the last step cut to ``q - span``.  Each
    round ranks only the positions whose longer prefix lies in the text, by
    ``rank[p] * base + rank[p + step]``, so no prefix is ever cut short and
    nothing stands for the end of the data.  So q <= 8 takes one sort and
    q = 64 takes four.  Ranking stops early once every rank is distinct.
    Raises ValueError for data of ``_MAX_POSITIONS`` or more positions.
    """
    n = data.size
    check_rankable(n)
    padded = np.zeros(n + 7, dtype=np.uint8)
    padded[:n] = data
    span = min(q, 8)
    count = n - span + 1
    key = np.ndarray((count,), dtype=">u8", buffer=padded, strides=(1,)).astype(np.uint64)
    del padded
    if span < 8:
        key >>= np.uint64(8 * (8 - span))
    rank = np.empty(count, dtype=np.int64)
    order, distinct = _rerank(key, rank, 0)
    del key
    # Ranks run from 0 to below the number of positions ranked, so below n.
    base = n
    while span < q and not distinct:
        step = min(span, q - span)
        count = n - span - step + 1
        key = rank[:count] * base
        key += rank[step : step + count]
        rank = rank[:count]
        del order
        order, distinct = _rerank(key, rank, 0)
        del key
        span += step
    if span < q:
        # Distinct shorter prefixes already order and group the grams.
        count = n - q + 1
        order = order[order < count]
        rank = rank[:count]
    return order, rank


def _ancestor_ranks(
    data: np.ndarray, parents: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(order, rank, shallow)`` over the nodes of a forest: node v holds
    byte ``data[v]`` below node ``parents[v]`` (-1 at a root), and is ranked
    by the last ``depth`` bytes of its path from the root, cut short at the
    root.  Ranks are equal exactly where those byte strings are; among
    uncut strings rank order is byte order.  Cut strings sort first: the
    first ``shallow`` nodes of ``order`` are exactly those with fewer than
    ``depth - 1`` ancestors.

    Karp-Miller-Rosenberg doubling over ancestors: a round that extends the
    strings from ``span`` to ``span + step`` bytes sorts one int64 key per
    node, ``rank[anc_step(v)] * base + rank[v]``, with ranks from 1 and
    rank 0 for the empty string above a root.  The jump tables double,
    anc_2j = anc_j[anc_j], until the last round, whose step ``depth - span``
    is cut short like :func:`_prefix_ranks`'s; its table is composed from
    the doubling ones bit by bit as they pass, so only two ancestor tables
    are alive at a time.  Slot m of each array stands for "above the root":
    parent -1 indexes it.

    A string is cut short exactly when the one ``step`` bytes above it is
    cut short or empty.  If the cut strings held ranks 1..cut, those are
    the keys below ``(cut + 1) * base``: they sort first and take the
    lowest new ranks, so each round counts them with one comparison.

    There is no early stop: ranks that are all distinct already group the
    nodes, but they order the strings by their last ``span`` bytes, and the
    gram order needs the first ones.
    """
    m = data.size
    check_rankable(m)
    base = max(m, 256) + 1
    rank = np.zeros(m + 1, dtype=np.int64)
    # Two steps: data + 1 would wrap at byte 255 in uint8.
    rank[:m] = data
    rank[:m] += 1
    if depth < 2 or m == 0:
        return np.argsort(data, kind="stable"), rank[:m], 0
    last = 1 << ((depth - 1).bit_length() - 1)
    rest = depth - last
    hop = np.append(parents, -1)
    reach = None
    span = 1
    # No string of one byte is cut short.
    cut = 0
    while True:
        if rest & span:
            reach = hop if reach is None else hop[reach]
        ancestors = hop if span < last else reach
        key = rank[ancestors[:m]] * base
        key += rank[:m]
        shallow = np.count_nonzero(key < (cut + 1) * base)
        order, _ = _rerank(key, rank[:m], 1)
        cut = rank[order[shallow - 1]] if shallow else 0
        if span == last:
            break
        hop = hop[hop]
        span *= 2
    return order, rank[:m], shallow


def build_suffix_array(text: bytes) -> list[int]:
    """1-based suffix start positions in ascending lexicographic order."""
    data = np.frombuffer(bytes(text), dtype=np.uint8)
    order, _ = _prefix_ranks(data, data.size)
    return [p + 1 for p in order.tolist()]


def build_lcp_array(text: bytes, sa: list[int]) -> list[int]:
    """``lcp[0] = 0``; ``lcp[k]`` compares sorted suffixes k-1 and k."""
    if len(sa) != len(text):
        raise ValueError("suffix array length does not match the text")
    # Kasai's amortized O(n) scan over text order, on 0-based starts.
    text = bytes(text)
    sa = [p - 1 for p in sa]
    n = len(text)
    rank = [0] * n
    for position, start in enumerate(sa):
        rank[start] = position
    lcp = [0] * n
    match = 0
    for start in range(n):
        r = rank[start]
        if r == 0:
            match = 0
            continue
        other = sa[r - 1]
        while start + match < n and other + match < n and text[start + match] == text[other + match]:
            match += 1
        lcp[r] = match
        if match:
            match -= 1
    return lcp


def weighted_qgram_counts(wt: WeightedText) -> QGramReport:
    """Group equal q-grams of the text and total their end weights.

    A plain string is ranked on its positions that start a whole gram, by
    the gram's bytes (:func:`_gram_ranks`).  A trie's text is ranked on its
    nodes only, each by the q bytes down its parent chain
    (:func:`_ancestor_ranks`), so the repeated contexts are never sorted; a
    weight on a node with fewer than q - 1 ancestors, where no whole gram
    ends, raises ValueError.  Groups come in gram byte order; each reports
    the text position of its earliest member, and groups whose total weight
    is zero (grams that exist only as concatenation bridges, or paths cut
    short at the root) are dropped.  The report's entries are one array
    built from the group totals, with no Python object per group.
    """
    q = wt.gram
    z = wt.text
    n = len(z)
    if n < q or wt.nodes is not None and not wt.nodes.size:
        return QGramReport(np.empty((0, 2), dtype=np.int64), q)
    data = np.frombuffer(z, dtype=np.uint8)
    # Each array is dropped once used: at n near the 2^31 cap they are
    # gigabytes apiece.
    if wt.nodes is None:
        ends, rank = _gram_ranks(data, q)
        ranks = rank[ends]
        ends += q - 1
    else:
        order, rank, shallow = _ancestor_ranks(data[wt.nodes], wt.parents, q)
        ranks = rank[order]
        ends = wt.nodes[order]
        del order
        if wt.end_weights[ends[:shallow]].any():
            raise ValueError(f"no q-gram can end at a node with fewer than {q - 1} ancestors")
    del rank
    cuts = np.r_[0, np.flatnonzero(ranks[1:] != ranks[:-1]) + 1]
    del ranks
    totals = np.add.reduceat(wt.end_weights[ends], cuts)
    first = np.minimum.reduceat(ends, cuts)
    kept = totals > 0
    return QGramReport(np.stack((first[kept] + 1, totals[kept]), axis=1), q)
