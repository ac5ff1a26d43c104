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
    """

    text: bytes
    end_weights: np.ndarray
    gram: int

    def __post_init__(self) -> None:
        if self.gram < 1:
            raise ValueError("gram length must be at least 1")
        weights = np.asarray(self.end_weights, dtype=np.int64)
        object.__setattr__(self, "end_weights", weights)
        if weights.shape != (len(self.text),):
            raise ValueError("end_weights must hold one entry per text position")
        if weights[: self.gram - 1].any():
            raise ValueError(f"no q-gram can end before position {self.gram}")


@dataclass(frozen=True)
class QGramReport:
    """Distinct q-grams of a string with their total weights.

    Each entry is ``(end, weight)``: ``end`` is the 1-based end position of
    the gram's earliest occurrence in the source string, so its bytes are
    ``source[end - gram : end]``.  Entries are in gram byte order and only
    grams with positive total weight appear.
    """

    entries: list[tuple[int, int]]
    gram: int
    source_length: int

    @property
    def total_weight(self) -> int:
        return sum(w for _, w in self.entries)

    def materialize(self, source: bytes) -> dict[bytes, int]:
        """Resolve entries into gram bytes using the string they refer to."""
        return {source[end - self.gram : end]: w for end, w in self.entries}


# A round's sort key is below base^2 with base = max(n, 256) + 1, which fits
# in int64 only while n is below about 3 * 10^9.
_MAX_POSITIONS = 2**31


def _prefix_ranks(data: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, rank)``: positions sorted by their first ``depth`` bytes
    (equal prefixes in no fixed order), and ranks that are equal exactly
    where those prefixes are (a prefix cut short by the end of the data sorts
    first).

    Prefix doubling whose last step is cut to ``depth - span``, stopping early
    once every rank is distinct.  A round that extends prefixes by ``step``
    bytes sorts one int64 key per position, ``rank[p] * base + second`` where
    ``second`` is ``rank[p + step] + 1``, or 0 past the end of the data, and
    ``base = max(n, 256) + 1`` exceeds every ``second``; new ranks are cut
    where the sorted key changes.  Raises ValueError for data of
    ``_MAX_POSITIONS`` or more positions, where the key could overflow.
    """
    n = data.size
    if n >= _MAX_POSITIONS:
        raise ValueError(
            f"cannot rank a string of {n} positions: the limit is {_MAX_POSITIONS - 1}"
        )
    base = max(n, 256) + 1
    rank = data.astype(np.int64)
    order = np.argsort(data, kind="stable")
    span = 1
    while span < depth:
        step = min(span, depth - span)
        key = rank * base
        key[: n - step] += rank[step:] + 1
        order = np.argsort(key)
        key = key[order]
        fresh = np.zeros(n, dtype=np.int64)
        np.cumsum(key[1:] != key[:-1], out=fresh[1:])
        rank[order] = fresh
        if fresh[-1] == n - 1:
            break
        span += step
    return order, rank


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

    Positions are ranked by their first q bytes only; every position that
    starts a whole gram joins the group of its rank, in gram byte order.
    Groups whose total weight is zero (grams that exist only as
    concatenation bridges) are dropped.
    """
    q = wt.gram
    z = wt.text
    n = len(z)
    if n < q:
        return QGramReport([], q, n)
    # Each array is dropped once used: at n near the 2^31 cap they are
    # gigabytes apiece.
    order, rank = _prefix_ranks(np.frombuffer(z, dtype=np.uint8), q)
    starts = order[order <= n - q]
    del order
    ranks = rank[starts]
    del rank
    cuts = np.r_[0, np.flatnonzero(ranks[1:] != ranks[:-1]) + 1]
    del ranks
    weights = wt.end_weights[starts + q - 1]
    totals = np.add.reduceat(weights, cuts)
    first = np.minimum.reduceat(starts, cuts)
    entries = [(int(p) + q, int(w)) for p, w in zip(first, totals) if w > 0]
    return QGramReport(entries, q, n)
