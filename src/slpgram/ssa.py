"""Reduction of SLP q-gram counting to one weighted string.

Every q-gram occurrence of the text is owned by exactly one derivation-tree
node: the deepest node whose span covers it, which is always a pair rule
whose child seam the gram crosses.  The boundary window of a pair rule
(last q-1 characters of its left child plus first q-1 of its right child)
therefore holds each owned gram exactly once, and counting all windows with
per-rule occurrence weights equals counting on the full text.

The windows of a list of rules are assembled here with array operations,
for this string and for the flattened trie of :mod:`slpgram.neighbor`.
"""

from __future__ import annotations

import operator
from itertools import chain, compress, repeat

import numpy as np

from .slp import (
    MAX_TEXT_LENGTH,
    ConsistencyError,
    SlpGrammar,
    SlpMetrics,
    affix_tables,
    check_affix_tables,
)
from .suffix import WeightedText, check_rankable


def gather(table: list, indices) -> tuple:
    """``table[i]`` for each i in ``indices``, by one ``itemgetter`` call,
    which takes less time than a ``map`` of ``table.__getitem__``."""
    if len(indices) < 2:
        return tuple(map(table.__getitem__, indices))
    return operator.itemgetter(*indices)(table)


def gather_windows(
    g: SlpGrammar,
    m: SlpMetrics,
    tables: tuple[list[bytes], list[bytes]],
    rules: list[int],
    q: int,
    opens: np.ndarray | None = None,
) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The windows ``suf[L] + pre[R]`` of the pair rules in ``rules``, joined
    in their order, their runs and the rules' occurrence counts.

    Row j of the runs is ``(q-1, size - (q-1))`` for the window of rule j.
    The heads and tails are gathered by :func:`gather`, interleaved
    into one list by slice assignment and joined once, and their sizes and
    the counts are read by one ``np.fromiter``.  A window shorter than q,
    which consistent tables never give, raises ConsistencyError naming the
    first such rule.

    With ``opens``, one bool per rule, a rule where it is False gives only
    its label, the window past its first q-1 bytes, and its row of the runs
    is ``(0, size - (q-1))``.  Its head is left out of the join, and when
    the head is shorter than q-1, one boolean mask, repeated over the runs,
    cuts the rest of the context from the front of its tail.  So the join
    holds the labels and the windows that open, not every window.
    """
    pre, suf = tables
    count = len(rules)
    heads = gather(suf, gather(g.lefts, rules))
    tails = gather(pre, gather(g.rights, rules))
    values = np.fromiter(
        chain(map(len, heads), map(len, tails), gather(m.occurrences, rules)),
        np.int64,
        3 * count,
    )
    runs = np.empty((count, 2), dtype=np.int64)
    labels = np.add(values[:count], values[count : 2 * count], out=runs[:, 1])
    labels -= q - 1
    if labels.min() < 1:
        short = rules[int((labels < 1).nonzero()[0][0])]
        raise ConsistencyError(f"window of rule {short} is shorter than q")
    parts = [b""] * (2 * count)
    parts[0::2] = heads
    parts[1::2] = tails
    occurrences = values[2 * count :]
    if opens is None:
        runs[:, 0] = q - 1
        return b"".join(parts), runs, occurrences
    # Row j of keep: whether the head of rule j is joined, then its tail,
    # always.  A chained rule's first q-1 bytes are context: its head and
    # the first q-1 - |head| bytes of its tail.  So its runs become
    # (q-1 - |head|, label), and keep, repeated over the runs, drops them.
    keep = np.ones((count, 2), dtype=bool)
    keep[:, 0] = opens
    np.subtract(q - 1, values[:count], out=runs[:, 0])
    np.copyto(runs[:, 0], q - 1, where=opens)
    joined = b"".join(compress(parts, keep.ravel().tolist()))
    text = np.frombuffer(joined, dtype=np.uint8)[keep.ravel().repeat(runs.ravel())].tobytes()
    np.multiply(opens, q - 1, out=runs[:, 0])
    return text, runs, occurrences


def window_weights(occurrences: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """End weights for windows laid out one after another, each a row of
    ``runs``: zero over the first run and the window's occurrence count over
    the second, by one repeat."""
    weights = np.zeros(runs.shape, dtype=np.int64)
    weights[:, 1] = occurrences
    return weights.ravel().repeat(runs.ravel())


def build_ssa_text(
    g: SlpGrammar, m: SlpMetrics, q: int, tables: tuple[list[bytes], list[bytes]] | None = None
) -> WeightedText:
    """Concatenate the windows of all long-enough pair rules.

    Windows appear in ascending rule index.  The window of rule i is
    ``suf[left] + pre[right]`` from :func:`affix_tables`.  Within each
    window the first q-1 positions weigh zero (grams ending there straddle
    the previous window) and the rest weigh the rule's occurrence count, so
    bridge grams created by the concatenation are never counted.

    No statement runs per window.  The owners are the rules of at least q
    bytes, picked from the lengths as one array; terminals are one byte
    long, so each is a pair rule.  A string the counting engine could not
    rank is refused with ValueError before any table is built, on the exact
    total of the windows' sizes, min(q-1, |L|) + min(q-1, |R|); a window
    holds at most 2(q-1) bytes, so most grammars need no sum.  Tables past
    :func:`check_affix_tables`' cap are refused too, and a grammar where no
    rule is long enough to own a window (q > |T|) gives the empty string
    without any table.  The text is one join of the windows' parts and the
    weights one repeat of their runs (:func:`gather_windows`,
    :func:`window_weights`).  A caller that holds this q's ``(pre, suf)``
    tables already passes them as ``tables``.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    # No rule is longer than MAX_TEXT_LENGTH, so a q past it, beyond int64,
    # picks no owner.
    lengths = np.fromiter(m.lengths, np.int64, len(m.lengths))
    owners = np.flatnonzero(lengths > min(q - 1, MAX_TEXT_LENGTH)).tolist()
    if not owners:
        return WeightedText(b"", np.zeros(0, dtype=np.int64), q)
    # The bound 2(q-1) per window decides most grammars; past it the
    # windows' sizes are summed in Python ints, which cannot wrap.
    try:
        check_rankable(2 * (q - 1) * len(owners))
    except ValueError:
        children = chain(gather(g.lefts, owners), gather(g.rights, owners))
        check_rankable(sum(map(min, map(m.lengths.__getitem__, children), repeat(q - 1))))
    if tables is None:
        check_affix_tables(g, m, q)
        tables = affix_tables(g, m, q)
    text, runs, occurrences = gather_windows(g, m, tables, owners, q)
    return WeightedText(text, window_weights(occurrences, runs), q)
