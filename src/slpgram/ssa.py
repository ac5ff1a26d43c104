"""Reduction of SLP q-gram counting to one weighted string.

Every q-gram occurrence of the text is owned by exactly one derivation-tree
node: the deepest node whose span covers it, which is always a pair rule
whose child seam the gram crosses.  The boundary window of a pair rule
(last q-1 characters of its left child plus first q-1 of its right child)
therefore holds each owned gram exactly once, and counting all windows with
per-rule occurrence weights equals counting on the full text.
"""

from __future__ import annotations

import numpy as np

from .slp import ConsistencyError, SlpGrammar, SlpMetrics, affix_tables
from .suffix import WeightedText, check_rankable


def build_ssa_text(g: SlpGrammar, m: SlpMetrics, q: int) -> WeightedText:
    """Concatenate the windows of all long-enough pair rules.

    Windows appear in ascending rule index.  The window of rule i is
    ``suf[left] + pre[right]`` from :func:`affix_tables`.  Within each
    window the first q-1 positions weigh zero (grams ending there straddle
    the previous window) and the rest weigh the rule's occurrence count, so
    bridge grams created by the concatenation are never counted.

    A first pass over the rules collects the windows' owners and totals
    their lengths, so a string the counting engine could not rank is
    refused with ValueError before any table is built.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    cap = q - 1
    lefts, rights = g.lefts, g.rights
    lengths = m.lengths
    occurrences = m.occurrences
    owners: list[int] = []
    total = 0
    for i in range(1, g.n + 1):
        r = rights[i]
        if r < 0 or lengths[i] < q:
            continue
        a, b = lengths[lefts[i]], lengths[r]
        total += (a if a < cap else cap) + (b if b < cap else cap)
        owners.append(i)
    check_rankable(total)
    pre, suf = affix_tables(g, m, q)
    parts: list[bytes] = []
    run_weights: list[int] = []
    run_lengths: list[int] = []
    for i in owners:
        head = suf[lefts[i]]
        tail = pre[rights[i]]
        size = len(head) + len(tail)
        if size < q:
            raise ConsistencyError(f"window of rule {i} is shorter than q")
        parts += (head, tail)
        run_weights += [0, occurrences[i]]
        run_lengths += [cap, size - cap]
    text = b"".join(parts)
    weights = np.repeat(run_weights, run_lengths) if parts else np.zeros(0, dtype=np.int64)
    return WeightedText(text, weights, q)
