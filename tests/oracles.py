"""Brute-force reference computations that the package is measured against.

Everything here favors obviousness over speed and shares no code with the
implementations under test.
"""

from collections import Counter


def naive_suffix_array(text: bytes) -> list[int]:
    return sorted(range(1, len(text) + 1), key=lambda p: text[p - 1 :])


def naive_lcp_array(text: bytes, sa: list[int]) -> list[int]:
    def common(a: bytes, b: bytes) -> int:
        k = 0
        while k < len(a) and k < len(b) and a[k] == b[k]:
            k += 1
        return k

    return [0] + [
        common(text[sa[k - 1] - 1 :], text[sa[k] - 1 :]) for k in range(1, len(sa))
    ]


def sliding_histogram(text: bytes, q: int) -> dict[bytes, int]:
    return dict(Counter(text[i : i + q] for i in range(len(text) - q + 1)))


def derivation_occurrences(g) -> list[int]:
    """Count rule labels by walking the actual derivation tree node by node."""
    counts = [0] * (g.n + 1)
    stack = [g.n]
    while stack:
        i = stack.pop()
        counts[i] += 1
        if g.rights[i] >= 0:
            stack.append(g.lefts[i])
            stack.append(g.rights[i])
    return counts


def deepest_outer_marks(g, lengths: list[int], q: int):
    """(leftmost, rightmost) marks by literal descent along the outer paths."""
    leftmost: list[int | None] = [None] * (g.n + 1)
    rightmost: list[int | None] = [None] * (g.n + 1)
    for i in range(1, g.n + 1):
        if lengths[i] < q:
            continue
        cur = i
        while g.rights[cur] >= 0 and lengths[g.lefts[cur]] >= q:
            cur = g.lefts[cur]
        leftmost[i] = cur
        cur = i
        while g.rights[cur] >= 0 and lengths[g.rights[cur]] >= q:
            cur = g.rights[cur]
        rightmost[i] = cur
    return leftmost, rightmost


def first_seams(g) -> dict[int, int]:
    """Text offset of the seam of each pair rule's first occurrence, by
    walking the derivation tree node by node in text order."""
    seams: dict[int, int] = {}
    offset = 0
    # (rule, True) marks the seam, reached once the left subtree is spelled.
    stack = [(g.n, False)]
    while stack:
        i, seam = stack.pop()
        if seam:
            seams.setdefault(i, offset)
        elif g.rights[i] < 0:
            offset += 1
        else:
            stack += [(g.rights[i], False), (i, True), (g.lefts[i], False)]
    return seams
