"""Brute-force reference computations that the package is measured against.

Everything here favors obviousness over speed and shares no code with the
implementations under test.
"""

from collections import Counter

from slpgram import ValidationError


def sliding_histogram(text: bytes, q: int) -> dict[bytes, int]:
    return dict(Counter(text[i : i + q] for i in range(len(text) - q + 1)))


def validate_rules(g) -> list[int]:
    """``validate`` as one loop over the rules: the header checks, then
    each rule's byte or children in index order, then the unused rules
    from occurrence counts summed top-down over every pair rule."""
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
    occurrences = [0] * (g.n + 1)
    occurrences[g.n] = 1
    for i in range(g.n, 0, -1):
        r = rights[i]
        if r >= 0:
            count = occurrences[i]
            occurrences[lefts[i]] += count
            occurrences[r] += count
    return [i for i in range(1, g.n + 1) if occurrences[i] == 0]


def naive_rule_texts(g) -> list[bytes]:
    """val(X_i) of every rule i, bottom-up as ``val[L] + val[R]``; index 0
    holds b""."""
    val = [b""] * (g.n + 1)
    for i in range(1, g.n + 1):
        left, right = g.lefts[i], g.rights[i]
        val[i] = bytes([left]) if right < 0 else val[left] + val[right]
    return val


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


def reference_window(g, texts, q, i):
    """Boundary window of pair rule i: the last q-1 characters of its left
    child, then the first q-1 of its right child (fewer when a child is
    shorter), cut from ``texts``, the rule texts of ``naive_rule_texts``."""
    return texts[g.lefts[i]][-(q - 1) :] + texts[g.rights[i]][: q - 1]


def trie_layout(g, graph, texts, occurrences):
    """The flattened trie of a right-neighbor graph, laid out window by
    window: ``(z, end_weights, firsts, hangs)``.

    ``texts`` are the rule texts of ``naive_rule_texts`` and
    ``occurrences`` the counts of ``derivation_occurrences``.  The vertices
    come in the graph's order.  One whose parent is the vertex just before
    it adds its label, its window past the first q-1 characters; any other
    first adds those q-1 characters too.  In the first window they are the
    root chain's nodes, in a later one a context that holds no node and
    opens a branch: its first node is the next one, and it hangs from the
    last node of the parent's label.  Every label character weighs its
    vertex's occurrence count, every other one nothing.
    """
    q = graph.q
    z, weights, firsts, hangs = bytearray(), [], [], []
    nodes = 0
    last = {}
    for index, v in enumerate(graph.vertices):
        window = reference_window(g, texts, q, v)
        head, label = window[: q - 1], window[q - 1 :]
        parent = graph.parents[v]
        if index == 0 or parent != graph.vertices[index - 1]:
            z += head
            weights += [0] * len(head)
            if index == 0:
                nodes += len(head)
            else:
                firsts.append(nodes)
                hangs.append(last[parent])
        z += label
        weights += [occurrences[v]] * len(label)
        nodes += len(label)
        last[v] = nodes - 1
    return bytes(z), weights, firsts, hangs


def deepest_outer_marks(g, lengths: list[int], q: int):
    """(leftmost, rightmost) marks by literal descent along the outer paths;
    0 for a rule shorter than q."""
    leftmost = [0] * (g.n + 1)
    rightmost = [0] * (g.n + 1)
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


def naive_repair(text: bytes, min_pair_frequency: int) -> tuple[list[int], list[int]]:
    """Re-Pair's rule table, one pair and one position at a time.

    Each round scans left to right and counts a pair unless it overlaps the
    same pair's previous counted occurrence, takes the most frequent pair
    (the smallest on ties) while it reaches the threshold, and replaces it
    greedily from the left; the symbols left over are joined at midpoints.
    """
    alphabet = sorted(set(text))
    lefts, rights = [0, *alphabet], [0] + [-1] * len(alphabet)
    seq = [alphabet.index(b) + 1 for b in text]
    while len(seq) >= 2:
        counts: dict[tuple[int, int], int] = {}
        last: dict[tuple[int, int], int] = {}
        for i in range(len(seq) - 1):
            pair = (seq[i], seq[i + 1])
            if last.get(pair) != i - 1:
                last[pair] = i
                counts[pair] = counts.get(pair, 0) + 1
        best = min(counts, key=lambda p: (-counts[p], p))
        if counts[best] < min_pair_frequency:
            break
        lefts.append(best[0])
        rights.append(best[1])
        replaced, i = [], 0
        while i < len(seq):
            if tuple(seq[i : i + 2]) == best:
                replaced.append(len(lefts) - 1)
                i += 2
            else:
                replaced.append(seq[i])
                i += 1
        seq = replaced

    def join(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return seq[lo]
        mid = (lo + hi) // 2
        left, right = join(lo, mid), join(mid, hi)
        lefts.append(left)
        rights.append(right)
        return len(lefts) - 1

    join(0, len(seq))
    return lefts, rights


def escape_rule(b: int) -> str:
    """``count``'s escape of one byte: printable ASCII stands for itself but
    the backslash, which doubles; any other byte is \\xNN."""
    if b == 0x5C:
        return "\\\\"
    if 0x20 <= b <= 0x7E:
        return chr(b)
    return "\\x" + "0123456789ABCDEF"[b >> 4] + "0123456789ABCDEF"[b & 15]


def escape_gram(gram: bytes) -> str:
    return "".join(map(escape_rule, gram))


def count_report(keys, weights, header: str = "") -> str:
    """``count``'s report, one f-string per line after ``header``: a bytes
    key (a gram) is written escaped, an int key (an end position) in
    decimal."""
    lines = [header]
    for key, weight in zip(keys, weights):
        field = escape_gram(key) if isinstance(key, bytes) else key
        lines.append(f"{field}\t{weight}\n")
    return "".join(lines)
