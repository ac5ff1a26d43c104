"""Right-neighbor graph over SLP rules and its flattened weighted trie.

Each vertex, a pair rule of at least q characters, owns a label: its
boundary window past the first q-1 characters, which end the window of
each of its in-neighbors.  So every label can hang below an in-neighbor's
in a trie that spells every gram of the text.  In the order of the rules'
first occurrences parents come first, and the trie is one flat weighted
string: a label follows its parent's directly where the parent came just
before it, and otherwise opens a branch with the whole window, whose first
q-1 characters are zero-weighted context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .slp import ConsistencyError, QMarks, SlpGrammar, SlpMetrics, affix_tables
from .suffix import WeightedText, check_rankable

CSV_HEADER = "q,sum_ti,trie_size,dup,flattened_len,edges,vertices"


@dataclass(frozen=True)
class NeighborGraph:
    """Rules long enough to own a q-gram, in first-seam order (the text
    offset between a rule's children in its first occurrence), with the
    owner-to-next-owner edges and, indexed by rule, the in-neighbor each
    vertex hangs below: 0 for the first vertex and for every other rule.

    ``sum_ti`` totals the vertices' window lengths, min(q-1, |L_v|) +
    min(q-1, |R_v|), which is the length of the ssa string; ``dup`` totals
    (occ_v - 1)(window_v - (q-1)), the fresh characters that the occurrences
    of each vertex beyond its first would repeat, so the trie has |T| - dup
    nodes."""

    q: int
    vertices: list[int]
    edges: list[tuple[int, int]]
    parents: list[int]
    sum_ti: int
    dup: int


def build_neighbor_graph(g: SlpGrammar, m: SlpMetrics, qm: QMarks) -> NeighborGraph:
    """Edges follow the two successor cases of a pair rule; each vertex
    hangs below one in-neighbor.

    When a rule's right child is long enough, its unique successor is the
    deepest left mark under that child; otherwise the rule is the unique
    successor of the deepest right mark over its left child.  The union is
    a structural superset of the true successor relation.  A left mark has
    a short left child, so a vertex with a long left child has one
    in-neighbor, ``rightmost[L_v]``, its parent; any other vertex hangs
    below its in-neighbor of smallest first seam.

    First offsets come top-down in descending rule order, like occurrence
    counts: a left child starts where its rule does, a right child at its
    rule's seam.  A parent's first seam is below its child's, and distinct
    rules have distinct first seams, so sorting by them orders the vertices
    strictly, ``leftmost[n]`` first.  The same pass totals the windows and
    ``dup``.  Every rule must occur in the text.
    """
    q = qm.q
    cap = q - 1
    lefts, rights = g.lefts, g.rights
    lengths = m.lengths
    occurrences = m.occurrences
    leftmost, rightmost = qm.leftmost, qm.rightmost
    # Every occurrence starts below the text length.
    first = [m.text_length] * (g.n + 1)
    first[g.n] = 0
    seams = [0] * (g.n + 1)
    parents = [0] * (g.n + 1)
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    sum_ti = dup = 0
    for i in range(g.n, 0, -1):
        r = rights[i]
        # A short rule has no vertex below it.
        if r < 0 or lengths[i] < q:
            continue
        left = lefts[i]
        a, b = lengths[left], lengths[r]
        window = (a if a < cap else cap) + (b if b < cap else cap)
        sum_ti += window
        dup += (occurrences[i] - 1) * (window - cap)
        start = first[i]
        seam = start + a
        if start < first[left]:
            first[left] = start
        if seam < first[r]:
            first[r] = seam
        seams[i] = seam
        vertices.append(i)
        successor = leftmost[r]
        if successor is not None:
            edges.append((i, successor))
            parent = parents[successor]
            if not parent or seam < seams[parent]:
                parents[successor] = i
        predecessor = rightmost[left]
        if predecessor is not None:
            edges.append((predecessor, i))
            parents[i] = predecessor
    vertices.sort(key=seams.__getitem__)
    if vertices:
        parents[vertices[0]] = 0
    return NeighborGraph(q, vertices, edges, parents, sum_ti, dup)


@dataclass(frozen=True, eq=False)
class FlattenedTrie:
    """The single weighted text of all branches in emission order, each its
    head's window followed by the labels of the vertices chained to it.

    ``runs`` lists (rule, length) over the whole text: a body run carries
    its rule's occurrence count as the weight of every gram ending in it,
    and rule 0 marks the zero-weighted first q-1 characters of each head's
    window, which open the text for the first branch and repeat the end of
    the parent path for every later one.

    The trie itself is every text position but the repeated contexts.  For
    each branch after the first, ``firsts`` holds the node index of its
    first node and ``hangs`` the node it hangs from, the last one of its
    parent's label.  From them follow ``nodes``, the text position of each
    of the ``body_total`` nodes, and ``parents``, the node above each: the
    previous node, except at a branch's first one.  The counting engine
    ranks these nodes; the text only anchors the positions a report prints.
    """

    q: int
    runs: list[tuple[int, int]]
    text: bytes
    end_weights: np.ndarray
    firsts: list[int]
    hangs: list[int]

    @property
    def branch_count(self) -> int:
        """The branches after the first."""
        return len(self.hangs)

    @property
    def body_total(self) -> int:
        """The trie size: every body run plus the text's opener, which is
        the text less the q-1 context characters of each later branch."""
        return len(self.text) - (self.q - 1) * len(self.hangs)

    @property
    def nodes(self) -> np.ndarray:
        # A node's text position is its index plus the q-1 context
        # characters of every later branch that starts at or before it.
        size = self.body_total
        nodes = np.zeros(size, dtype=np.int64)
        # q may not fit in int64 when there are no branches.
        if self.hangs:
            nodes[self.firsts] = self.q - 1
        np.cumsum(nodes, out=nodes)
        nodes += np.arange(size)
        return nodes

    @property
    def parents(self) -> np.ndarray:
        parents = np.arange(-1, self.body_total - 1)
        parents[self.firsts] = self.hangs
        return parents

    def to_weighted_text(self) -> WeightedText:
        return WeightedText(self.text, self.end_weights, self.q, self.nodes, self.parents)


def flatten_neighbor_trie(g: SlpGrammar, m: SlpMetrics, graph: NeighborGraph) -> FlattenedTrie:
    """One pass over the vertices in first-seam order.

    A vertex right after its parent emits its label, its window
    ``suf[L] + pre[R]`` from :func:`affix_tables` past the first q-1
    characters, which end the parent's label.  Any other vertex heads a
    branch with its whole window, whose first q-1 characters are context:
    the text's opener for the first vertex, the end of the parent's label
    for a later head, whose first node and the node it hangs from the pass
    records.  The text is written with run-length weights as it is emitted.

    A trie the counting engine could not rank is refused with ValueError
    before any table is built: its size, every window past its first q-1
    characters plus the text's opener, follows from the graph's totals.
    """
    q = graph.q
    if m.text_length < q:
        return FlattenedTrie(q, [], b"", np.zeros(0, dtype=np.int64), [], [])
    check_rankable(graph.sum_ti - (q - 1) * (len(graph.vertices) - 1))
    lefts, rights = g.lefts, g.rights
    parents = graph.parents
    pre, suf = affix_tables(g, m, q)
    # The node of the last character of each vertex's label.
    last = [0] * (g.n + 1)
    runs: list[tuple[int, int]] = []
    text = bytearray()
    firsts: list[int] = []
    hangs: list[int] = []
    for previous, v in zip([-1, *graph.vertices], graph.vertices):
        parent = parents[v]
        left, right = suf[lefts[v]], pre[rights[v]]
        if parent == previous:
            # suf[L_v] falls short of q-1 characters only when L_v does,
            # and then the label starts that much later in pre[R_v].
            label = right[q - 1 - len(left) :]
            text += label
            runs.append((v, len(label)))
        else:
            if parent:
                # The first node lies just past the branch's context, and a
                # node's index is its text position less the q-1 context
                # characters of each later branch up to and including its own.
                firsts.append(len(text) - (q - 1) * len(hangs))
                hangs.append(last[parent])
            text += left
            text += right
            runs += ((0, q - 1), (v, len(left) + len(right) - (q - 1)))
        last[v] = len(text) - 1 - (q - 1) * len(hangs)
    # occurrences[0] is 0, so the rule-0 runs weigh nothing.
    occurrences = m.occurrences
    weights = np.repeat(
        np.array([occurrences[rule] for rule, _ in runs], dtype=np.int64),
        [length for _, length in runs],
    )
    return FlattenedTrie(q, runs, bytes(text), weights, firsts, hangs)


@dataclass(frozen=True)
class DupStats:
    """Size accounting for one gram length; mirrors the stats CSV columns."""

    q: int
    sum_ti: int
    trie_size: int
    dup: int
    flattened_len: int
    edge_count: int
    vertex_count: int

    def csv_row(self) -> str:
        return (
            f"{self.q},{self.sum_ti},{self.trie_size},{self.dup},"
            f"{self.flattened_len},{self.edge_count},{self.vertex_count}"
        )


def compute_dup_stats(m: SlpMetrics, graph: NeighborGraph, trie: FlattenedTrie) -> DupStats:
    """Window totals and the redundancy count from the graph's pass, and the
    measured trie size.

    ``dup`` totals, over every vertex, the fresh characters saved by each
    derivation-tree occurrence beyond the first.  Whenever the text hosts a
    q-gram at all, the measured body total must equal text length minus
    ``dup``; disagreement means an implementation bug, not bad input.
    """
    q, dup = graph.q, graph.dup
    trie_size = trie.body_total
    if m.text_length >= q and trie_size != m.text_length - dup:
        raise ConsistencyError(
            f"measured trie size {trie_size} != text length {m.text_length} minus dup {dup}"
        )
    return DupStats(
        q, graph.sum_ti, trie_size, dup, len(trie.text), len(graph.edges), len(graph.vertices)
    )
