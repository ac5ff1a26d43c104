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

import operator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .slp import (
    ConsistencyError,
    QMarks,
    SlpGrammar,
    SlpMetrics,
    affix_tables,
    check_affix_tables,
)
from .ssa import gather, gather_windows, window_weights
from .suffix import WeightedText, check_rankable

CSV_HEADER = "q,sum_ti,trie_size,dup,flattened_len,edges,vertices"


@dataclass(frozen=True)
class NeighborGraph:
    """Rules long enough to own a q-gram, in first-seam order (the text
    offset between a rule's children in its first occurrence), with the
    number of owner-to-next-owner edges and, indexed by rule, the
    in-neighbor each vertex hangs below: 0 for the first vertex and for
    every other rule.

    ``sum_ti`` totals the vertices' window lengths, min(q-1, |L_v|) +
    min(q-1, |R_v|), which is the length of the ssa string; ``dup`` totals
    (occ_v - 1)(window_v - (q-1)), the fresh characters that the occurrences
    of each vertex beyond its first would repeat, so the trie has |T| - dup
    nodes.  The flattened trie's size and text length follow from the
    window total and the parents (``trie_size``, ``flattened_len``), so the
    stats row, :meth:`csv_row`, needs no trie.

    The graph keeps the grammar and the q-marks it was built from, from
    which :attr:`edges` lists the edges themselves on request."""

    grammar: SlpGrammar = field(repr=False)
    qmarks: QMarks = field(repr=False)
    vertices: list[int]
    edge_count: int
    parents: list[int]
    sum_ti: int
    dup: int

    @property
    def q(self) -> int:
        return self.qmarks.q

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The ``edge_count`` edges as (owner, next owner) pairs, rebuilt
        from the grammar and the q-marks in the order of
        :func:`build_neighbor_graph`'s pass: the vertices in descending rule
        order, each with the edge to the successor under its long right
        child, then the edge from the predecessor over its long left child.
        A vertex is a rule with a left mark; a mark of 0 names no rule."""
        lefts, rights = self.grammar.lefts, self.grammar.rights
        leftmost, rightmost = self.qmarks.leftmost, self.qmarks.rightmost
        edges: list[tuple[int, int]] = []
        for i in range(self.grammar.n, 0, -1):
            if not leftmost[i]:
                continue
            successor = leftmost[rights[i]]
            if successor:
                edges.append((i, successor))
            predecessor = rightmost[lefts[i]]
            if predecessor:
                edges.append((predecessor, i))
        return edges

    @property
    def trie_size(self) -> int:
        """The flattened trie's node count: every window past its first q-1
        characters, plus the q-1 that open the text (|T| - dup whenever the
        text holds a q-gram); 0 with no vertex."""
        if not self.vertices:
            return 0
        return self.sum_ti - (self.q - 1) * (len(self.vertices) - 1)

    @property
    def flattened_len(self) -> int:
        """The flattened trie's text length: every window, less q-1 context
        characters for each vertex that follows its parent directly."""
        vertices = self.vertices
        chained = sum(map(operator.eq, map(self.parents.__getitem__, vertices[1:]), vertices))
        return self.sum_ti - (self.q - 1) * chained

    def csv_row(self) -> str:
        """The graph's row under :data:`CSV_HEADER`."""
        return (
            f"{self.q},{self.sum_ti},{self.trie_size},{self.dup},"
            f"{self.flattened_len},{self.edge_count},{len(self.vertices)}"
        )


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
    ``dup``, and counts the edges without listing them (the graph's
    :attr:`~NeighborGraph.edges` lists them on request).  Every rule must
    occur in the text.
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
    sum_ti = dup = edge_count = 0
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
        if successor:
            edge_count += 1
            parent = parents[successor]
            if not parent or seam < seams[parent]:
                parents[successor] = i
        predecessor = rightmost[left]
        if predecessor:
            edge_count += 1
            parents[i] = predecessor
    vertices.sort(key=seams.__getitem__)
    if vertices:
        parents[vertices[0]] = 0
    return NeighborGraph(g, qm, vertices, edge_count, parents, sum_ti, dup)


@dataclass(frozen=True, eq=False)
class FlattenedTrie:
    """The single weighted text of all branches in emission order, each its
    head's window followed by the labels of the vertices chained to it.

    A label carries its rule's occurrence count as the weight of every gram
    ending in it.  The first q-1 characters of each head's window weigh
    zero: they open the text for the first branch and repeat the end of the
    parent path for every later one.

    The trie itself is every text position but the repeated contexts.  For
    each branch after the first, ``firsts`` holds the node index of its
    first node and ``hangs`` the node it hangs from, the last one of its
    parent's label, both as int64 arrays; :meth:`to_weighted_text` derives
    from them the position and parent of each of the ``body_total`` nodes.
    The counting engine ranks these nodes; the text only anchors the
    positions a report prints.

    The text opens with the first vertex's whole window, so nodes 0 to q-2
    are a chain from the root, each below the one before.  A later branch
    hangs from the last node of a label, and a window holds at least q
    characters, so every label has one past the window's first q-1 and
    ends after that chain.  So node v has at least min(v, q-1) ancestors,
    as :class:`WeightedText` requires of a trie.
    """

    q: int
    text: bytes
    end_weights: np.ndarray
    firsts: np.ndarray
    hangs: np.ndarray

    @property
    def branch_count(self) -> int:
        """The branches after the first."""
        return len(self.hangs)

    @property
    def body_total(self) -> int:
        """The trie size: the text less the q-1 context characters of each
        later branch."""
        return len(self.text) - (self.q - 1) * len(self.hangs)

    def to_weighted_text(self) -> WeightedText:
        return WeightedText(self.text, self.end_weights, self.q, self.firsts, self.hangs)


def flatten_neighbor_trie(
    g: SlpGrammar,
    m: SlpMetrics,
    graph: NeighborGraph,
    tables: tuple[list[bytes], list[bytes]] | None = None,
) -> FlattenedTrie:
    """The vertices' windows joined in first-seam order, less the contexts
    of the chained ones.

    A vertex is chained when its parent is the vertex just before it; it
    adds only its label, its window ``suf[L] + pre[R]`` from
    :func:`affix_tables` past the first q-1 characters, which end the
    parent's label.  Any other vertex heads a branch with its whole window,
    whose first q-1 characters are context: the text's opener for the first
    vertex, the end of the parent's label for a later head.

    No statement runs per vertex.  The heads' windows and the chained
    vertices' labels come from one join (:func:`~slpgram.ssa.gather_windows`):
    a chained vertex leaves its head, the left child's suffix and all
    context, out of the join, and where that head is shorter than q-1 one
    mask cuts the rest of the context from the front of its tail.  So on a
    left-leaning chain the join holds the trie's text, not the sum_ti
    bytes of the ssa string.  The weights are one repeat of the kept runs.
    The last node of label j is q-2 plus the label sizes up to j, so a
    later head's first node is the one after its predecessor's last, and
    it hangs from its parent's last node.

    A trie the counting engine could not rank is refused with ValueError
    before any table is built: its size is the graph's ``trie_size``, and
    the trie built here has ``trie_size`` nodes and ``flattened_len`` text
    characters.  Tables past :func:`check_affix_tables`' cap are refused
    too.  A caller that holds this q's ``(pre, suf)`` tables already passes
    them as ``tables``; tables that give a window shorter than q raise
    ConsistencyError.
    """
    q = graph.q
    if m.text_length < q:
        none = np.zeros(0, dtype=np.int64)
        return FlattenedTrie(q, b"", none, none, none)
    check_rankable(graph.trie_size)
    if tables is None:
        check_affix_tables(g, m, q)
        tables = affix_tables(g, m, q)
    vertices = graph.vertices
    count = len(vertices)
    # The parents, the vertices, and before each vertex the one before it
    # in order (-1, no rule, before the first).
    ends = np.fromiter(
        chain(gather(graph.parents, vertices), (-1,), vertices), np.int64, 2 * count + 1
    )
    parents, rules = ends[:count], ends[count + 1 :]
    # opens[j]: vertex j is not chained to the vertex before it, so it opens
    # a branch with its whole window, as the first vertex does; the others
    # give only their labels.
    opens = parents != ends[count:-1]
    text, runs, occurrences = gather_windows(g, m, tables, vertices, q, opens)
    weights = window_weights(occurrences, runs)
    # The node of the last character of each vertex's label.
    last = runs[:, 1].cumsum()
    last += q - 2
    last_of = np.empty(g.n + 1, dtype=np.int64)
    last_of[rules] = last
    # A later branch's first node follows the last one of the vertex before
    # it, and it hangs from the last node of its parent.
    later = opens[1:].nonzero()[0]
    firsts = last[later] + 1
    hangs = last_of[parents[1:][later]]
    return FlattenedTrie(q, text, weights, firsts, hangs)


def compute_dup_stats(m: SlpMetrics, graph: NeighborGraph) -> NeighborGraph:
    """Check the graph's size identity and return the graph, whose
    :meth:`~NeighborGraph.csv_row` is the stats row of its gram length.

    ``dup`` totals, over every vertex, the fresh characters saved by each
    derivation-tree occurrence beyond the first.  Whenever the text hosts a
    q-gram at all, the trie size, a sum of window lengths, must equal the
    text length minus ``dup``, an occurrence-weighted sum; the two share
    only the metrics, so disagreement means an implementation bug, not bad
    input.
    """
    q, dup, trie_size = graph.q, graph.dup, graph.trie_size
    if m.text_length >= q and trie_size != m.text_length - dup:
        raise ConsistencyError(
            f"trie size {trie_size} != text length {m.text_length} minus dup {dup}"
        )
    return graph
