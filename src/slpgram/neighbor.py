"""Right-neighbor graph over SLP rules and its flattened weighted trie.

Consecutive q-gram occurrences of the text are owned by rules that overlap
in q-1 characters, so emitting each owning rule's fresh characters once,
ordered along a spanning traversal of the neighbor graph, reproduces every
gram of the text while skipping the characters shared between repeated
rules.  The traversal output is kept as a flat weighted string, one
branch after another.  Each branch opens with its head's whole boundary
window, whose first q-1 characters are zero-weighted context (the text's
opener, or the end of the parent path), so grams crossing a branch point
still read correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .slp import ConsistencyError, QMarks, SlpGrammar, SlpMetrics, affix_tables
from .suffix import WeightedText

CSV_HEADER = "q,sum_ti,trie_size,dup,flattened_len,edges,vertices"


@dataclass(frozen=True)
class NeighborGraph:
    """Rules long enough to own a q-gram, with owner-to-next-owner edges
    kept as each vertex's successors in ascending rule order."""

    q: int
    vertices: frozenset[int]
    successors: dict[int, list[int]]

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a, targets in self.successors.items() for b in targets]

    @property
    def edge_count(self) -> int:
        """``len(edges)``, without building the list."""
        return sum(map(len, self.successors.values()))


def build_neighbor_graph(g: SlpGrammar, m: SlpMetrics, qm: QMarks) -> NeighborGraph:
    """Edges follow the two successor cases of a pair rule.

    When a rule's right child is long enough, its unique successor is the
    deepest left mark under that child; otherwise the rule is the unique
    successor of the deepest right mark over its left child.  The union is
    a structural superset of the true successor relation and keeps every
    vertex reachable from the text's first owner.

    Children have smaller indices than their rule, so a rule's successor in
    the first case precedes the ones the second case adds, which come in
    ascending order: each successor list is sorted and duplicate-free.
    """
    lefts, rights = g.lefts, g.rights
    lengths = m.lengths
    vertices = frozenset(i for i in range(1, g.n + 1) if lengths[i] >= qm.q)
    successors: dict[int, list[int]] = {}
    for i in range(1, g.n + 1):
        r = rights[i]
        if r < 0:
            continue
        successor = qm.leftmost[r]
        if successor is not None:
            successors.setdefault(i, []).append(successor)
        predecessor = qm.rightmost[lefts[i]]
        if predecessor is not None:
            successors.setdefault(predecessor, []).append(i)
    return NeighborGraph(qm.q, vertices, successors)


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
    parent path.  From them follow ``nodes``, the text position of each of
    the ``body_total`` nodes, and ``parents``, the node above each: the
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


def flatten_neighbor_trie(
    g: SlpGrammar, m: SlpMetrics, qm: QMarks, graph: NeighborGraph
) -> FlattenedTrie:
    """Depth-first emission of every vertex's fresh characters.

    Every branch opens with its head's whole window ``suf[L] + pre[R]``
    from :func:`affix_tables`, whose first q-1 characters are the branch's
    context: the text's opener for the first owner ``leftmost[n]``, and the
    parent path's last q-1 characters for every later head.  Each chained
    vertex k then emits its label, its window past the first q-1
    characters, which the path has already emitted.  A chain of unique
    successors becomes one branch body.  When a chain ends at a rule with a
    short right child, each unvisited successor heads a new branch; chains
    ending on an already visited unique successor spawn nothing.  Child
    order is ascending rule index and the walk keeps a stack of (rule, node
    the branch would hang from) pairs, so the output is deterministic and
    path depth cannot overflow recursion.  Branches are written into one
    text as they are emitted, with run-length weights.  For every branch
    after the first the walk also records its first node and the node it
    hangs from, which give every trie node its text position and parent.
    """
    q = qm.q
    lengths = m.lengths
    if m.text_length < q:
        return FlattenedTrie(q, [], b"", np.zeros(0, dtype=np.int64), [], [])
    lefts, rights = g.lefts, g.rights
    occurrences = m.occurrences
    leftmost = qm.leftmost
    successors = graph.successors
    pre, suf = affix_tables(g, m, q)
    visited = bytearray(g.n + 1)
    runs: list[tuple[int, int]] = []
    text = bytearray()
    context = (0, q - 1)
    firsts: list[int] = []
    hangs: list[int] = []
    stack = [(leftmost[g.n], -1)]
    while stack:
        head, hang = stack.pop()
        if visited[head]:
            continue
        visited[head] = 1
        if hang >= 0:
            # The first node lies just past the branch's context, and a
            # node's index is its text position less the q-1 context
            # characters of each later branch up to and including its own.
            firsts.append(len(text) - (q - 1) * len(hangs))
            hangs.append(hang)
        left, right = suf[lefts[head]], pre[rights[head]]
        text += left
        text += right
        runs += (context, (head, len(left) + len(right) - (q - 1)))
        # Every character the branch emits past suf[L_head] lies in R_head.
        fresh = len(right)
        k = head
        while lengths[rights[k]] >= q:
            nxt = leftmost[rights[k]]
            if visited[nxt]:
                break
            k = nxt
            visited[k] = 1
            # suf[L_k] falls short of q-1 characters only when L_k does, and
            # then the label starts that much later in pre[R_k].
            label = pre[rights[k]][q - 1 - len(suf[lefts[k]]) :]
            text += label
            fresh += len(label)
            runs.append((k, len(label)))
        if fresh > lengths[rights[head]]:
            raise ConsistencyError("branch would emit past its head's right child")
        # The node of the branch's last character.
        last = len(text) - 1 - (q - 1) * len(hangs)
        stack += [(child, last) for child in reversed(successors.get(k, ())) if not visited[child]]
    # occurrences[0] is 0, so the rule-0 runs weigh nothing.
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


def compute_dup_stats(
    g: SlpGrammar,
    m: SlpMetrics,
    qm: QMarks,
    trie: FlattenedTrie,
    graph: NeighborGraph,
) -> DupStats:
    """Window totals, measured trie size, and the redundancy count.

    ``dup`` totals, over every vertex, the fresh characters saved by each
    derivation-tree occurrence beyond the first.  Whenever the text hosts a
    q-gram at all, the measured body total must equal text length minus
    ``dup``; disagreement means an implementation bug, not bad input.
    """
    q = qm.q
    lefts, rights = g.lefts, g.rights
    lengths = m.lengths
    occurrences = m.occurrences
    sum_ti = 0
    dup = 0
    for i in graph.vertices:
        window = min(q - 1, lengths[lefts[i]]) + min(q - 1, lengths[rights[i]])
        sum_ti += window
        dup += (occurrences[i] - 1) * (window - (q - 1))
    trie_size = trie.body_total
    if m.text_length >= q and trie_size != m.text_length - dup:
        raise ConsistencyError(
            f"measured trie size {trie_size} != text length {m.text_length} minus dup {dup}"
        )
    return DupStats(
        q, sum_ti, trie_size, dup, len(trie.text), graph.edge_count, len(graph.vertices)
    )
