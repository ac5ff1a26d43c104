"""The weighted q-gram counting engine.

Every counting pipeline in this package reduces its input to one
:class:`WeightedText` and feeds it through :func:`weighted_qgram_counts`,
which groups equal q-grams by ranking them: a string on the positions that
start a whole gram, a trie on its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class WeightedText:
    """A byte string where each position carries the weight of the q-gram
    ending there.

    ``end_weights[p]`` (0-based) belongs to the gram ``text[p - gram + 1 : p + 1]``;
    the first ``gram - 1`` positions cannot end a gram and must weigh zero.

    The text of a flattened trie also carries the trie itself, given by its
    branches after the first (a plain string gives neither ``firsts`` nor
    ``hangs``).  Nodes 0 to gram - 2 are the root chain, each
    below the node before it, at the text's first positions.  Every other
    node lies one text position after the node before it and hangs below
    it, except the first node of a later branch j: ``firsts[j]``, its node
    index, lies past gram - 1 context bytes that repeat the end of the path
    down to ``hangs[j]``, the node it hangs from, and weigh zero.  The
    firsts increase from gram - 1 on, and each hang lies from node gram - 2
    (0 at gram 1) to before its branch's first node, so node v has at least
    min(v, gram - 1) ancestors, and whole grams end at every node but the
    root chain's.  From the branches follow ``nodes``, the text position of
    each node, and ``parents``, the node above each, -1 at the root, node 0.
    The gram ending at node v is read down the parent chain to v; it equals
    the text's gram ending at ``nodes[v]``, which is what a report prints.

    The engine reads each node's first key, at most 7 bytes ending at it,
    from the text, so the part of that contract it relies on is checked
    here: the up to min(gram, 8) - 1 context bytes before each branch's
    first node, which cover the at most 6 the engine reads, are the bytes of
    its nearest ancestors, with at most 7 gathers over the branches; a wrong
    byte raises ValueError.  Every other node inherits this from the node
    before it.
    """

    text: bytes
    end_weights: np.ndarray
    gram: int
    firsts: np.ndarray | None = None
    hangs: np.ndarray | None = None
    nodes: np.ndarray | None = field(default=None, init=False)
    parents: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.gram < 1:
            raise ValueError("gram length must be at least 1")
        weights = np.asarray(self.end_weights, dtype=np.int64)
        object.__setattr__(self, "end_weights", weights)
        if weights.shape != (len(self.text),):
            raise ValueError("end_weights must hold one entry per text position")
        # count_nonzero, not any(): on a small array it costs a third as much
        if np.count_nonzero(weights[: self.gram - 1]):
            raise ValueError(f"no q-gram can end before position {self.gram}")
        if self.firsts is None and self.hangs is None:
            return
        q = self.gram
        if self.firsts is None or self.hangs is None:
            raise ValueError("a trie needs both firsts and hangs")
        firsts = np.asarray(self.firsts, dtype=np.int64)
        hangs = np.asarray(self.hangs, dtype=np.int64)
        object.__setattr__(self, "firsts", firsts)
        object.__setattr__(self, "hangs", hangs)
        if firsts.ndim != 1 or hangs.shape != firsts.shape:
            raise ValueError("firsts and hangs must hold one entry per branch")
        branches = firsts.size
        size = len(self.text) - (q - 1) * branches
        # Compared as Python ints, so that a gram too long for int64 refuses
        # every branch: past this check q - 1 is below the text length.
        if branches and (
            int(firsts[0]) < q - 1
            or int(firsts[-1]) >= size
            or np.count_nonzero(firsts[1:] <= firsts[:-1])
        ):
            raise ValueError(f"first nodes must strictly increase within [{q - 1}, {size})")
        low = max(q - 2, 0)
        if branches and (np.count_nonzero(hangs < low) or np.count_nonzero(hangs >= firsts)):
            raise ValueError(f"each branch must hang from a node in [{low}, its first node)")
        nodes = np.arange(size)
        parents = np.arange(-1, size - 1)
        if branches:
            parents[firsts] = hangs
            # A node's text position is its index plus the q-1 context bytes
            # of every branch that starts at or before it: the nodes from
            # firsts[j - 1] (0 for j = 0) to before firsts[j] (the end for
            # j = branches) shift by j(q-1).
            cuts = np.concatenate(([0], firsts, [size]))
            nodes += np.repeat(np.arange(branches + 1) * (q - 1), cuts[1:] - cuts[:-1])
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "parents", parents)
        if not branches or q < 2:
            return
        starts = nodes[firsts]
        # One reduceat ORs the weights of each branch's context, the q-1
        # positions before its first node.
        bounds = np.add.outer(starts, (1 - q, 0)).ravel()
        if np.count_nonzero(np.bitwise_or.reduceat(weights, bounds)[::2]):
            raise ValueError("the q-1 context bytes before each branch must weigh zero")
        # Row j - 1 holds each first node's j-th ancestor.  A hang has at
        # least q - 2 ancestors, so every row's is a node, and a first node
        # lies past its q - 1 context bytes.
        ancestors = np.empty((min(q, 8) - 1, branches), dtype=np.int64)
        up = firsts
        for row in ancestors:
            up = np.take(parents, up, out=row)
        backs = np.arange(1, ancestors.shape[0] + 1)[:, None]
        data = np.frombuffer(self.text, dtype=np.uint8)
        wrong = np.argwhere(data[starts - backs] != data[nodes[ancestors]])
        if wrong.size:
            back, column = wrong[0] + (1, 0)
            v, u = firsts[column], ancestors[back - 1, column]
            raise ValueError(
                f"text position {nodes[v] - back}, {back} before node {v}, must hold"
                f" the byte of its ancestor node {u}"
            )


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


# A sort word is one int64: a key above the low bits that hold an index,
# and below the sign bit.
_WORD_BITS = 63

# A word holds an index and at least one rank, each below 2^31, so the
# engine ranks fewer positions than that.
_MAX_POSITIONS = 2**31


def check_rankable(positions: int) -> None:
    """Raise ValueError if the engine cannot rank this many positions,
    before anything of that size is built."""
    if positions >= _MAX_POSITIONS:
        limit = _MAX_POSITIONS - 1
        raise ValueError(f"cannot rank a string of {positions} positions: the limit is {limit}")


def _sort_words(
    keys: list[np.ndarray], bits: int, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort the indices 0..count-1 by the int64 arrays ``keys``, the most
    significant first and each below 2^(_WORD_BITS - bits), ties by index;
    ``index`` holds 0, 1, ... to at least count - 1.

    The keys are taken least significant first.  Each becomes one word per
    index, the key shifted above ``bits`` low bits that hold the index's
    place in the order so far (at first the index itself), and is sorted in
    place: the order is read from the low bits and the equal keys from the
    high ones.  So one key is one sort, of the words themselves, and the
    sorted keys are never gathered.  Returns ``(order, groups)``:
    ``groups`` ascends and ``groups[i]`` equals ``groups[i - 1]`` exactly
    where the keys of ``order[i]`` and ``order[i - 1]`` are equal.  It is
    the sorted key itself when there is one.  The list is emptied and its
    arrays overwritten.
    """
    mask = (1 << bits) - 1
    order = groups = None
    while keys:
        key = keys.pop()
        word = key if order is None else key[order]
        del key
        word <<= bits
        word |= index[: word.size]
        word.sort()
        place = word & mask
        word >>= bits
        if order is None:
            order, groups = place, word
        else:
            # The keys sorted before tell apart what this one ties.
            before = groups[place]
            fresh = (word[1:] != word[:-1]) | (before[1:] != before[:-1])
            word[0] = 0
            word[1:] = fresh
            np.cumsum(word, out=word)
            order, groups = order[place], word
    return order, groups


def _scatter_ranks(rank: np.ndarray, order: np.ndarray, groups: np.ndarray) -> int:
    """Write into ``rank[order]`` dense ranks from 1, equal where
    ``groups`` of :func:`_sort_words` is, and over ``groups``; return the
    last one."""
    # a cumulative sum in place, of the new groups cast to int64 first, is
    # twice as fast as one that casts them from bool
    fresh = groups[1:] != groups[:-1]
    groups[0] = 1
    groups[1:] = fresh
    np.cumsum(groups, out=groups)
    rank[order] = groups
    return int(groups[-1])


def _fan_in(ranks: int, bits: int) -> int:
    """How many ranked spans one word above ``bits`` index bits can combine
    when there are ``ranks`` rank values: the largest c >= 1 with
    ranks^c <= 2^(_WORD_BITS - bits), as the key sum(r_j * ranks^(c-1-j))
    is at most ranks^c - 1.  Below ``_MAX_POSITIONS`` indices and ranks it
    is never less than 1; one rank counts as two."""
    room = 1 << (_WORD_BITS - bits)
    fan = 1
    while max(ranks, 2) ** (fan + 1) <= room:
        fan += 1
    return fan


def _gram_ranks(data: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, groups)`` over the positions 0..n-q of ``data`` (n >= q),
    which start a whole q-gram: ``order`` sorts them by their grams in byte
    order, equal grams by position, and ``groups`` ascends, equal at i and
    i - 1 exactly where ``order[i]`` and ``order[i - 1]`` start equal grams.

    Every round sorts words of :func:`_sort_words`, whose low ``bits`` hold
    a position below n.  The first round's key is each position's first
    k = min(q, (63 - bits) // 8) bytes (5 from 2^15 to 2^23 positions),
    read big-endian through a strided view of a copy padded with 7 zero
    bytes and shifted right past the bytes beyond k.  Each later round
    writes the dense ranks of the last one, from 1, and extends the ranked
    prefixes from ``span`` bytes to ``reach = min(q, c * span)`` by
    combining c ranked spans, where :func:`_fan_in` fits f of the D rank
    values (0 included) into one word, and c is f (but 2 when f is 1), yet
    no more than the ceil(q/span) spans that reach q.  The spans start at
    0, span, ..., (c - 2) * span, and the last one at ``reach - span``, so
    that it ends at ``reach`` (overlapping the one before when
    reach < c * span).  A round ranks only the positions whose longer
    prefix lies in the text, by the keys sum(rank[p + start_j] *
    D^(f-1-j)) over each f spans in turn, so no prefix is ever cut short
    and nothing stands for the end of the data.  When f is 1 (past about
    2^21 positions with many distinct prefixes), the round sorts two words,
    one per span.  So q <= k takes one sort, q = 6..8 two where k is 5,
    and q = 64 four on the corpus and versions texts.  Ranking stops early
    once every prefix is distinct.  The last round's sort gives the
    groups, and its ranks are never written.  Raises ValueError for data
    of ``_MAX_POSITIONS`` or more positions.
    """
    n = data.size
    check_rankable(n)
    bits = (n - 1).bit_length()
    span = min(q, (_WORD_BITS - bits) // 8)
    count = n - span + 1
    padded = np.zeros(n + 7, dtype=np.uint8)
    padded[:n] = data
    key = np.ndarray((count,), dtype=">u8", buffer=padded, strides=(1,)).astype(np.uint64)
    del padded
    key >>= np.uint64(64 - 8 * span)
    keys = [key.view(np.int64)]
    del key
    index = np.arange(count)
    order, groups = _sort_words(keys, bits, index)
    rank = np.empty(count, dtype=np.int64) if span < q else None
    while span < q:
        ranks = _scatter_ranks(rank[:count], order, groups) + 1
        if ranks == count + 1:
            # Distinct shorter prefixes already order and group the grams.
            keep = order <= n - q
            return order[keep], groups[keep]
        del order
        per_word = _fan_in(ranks, bits)
        fan = min(max(per_word, 2), -(-q // span))
        reach = min(q, fan * span)
        count = n - reach + 1
        starts = [*range(0, (fan - 1) * span, span), reach - span]
        for first in range(0, fan, per_word):
            # the first key reuses the spent groups
            key = groups[:count] if first == 0 else np.empty(count, dtype=np.int64)
            key[:] = rank[starts[first] : starts[first] + count]
            for start in starts[first + 1 : first + per_word]:
                key *= ranks
                key += rank[start : start + count]
            keys.append(key)
            del key
        del groups
        order, groups = _sort_words(keys, bits, index)
        span = reach
    return order, groups


def _lift(hop: np.ndarray, distance: int) -> np.ndarray:
    """The table of the node ``distance`` above each node, from the parent
    table ``hop`` by repeated squaring; two tables besides it are alive."""
    table = None
    while True:
        if distance & 1:
            table = hop if table is None else hop[table]
        distance >>= 1
        if not distance:
            return table
        hop = hop[hop]


def _ancestor_ranks(
    text: np.ndarray, nodes: np.ndarray, parents: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, groups)`` over the m >= 1 nodes of a trie laid out in
    ``text``: node v holds byte ``text[nodes[v]]`` below node ``parents[v]``
    (-1 at the root, node 0), and is ranked by the ``depth`` bytes of its
    path that end at it.  Node v must have at least min(v, depth - 1)
    ancestors, as the nodes and parents that :class:`WeightedText` derives
    from a trie's branches have, so nodes 0 to depth - 2 are the root chain,
    and every other node has ``depth`` bytes to be ranked by.  Over those nodes ``order`` sorts them by their byte strings, equal
    ones by node, and ``groups`` ascends, equal at i and i - 1 exactly where
    the strings of ``order[i]`` and ``order[i - 1]`` are.  The root chain's
    nodes are ranked too, by whatever bytes precede them, and may group with
    any node: the caller drops them.

    Every round sorts words of :func:`_sort_words`, whose low ``bits`` hold
    a node below m.  With k = min(depth, (63 - bits) // 8) (5 from 2^15 to
    2^23 nodes), the text must hold each node's context: the k - 1 bytes
    before ``nodes[v]`` are the bytes of v's k - 1 nearest ancestors
    whenever v has that many (:class:`WeightedText` checks it at each
    branch's first node).  So the first round's key is the k bytes of text ending at
    ``nodes[v]``, read big-endian through a strided view of a copy padded
    with 7 zero bytes in front and masked to its low 8k bits.

    Later rounds combine ancestor ranks as :func:`_gram_ranks` combines
    spans: from ``span`` to ``reach = min(depth, c * span)`` bytes, with f =
    :func:`_fan_in` over the D rank values (0 included) and c = max(f, 2),
    the keys of v are sum(rank[anc_j(v)] * D^(f-1-j)) over each f of the
    nodes ``reach - span``, (c - 2) * span, ..., span and 0 above v in turn
    (the top span overlaps the one below when reach < c * span).  The
    table of the node ``span`` above each node comes from the parent table,
    which maps the root to itself, by squaring (:func:`_lift`) and is
    carried from round to round; the multiples are composed from it, and
    when ``reach - span`` is no multiple of span (the last round only), the
    top's table composes the last multiple with one lifted for the rest.
    A node with at least reach - 1 ancestors reads only the ranks of nodes
    with at least span - 1, which the round before made exact, so its new
    rank is exact too; a node with fewer reads the root's rank in place of
    the missing ones.  So depth <= k takes one sort, depth = 6..8 two where
    k is 5, and depth = 64 four on the corpus and versions tries.  The last
    round's sort gives the groups, and its ranks are never written.

    There is no early stop: ranks that are all distinct already group the
    nodes, but they order the strings by their last ``span`` bytes, and the
    gram order needs the first ones.
    """
    m = nodes.size
    check_rankable(m)
    bits = (m - 1).bit_length()
    span = min(depth, (_WORD_BITS - bits) // 8)
    padded = np.zeros(text.size + 7, dtype=np.uint8)
    padded[7:] = text
    key = np.ndarray((text.size,), dtype=np.int64, buffer=padded, strides=(1,))[nodes]
    del padded
    if np.little_endian:
        # read big-endian, in place
        key.byteswap(inplace=True)
    key &= (1 << 8 * span) - 1
    keys = [key]
    del key
    index = np.arange(m)
    order, groups = _sort_words(keys, bits, index)
    rank = np.empty(m, dtype=np.int64) if span < depth else None
    hop = np.maximum(parents, 0)
    step = None
    while span < depth:
        ranks = _scatter_ranks(rank, order, groups) + 1
        del order
        per_word = _fan_in(ranks, bits)
        fan = min(max(per_word, 2), -(-depth // span))
        reach = min(depth, fan * span)
        if step is None:
            step = _lift(hop, span)
        # the tables of the nodes span, 2 * span, ..., (fan - 2) * span above,
        # and the top span's, ``rest`` more above the last of them, where
        # rest < span only in the last round
        tables = []
        for _ in range(fan - 2):
            tables.append(step[tables[-1]] if tables else step)
        rest = reach - (fan - 1) * span
        lift = step if rest == span else _lift(hop, rest)
        top = lift[tables[-1]] if tables else lift
        # the spans' tables, most significant first, down to the node itself
        parts = [top, *reversed(tables), index]
        if reach < depth:
            step = step[top]
        del tables, lift, top
        for first in range(0, fan, per_word):
            # the first key reuses the spent groups
            key = groups if first == 0 else np.empty(m, dtype=np.int64)
            np.take(rank, parts[first], out=key)
            for part in parts[first + 1 : first + per_word]:
                key *= ranks
                key += rank[part]
            keys.append(key)
            del key
        del parts, groups
        order, groups = _sort_words(keys, bits, index)
        span = reach
    return order, groups


def weighted_qgram_counts(wt: WeightedText) -> QGramReport:
    """Group equal q-grams of the text and total their end weights.

    A plain string is ranked on its positions that start a whole gram, by
    the gram's bytes (:func:`_gram_ranks`).  A trie's text is ranked on its
    nodes only, each by the q bytes down its parent chain: the ``nodes``
    and ``parents`` that :class:`WeightedText` derives from the trie's
    branches (:func:`_ancestor_ranks`, which takes the whole text, since
    the first key of a node is read from the bytes that end at it).  So the
    repeated contexts are never sorted, and the root chain's q - 1 nodes,
    where no whole gram ends, are dropped from its order.  Either way every round
    sorts one int64 word per position or node, the key above the index, in
    place: q <= 5 takes one sort, q = 6..8 two where the first key holds 5
    bytes, and q = 64 four on the corpus and versions inputs; a round
    whose ranks and index do not fit one word sorts two.
    The groups are read off the last sort in gram byte order.  Ties sort
    by index, so each group's first member is its earliest, whose text
    position it reports; groups whose total weight is zero (grams that
    exist only as concatenation bridges) are dropped.  The report's
    entries are one array built from the group totals, with no Python
    object per group.
    """
    q = wt.gram
    z = wt.text
    if (len(z) if wt.nodes is None else wt.nodes.size) < q:
        return QGramReport(np.empty((0, 2), dtype=np.int64), q)
    data = np.frombuffer(z, dtype=np.uint8)
    # Each array is dropped once used: at n near the 2^31 cap they are
    # gigabytes apiece.
    if wt.nodes is None:
        ends, groups = _gram_ranks(data, q)
        ends += q - 1
    else:
        order, groups = _ancestor_ranks(data, wt.nodes, wt.parents, q)
        deep = order >= q - 1
        ends = wt.nodes[order[deep]]
        del order
        groups = groups[deep]
        del deep
    cuts = np.r_[0, np.flatnonzero(groups[1:] != groups[:-1]) + 1]
    del groups
    totals = np.add.reduceat(wt.end_weights[ends], cuts)
    first = ends[cuts]
    kept = totals > 0
    return QGramReport(np.stack((first[kept] + 1, totals[kept]), axis=1), q)
