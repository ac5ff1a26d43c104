"""Grammar builders.

A pair-replacement compressor, a left-leaning chain baseline, and seeded
random grammars for fuzzing.  All outputs are deterministic functions of
their arguments.
"""

from __future__ import annotations

import random

import numpy as np

from .slp import ConsistencyError, SlpGrammar, compute_metrics, prune_unused

RANDOM_LENGTH_CAP = 1 << 20


def _terminal_rules(text: bytes) -> tuple[list[int], list[int], np.ndarray]:
    """Terminal rules in ascending byte order, so outputs are reproducible,
    and the text as their int32 rule indices through a 256-entry table."""
    data = np.frombuffer(text, dtype=np.uint8)
    alphabet = np.flatnonzero(np.bincount(data, minlength=256))
    symbol = np.zeros(256, dtype=np.int32)
    symbol[alphabet] = np.arange(1, alphabet.size + 1)
    return [0, *alphabet.tolist()], [0] + [-1] * alphabet.size, symbol[data]


def build_repair(text: bytes, min_pair_frequency: int = 2) -> SlpGrammar:
    """Compress by repeatedly replacing the most frequent adjacent pair.

    Pair frequency is the non-overlapping left-to-right count; ties pick the
    smaller (left, right) rule index pair.  Rounds stop once no pair reaches
    ``min_pair_frequency``, which must be at least 2 (else ValueError);
    then the leftover symbols are binarized with balanced midpoint splits
    to keep the grammar shallow.

    No round sorts.  Every pair the count takes carries its pair's id
    (:class:`_PairLabels`), so a round over n symbols that replaces h pairs
    costs one ``bincount`` and a handful of O(n) passes: find the hits, drop
    their right halves from the symbols and the ids, and label the at most
    2h pairs the new symbol forms.  Only a round that shortens a run of
    three or more equal symbols from the left also scans for that symbol's
    self-pairs, whose count parity it flips.
    """
    if min_pair_frequency < 2:
        raise ValueError("min_pair_frequency must be at least 2")
    if not text:
        raise ValueError("cannot build a grammar for empty input")
    lefts, rights, seq = _terminal_rules(text)
    pairs = _PairLabels(seq, len(lefts))
    del seq  # the first round's compaction can then free it
    while (pair := pairs.step(min_pair_frequency, len(lefts))) is not None:
        lefts.append(pair[0])
        rights.append(pair[1])
    root = _binarize(pairs.seq.tolist(), lefts, rights)
    if root != len(lefts) - 1:
        raise ConsistencyError("pair replacement left a dangling residual symbol")
    return SlpGrammar(lefts, rights)


# Pair ids that name no pair: a self-pair that greedy counting skips, and
# the two slots past the last pair.  The ids of pairs start at 2.
VOID, END = 0, 1


class _PairLabels:
    """Re-Pair's state between rounds.

    ``seq`` holds the n symbols.  ``pid`` holds n + 1 ids: ``pid[i]`` names
    the pair ``(seq[i], seq[i + 1])`` when greedy left-to-right counting
    takes it and is VOID when it skips it; ``pid[n - 1]`` and ``pid[n]`` are
    END, so ``pid[i + 2]`` is defined for every pair start i.
    ``keys[id]`` is the id's pair packed as ``(left << 32) | right``, and
    ``keys[VOID]`` and ``keys[END]`` are VOID and END.  A pair has one id, so
    an id's count of places in ``pid`` is its pair's frequency.  Ids no
    place holds any more stay in ``keys`` until ``keys`` is more than twice
    as long as ``pid``, and are then dropped.
    """

    def __init__(self, seq: np.ndarray, k: int):
        """Label ``seq``, whose symbols lie below ``k``, without a sort: the
        pairs' codes ``left * k + right`` index a dense table of ids."""
        n = seq.size
        pid = np.full(n + 1, END, dtype=np.int64)
        # int64, as indexing would convert int32 codes to a copy anyway
        codes = seq[:-1].astype(np.int64)
        codes *= k
        codes += seq[1:]
        table = np.zeros(k * k, dtype=np.int64)
        table[codes] = 1
        present = np.flatnonzero(table)
        table[present] = np.arange(2, present.size + 2)
        # mode="raise" would buffer ``out``; every code is in range anyway
        np.take(table, codes, out=pid[: n - 1], mode="clip")
        del codes
        pid[_odd_in_runs(np.flatnonzero(seq[1:] == seq[:-1]))] = VOID
        self.seq = seq
        self.pid = pid
        self.keys = [VOID, END, *((present // k) << 32 | present % k).tolist()]
        # Scratch: the id each partner symbol of a round's new symbol gets.
        self.slot = np.empty(2 * k, dtype=np.int64)

    def step(self, min_count: int, symbol: int) -> tuple[int, int] | None:
        """Replace the taken places of the most frequent pair by ``symbol``
        and return the pair, or return None, replacing nothing, if no pair
        is taken ``min_count`` times."""
        counts = np.bincount(self.pid)
        counts[:2] = 0
        if len(self.keys) > 2 * self.pid.size:
            counts = self._drop_dead_ids(counts)
        top = int(counts.max())
        if top < min_count:
            return None
        keys = self.keys
        tied = np.flatnonzero(counts == top)
        best = int(tied[0]) if tied.size == 1 else min(tied.tolist(), key=keys.__getitem__)
        left, right = keys[best] >> 32, keys[best] & 0xFFFFFFFF
        seq, pid = self.seq, self.pid
        n = seq.size
        hits = np.flatnonzero(pid == best)
        # A run of three or more ``right`` after a hit loses its first
        # symbol, so its taken and skipped self-pairs swap.
        shifted = np.flatnonzero(pid[hits + 2] == VOID)
        run_id = int(pid[hits[shifted[0]] + 1]) if shifted.size else VOID
        seq[hits] = symbol
        # The new symbol pairs with the symbol before it, unless that is the
        # right half of a hit two places before ...
        before = hits - 1 if hits[0] else hits[1:] - 1
        before = before[seq[before - 1] != symbol]
        pid[before] = self._new_ids(seq[before], lambda c: c << 32 | symbol, symbol)
        # ... and with the symbol after its own right half, if there is one.
        after = hits
        if hits[-1] == n - 2:
            pid[n - 2] = END
            after = hits[:-1]
        nexts = seq[after + 2]
        # Where that is the next hit, hits two places apart make a run.
        linked = nexts == symbol
        run = np.flatnonzero(linked)
        if run.size:
            keys.append(symbol << 32 | symbol)
            pid[after[run]] = len(keys) - 1
            pid[after[_odd_in_runs(run)]] = VOID
            after, nexts = after[~linked], nexts[~linked]
        head = symbol << 32
        pid[after] = self._new_ids(nexts, lambda c: head | c, symbol)
        keep = np.ones(n + 1, dtype=bool)
        keep[hits + 1] = False
        self.seq = seq = seq[keep[:n]]
        self.pid = pid = pid[keep]
        if run_id != VOID:
            same = np.flatnonzero((seq[1:] == right) & (seq[:-1] == right))
            pid[same] = run_id
            pid[_odd_in_runs(same)] = VOID
        return left, right

    def _new_ids(self, partners: np.ndarray, pack, symbol: int) -> np.ndarray:
        """Ids of the pairs ``pack(c)`` that ``symbol`` forms with each of
        ``partners`` (symbols up to ``symbol``); these pairs are new, so one
        id is appended to ``keys`` per distinct partner."""
        if symbol >= self.slot.size:
            self.slot = np.empty(2 * symbol, dtype=np.int64)
        distinct = list(dict.fromkeys(partners.tolist()))
        base = len(self.keys)
        self.slot[distinct] = np.arange(base, base + len(distinct))
        self.keys.extend(map(pack, distinct))
        return self.slot[partners]

    def _drop_dead_ids(self, counts: np.ndarray) -> np.ndarray:
        """Renumber the ids that still have places; return their counts."""
        live = np.flatnonzero(counts)
        remap = np.zeros(counts.size, dtype=np.int64)
        remap[END] = END
        remap[live] = np.arange(2, live.size + 2)
        self.pid = remap[self.pid]
        keys = self.keys
        self.keys = [VOID, END, *(keys[i] for i in live.tolist())]
        return np.concatenate(([0, 0], counts[live]))


def _odd_in_runs(same: np.ndarray) -> np.ndarray:
    """Those of the ascending positions ``same`` at an odd offset from the
    start of their run of consecutive positions.  For the starts of the
    self-pairs of a sequence these are the ones greedy left-to-right
    non-overlapping counting skips: in a run of L equal symbols it takes the
    first self-pair and every other one after it, floor(L/2) in all."""
    fresh = np.diff(same, prepend=-2) != 1
    run_first = np.maximum.accumulate(np.where(fresh, same, 0))
    return same[(same - run_first) % 2 == 1]


def _binarize(
    symbols: list[int], lefts: list[int], rights: list[int], lo: int = 0, hi: int | None = None
) -> int:
    """Join ``symbols[lo:hi]`` (all of them by default) under one rule,
    splitting at midpoints, and return that rule (the symbol itself when
    there is one).

    The recursion passes its state down as arguments: a nested function
    that called itself would hold itself through its closure, a reference
    cycle that would leave ``lefts``, ``rights`` and ``symbols`` to the
    cyclic garbage collector after every build.
    """
    if hi is None:
        hi = len(symbols)
    if hi - lo == 1:
        return symbols[lo]
    mid = (lo + hi) // 2
    left = _binarize(symbols, lefts, rights, lo, mid)
    right = _binarize(symbols, lefts, rights, mid, hi)
    lefts.append(left)
    rights.append(right)
    return len(lefts) - 1


def build_chain(text: bytes) -> SlpGrammar:
    """Left-leaning baseline grammar with no sharing beyond terminals."""
    if not text:
        raise ValueError("cannot build a grammar for empty input")
    lefts, rights, seq = _terminal_rules(text)
    current, *rest = seq.tolist()
    for symbol in rest:
        lefts.append(current)
        rights.append(symbol)
        current = len(lefts) - 1
    return SlpGrammar(lefts, rights)


def build_random(rule_count: int, alphabet_size: int, seed: int) -> SlpGrammar:
    """Seeded random grammar; equal arguments always give equal grammars.

    Pair children are drawn uniformly among smaller rules, resampling picks
    whose expansion would pass ``RANDOM_LENGTH_CAP``.  Rules that end up
    unused are pruned so every surviving rule occurs in the derivation tree
    (so ``rule_count`` is an upper bound).
    """
    if rule_count < 1:
        raise ValueError("rule_count must be at least 1")
    if not 1 <= alphabet_size <= 256:
        raise ValueError("alphabet_size must be in 1..256")
    rng = random.Random(seed)
    terminals = min(alphabet_size, rule_count)
    lefts = [0, *range(terminals)]
    rights = [0] + [-1] * terminals
    lengths = [0] + [1] * terminals
    for i in range(terminals + 1, rule_count + 1):
        for _ in range(64):
            left = rng.randint(1, i - 1)
            right = rng.randint(1, i - 1)
            if lengths[left] + lengths[right] <= RANDOM_LENGTH_CAP:
                break
        else:
            left = right = min(range(1, i), key=lengths.__getitem__)
        lefts.append(left)
        rights.append(right)
        lengths.append(lengths[left] + lengths[right])
    g = SlpGrammar(lefts, rights)
    return prune_unused(g, compute_metrics(g))
