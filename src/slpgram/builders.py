"""Grammar builders.

A pair-replacement compressor, a left-leaning chain baseline, and seeded
random grammars for fuzzing.  All outputs are deterministic functions of
their arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .slp import ConsistencyError, SlpGrammar, prune_unused

RANDOM_LENGTH_CAP = 1 << 20


@dataclass(frozen=True)
class BuilderConfig:
    min_pair_frequency: int = 2

    def __post_init__(self) -> None:
        if self.min_pair_frequency < 2:
            raise ValueError("min_pair_frequency must be at least 2")


def _terminal_rules(text: bytes) -> tuple[list[int], list[int], dict[int, int]]:
    # Terminals in ascending byte order so outputs are reproducible.
    alphabet = sorted(set(text))
    lefts = [0, *alphabet]
    rights = [0] + [-1] * len(alphabet)
    return lefts, rights, {b: k + 1 for k, b in enumerate(alphabet)}


def build_repair(text: bytes, cfg: BuilderConfig | None = None) -> SlpGrammar:
    """Compress by repeatedly replacing the most frequent adjacent pair.

    Pair frequency is the non-overlapping left-to-right count; ties pick the
    smaller (left, right) rule index pair.  Rounds stop once no pair reaches
    ``cfg.min_pair_frequency``, then the leftover symbol sequence is
    binarized with balanced midpoint splits to keep the grammar shallow.
    """
    if not text:
        raise ValueError("cannot build a grammar for empty input")
    if cfg is None:
        cfg = BuilderConfig()
    lefts, rights, symbol_of = _terminal_rules(text)
    seq = np.array([symbol_of[b] for b in text], dtype=np.int64)
    while seq.size >= 2:
        left, right, count = _best_pair(seq, len(lefts))
        if count < cfg.min_pair_frequency:
            break
        lefts.append(left)
        rights.append(right)
        seq = _replace_pair(seq, left, right, len(lefts) - 1)
    root = _binarize(seq.tolist(), lefts, rights)
    if root != len(lefts) - 1:
        raise ConsistencyError("pair replacement left a dangling residual symbol")
    return SlpGrammar(lefts, rights)


def _best_pair(seq: np.ndarray, k: int) -> tuple[int, int, int]:
    """Most frequent adjacent pair under non-overlapping counting.

    ``k`` must exceed every symbol in ``seq``.  Returns (left, right, count)
    with ties resolved toward the smallest (left, right).
    """
    packed = seq[:-1] * k + seq[1:]
    values, counts = np.unique(packed, return_counts=True)
    # A run of one symbol overlaps itself: greedy left-to-right counting
    # yields floor(run/2) occurrences per run, not run-1 adjacencies.
    run_starts = np.flatnonzero(np.r_[True, seq[1:] != seq[:-1]])
    run_lengths = np.diff(np.r_[run_starts, seq.size])
    multi = run_lengths >= 2
    if multi.any():
        run_symbols = seq[run_starts[multi]]
        greedy = np.bincount(run_symbols, weights=run_lengths[multi] // 2, minlength=k)
        doubled = np.unique(run_symbols)
        counts[np.searchsorted(values, doubled * k + doubled)] = greedy[doubled].astype(np.int64)
    pick = np.lexsort((values, -counts))[0]
    left, right = divmod(int(values[pick]), k)
    return left, right, int(counts[pick])


def _replace_pair(seq: np.ndarray, left: int, right: int, new_symbol: int) -> np.ndarray:
    """Replace non-overlapping left-to-right occurrences of (left, right)."""
    if left != right:
        hits = np.flatnonzero((seq[:-1] == left) & (seq[1:] == right))
    else:
        cand = np.flatnonzero((seq[:-1] == left) & (seq[1:] == left))
        # Consecutive candidates are the same run; keep alternate ones.
        fresh = np.r_[True, np.diff(cand) != 1]
        run_first = np.maximum.accumulate(np.where(fresh, cand, 0))
        hits = cand[(cand - run_first) % 2 == 0]
    seq[hits] = new_symbol
    keep = np.ones(seq.size, dtype=bool)
    keep[hits + 1] = False
    return seq[keep]


def _binarize(symbols: list[int], lefts: list[int], rights: list[int]) -> int:
    def split(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return symbols[lo]
        mid = (lo + hi) // 2
        left = split(lo, mid)
        right = split(mid, hi)
        lefts.append(left)
        rights.append(right)
        return len(lefts) - 1

    return split(0, len(symbols))


def build_chain(text: bytes) -> SlpGrammar:
    """Left-leaning baseline grammar with no sharing beyond terminals."""
    if not text:
        raise ValueError("cannot build a grammar for empty input")
    lefts, rights, symbol_of = _terminal_rules(text)
    current = symbol_of[text[0]]
    for b in text[1:]:
        lefts.append(current)
        rights.append(symbol_of[b])
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
    return prune_unused(SlpGrammar(lefts, rights))
