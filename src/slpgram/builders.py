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


def _terminal_rules(text: bytes) -> tuple[list[int], list[int], np.ndarray]:
    """Terminal rules in ascending byte order, so outputs are reproducible,
    and the text as their rule indices through a 256-entry table."""
    data = np.frombuffer(text, dtype=np.uint8)
    alphabet = np.flatnonzero(np.bincount(data, minlength=256))
    symbol = np.zeros(256, dtype=np.int64)
    symbol[alphabet] = np.arange(1, alphabet.size + 1)
    return [0, *alphabet.tolist()], [0] + [-1] * alphabet.size, symbol[data]


def build_repair(text: bytes, cfg: BuilderConfig | None = None) -> SlpGrammar:
    """Compress by repeatedly replacing the most frequent adjacent pair.

    Pair frequency is the non-overlapping left-to-right count; ties pick the
    smaller (left, right) rule index pair.  One mask of the pairs that count
    takes drives both counting and replacement in each round.  Rounds stop
    once no pair reaches ``cfg.min_pair_frequency``, then the leftover symbols
    are binarized with balanced midpoint splits to keep the grammar shallow.
    """
    if not text:
        raise ValueError("cannot build a grammar for empty input")
    if cfg is None:
        cfg = BuilderConfig()
    lefts, rights, seq = _terminal_rules(text)
    while seq.size >= 2:
        taken = _taken_pairs(seq)
        left, right, count = _best_pair(seq, taken, len(lefts))
        if count < cfg.min_pair_frequency:
            break
        lefts.append(left)
        rights.append(right)
        seq = _replace_pair(seq, taken, left, right, len(lefts) - 1)
    root = _binarize(seq.tolist(), lefts, rights)
    if root != len(lefts) - 1:
        raise ConsistencyError("pair replacement left a dangling residual symbol")
    return SlpGrammar(lefts, rights)


def _taken_pairs(seq: np.ndarray) -> np.ndarray:
    """Mask over pair starts of the pairs that greedy left-to-right
    non-overlapping counting takes: every pair of two different symbols, and
    in a run of L equal symbols the first self-pair and every other one after
    it, floor(L/2) in all."""
    taken = np.ones(seq.size - 1, dtype=bool)
    # Adjacent self-pairs share their symbol: a gap in ``same`` starts a run.
    same = np.flatnonzero(seq[1:] == seq[:-1])
    fresh = np.diff(same, prepend=-2) != 1
    run_first = np.maximum.accumulate(np.where(fresh, same, 0))
    taken[same[(same - run_first) % 2 == 1]] = False
    return taken


def _best_pair(seq: np.ndarray, taken: np.ndarray, k: int) -> tuple[int, int, int]:
    """Most frequent of the ``taken`` pairs; ``k`` must exceed every symbol.

    Returns (left, right, count); the first maximum of the sorted packed
    pairs breaks ties toward the smallest (left, right).
    """
    values, counts = np.unique((seq[:-1] * k + seq[1:])[taken], return_counts=True)
    pick = np.argmax(counts)
    left, right = divmod(int(values[pick]), k)
    return left, right, int(counts[pick])


def _replace_pair(
    seq: np.ndarray, taken: np.ndarray, left: int, right: int, new_symbol: int
) -> np.ndarray:
    """Replace the ``taken`` occurrences of (left, right) by ``new_symbol``."""
    hits = np.flatnonzero(taken & (seq[:-1] == left) & (seq[1:] == right))
    seq[hits] = new_symbol
    return np.delete(seq, hits + 1)


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
    return prune_unused(SlpGrammar(lefts, rights))
