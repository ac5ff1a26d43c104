"""Seeded input generators for the three benchmark workloads.

Nothing here imports ``slpgram``: the grammars and texts the program is
given, and the facts the oracles need about them, come from this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CORPUS_SEED = 0x5EED
VERSIONS_SEED = 0x7E25
SWEEP_SEED = 0xC0FFEE

# The first 128 KiB of the acceptance suite's 1 MB corpus, and the Re-Pair
# threshold that keeps |T|/n near the full corpus's (about 32 against 46).
CORPUS_BYTES = 1 << 17
CORPUS_MIN_PAIR_FREQ = 16

# Versioned collection: K edited copies of an L-byte base document, each
# with EDITS substituted bytes, repeated 2**DOUBLINGS times.
VERSIONS_BASE_BYTES = 4096
VERSIONS_COPIES = 64
VERSIONS_EDITS = 4
VERSIONS_DOUBLINGS = 30
# build, nsa and verify need a text they can expand: the first copies
# joined once, without the doublings.
VERSIONS_HEAD_COPIES = 16

SWEEP_TEXTS = 100
SWEEP_MIN_BYTES = 100
SWEEP_MAX_BYTES = 1000

WORDS = (
    "the of and to in is that it was for on are with as his they be at one "
    "have this from or had by hot word but what some we can out other were "
    "all there when up use your how said an each she which do their time if "
    "will way about many then them write would like so these her long make "
    "thing see him two has look more day could go come did number sound no "
    "most people my over know water than call first who may down side been "
    "now find any new work part take get place made live where after back "
    "little only round man year came show every good me give our under name "
    "very through just form sentence great think say help low line differ "
    "turn cause much mean before move right boy old too same tell does set "
    "three want air well also play small end put home read hand port large "
    "spell add even land here must big high such follow act why ask men "
    "change went light kind off need house picture try us again animal "
    "point mother world near build self earth father head stand own page"
).split()


def english_like(size: int, seed: int) -> bytes:
    """English-like text with document-style duplication, ``size`` bytes.

    Half the stream repeats one of eight boilerplate paragraphs and the rest
    draws sentences from a fixed pool.  With ``seed = 0x5EED`` and one
    million bytes this is byte for byte the acceptance suite's corpus; a
    shorter ``size`` gives a prefix of the same stream.
    """
    rng = random.Random(seed)

    def sentence() -> str:
        count = rng.randint(6, 12)
        return " ".join(rng.choice(WORDS) for _ in range(count)) + ". "

    paragraphs = ["".join(sentence() for _ in range(rng.randint(8, 12))) + "\n" for _ in range(8)]
    pool = [sentence() for _ in range(150)]
    parts = []
    total = 0
    while total < size:
        piece = rng.choice(paragraphs) if rng.random() < 0.5 else rng.choice(pool)
        parts.append(piece)
        total += len(piece)
    return "".join(parts).encode("ascii")[:size]


def make_corpus() -> bytes:
    return english_like(CORPUS_BYTES, CORPUS_SEED)


def make_sweep(seed: int) -> list[bytes]:
    """Small random texts over 2 to 4 letters, like the acceptance sweep.

    Sizes step evenly from SWEEP_MIN_BYTES to SWEEP_MAX_BYTES and alphabet
    sizes cycle through 2, 3, 4, in a seeded order; only the order and the
    letters depend on the seed, so every seed sets the same amount of work.
    """
    rng = random.Random(SWEEP_SEED + seed)
    step = (SWEEP_MAX_BYTES - SWEEP_MIN_BYTES) / (SWEEP_TEXTS - 1)
    shapes = [(2 + k % 3, SWEEP_MIN_BYTES + round(k * step)) for k in range(SWEEP_TEXTS)]
    rng.shuffle(shapes)
    return [bytes(97 + rng.randrange(sigma) for _ in range(size)) for sigma, size in shapes]


@dataclass(frozen=True)
class Versions:
    """A versioned collection and the SLP v1 document that derives it.

    The text is ``(versions[0] + ... + versions[-1]) * 2**doublings``;
    ``edits[k]`` lists the positions where ``versions[k]`` differs from
    ``base``.
    """

    base: bytes
    versions: list[bytes]
    edits: list[list[int]]
    doublings: int
    document: str
    rules: int

    @property
    def text_length(self) -> int:
        return len(self.base) * len(self.versions) << self.doublings


class _HashConsed:
    """Rule table in which equal (left, right) pairs and bytes share one rule."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._ids: dict[tuple, int] = {}

    def _rule(self, key: tuple, line: str) -> int:
        found = self._ids.get(key)
        if found is None:
            found = len(self.lines) + 1
            self._ids[key] = found
            self.lines.append(f"{found} {line}")
        return found

    def terminal(self, byte: int) -> int:
        return self._rule(("T", byte), f"T {byte}")

    def pair(self, left: int, right: int) -> int:
        return self._rule((left, right), f"N {left} {right}")

    def balanced(self, symbols: list[int]) -> int:
        while len(symbols) > 1:
            paired = [self.pair(a, b) for a, b in zip(symbols[0::2], symbols[1::2])]
            if len(symbols) % 2:
                paired.append(symbols[-1])
            symbols = paired
        return symbols[0]


def make_versions(
    seed: int,
    base_bytes: int = VERSIONS_BASE_BYTES,
    copies: int = VERSIONS_COPIES,
    edits: int = VERSIONS_EDITS,
    doublings: int = VERSIONS_DOUBLINGS,
) -> Versions:
    """K edited copies of one base document as a hash-consed balanced grammar.

    The base document is fixed; the seed draws the edits (positions and
    replacement letters), which keeps the grammar's size nearly the same
    from seed to seed.

    Every copy is the midpoint-split tree over its bytes; a subtree that
    holds no edit is the base document's subtree, so each edit adds only the
    rules on its root path.  Rules are created on demand, children first,
    so every rule occurs in the derivation and indices stay topological.
    """
    base = english_like(base_bytes, VERSIONS_SEED)
    rng = random.Random(VERSIONS_SEED + seed)
    letters = sorted(set(base))
    table = _HashConsed()
    base_nodes: dict[tuple[int, int], int] = {}

    def base_node(lo: int, hi: int) -> int:
        node = base_nodes.get((lo, hi))
        if node is None:
            if hi - lo == 1:
                node = table.terminal(base[lo])
            else:
                mid = (lo + hi) // 2
                node = table.pair(base_node(lo, mid), base_node(mid, hi))
            base_nodes[(lo, hi)] = node
        return node

    def version_node(text: bytes, spots: list[int], lo: int, hi: int) -> int:
        if not any(lo <= p < hi for p in spots):
            return base_node(lo, hi)
        if hi - lo == 1:
            return table.terminal(text[lo])
        mid = (lo + hi) // 2
        return table.pair(version_node(text, spots, lo, mid), version_node(text, spots, mid, hi))

    versions: list[bytes] = []
    edit_lists: list[list[int]] = []
    roots: list[int] = []
    for _ in range(copies):
        spots = sorted(rng.sample(range(base_bytes), edits))
        text = bytearray(base)
        for p in spots:
            text[p] = rng.choice([c for c in letters if c != base[p]])
        versions.append(bytes(text))
        edit_lists.append(spots)
        roots.append(version_node(text, spots, 0, base_bytes))
    root = table.balanced(roots)
    for _ in range(doublings):
        root = table.pair(root, root)
    document = "\n".join(table.lines) + "\n"
    return Versions(base, versions, edit_lists, doublings, document, len(table.lines))
