"""A fixed reference workload that measures how fast the host runs right now.

On a shared VM the same program call can take 1.5 times as long in a slow
phase of the host as in a fast one, and the phases last from seconds to
minutes.  ``speed_factor`` times five small pieces of fixed work that share
nothing with ``slpgram`` (integer arithmetic in the interpreter, a numpy
sort, two ``Counter``s of byte slices and a dict of tuples) and returns the
geometric mean of their times over the reference times below.  It reads
about 1.0 at this host's typical speed and rises when the host slows down.
Dividing a program call's time by the factor measured around it gives its
time at reference speed.  No single piece tracks every kind of program call
(each responds to a slow phase by a different power), so the mix of all
five is used.
"""

from __future__ import annotations

import gc
import math
import random
import time
from collections import Counter

import numpy as np

# Median time of each piece over 300 samples on a 2-vCPU shared Intel Xeon
# VM (Python 3.11, numpy 2.4).
REFERENCE_S = {
    "arith": 0.00927,
    "sort": 0.01306,
    "short_grams": 0.02489,
    "tuples": 0.0273,
    "long_grams": 0.05021,
}

_ints = np.random.default_rng(0x5EED).integers(0, 1 << 30, size=1_000_000)
_rng = random.Random(0x5EED)
_letters = bytes(_rng.choice(b"abcd") for _ in range(60_000))
_words = b" ".join(_rng.choice((b"the", b"of", b"grammar", b"rule", b"text", b"count")) for _ in range(30_000))


def _arith() -> None:
    total = 0
    for i in range(100_000):
        total += i * i


def _sort() -> None:
    np.sort(_ints)


def _short_grams() -> None:
    Counter(_letters[i : i + 6] for i in range(len(_letters) - 5))


def _tuples() -> None:
    table = {}
    for i in range(25_000):
        table[(i * 2654435761) & 0xFFFFFFF] = (i, i + 1)
    sorted(table.items())


def _long_grams() -> None:
    Counter(_words[i : i + 8] for i in range(120_000))


PIECES = {
    "arith": _arith,
    "sort": _sort,
    "short_grams": _short_grams,
    "tuples": _tuples,
    "long_grams": _long_grams,
}


def piece_times() -> dict[str, float]:
    """Seconds each piece took, with the garbage collector paused."""
    times = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, piece in PIECES.items():
            start = time.perf_counter()
            piece()
            times[name] = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return times


def speed_factor() -> float:
    """Geometric mean of the pieces' times over their reference times."""
    times = piece_times()
    return math.exp(sum(math.log(times[n] / REFERENCE_S[n]) for n in PIECES) / len(PIECES))
