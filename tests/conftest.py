import pytest

from slpgram import (
    SlpGrammar,
    build_chain,
    build_random,
    build_repair,
    compute_metrics,
    parse_slp,
)

# 13-character sample over {a, b}; small enough to check everything by hand.
G7_DOC = """\
1 T 97
2 T 98
3 N 1 2
4 N 1 3
5 N 3 4
6 N 4 5
7 N 6 5
"""
G7_TEXT = b"aababaababaab"

# Documents with dead rules, and the rules that never occur.
DEAD_RULE_DOCS = {
    # 5 -> 4 -> 3 -> 2 is dead: each is the child of the next, and only the
    # top one is nobody's child
    "chain": ("1 T 97\n2 T 98\n3 N 2 2\n4 N 3 3\n5 N 4 2\n6 N 1 1\n", [2, 3, 4, 5]),
    # a dead rule whose children live on
    "live-children": ("1 T 97\n2 T 98\n3 N 1 2\n4 N 3 3\n5 N 3 1\n", [4]),
    # two dead chains sharing a dead rule
    "shared": (
        "1 T 97\n2 T 98\n3 N 2 2\n4 N 3 2\n5 N 3 3\n6 N 1 1\n7 N 6 1\n",
        [2, 3, 4, 5],
    ),
    "doublings": ("1 T 97\n2 N 1 1\n3 N 2 2\n4 N 3 3\n5 N 4 4\n6 N 1 1\n", [2, 3, 4, 5]),
}


def comb_grammar(teeth):
    """b a^1 b a^2 ... b a^teeth as a comb of height about ``teeth``.

    A_k = A_{k-1} a is a left-deep chain, each tooth hangs A_k under
    B_k = b A_k, and the teeth are joined left-deep as well.
    """
    lefts = [0, 97, 98]
    rights = [0, -1, -1]

    def pair(left, right):
        lefts.append(left)
        rights.append(right)
        return len(lefts) - 1

    chain = 1
    joined = None
    for k in range(1, teeth + 1):
        if k > 1:
            chain = pair(chain, 1)
        tooth = pair(2, chain)
        joined = tooth if joined is None else pair(joined, tooth)
    return SlpGrammar(lefts, rights)


def right_chain(text):
    """The right-leaning chain X_1 = the last byte, X_k = text[-k] X_(k-1),
    after one terminal rule per distinct byte."""
    lefts, rights = [0], [0]
    terminals = {}
    for byte in sorted(set(text)):
        lefts.append(byte)
        rights.append(-1)
        terminals[byte] = len(lefts) - 1
    current = terminals[text[-1]]
    for byte in reversed(text[:-1]):
        lefts.append(terminals[byte])
        rights.append(current)
        current = len(lefts) - 1
    return SlpGrammar(lefts, rights)


def wide_window_grammar():
    """A = a^(2^61 - 1) and B = b^(2^61 - 1), each the doublings P_k of its
    letter joined shortest first, ((P_0 P_1) P_2) ... P_60; X = A B,
    Y = B A, and the start rule X Y, so |T| = 2^63 - 4.  At q = 2^61 - 1 the
    vertices are A, B, X, Y and the start rule, and their windows total
    more than 2^64 bytes."""
    lefts, rights = [0, 97, 98], [0, -1, -1]

    def pair(left, right):
        lefts.append(left)
        rights.append(right)
        return len(lefts) - 1

    def run(letter):
        total = power = letter
        for _ in range(60):
            power = pair(power, power)
            total = pair(total, power)
        return total

    a, b = run(1), run(2)
    x, y = pair(a, b), pair(b, a)
    pair(x, y)
    return SlpGrammar(lefts, rights)


def comb_text(teeth):
    return b"".join(b"b" + b"a" * k for k in range(1, teeth + 1))


def doubling_doc(rules):
    """Rule k derives 2^(k-1) a's, so the text is 2^(rules-1) bytes."""
    return "1 T 97\n" + "".join(f"{k} N {k - 1} {k - 1}\n" for k in range(2, rules + 1))


def periodic_grammar(base, doublings):
    """``build_chain(base)`` under ``doublings`` rules that each pair the
    previous root with itself: the text is ``base * 2**doublings``."""
    g = build_chain(base)
    lefts, rights = list(g.lefts), list(g.rights)
    for root in range(g.n, g.n + doublings):
        lefts.append(root)
        rights.append(root)
    return SlpGrammar(lefts, rights)


@pytest.fixture
def g7():
    return parse_slp(G7_DOC)


@pytest.fixture
def g7_metrics(g7):
    return compute_metrics(g7)


def _sample_grammars():
    samples = [
        ("g7", parse_slp(G7_DOC)),
        ("single", parse_slp("1 T 97\n")),
        ("chain-miss", build_chain(b"mississippi")),
        ("chain-a4", build_chain(b"aaaa")),
        ("repair-abra", build_repair(b"abracadabra" * 20)),
        ("repair-ab", build_repair(b"ab" * 50)),
        ("repair-bin", build_repair(bytes(range(8)) * 9 + b"\x00\xff" * 7)),
    ]
    for seed in range(6):
        samples.append((f"random-{seed}", build_random(30, 3, seed)))
    for seed in range(4):
        samples.append((f"random-big-{seed}", build_random(70, 3, 100 + seed)))
    return samples


@pytest.fixture(scope="session")
def sample_grammars():
    return _sample_grammars()
