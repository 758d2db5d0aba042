"""Seeded input generators, one per workload.

Every workload is a list of cycles; a cycle is a fixed mix of operation
classes (sizes and verbs), and only the letters inside a class depend on
the seed.  A run measures whole cycles, so the mix, and with it the
percentiles, does not move between seeds.  Each operation carries the
expectation the gate checks it against; where the answer needs no engine
it is fixed here by construction.
"""

from __future__ import annotations

import dataclasses
import random

from oracle import (
    Letter,
    mirror,
    partial_relations,
    text,
    track,
    welded_relations,
)

# Letter cap handed to tau and equal_action on oracle-verbs.  At this cap
# a few percent of the operations hit it (ResourceLimitError) at the
# commit the benchmark was written against.
MAX_LETTERS = 10_000

EQ_N = 6
EQ_MAX_LEN = 30
EQ_DELETION_SHARE = 0.08
EQ_PAIRS_PER_FILE = 4000

# (n, length, count) per cycle; one large word per cycle, alternating
# between the wide and the long one, so the 90th percentile falls inside
# the middle block rather than on a class boundary.
CANON_LONG_MIX = [(10, 200, 15), (20, 200, 2), (10, 400, 2)]
CANON_LONG_LARGE = [(40, 200), (10, 800)]

SWEEP_N = 40
SWEEP_CROSSINGS = 2000
SWEEP_SURVIVORS = (3, 4, 5, 6)

TAU_N = 6
TAU_LENGTHS = (20, 26, 32, 38, 44, 50, 55, 60)


@dataclasses.dataclass
class Op:
    """One operation: a verb, its words as text, and what the gate expects.

    expected is the verdict fixed by construction (eq and weq), or None
    when the gate derives it from the words (canon, tau, central, makanin).
    """

    verb: str
    n: int
    words: list[str]
    letters: list[list[Letter]]
    expected: bool | None = None


def _crossing(rng: random.Random, n: int) -> Letter:
    return (rng.choice("sS"), rng.randint(1, n - 1))


def crossing_word(rng: random.Random, n: int, length: int) -> list[Letter]:
    return [_crossing(rng, n) for _ in range(length)]


def partial_word(rng: random.Random, n: int, length: int) -> list[Letter]:
    return [
        ("e", rng.randint(1, n))
        if rng.random() < EQ_DELETION_SHARE
        else _crossing(rng, n)
        for _ in range(length)
    ]


def welded_word(rng: random.Random, n: int, length: int) -> list[Letter]:
    return [
        ("t", rng.randint(1, n - 1)) if rng.random() < 0.4 else _crossing(rng, n)
        for _ in range(length)
    ]


def _op(verb: str, n: int, words: list[list[Letter]], expected=None) -> Op:
    return Op(verb, n, [text(w) for w in words], words, expected)


def rewrite_pair(rng, n, relations, word, max_len):
    """Two words equal by relation rewriting: random chunks joined by the
    two sides of randomly chosen relations, oriented at random."""
    while True:
        left: list[Letter] = []
        right: list[Letter] = []
        for _ in range(rng.randint(1, 3)):
            chunk = word(rng, n, rng.randint(0, 6))
            lhs, rhs = rng.choice(relations)
            if rng.random() < 0.5:
                lhs, rhs = rhs, lhs
            left += chunk + lhs
            right += chunk + rhs
        tail = word(rng, n, rng.randint(0, 6))
        left += tail
        right += tail
        if len(left) <= max_len and len(right) <= max_len:
            return left, right


def distinct_pair(rng, n, word, lengths):
    """Two words whose strand data differ, so they are unequal."""
    while True:
        w1 = word(rng, n, rng.randint(*lengths))
        w2 = word(rng, n, rng.randint(*lengths))
        if track(n, w1).invariant() != track(n, w2).invariant():
            return w1, w2


def eq_pairs(rng: random.Random, count: int) -> list[Op]:
    """eq-batch: half equal by rewriting, half unequal by strand data."""
    relations = partial_relations(EQ_N)
    ops = []
    for k in range(count):
        if k % 2 == 0:
            pair = rewrite_pair(rng, EQ_N, relations, partial_word, EQ_MAX_LEN)
            ops.append(_op("eq", EQ_N, list(pair), True))
        else:
            pair = distinct_pair(rng, EQ_N, partial_word, (0, EQ_MAX_LEN))
            ops.append(_op("eq", EQ_N, list(pair), False))
    return ops


def canon_long_cycle(rng: random.Random, index: int) -> list[Op]:
    sizes = [(n, length) for n, length, count in CANON_LONG_MIX for _ in range(count)]
    sizes.append(CANON_LONG_LARGE[index % len(CANON_LONG_LARGE)])
    rng.shuffle(sizes)
    return [_op("canon", n, [crossing_word(rng, n, length)]) for n, length in sizes]


def deletion_sweep_cycle(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for survivors in SWEEP_SURVIVORS:
        braid = crossing_word(rng, SWEEP_N, SWEEP_CROSSINGS)
        deleted = rng.sample(range(1, SWEEP_N + 1), SWEEP_N - survivors)
        ops.append(_op("canon", SWEEP_N, [braid + [("e", p) for p in deleted]]))
    return ops


def _commutator(a: list[Letter], b: list[Letter]) -> list[Letter]:
    return a + b + mirror(a) + mirror(b)


def brunnian(n: int) -> list[Letter]:
    """Nested commutator of the pure generators A_{12}, A_{23}, ...: it
    becomes trivial when any one strand is deleted (a Makanin braid)."""
    word = [("s", 1), ("s", 1)]
    for i in range(2, n):
        word = _commutator(word, [("s", i), ("s", i)])
    return word


def half_twist_square(n: int) -> list[Letter]:
    twist = [("s", i) for t in range(n - 1, 0, -1) for i in range(1, t + 1)]
    return twist + twist


def oracle_cycle(rng: random.Random, index: int) -> list[Op]:
    ops = [_op("tau", TAU_N, [crossing_word(rng, TAU_N, length)]) for length in TAU_LENGTHS]
    # is_central: a conjugate of the half-twist square (central) and a
    # random word (not central)
    n = 4 + index % 2
    u = crossing_word(rng, n, rng.randint(4, 8))
    ops.append(_op("central", n, [u + half_twist_square(n) + mirror(u)]))
    ops.append(_op("central", n, [crossing_word(rng, n, rng.randint(20, 30))]))
    # is_makanin: a conjugated Brunnian braid and two random words
    n = 3 + index % 3
    u = crossing_word(rng, n, rng.randint(2, 4 if n == 5 else 8))
    ops.append(_op("makanin", n, [u + brunnian(n) + mirror(u)]))
    for _ in range(2):
        n = rng.randint(3, 6)
        ops.append(_op("makanin", n, [crossing_word(rng, n, rng.randint(20, 60))]))
    # equal_action on welded pairs, which only the action engine decides
    n = rng.randint(4, 6)
    relations = welded_relations(n)
    ops.append(_op("weq", n, list(rewrite_pair(rng, n, relations, welded_word, 40)), True))
    for _ in range(2):
        n = rng.randint(4, 6)
        ops.append(_op("weq", n, list(distinct_pair(rng, n, welded_word, (20, 40))), False))
    rng.shuffle(ops)
    return ops


CYCLES = {
    "canon-long": canon_long_cycle,
    "deletion-sweep": deletion_sweep_cycle,
    "oracle-verbs": oracle_cycle,
}


def cycles(workload: str, seed: int, count: int) -> list[list[Op]]:
    """count cycles of an in-process workload, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    return [CYCLES[workload](rng, index) for index in range(count)]


def batch_files(seed: int, files: int, pairs: int) -> list[list[Op]]:
    """eq-batch inputs: files of pairs, from the seed alone."""
    rng = random.Random(f"eq-batch:{seed}")
    return [eq_pairs(rng, pairs) for _ in range(files)]
