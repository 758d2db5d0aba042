import sys; sys.dont_write_bytecode = True  # keep src/ free of __pycache__
import random

import pytest

from partialbraid.words import (
    EPSILON,
    XI,
    Word,
    epsilon,
    sigma,
    sigma_inv,
    xi,
)


def letter_pool(n, with_xi=False, positive_only=False, no_epsilon=False):
    pool = []
    for i in range(1, n):
        pool.append(sigma(i))
        if not positive_only:
            pool.append(sigma_inv(i))
        if with_xi:
            pool.append(xi(i))
    if not no_epsilon:
        pool.extend(epsilon(i) for i in range(1, n + 1))
    return pool


def random_word(rng, n, max_len, **kwargs):
    pool = letter_pool(n, **kwargs)
    if not pool:
        return Word(n)
    return Word(n, tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len))))


def random_braid_word(rng, n, max_len):
    return random_word(rng, n, max_len, no_epsilon=True)


def random_pure_braid(rng, n, max_len):
    """A braid word inducing the identity permutation."""
    from partialbraid.action import tau
    from partialbraid.garside import invert_perm, perm_to_word

    w = random_braid_word(rng, n, max_len)
    perm = tuple(j - 1 for j in tau(w).mapping)
    return w * perm_to_word(invert_perm(perm), n)


def position_tracking_map(w):
    """Independent strand-endpoint oracle: follow positions letter by letter.

    Knows nothing about free groups, skeleta or permumations beyond moving
    markers around, so it cross-checks every engine's induced injection.
    """
    pos = {s: s for s in range(1, w.n + 1)}
    for letter in w.letters:
        i = letter.index
        if letter.kind == EPSILON:
            for s, p in list(pos.items()):
                if p == i:
                    del pos[s]
        else:
            for s, p in pos.items():
                if p == i:
                    pos[s] = i + 1
                elif p == i + 1:
                    pos[s] = i
    return pos


def has_survivor_swap(w):
    """Does a swap of w meet two strands that survive the whole word?

    Places markers for the survivors only, found by position_tracking_map,
    and moves them letter by letter; no marker ever meets an e letter.
    Such a swap is the one letter a survivor braid cannot record.
    """
    pos = {s: s for s in position_tracking_map(w)}
    for letter in w.letters:
        i = letter.index
        if letter.kind == EPSILON:
            continue
        moved = [s for s, p in pos.items() if p in (i, i + 1)]
        if letter.kind == XI and len(moved) == 2:
            return True
        for s in moved:
            pos[s] = 2 * i + 1 - pos[s]
    return False


@pytest.fixture
def rng():
    return random.Random(0xB5A1D)
