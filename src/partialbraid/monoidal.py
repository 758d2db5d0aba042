"""Monoidal structure: block pairing, braiding checks, factorization, and
the element predicates (centre, Makanin tests).

The pairing places two partial braids side by side; the braiding carries
one block over the other, and conjugation by it swaps paired factors.
Every element also factors as an idempotent (the deletions) times an
honest braid, which is what the decomposition here computes.  Every
predicate that compares two words asks the one equality, _equal, which
picks the engine: equal_nf, or the action for the welded pairs it refuses.
"""

from __future__ import annotations

from .diagram import PartialInjection, _occupants, _replay, evaluate_skeleton
from .freegroup import MAX_LETTERS, ResourceLimitError
from .garside import _deletions_and_spread, _exponent_sum, _rank_nf, equal_nf
from .words import (
    XI,
    Word,
    braiding_word,
    domain_prefix_letters,
    epsilon,
    mirror_inverse,
    shift_word,
    sigma,
)


def mu(a: Word, b: Word) -> Word:
    """Side-by-side pairing: a on the first strands, b shifted past them."""
    n = a.n + b.n
    return Word(n, a.letters + shift_word(b, a.n, n).letters)


def _equal(w1: Word, w2: Word, max_letters: int = MAX_LETTERS) -> bool:
    """Monoid equality: equal_nf answers any pair whose strand maps differ,
    the welded pairs it refuses go to the action, under max_letters, and
    any other refusal is raised.  Only that branch loads the action."""
    try:
        return equal_nf(w1, w2)
    except ValueError:
        if XI not in w1.kinds() and XI not in w2.kinds():
            raise
    from .action import equal_action

    return equal_action(w1, w2, max_letters=max_letters)


def check_naturality(bm: Word, bn: Word) -> bool:
    """Does the braiding carry mu(bm, bn) to mu(bn, bm)?

    In stacking order the paired word runs first and the block braiding
    after it, against the braiding first and the swapped pair below.
    """
    c = braiding_word(bm.n, bn.n)
    return _equal(mu(bm, bn) * c, c * mu(bn, bm))


def factorize(w: Word) -> tuple[Word, Word]:
    """Split w as (idempotent, full braid) with the same action.

    The idempotent deletes exactly the strands w deletes.  The braid part
    conjugates the underlying braid onto the surviving start positions,
    then spreads sorted starts to sorted ends by a positive permutation
    braid whose extension fills the deleted positions in ascending order.
    """
    skel = evaluate_skeleton(w)
    n = w.n
    deletions, spread = _deletions_and_spread(dict(zip(skel.domain, skel.codomain)), n)
    embedded: tuple = ()
    if skel.braid.letters:
        prefix = Word(n, domain_prefix_letters(skel.domain))
        gathered = prefix * Word(n, skel.braid.letters) * mirror_inverse(prefix)
        embedded = gathered.letters
    return Word(n, deletions), Word(n, embedded + spread)


def positive_lift(p: PartialInjection) -> Word:
    """A positive partial permutation braid inducing p.

    Product of the domain-complement idempotent with the positive
    permutation braid of the minimal full extension of p; every pair of
    surviving strands crosses at most once.
    """
    targets = {i: p.mapping[i - 1] for i in p.domain()}
    deletions, spread = _deletions_and_spread(targets, p.n)
    return Word(p.n, deletions + spread)


def is_central(w: Word, max_letters: int = MAX_LETTERS) -> bool:
    """Does w commute with every sigma_i and epsilon_i?

    The strand map answers first, for every word: a central element's
    commutes with each transposition and partial identity, so it deletes
    no strand or all of them, and moves none.  Welded words left are
    decided by the definition, on the action engine under max_letters;
    the swaps t_i are not tried.  The centre of IB_n is the even powers
    of the half-twist and the empty braid, so one replay of a pure braid
    word decides: its exponent sum must be a multiple of n(n-1), that of
    the half-twist squared, and its normal form must have no factors (a
    pure half-twist power is an even one).
    """
    n = w.n
    occupant = _occupants(w)
    if None in occupant:
        return occupant.count(None) == n
    if occupant != list(range(1, n + 1)):
        return False
    if XI in w.kinds():
        return _commutes_with_generators(w, max_letters)
    ranks = _replay(w, occupant)
    if n >= 2 and _exponent_sum(ranks) % (n * (n - 1)):
        return False
    return not _rank_nf(n, ranks).factors


def _commutes_with_generators(w: Word, max_letters: int = MAX_LETTERS) -> bool:
    """The definition: w g == g w for every sigma_i and epsilon_i.  A cap hit
    names the product it was evaluating, w g (word 1) or g w (word 2)."""
    n = w.n
    generators = [Word(n, (sigma(i),)) for i in range(1, n)]
    generators += [Word(n, (epsilon(i),)) for i in range(1, n + 1)]
    for g in generators:
        try:
            if not _equal(w * g, g * w, max_letters):
                return False
        except ResourceLimitError as exc:
            exc.product = f"w {g}" if exc.word == 1 else f"{g} w"
            raise
    return True


def is_i_makanin(w: Word, i: int, max_letters: int = MAX_LETTERS) -> bool:
    """Does deleting strand i from w leave the trivial diagram: e_i w == e_i?

    The strand index is checked before the word.  Welded words are decided
    on the action engine under max_letters; a cap hit names the product
    e_i w, the only one of the two that can grow.
    """
    if not 1 <= i <= w.n:
        raise ValueError(f"strand index {i} out of range for n={w.n}")
    e_i = Word(w.n, (epsilon(i),))
    try:
        return _equal(e_i * w, e_i, max_letters)
    except ResourceLimitError as exc:
        exc.product = f"{e_i} w"
        raise


def is_makanin(w: Word, max_letters: int = MAX_LETTERS) -> bool:
    """True when w is i-Makanin for every strand i."""
    return all(is_i_makanin(w, i, max_letters) for i in range(1, w.n + 1))
