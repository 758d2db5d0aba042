"""Monoidal structure: block pairing, braiding checks, factorization, center.

The pairing places two partial braids side by side; the braiding carries
one block over the other, and conjugation by it swaps paired factors.
Every element also factors as an idempotent (the deletions) times an
honest braid, which is what the decomposition here computes.
"""

from __future__ import annotations

from .action import equal_action
from .diagram import PartialInjection, evaluate_skeleton
from .freegroup import MAX_LETTERS
from .garside import (
    _deletions_and_spread,
    canonical_form,
    domain_prefix_letters,
    equal_nf,
)
from .words import (
    XI,
    Word,
    braiding_word,
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
    """Monoid equality through normal forms.  The welded words they refuse
    go to the action, under max_letters; any other refusal is raised."""
    try:
        return equal_nf(w1, w2)
    except ValueError:
        if XI not in w1.kinds() and XI not in w2.kinds():
            raise
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
    """Does w commute with every generator of its monoid?

    The centre of IB_n is the even powers of the half-twist together with
    the empty braid, so one canonical form decides a word without welded
    letters: an empty domain, or a full one with no factors and an even
    half-twist power.  Welded words are decided by definition, on the
    action engine under max_letters.
    """
    if XI in w.kinds():
        return _commutes_with_generators(w, max_letters)
    form = canonical_form(w)
    nf = form.nf
    return not form.domain or (
        len(form.domain) == w.n and not nf.factors and nf.inf % 2 == 0
    )


def _commutes_with_generators(w: Word, max_letters: int = MAX_LETTERS) -> bool:
    """The definition: w g == g w for every sigma_i and epsilon_i."""
    n = w.n
    generators = [Word(n, (sigma(i),)) for i in range(1, n)]
    generators += [Word(n, (epsilon(i),)) for i in range(1, n + 1)]
    return all(_equal(w * g, g * w, max_letters) for g in generators)
