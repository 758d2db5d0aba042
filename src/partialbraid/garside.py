"""Positive braid combinatorics and Garside left normal forms.

Permutations are one-line tuples (0-based internally, so p[i] is where
position i+1 lands, minus one) composed in diagram order: the left factor
acts first.  A positive permutation braid is stored as the permutation it
induces; a braid word normalizes to a power of the half-twist followed by
a left-greedy sequence of permutation-braid factors, and a general word
normalizes to that data together with its surviving strands.

The greedy condition for an adjacent factor pair (A, B) is that every
crossing that could start B already finishes A; sliding violating
crossings leftward terminates and the resulting form is unique, which is
what makes structural equality of canonical forms a word-problem solver.
"""

from __future__ import annotations

from .diagram import PartialInjection, _check_strand_sets, _exponent_sum
from .diagram import _kept_strands, _occupants, _replay
from .freegroup import reduce
from .words import (
    SIGMA,
    SIGMA_INV,
    Word,
    _Frozen,
    _check_strand_count,
    delta_word,
    domain_prefix_letters,
    epsilon,
    mirror_inverse,
    sigma,
)

Perm = tuple[int, ...]


def identity_perm(k: int) -> Perm:
    return tuple(range(k))


def longest_perm(k: int) -> Perm:
    """The order reversal: the permutation of the half-twist."""
    return tuple(range(k - 1, -1, -1))


def invert_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _positive_word(w: Word) -> Word:
    """w, refusing any letter but a positive crossing."""
    if any(letter.kind != SIGMA for letter in w.letters):
        raise ValueError("word_to_perm expects positive crossings only")
    return w


def word_to_perm(w: Word) -> Perm:
    """Permutation of a positive crossing-only word on its w.n strands."""
    # the start strand ending at each position is the inverse permutation
    return invert_perm(tuple(s - 1 for s in _occupants(_positive_word(w))))


def perm_to_word(p: Perm, n: int | None = None) -> Word:
    """A reduced positive word inducing p; its length is the inversion count.

    The start strands in end order are insertion-sorted, each sunk into
    place by adjacent swaps; the swaps, last first, are the crossings.
    """
    k = len(p)
    if sorted(p) != list(range(k)):
        raise ValueError(f"{p} is not a permutation of 0..{k - 1}")
    if n is None:
        n = k
    apos = list(invert_perm(p))
    swaps: list[int] = []
    for j in range(1, k):
        g = j - 1
        while g >= 0 and apos[g] > apos[g + 1]:
            apos[g], apos[g + 1] = apos[g + 1], apos[g]
            swaps.append(g)
            g -= 1
    return Word(n, tuple(sigma(g + 1) for g in reversed(swaps)))


def _deletions_and_spread(p: PartialInjection) -> tuple:
    """Letters of the idempotent deleting every strand outside p's domain,
    and of the positive permutation braid carrying each kept strand to its
    target, with the deleted positions filled in ascending order."""
    deletions = tuple(epsilon(i) for i, j in enumerate(p.mapping, 1) if j is None)
    used = set(p.mapping)
    spare = iter(j for j in range(1, p.n + 1) if j not in used)
    images = tuple((next(spare) if j is None else j) - 1 for j in p.mapping)
    return deletions, perm_to_word(images, p.n).letters


def is_permutation_braid(w: Word) -> bool:
    """Does every pair of strands cross at most once in w?  Refuses what
    word_to_perm refuses, in its words."""
    return _crossing_once(w.n, tuple(x.index for x in _positive_word(w))) is not None


def _left_weight_pair(a: Perm, b: Perm, k: int) -> tuple[Perm, Perm, bool]:
    """Slide crossings from the front of b to the back of a until greedy."""
    ainv = list(invert_perm(a))
    bb = list(b)
    moved = False
    while True:
        for g in range(k - 1):
            if bb[g] > bb[g + 1] and ainv[g] < ainv[g + 1]:
                break
        else:
            break
        ainv[g], ainv[g + 1] = ainv[g + 1], ainv[g]
        bb[g], bb[g + 1] = bb[g + 1], bb[g]
        moved = True
    if not moved:
        return a, b, False
    return invert_perm(tuple(ainv)), tuple(bb), True


def left_weighted(a: Perm, b: Perm) -> bool:
    """No crossing can move from the front of b into a: every crossing that
    could start b already finishes a."""
    return not _left_weight_pair(a, b, len(b))[2]


def _normalize(factors: list[Perm], k: int) -> tuple[int, tuple[Perm, ...]]:
    """Left-weight a factor sequence; returns extracted half-twist power."""
    ident = identity_perm(k)
    half_twist = longest_perm(k)
    fs = [f for f in factors if f != ident]
    i = 0
    while i < len(fs) - 1:
        a, b, moved = _left_weight_pair(fs[i], fs[i + 1], k)
        if not moved:
            i += 1
            continue
        if b == ident:
            fs[i] = a
            del fs[i + 1]
        else:
            fs[i], fs[i + 1] = a, b
        i = max(i - 1, 0)
    power = 0
    while fs and fs[0] == half_twist:
        power += 1
        del fs[0]
    return power, tuple(fs)


class GarsideNF(_Frozen):
    """Left normal form of a braid on k strands: half-twist^inf · factors."""

    __slots__ = ("k", "inf", "factors")

    def __init__(self, k: int, inf: int, factors: tuple[Perm, ...]):
        factors = tuple(map(tuple, factors))
        _check_strand_count(k)
        if k < 2 and inf != 0:
            raise ValueError("the half-twist is trivial below two strands")
        ident = identity_perm(k)
        half_twist = longest_perm(k)
        for a in factors:
            if tuple(sorted(a)) != ident:
                raise ValueError(f"factor {a} is not a permutation of 0..{k - 1}")
            if a == ident or a == half_twist:
                raise ValueError("factors exclude the identity and the half-twist")
        for a, b in zip(factors, factors[1:]):
            if not left_weighted(a, b):
                raise ValueError("factor sequence is not left-greedy")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "inf", inf)
        object.__setattr__(self, "factors", factors)

    def to_word(self, n: int | None = None) -> Word:
        if n is None:
            n = self.k
        if self.k < 2:
            return Word(n)
        twist = delta_word(self.k)
        if self.inf >= 0:
            letters = list(twist.letters * self.inf)
        else:
            letters = list(mirror_inverse(twist).letters * -self.inf)
        for factor in self.factors:
            letters += perm_to_word(factor, n).letters
        return Word(n, tuple(letters))

    def __str__(self) -> str:
        body = ";".join(
            " ".join(str(v + 1) for v in factor) for factor in self.factors
        )
        return f"inf={self.inf} factors=[{body}]"


def _rank_nf(k: int, ranks: list[int] | tuple[int, ...]) -> GarsideNF:
    """Left normal form of the braid on k strands whose crossings are the
    signed ranks: r for sigma_r, -r for its inverse, each in 1..k-1.

    The ranks are freely reduced first, exactly (equal_nf's stage 2); each
    inverse crossing is then half-twist^-1 times the complementary
    permutation braid, and the negative twists migrate to the front,
    conjugating each crossing they pass (sigma_r -> sigma_{k-r}), so a
    rank with an odd number of inverse crossings to its right is remapped
    before its factor is built.  The positive factors are left-weighted.
    """
    half_twist = longest_perm(k)
    total = 0
    factors: list[Perm] = []
    for r in reversed(reduce(ranks)):
        if total % 2:
            r = k - r if r > 0 else -k - r
        if r > 0:
            p = list(range(k))
            p[r - 1], p[r] = p[r], p[r - 1]
        else:
            # half-twist followed by the inverse crossing: swap the values
            # g, g+1 (g = -r-1) in the reversal's one-line form
            p = list(half_twist)
            p[k + r], p[k - 1 + r] = p[k - 1 + r], p[k + r]
            total -= 1
        factors.append(tuple(p))
    factors.reverse()
    extra, normal = _normalize(factors, k)
    return GarsideNF(k, total + extra, normal)


def left_greedy_nf(b: Word, k: int | None = None) -> GarsideNF:
    """Left-greedy normal form of a crossing-only word on k strands."""
    if k is None:
        k = b.n
    ranks: list[int] = []
    for letter in b.letters:
        if letter.kind not in (SIGMA, SIGMA_INV):
            raise ValueError("normal forms expect crossing-only words")
        if letter.index >= k:
            raise ValueError(f"crossing {letter.token()} out of range for k={k}")
        ranks.append(letter.index if letter.kind == SIGMA else -letter.index)
    return _rank_nf(k, ranks)


class CanonicalForm(_Frozen):
    """Unique normal form of a partial braid word.

    Two words are equal in the monoid exactly when their canonical forms
    are structurally identical.
    """

    __slots__ = ("n", "domain", "codomain", "nf")

    def __init__(self, n: int, domain: tuple, codomain: tuple, nf: GarsideNF):
        domain, codomain = tuple(domain), tuple(codomain)
        _check_strand_sets(n, domain, codomain)
        if nf.k != len(domain):
            raise ValueError("normal form has the wrong strand count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "nf", nf)

    def __str__(self) -> str:
        dom = ",".join(str(i) for i in self.domain)
        cod = ",".join(str(j) for j in self.codomain)
        return f"I={{{dom}}} J={{{cod}}} {self.nf}"


def canonical_form(w: Word) -> CanonicalForm:
    """Skeleton of w with its underlying braid put in left normal form by
    _rank_nf, which freely reduces the survivors' crossings first."""
    occupant = _occupants(w)
    domain, codomain = _kept_strands(occupant)
    nf = _rank_nf(len(domain), _replay(w, occupant))
    return CanonicalForm(w.n, domain, codomain, nf)


def equal_nf(w1: Word, w2: Word) -> bool:
    """Word-problem test, each stage run only when the cheaper ones before
    it cannot decide.

    1. Equal elements induce the same partial injection, which also fixes
       domain and codomain: differing strand maps answer False before
       either survivor braid is built, for welded words too.
    2. The braid group is a quotient of the free group on the crossings,
       so survivor braids that freely reduce to the same word answer True.
    3. The exponent sum, a homomorphism B_k -> Z, survives free reduction:
       reduced braids whose sums differ answer False.
    4. Otherwise the reduced braids lose their longest common prefix, then
       their longest common suffix within what the prefix left, and the two
       remaining cores decide (_equal_cores): the survivor braids lie in
       the group B_k, where p u s = p v s exactly when u = v.

    Raises ValueError on a strand-count mismatch, then, when the strand
    maps agree, on an xi letter that swaps two survivors in either word.
    """
    if w1.n != w2.n:
        raise ValueError(f"strand-count mismatch: {w1.n} vs {w2.n}")
    occupant = _occupants(w1)
    if occupant != _occupants(w2):
        return False
    k = w1.n - occupant.count(None)
    r1 = reduce(_replay(w1, occupant))
    r2 = reduce(_replay(w2, occupant))
    if r1 == r2:
        return True
    if _exponent_sum(r1) != _exponent_sum(r2):
        return False
    m = min(len(r1), len(r2))
    i = 0
    while i < m and r1[i] == r2[i]:
        i += 1
    # the suffix scan stops where the prefix ends, so the two never overlap
    j = 0
    while j < m - i and r1[-1 - j] == r2[-1 - j]:
        j += 1
    return _equal_cores(k, r1[i : len(r1) - j], r2[i : len(r2) - j])


def _equal_cores(k: int, c1: tuple[int, ...], c2: tuple[int, ...]) -> bool:
    """Are two signed-rank braids on k strands equal in B_k?

    When every rank of both has one sign and each is a permutation braid,
    their permutations decide: the positive permutation braids are in
    bijection with the permutations (Epstein et al., ch. 9; El-Rifai and
    Morton), and the negative ones are their inverses.  Any other pair is
    decided by the two left normal forms.  (Under equal_nf the strand maps
    already agree, so such cores share their permutation and are equal.)
    """
    both = c1 + c2
    if min(both) > 0 or max(both) < 0:
        p1 = _crossing_once(k, c1)
        if p1 is not None:
            p2 = _crossing_once(k, c2)
            if p2 is not None:
                return p1 == p2
    return _rank_nf(k, c1) == _rank_nf(k, c2)


def _crossing_once(k: int, core: tuple[int, ...]) -> list[int] | None:
    """The strand order left by a one-sign core, or None as soon as two
    strands would cross a second time."""
    p = list(range(k))
    for r in core:
        g = abs(r) - 1
        a, b = p[g], p[g + 1]
        if a > b:
            return None
        p[g], p[g + 1] = b, a
    return p


def reconstruct_word(c: CanonicalForm) -> Word:
    """A word in the ambient alphabet evaluating to the element of c:
    gathering runs, deletion block, the braid, the block again, the
    spreading permutation braid."""
    kept = PartialInjection(c.n, c.codomain + (None,) * (c.n - len(c.codomain)))
    block, spread = _deletions_and_spread(kept)
    letters = (
        domain_prefix_letters(c.domain)
        + block
        + c.nf.to_word(c.n).letters
        + block
        + spread
    )
    return Word(c.n, letters)
