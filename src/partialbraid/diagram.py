"""Strand-level geometry: partial injections, skeletons, strand deletion
and the abelian invariant.

A word is simulated top to bottom as a diagram with live and empty
positions.  A crossing over two live positions records a crossing of the
underlying braid, over a single live position it just relocates that
strand, and a deletion letter removes the live strand at its position
together with every crossing it was involved in.
"""

from __future__ import annotations

from .words import (
    EPSILON, SIGMA, SIGMA_INV, XI, Word, _Frozen, epsilon, sigma, sigma_inv
)


class Skeleton(_Frozen):
    """(domain, codomain, underlying braid) of a partial braid.

    domain lists the surviving strands by start position, codomain their
    end positions, both ascending; braid is a crossing-only word on
    k = len(domain) strands, indexed by rank among the survivors.  With n
    they determine the element; mapping reads its strand map off them.
    """

    __slots__ = ("n", "domain", "codomain", "braid")

    def __init__(self, n: int, domain: tuple, codomain: tuple, braid: Word):
        domain, codomain = tuple(domain), tuple(codomain)
        _check_strand_sets(n, domain, codomain)
        if braid.n != len(domain):
            raise ValueError("underlying braid has the wrong strand count")
        if any(x.kind not in (SIGMA, SIGMA_INV) for x in set(braid.letters)):
            raise ValueError("underlying braid must be crossing-only")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "braid", braid)

    @property
    def mapping(self) -> tuple:
        """The strand map: mapping[s-1] is where the strand starting at s
        ends, or None if it is deleted, read off the survivors' braid."""
        starts = [self.domain[r - 1] for r in _occupants(self.braid)]
        end = dict(zip(starts, self.codomain))
        return tuple(end.get(s) for s in range(1, self.n + 1))

    def __str__(self) -> str:
        dom = ",".join(str(i) for i in self.domain)
        cod = ",".join(str(j) for j in self.codomain)
        return f"I={{{dom}}} J={{{cod}}} braid={self.braid}"


def _check_strand_sets(n: int, domain: tuple, codomain: tuple) -> None:
    """Refuse unequal sizes, then a side not strictly ascending in 1..n."""
    if len(domain) != len(codomain):
        raise ValueError("domain and codomain sizes differ")
    if any(a >= b for s in (domain, codomain) for a, b in zip((0,) + s, s + (n + 1,))):
        raise ValueError(f"domain and codomain must ascend strictly in 1..{n}")


def _crossing_word(k: int, signed: list[int]) -> Word:
    up = [None] + [sigma(i) for i in range(1, k)]
    down = [None] + [sigma_inv(i) for i in range(1, k)]
    return Word(k, tuple(up[x] if x > 0 else down[-x] for x in signed))


class PartialInjection(_Frozen):
    """A partial injection of {1..n}; mapping[i-1] is the target of i or None."""

    __slots__ = ("n", "mapping")

    def __init__(self, n: int, mapping: tuple[int | None, ...]):
        mapping = tuple(mapping)
        if len(mapping) != n:
            raise ValueError(f"expected {n} entries, got {len(mapping)}")
        targets = [j for j in mapping if j is not None]
        if any(not 1 <= j <= n for j in targets):
            raise ValueError("targets out of range")
        if len(set(targets)) != len(targets):
            raise ValueError("mapping is not injective")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mapping", mapping)

    @staticmethod
    def identity(n: int) -> PartialInjection:
        return PartialInjection(n, tuple(range(1, n + 1)))

    def inverse(self) -> PartialInjection:
        inv: list[int | None] = [None] * self.n
        for i, j in enumerate(self.mapping, 1):
            if j is not None:
                inv[j - 1] = i
        return PartialInjection(self.n, tuple(inv))

    def domain(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.mapping, 1) if j is not None)

    def __str__(self) -> str:
        pairs = ", ".join(
            f"{i}->{j}" for i, j in enumerate(self.mapping, 1) if j is not None
        )
        return "{" + pairs + "}"


def compose_injection(p: PartialInjection, q: PartialInjection) -> PartialInjection:
    """Composite in word order: i -> q(p(i)) where the chain is defined."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    mapping = tuple(
        q.mapping[j - 1] if j is not None else None for j in p.mapping
    )
    return PartialInjection(p.n, mapping)


def _occupants(w: Word) -> list[int | None]:
    """First pass: the start strand ending at each position, None where
    the position ends empty.  Equal lists mean equal partial injections.
    Every word has one: a crossing and a welded swap alike exchange the
    occupants of their two positions."""
    occupant: list[int | None] = list(range(1, w.n + 1))
    for letter in w.letters:
        p = letter.index - 1
        if letter.kind == EPSILON:
            occupant[p] = None
        else:
            occupant[p], occupant[p + 1] = occupant[p + 1], occupant[p]
    return occupant


def _kept_strands(occupant: list[int | None]) -> tuple:
    """(domain, codomain): the surviving start strands and their ends."""
    codomain = tuple(p for p, s in enumerate(occupant, 1) if s is not None)
    return tuple(sorted(filter(None, occupant))), codomain


def _replay(w: Word, occupant: list[int | None]) -> list[int]:
    """Second pass: the survivors' crossings as signed ranks.

    The strands named in occupant, the first pass of w, start at their
    positions and the rest start empty: rank[p] is the rank among the
    survivors of the one at position p, or 0 where p is empty.  The word
    is replayed with only those survivors placed, so a crossing or swap
    with an empty position is a plain move that carries the rank to the
    empty side, and a crossing of two survivors reads its rank at p,
    negated for an inverse crossing.  Ranks by position never change at a
    crossing, so the two keep theirs.  A welded swap of two survivors
    raises: it has no survivor braid.
    """
    rank = [0] * w.n
    for r, strand in enumerate(sorted(filter(None, occupant)), 1):
        rank[strand - 1] = r
    braid: list[int] = []
    for letter in w.letters:
        kind = letter.kind
        if kind == EPSILON:
            continue
        p = letter.index - 1
        a, b = rank[p], rank[p + 1]
        if a and b:
            if kind == XI:
                raise ValueError("skeletons are not defined for xi letters")
            braid.append(a if kind == SIGMA else -a)
        else:
            rank[p], rank[p + 1] = b, a
    return braid


def _exponent_sum(ranks: list[int] | tuple[int, ...]) -> int:
    """Crossings minus inverse crossings of a signed-rank braid."""
    return len(ranks) - 2 * sum(r < 0 for r in ranks)


def evaluate_skeleton(w: Word) -> Skeleton:
    """Track strands through w and return its skeleton.

    Two passes, O(len(w) + n): _occupants follows the occupant of every
    position to find the survivors and where each one ends, and _replay
    replays the word with only the survivors placed to read off the
    underlying braid.  Raises ValueError on a welded (xi) swap of two
    survivors, from the second pass.
    """
    occupant = _occupants(w)
    domain, codomain = _kept_strands(occupant)
    braid = _crossing_word(len(domain), _replay(w, occupant))
    return Skeleton(w.n, domain, codomain, braid)


def delete_strand(braid: Word, start_pos: int) -> Word:
    """Remove the strand starting at start_pos from a crossing-only word:
    the survivor braid of epsilon_{start_pos} followed by the word, which
    drops that strand's crossings and reindexes the rest among the others.
    """
    m = braid.n
    if any(letter.kind not in (SIGMA, SIGMA_INV) for letter in braid):
        raise ValueError("delete_strand expects a crossing-only word")
    if not 1 <= start_pos <= m:
        raise ValueError(f"start position {start_pos} out of range for {m} strands")
    word = Word(m, (epsilon(start_pos),) + braid.letters)
    return _crossing_word(m - 1, _replay(word, _occupants(word)))


GROUP_CLASS = "group"
EPSILON_CLASS = "epsilon"


class AbelianClass(_Frozen):
    """Image in the commutative quotient: an exponent sum for honest braids,
    one absorbing class for anything with a deleted strand."""

    __slots__ = ("kind", "exponent_sum")

    def __init__(self, kind: str, exponent_sum: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "exponent_sum", exponent_sum)


def abelian_invariant(w: Word) -> AbelianClass:
    """Commutative-quotient invariant of a word with an e letter or no t.

    Crossings and swaps only move strands, so a word deletes a strand
    exactly when it has an e letter; a deletion absorbs swaps as it absorbs
    crossings (ibp-mixed's eps-xi slide and pair relations, with e e = e).
    With neither, the class is the exponent sum of the survivor braid.
    """
    kinds = w.kinds()
    if EPSILON in kinds:
        return AbelianClass(EPSILON_CLASS)
    if XI in kinds:
        raise ValueError("abelian invariant is not defined for xi letters")
    return AbelianClass(GROUP_CLASS, _exponent_sum(_replay(w, _occupants(w))))
