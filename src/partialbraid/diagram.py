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
    k = len(domain) strands, indexed by rank among the survivors.
    mapping[s-1] is the end position of the strand starting at s, or None
    when it is deleted: the partial injection the word induces.
    """

    __slots__ = ("n", "domain", "codomain", "braid", "mapping")

    def __init__(
        self, n: int, domain: tuple, codomain: tuple, braid: Word, mapping: tuple
    ):
        if len(domain) != len(codomain):
            raise ValueError("domain and codomain sizes differ")
        if len(mapping) != n:
            raise ValueError("strand map has the wrong length")
        if braid.n != len(domain):
            raise ValueError("underlying braid has the wrong strand count")
        if any(x.kind not in (SIGMA, SIGMA_INV) for x in set(braid.letters)):
            raise ValueError("underlying braid must be crossing-only")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "braid", braid)
        object.__setattr__(self, "mapping", mapping)

    def __str__(self) -> str:
        dom = ",".join(str(i) for i in self.domain)
        cod = ",".join(str(j) for j in self.codomain)
        return f"I={{{dom}}} J={{{cod}}} braid={self.braid}"


def _crossing_word(k: int, signed: list[int]) -> Word:
    up = [None] + [sigma(i) for i in range(1, k)]
    down = [None] + [sigma_inv(i) for i in range(1, k)]
    return Word(k, tuple(up[x] if x > 0 else down[-x] for x in signed))


class PartialInjection(_Frozen):
    """A partial injection of {1..n}; mapping[i-1] is the target of i or None."""

    __slots__ = ("n", "mapping")

    def __init__(self, n: int, mapping: tuple[int | None, ...]):
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

    def is_total(self) -> bool:
        return all(j is not None for j in self.mapping)

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


def _strand_map(occupant: list[int | None]) -> tuple:
    """(mapping, domain, codomain) of the partial injection whose occupant
    list is occupant, read off the first pass without touching the word:
    the occupant list maps end positions to start strands, and the strand
    map that skeletons and canonical forms report is its inverse."""
    ends = PartialInjection(len(occupant), tuple(occupant))
    starts = ends.inverse()
    return starts.mapping, starts.domain(), ends.domain()


def _replay(w: Word, occupant: list[int | None]) -> list[int]:
    """Second pass: the survivors' crossings as signed ranks.

    The strands named in occupant, the first pass of w, start live and
    the rest start empty.  The word is replayed with only those survivors
    placed, so a crossing with a strand deleted later is a plain move, and
    a crossing of two survivors gets its rank from above[p], the number of
    survivors at positions before p, negated for an inverse crossing.
    A welded swap raises wherever it stands: it has no survivor braid.
    """
    n = w.n
    live = [False] * n
    for strand in occupant:
        if strand is not None:
            live[strand - 1] = True
    above = [0] * n
    for p in range(1, n):
        above[p] = above[p - 1] + live[p - 1]
    braid: list[int] = []
    for letter in w.letters:
        kind = letter.kind
        if kind == EPSILON:
            continue
        if kind == XI:
            raise ValueError("skeletons are not defined for xi letters")
        p = letter.index - 1
        a, b = live[p], live[p + 1]
        if a and b:
            rank = above[p] + 1
            braid.append(rank if kind == SIGMA else -rank)
        elif a:
            live[p], live[p + 1] = False, True
            above[p + 1] -= 1
        elif b:
            live[p], live[p + 1] = True, False
            above[p + 1] += 1
    return braid


def evaluate_skeleton(w: Word) -> Skeleton:
    """Track strands through w and return its skeleton.

    Two passes, O(len(w) + n): _occupants follows the occupant of every
    position to find the survivors and where each one ends, from which
    _strand_map reads the strand map, and _replay replays the word with
    only the survivors placed to read off the underlying braid.  Raises
    ValueError on welded (xi) letters, from the second pass.
    """
    occupant = _occupants(w)
    mapping, domain, codomain = _strand_map(occupant)
    braid = _crossing_word(len(domain), _replay(w, occupant))
    return Skeleton(w.n, domain, codomain, braid, mapping)


def delete_strand(braid: Word, start_pos: int) -> Word:
    """Remove the strand starting at start_pos from a crossing-only word.

    This is the underlying braid of epsilon_{start_pos} followed by the
    word: crossings involving that strand are dropped, the rest are
    reindexed among the surviving strands.
    """
    m = braid.n
    if any(letter.kind not in (SIGMA, SIGMA_INV) for letter in braid):
        raise ValueError("delete_strand expects a crossing-only word")
    if not 1 <= start_pos <= m:
        raise ValueError(f"start position {start_pos} out of range for {m} strands")
    return evaluate_skeleton(Word(m, (epsilon(start_pos),) + braid.letters)).braid


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
    """Commutative-quotient invariant of a word without welded letters."""
    kinds = w.kinds()
    if XI in kinds:
        raise ValueError("abelian invariant is not defined for xi letters")
    # crossings only permute strands, so the first deletion always finds a
    # live strand: a word deletes a strand exactly when it has an e letter
    if EPSILON in kinds:
        return AbelianClass(EPSILON_CLASS)
    total = sum(1 for letter in w.letters if letter.kind == SIGMA) - sum(
        1 for letter in w.letters if letter.kind == SIGMA_INV
    )
    return AbelianClass(GROUP_CLASS, total)
