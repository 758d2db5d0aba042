"""Engine-free facts about partial braid words, for the benchmark's gate.

Letters are pairs (kind, index): kind "s" is sigma_i, "S" its inverse,
"e" the deletion epsilon_i and "t" the welded swap xi_i.  Nothing here
imports the package under test: strands are followed position by
position, the way a diagram is drawn, and the relation tables are the
defining relations of the presentations, written out again.
"""

from __future__ import annotations

import dataclasses

Letter = tuple[str, int]


def token(letter: Letter) -> str:
    kind, i = letter
    if kind == "s":
        return f"s{i}"
    if kind == "S":
        return f"s{i}^-1"
    return f"{kind}{i}"


def text(letters: list[Letter]) -> str:
    return " ".join(token(letter) for letter in letters)


_MIRROR = {"s": "S", "S": "s", "t": "t", "e": "e"}


def mirror(letters: list[Letter]) -> list[Letter]:
    """The reversed word with every crossing inverted (a group inverse for
    words without deletions)."""
    return [(_MIRROR[kind], i) for kind, i in reversed(letters)]


@dataclasses.dataclass(frozen=True)
class Strands:
    """Where the strands of a word go.

    domain and codomain are the survivors' start and end positions, both
    ascending; perm[t] is the rank among the end positions of the strand
    with the t-th start position; signed_crossings is the exponent sum of
    the crossings between two survivors.
    """

    n: int
    domain: tuple[int, ...]
    codomain: tuple[int, ...]
    perm: tuple[int, ...]
    signed_crossings: int

    def mapping(self) -> tuple[int | None, ...]:
        """The partial injection of positions: start -> end, None if deleted."""
        out: list[int | None] = [None] * self.n
        for t, start in enumerate(self.domain):
            out[start - 1] = self.codomain[self.perm[t]]
        return tuple(out)

    def invariant(self) -> tuple:
        """Data that equal words share, so a difference proves inequality."""
        return self.domain, self.codomain, self.perm, self.signed_crossings


def track(n: int, letters: list[Letter]) -> Strands:
    """Follow every strand through the word, top to bottom."""
    at: list[int | None] = list(range(1, n + 1))  # strand id = start position
    crossings: list[tuple[int, int, int]] = []
    for kind, i in letters:
        p = i - 1
        if kind == "e":
            at[p] = None
            continue
        if kind in ("s", "S"):
            if at[p] is not None and at[p + 1] is not None:
                crossings.append((at[p], at[p + 1], 1 if kind == "s" else -1))
        at[p], at[p + 1] = at[p + 1], at[p]
    end = {strand: q + 1 for q, strand in enumerate(at) if strand is not None}
    domain = tuple(sorted(end))
    codomain = tuple(sorted(end.values()))
    rank = {q: r for r, q in enumerate(codomain)}
    perm = tuple(rank[end[start]] for start in domain)
    signed = sum(
        sign for a, b, sign in crossings if a in end and b in end
    )
    return Strands(n, domain, codomain, perm, signed)


def inversions(p) -> int:
    return sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )


def nf_perm(k: int, inf: int, factors) -> tuple[int, ...]:
    """Permutation of half-twist^inf followed by the factors, diagram order."""
    p = list(range(k - 1, -1, -1)) if inf % 2 else list(range(k))
    for f in factors:
        p = [f[v] for v in p]
    return tuple(p)


def nf_crossings(k: int, inf: int, factors) -> int:
    """Exponent sum of half-twist^inf times positive factors."""
    return inf * k * (k - 1) // 2 + sum(inversions(f) for f in factors)


def braid_relations(n: int) -> list[tuple[list[Letter], list[Letter]]]:
    """Artin relations and the unit relations of the braid group B_n."""
    rels = []
    for i in range(1, n):
        rels.append(([("s", i), ("S", i)], []))
        rels.append(([("S", i), ("s", i)], []))
        if i + 1 < n:
            rels.append((
                [("s", i), ("s", i + 1), ("s", i)],
                [("s", i + 1), ("s", i), ("s", i + 1)],
            ))
        for j in range(i + 2, n):
            rels.append(([("s", i), ("s", j)], [("s", j), ("s", i)]))
    return rels


def partial_relations(n: int) -> list[tuple[list[Letter], list[Letter]]]:
    """Defining relations of IB_n with one deletion letter per strand."""
    rels = braid_relations(n)
    for j in range(1, n + 1):
        rels.append(([("e", j)], [("e", j), ("e", j)]))
        for i in range(1, n):
            if abs(j - i) > 1:
                rels.append(([("e", j), ("s", i)], [("s", i), ("e", j)]))
    for i in range(1, n):
        rels.append(([("e", i), ("s", i)], [("s", i), ("e", i + 1)]))
        rels.append(([("e", i + 1), ("s", i)], [("s", i), ("e", i)]))
        rels.append(([("e", i + 1), ("s", i), ("s", i)], [("e", i + 1)]))
        rels.append(([("e", i), ("e", i + 1), ("s", i)], [("e", i), ("e", i + 1)]))
    return rels


def welded_relations(n: int) -> list[tuple[list[Letter], list[Letter]]]:
    """Braid relations plus the welded ones: xi involutions, xi braid
    relations and the mixed commutation and slide relations."""
    rels = braid_relations(n)
    for i in range(1, n):
        rels.append(([("t", i), ("t", i)], []))
        for j in range(i + 2, n):
            rels.append(([("t", i), ("t", j)], [("t", j), ("t", i)]))
            rels.append(([("s", i), ("t", j)], [("t", j), ("s", i)]))
            rels.append(([("t", i), ("s", j)], [("s", j), ("t", i)]))
        if i + 1 < n:
            rels.append((
                [("t", i), ("t", i + 1), ("t", i)],
                [("t", i + 1), ("t", i), ("t", i + 1)],
            ))
            rels.append((
                [("t", i), ("t", i + 1), ("s", i)],
                [("s", i + 1), ("t", i), ("t", i + 1)],
            ))
    return rels
