"""The faithful action of partial braid words on a free group.

Every word acts as a partial endomorphism: each surviving strand's
generator goes to a conjugate of the generator of its endpoint, deleted
strands have no image.  Two words are equal in the monoid exactly when
they act identically, which makes evaluation a word-problem solver.

Values are kept in canonical form: conjugators are words over the
codomain generators only.  Composition follows word order (the earlier
word acts first); when a strand is deleted mid-composition its letters
are erased from the conjugators of the survivors, the way an arc that no
longer reaches both planes is discarded from a diagram.
"""

from __future__ import annotations

from . import diagram, freegroup
from .freegroup import FreeWord, ResourceLimitError
from .words import EPSILON, SIGMA, SIGMA_INV, Letter, Word, _Frozen

Images = tuple[FreeWord | None, ...]

# The fingerprint's field: a Mersenne prime, and 2x2 matrices over it kept
# as (a, b, c, d) for [[a, b], [c, d]].
_PRIME = 2 ** 127 - 1
_ONE = (1, 0, 0, 1)
Matrix = tuple[int, int, int, int]


class PartialEndo(_Frozen):
    """A partial endomorphism x_i -> w_i^-1 x_{a(i)} w_i of a free group.

    images[i-1] is the reduced image of x_i, or None outside the domain.
    The index map a is injective and conjugators only use codomain
    generators; validate() checks all of that.
    """

    __slots__ = ("n", "images")

    def __init__(self, n: int, images: Images):
        images = tuple(images)
        if len(images) != n:
            raise ValueError(f"expected {n} images, got {len(images)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)

    @staticmethod
    def identity(n: int) -> PartialEndo:
        return evaluate(Word(n))

    def validate(self) -> PartialEndo:
        """Check the canonical-form invariants, raising ValueError if broken."""
        cores = []
        for img in self.images:
            if img is None:
                continue
            decomposition = freegroup.conjugate_decompose(img)
            if decomposition is None:
                raise ValueError(
                    f"image {freegroup.word_str(img)} is not a conjugated generator"
                )
            core = decomposition[0]
            if core > self.n:
                raise ValueError(f"image core x{core} out of range for n={self.n}")
            cores.append(core)
        if len(set(cores)) != len(cores):
            raise ValueError("index map is not injective")
        allowed = set(cores)
        for img in self.images:
            if img is None:
                continue
            if any(abs(x) not in allowed for x in img):
                raise ValueError(
                    f"image {freegroup.word_str(img)} uses letters outside the codomain"
                )
        return self

    def __str__(self) -> str:
        lines = []
        for i, img in enumerate(self.images, 1):
            rhs = "_" if img is None else freegroup.word_str(img)
            lines.append(f"x{i} -> {rhs}")
        return "\n".join(lines)


def _letter_images(kind: str, i: int, identity: Images) -> Images:
    """identity with the letter's one or two images replaced."""
    base: list[FreeWord | None] = list(identity)
    if kind == SIGMA:
        base[i - 1] = (i + 1,)
        base[i] = (-(i + 1), i, i + 1)
    elif kind == SIGMA_INV:
        base[i - 1] = (i, i + 1, -i)
        base[i] = (i,)
    elif kind == EPSILON:
        base[i - 1] = None
    else:  # XI
        base[i - 1] = (i + 1,)
        base[i] = (i,)
    return tuple(base)


def letter_endo(letter: Letter, n: int) -> PartialEndo:
    """The action of a single generator letter on n free generators."""
    return evaluate(Word(n, (letter,)))


def _compose_images(first: Images, second: Images, max_letters: int) -> Images:
    mapped: list[FreeWord | None] = []
    try:
        for img in first:
            if img is None:
                mapped.append(None)
                continue
            u = freegroup.substitute_erasing(img, second, max_letters)
            # a surviving strand's image is a conjugate, never empty; an image
            # erased to nothing means the strand just got deleted
            mapped.append(u if u else None)
    except ResourceLimitError as exc:
        exc.strand = len(mapped) + 1
        raise
    if None not in mapped:
        # no strand deleted: with an injective index map the cores are all
        # of 1..n, so projecting the reduced images would erase nothing
        return tuple(mapped)
    cores = frozenset(u[len(u) // 2] for u in mapped if u)
    return tuple(
        freegroup.project(u, cores) if u is not None else None for u in mapped
    )


def compose(
    e1: PartialEndo, e2: PartialEndo, max_letters: int = freegroup.MAX_LETTERS
) -> PartialEndo:
    """Composite in word order: e1 acts first, then e2."""
    if e1.n != e2.n:
        raise ValueError(f"strand-count mismatch: {e1.n} vs {e2.n}")
    return PartialEndo(e1.n, _compose_images(e1.images, e2.images, max_letters))


def evaluate(w: Word, max_letters: int = freegroup.MAX_LETTERS) -> PartialEndo:
    """Fold the letter actions of w left to right.

    A cap hit raises ResourceLimitError naming the letter and the strand.
    """
    images = identity = tuple((i,) for i in range(1, w.n + 1))
    try:
        for position, letter in enumerate(w.letters, 1):
            images = _compose_images(
                images, _letter_images(letter.kind, letter.index, identity), max_letters
            )
            if all(img is None for img in images):
                break  # the empty braid absorbs everything after it
    except ResourceLimitError as exc:
        exc.position, exc.token = position, letter.token()
        raise
    return PartialEndo(w.n, images)


def _mul(x: Matrix, y: Matrix) -> Matrix:
    a, b, c, d = x
    e, f, g, h = y
    p = _PRIME
    return (
        (a * e + b * g) % p, (a * f + b * h) % p,
        (c * e + d * g) % p, (c * f + d * h) % p,
    )


def _inv(x: Matrix) -> Matrix:
    """Inverse of a determinant-one matrix."""
    a, b, c, d = x
    return (d, -b % _PRIME, -c % _PRIME, a)


# The fingerprint's matrices, drawn from one seeded generator: the first n
# serve n strands, so one table grown to the largest n asked for serves
# every n.
_matrices: list[Matrix] = []
_matrix_rng = None


def _generator_matrices(n: int) -> tuple[Matrix, ...]:
    """n matrices of SL(2, Z/p) from a fixed seed, one per free generator."""
    global _matrix_rng
    if len(_matrices) < n:
        if _matrix_rng is None:
            import random  # only the first fingerprint pays for loading it

            _matrix_rng = random.Random(0x1B)
        rng = _matrix_rng
        while len(_matrices) < n:
            a = rng.randrange(1, _PRIME)
            b, c = rng.randrange(_PRIME), rng.randrange(_PRIME)
            _matrices.append((a, b, c, (1 + b * c) * pow(a, -1, _PRIME) % _PRIME))
    return tuple(_matrices[:n])


def _fingerprint(w: Word, matrices: tuple[Matrix, ...]) -> tuple[Matrix | None, ...]:
    """rho of every strand's image under w, or None for a deleted strand,
    where rho sends x_j to matrices[j-1].

    rho is a homomorphism, so different fingerprints prove different
    images.  It is folded right to left, rho_k(x_j) = rho_{k+1}(f_k(x_j))
    for the map f_k of letter k: each letter rewrites at most two matrices
    by at most two products, and no free word is built.  The action erases
    the generators of empty positions after every letter; the fold sends
    the positions left empty by the whole word to the identity, and every
    letter map keeps an empty position's matrix the identity.
    """
    occupant = diagram._occupants(w)
    rho = [_ONE if s is None else m for s, m in zip(occupant, matrices)]
    for letter in reversed(w.letters):
        kind = letter.kind
        i = letter.index - 1
        if kind == SIGMA:
            # x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
            a, b = rho[i], rho[i + 1]
            rho[i], rho[i + 1] = b, _mul(_mul(_inv(b), a), b)
        elif kind == SIGMA_INV:
            # x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i
            a, b = rho[i], rho[i + 1]
            rho[i], rho[i + 1] = _mul(_mul(a, b), _inv(a)), a
        elif kind == EPSILON:
            rho[i] = _ONE
        else:  # XI swaps the two generators
            rho[i], rho[i + 1] = rho[i + 1], rho[i]
    survivors = set(occupant)
    return tuple(m if s in survivors else None for s, m in enumerate(rho, 1))


def equal_action(
    w1: Word, w2: Word, max_letters: int = freegroup.MAX_LETTERS
) -> bool:
    """Word-problem test: do the two words act identically?

    Different fingerprints answer False without building an image; only
    then are both words evaluated, under max_letters, and compared.  A cap
    hit names the word (1 or 2) being evaluated.
    """
    if w1.n != w2.n:
        raise ValueError(f"strand-count mismatch: {w1.n} vs {w2.n}")
    matrices = _generator_matrices(w1.n)
    if _fingerprint(w1, matrices) != _fingerprint(w2, matrices):
        return False
    images = []
    for number, word in enumerate((w1, w2), 1):
        try:
            images.append(evaluate(word, max_letters).images)
        except ResourceLimitError as exc:
            exc.word = number
            raise
    return images[0] == images[1]


def tau(
    w: Word, max_letters: int = freegroup.MAX_LETTERS
) -> diagram.PartialInjection:
    """Project a word to the partial injection it induces on strand endpoints:
    each surviving strand's image core, the middle letter of its image."""
    cores = tuple(
        None if img is None else img[len(img) // 2]
        for img in evaluate(w, max_letters).images
    )
    return diagram.PartialInjection(w.n, cores)
