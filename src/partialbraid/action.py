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

import functools

from . import diagram, freegroup
from .freegroup import FreeWord, ResourceLimitError
from .words import EPSILON, SIGMA, SIGMA_INV, Letter, Word, _Frozen

Images = tuple[FreeWord | None, ...]


class PartialEndo(_Frozen):
    """A partial endomorphism x_i -> w_i^-1 x_{a(i)} w_i of a free group.

    images[i-1] is the reduced image of x_i, or None outside the domain.
    The index map a is injective and conjugators only use codomain
    generators; validate() checks all of that.
    """

    __slots__ = ("n", "images")

    def __init__(self, n: int, images: Images):
        if len(images) != n:
            raise ValueError(f"expected {n} images, got {len(images)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)

    @staticmethod
    def identity(n: int) -> PartialEndo:
        return PartialEndo(n, _identity_images(n))

    def index_map(self) -> tuple[int | None, ...]:
        """The partial injection i -> a(i), read from the image cores."""
        return tuple(
            img[len(img) // 2] if img is not None else None for img in self.images
        )

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


def _identity_images(n: int) -> Images:
    return tuple((i,) for i in range(1, n + 1))


@functools.lru_cache(maxsize=None)
def _letter_images(kind: str, index: int, n: int) -> Images:
    base: list[FreeWord | None] = [(i,) for i in range(1, n + 1)]
    i = index
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
    if not letter.fits(n):
        raise ValueError(f"letter {letter.token()} out of range for n={n}")
    return PartialEndo(n, _letter_images(letter.kind, letter.index, n))


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
    images = _identity_images(w.n)
    try:
        for position, letter in enumerate(w.letters, 1):
            images = _compose_images(
                images, _letter_images(letter.kind, letter.index, w.n), max_letters
            )
            if all(img is None for img in images):
                break  # the empty braid absorbs everything after it
    except ResourceLimitError as exc:
        exc.position, exc.token = position, letter.token()
        raise
    return PartialEndo(w.n, images)


def equal_action(
    w1: Word, w2: Word, max_letters: int = freegroup.MAX_LETTERS
) -> bool:
    """Word-problem test: do the two words act identically?"""
    if w1.n != w2.n:
        raise ValueError(f"strand-count mismatch: {w1.n} vs {w2.n}")
    return evaluate(w1, max_letters).images == evaluate(w2, max_letters).images


def tau(
    w: Word, max_letters: int = freegroup.MAX_LETTERS
) -> diagram.PartialInjection:
    """Project a word to the partial injection it induces on strand endpoints."""
    return diagram.PartialInjection(w.n, evaluate(w, max_letters).index_map())
