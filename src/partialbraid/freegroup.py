"""Reduced words in a finitely generated free group.

A word is a tuple of nonzero ints: +i is the i-th generator, -i its
inverse.  Every operation returns fully reduced words, so group-element
equality is tuple equality.  Lengths are capped (braid actions can grow
words exponentially); crossing the cap raises ResourceLimitError.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Sequence

FreeWord = tuple[int, ...]

MAX_LETTERS = 10 ** 6


class ResourceLimitError(RuntimeError):
    """A free word outgrew the configured letter cap.

    length is the number of letters the word reached and cap the cap it
    passed.  When the word is a strand's image under a braid word, the
    action fills in where: strand (the start strand whose image grew), then
    position (1-based) and token of the letter being applied, and
    equal_action adds word, which of its two words (1 or 2) it was, and a
    caller comparing two products of one word may add product, say "s1 w".
    The message names each of them that is set.
    """

    def __init__(self, length: int, cap: int):
        super().__init__(length, cap)
        self.length, self.cap = length, cap
        self.strand: int | None = None
        self.position: int | None = None
        self.token: str | None = None
        self.word: int | None = None
        self.product: str | None = None

    def __str__(self) -> str:
        what = "free word" if self.strand is None else f"image of strand {self.strand}"
        text = f"{what} reached {self.length} letters, over the cap of {self.cap}"
        if self.position is not None:
            text = f"letter {self.position} ({self.token}): {text}"
        if self.word is not None:
            product = "" if self.product is None else f" ({self.product})"
            text = f"word {self.word}{product}, {text}"
        return text


def substitute_erasing(
    a: FreeWord,
    images: Sequence[FreeWord | None],
    max_letters: int = MAX_LETTERS,
) -> FreeWord:
    """Replace each letter x_i^e by images[i-1]^e, erasing imageless ones.

    This is the homomorphism sending x_i to images[i-1] when defined and to
    the empty word otherwise; it is how deleted strands drop out of the
    conjugators of surviving ones.
    """
    if 0 in a:
        raise ValueError("free words have no letter 0")
    out: list[int] = []
    for x in a:
        img = images[abs(x) - 1]
        if img is None:
            continue
        if x > 0:
            for y in img:
                if out and out[-1] == -y:
                    out.pop()
                else:
                    out.append(y)
                    if len(out) > max_letters:
                        raise ResourceLimitError(len(out), max_letters)
        else:
            for y in reversed(img):
                if out and out[-1] == y:
                    out.pop()
                else:
                    out.append(-y)
                    if len(out) > max_letters:
                        raise ResourceLimitError(len(out), max_letters)
    return tuple(out)


def reduce(letters: Iterable[int]) -> FreeWord:
    """The letters with every adjacent x, x^-1 pair cancelled, until none
    is left: the reduced word of their product."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def project(a: FreeWord, keep: Container[int]) -> FreeWord:
    """Erase every letter whose generator index is not in keep, then reduce."""
    return reduce(x for x in a if abs(x) in keep)


def conjugate_decompose(a: FreeWord) -> tuple[int, FreeWord] | None:
    """Split a reduced word as w^-1 x_j w, returning (j, w).

    The decomposition with the shortest conjugator is unique; in the
    reduced word it is literal: the core generator sits in the middle and
    the two halves are mirror inverses.  Returns None when a is not a
    conjugate of a positive generator.
    """
    if len(a) % 2 == 0:
        return None
    mid = len(a) // 2
    core = a[mid]
    if core <= 0:
        return None
    for i in range(mid):
        if a[i] != -a[-1 - i]:
            return None
    return core, a[mid + 1:]


def word_str(a: FreeWord) -> str:
    """Display form, e.g. ``x2^-1 x1 x2``; the empty word displays as ``1``."""
    if not a:
        return "1"
    return " ".join(f"x{x}" if x > 0 else f"x{-x}^-1" for x in a)
