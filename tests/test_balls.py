"""Exhaustive balls: every word up to a length, grouped two ways.

Canonical forms and free-group action images must split the ball into
the same classes, and every word must be equal_nf to the shortest word of
its class.  The sphere sizes (classes whose shortest word has length l)
pin the count of distinct elements.  is_central must agree with its
definition on every class.

The class graph reaches further: it multiplies one representative of
each class by each generator, so it checks products of representatives,
not every word.
"""

import itertools

import pytest

from conftest import letter_pool
from partialbraid.action import _fingerprint, _generator_matrices, evaluate
from partialbraid.garside import canonical_form, equal_nf
from partialbraid.monoidal import _commutes_with_generators, is_central
from partialbraid.words import Word


@pytest.mark.parametrize(
    "n, spheres",
    [
        (3, [1, 7, 23, 49, 88, 166]),
        (4, [1, 10, 50, 176, 529]),
        (1, [1, 1, 0, 0, 0]),
        (2, [1, 4, 5, 2, 2, 2, 2, 2]),
    ],
)
def test_ball_partitions_agree(n, spheres):
    pool = letter_pool(n)
    rep_of: dict = {}
    image_of: dict = {}
    form_of: dict = {}
    first_length = []
    words = 0
    for length in range(len(spheres)):
        for letters in itertools.product(pool, repeat=length):
            word = Word(n, letters)
            form = canonical_form(word)
            image = evaluate(word).images
            # one image per class, and one class per image
            assert image_of.setdefault(form, image) == image, str(word)
            assert form_of.setdefault(image, form) == form, str(word)
            rep = rep_of.setdefault(form, word)
            if rep is word:
                first_length.append(length)
            else:
                assert equal_nf(word, rep), (str(word), str(rep))
            words += 1
    assert words == sum(len(pool) ** length for length in range(len(spheres)))
    assert [first_length.count(length) for length in range(len(spheres))] == spheres
    # the canonical form decides centrality; the definition agrees on
    # every class
    reps = list(rep_of.values())
    central = [rep for rep in reps if is_central(rep)]
    assert central == [rep for rep in reps if _commutes_with_generators(rep)]
    assert central


def test_welded_ball_partitions_agree():
    # n=3 with welded letters, length <= 4: 7,381 words.  Action images
    # and fingerprints split the ball into the same 845 classes, and
    # is_central, by definition for welded words and by canonical form for
    # the rest, is one verdict per class and agrees with the definition
    n, spheres = 3, [1, 9, 43, 165, 627]
    pool = letter_pool(n, with_xi=True)
    matrices = _generator_matrices(n)
    rep_of: dict = {}
    image_of: dict = {}
    fingerprint_of: dict = {}
    verdict_of: dict = {}
    first_length = []
    words = 0
    for length in range(len(spheres)):
        for letters in itertools.product(pool, repeat=length):
            word = Word(n, letters)
            image = evaluate(word).images
            fingerprint = _fingerprint(word, matrices)
            # one fingerprint per image, and one image per fingerprint
            assert fingerprint_of.setdefault(image, fingerprint) == fingerprint
            assert image_of.setdefault(fingerprint, image) == image, str(word)
            if rep_of.setdefault(image, word) is word:
                first_length.append(length)
                verdict_of[image] = _commutes_with_generators(word)
            assert is_central(word) == verdict_of[image], str(word)
            words += 1
    assert words == sum(len(pool) ** length for length in range(len(spheres))) == 7381
    assert [first_length.count(length) for length in range(len(spheres))] == spheres
    assert list(verdict_of.values()).count(True) == 2  # the identity and 0


def class_spheres(n, radius):
    """Sphere sizes of IB_n on the generators sigma_i^+-1 and epsilon_i, to
    radius, by a breadth-first search over classes.

    Each class at distance r + 1 is a class at distance r times a
    generator, so the first word found of each class is its
    representative.  Every product is checked both ways against its
    canonical form: equal forms must have equal fingerprints and equal
    action images, and equal fingerprints, like equal images, equal forms.
    """
    pool = letter_pool(n)
    matrices = _generator_matrices(n)
    identity = Word(n)
    fingerprint_of = {canonical_form(identity): _fingerprint(identity, matrices)}
    image_of = {canonical_form(identity): evaluate(identity).images}
    form_of = {fingerprint: form for form, fingerprint in fingerprint_of.items()}
    form_of_image = {image: form for form, image in image_of.items()}
    sphere = [identity]
    spheres = [1]
    for _ in range(radius):
        reached = []
        for rep in sphere:
            for letter in pool:
                word = Word(n, rep.letters + (letter,))
                form = canonical_form(word)
                fingerprint = _fingerprint(word, matrices)
                image = evaluate(word).images
                if form not in fingerprint_of:
                    reached.append(word)
                # one fingerprint and one image per form, and one form per
                # fingerprint and per image
                assert fingerprint_of.setdefault(form, fingerprint) == fingerprint
                assert form_of.setdefault(fingerprint, form) == form, str(word)
                assert image_of.setdefault(form, image) == image, str(word)
                assert form_of_image.setdefault(image, form) == form, str(word)
        spheres.append(len(reached))
        sphere = reached
    return spheres


def test_class_graph_spheres():
    # the first seven agree with the word ball of n=3 above and in
    # tests/big_ball.py; 2,714 classes in all
    assert class_spheres(3, 8) == [1, 7, 23, 49, 88, 166, 332, 674, 1374]
