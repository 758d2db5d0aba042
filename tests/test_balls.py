"""Exhaustive balls: every word up to a length, grouped two ways.

Canonical forms and free-group action images must split the ball into
the same classes, and every word must be equal_nf to the shortest word of
its class.  The sphere sizes (classes whose shortest word has length l)
pin the count of distinct elements.
"""

import itertools

import pytest

from conftest import letter_pool
from partialbraid.action import evaluate
from partialbraid.garside import canonical_form, equal_nf
from partialbraid.words import Word


@pytest.mark.parametrize(
    "n, spheres",
    [
        (3, [1, 7, 23, 49, 88, 166]),
        (4, [1, 10, 50, 176, 529]),
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
