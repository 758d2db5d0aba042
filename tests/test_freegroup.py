import pytest
from hypothesis import given, strategies as st

from partialbraid import freegroup as F


def _reduce(letters):
    """Reference free reduction, independent of the module under test."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _invert(a):
    return tuple(-x for x in reversed(a))


IDENTITY = [(1,), (2,), (3,), (4,)]


def _multiply(a, b):
    """Product in the free group: the identity substitution reduces a b."""
    return F.substitute_erasing(a + b, IDENTITY)


reduced_words = st.builds(
    _reduce, st.lists(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), max_size=20)
)


def test_multiply_examples():
    assert _multiply((1,), (-1,)) == ()
    assert _multiply((1, 2), (-2, 3)) == (1, 3)
    assert _multiply((), (2, -1)) == (2, -1)


def test_invert_examples():
    # an inverse letter substitutes the inverse of its image
    assert F.substitute_erasing((-1,), [(1, 2)]) == (-2, -1)
    assert F.substitute_erasing((-1,), [()]) == ()
    assert F.substitute_erasing((-1,), [(-1,)]) == (1,)


def test_substitute_erasing():
    assert F.substitute_erasing((1, 2), [(2,), None]) == (2,)
    # the erased letter cancels what surrounded it
    assert F.substitute_erasing((-2, 1, 2), [(1,), None]) == (1,)
    assert F.substitute_erasing((2,), [(1,), None]) == ()


def test_project():
    assert F.project((-2, 1, 2), {1}) == (1,)
    assert F.project((1, 2, -1), {1, 2}) == (1, 2, -1)
    assert F.project((1, -1), set()) == ()
    # only inverse neighbours cancel
    assert F.project((1, 1, 2, -1), {1}) == (1,)


def test_reduce_examples():
    assert F.reduce((1, 2, -2, -1, 3)) == (3,)
    assert F.reduce([2, 2, -2]) == (2,)
    assert F.reduce(x for x in (-1, 1)) == ()


@given(st.lists(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), max_size=30))
def test_reduce_matches_the_reference(letters):
    assert F.reduce(letters) == _reduce(letters)
    assert F.reduce(iter(letters)) == _reduce(letters)


def test_conjugate_decompose_examples():
    assert F.conjugate_decompose((-2, 1, 2)) == (1, (2,))
    assert F.conjugate_decompose((3,)) == (3, ())
    assert F.conjugate_decompose((1, 2)) is None
    assert F.conjugate_decompose(()) is None
    assert F.conjugate_decompose((-2, -1, 2)) is None  # negative core
    assert F.conjugate_decompose((2, 1, 2)) is None  # halves not mirrored


@given(reduced_words, reduced_words, reduced_words)
def test_multiply_associative(a, b, c):
    assert _multiply(a, b) == _reduce(a + b)
    assert _multiply(_multiply(a, b), c) == _multiply(a, _multiply(b, c))


@given(reduced_words)
def test_invert_involution(a):
    assert F.substitute_erasing((-1,), [a]) == _invert(a)
    assert _invert(_invert(a)) == a
    assert _multiply(a, _invert(a)) == ()
    assert _multiply(_invert(a), a) == ()


images_strategy = st.lists(
    st.one_of(
        st.none(),
        st.builds(
            _reduce,
            st.lists(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), max_size=6),
        ),
    ),
    min_size=4,
    max_size=4,
)


@given(reduced_words, reduced_words, images_strategy)
def test_substitute_distributes_over_multiply(a, b, images):
    # substitute_erasing is the homomorphism x_i -> images[i-1], with
    # imageless generators sent to the empty word
    sa = F.substitute_erasing(a, images)
    sb = F.substitute_erasing(b, images)
    assert F.substitute_erasing(_multiply(a, b), images) == _multiply(sa, sb)
    assert F.substitute_erasing(_invert(a), images) == _invert(sa)
    expanded = []
    for x in a:
        img = images[abs(x) - 1]
        if img is not None:
            expanded += img if x > 0 else _invert(img)
    assert sa == _reduce(expanded)


@given(reduced_words, st.integers(1, 4))
def test_conjugate_decompose_round_trip(w, j):
    a = _reduce(_invert(w) + (j,) + w)
    decomposition = F.conjugate_decompose(a)
    assert decomposition is not None
    core, conj = decomposition
    assert _reduce(_invert(conj) + (core,) + conj) == a


def test_letter_cap():
    # a positive and a negative letter, so both substitution loops are capped
    with pytest.raises(F.ResourceLimitError) as caught:
        F.substitute_erasing((1, 1, 1), [(1, 2)], max_letters=5)
    assert (caught.value.length, caught.value.cap) == (6, 5)
    assert str(caught.value) == "free word reached 6 letters, over the cap of 5"
    with pytest.raises(F.ResourceLimitError):
        F.substitute_erasing((-1, -1, -1), [(1, 2)], max_letters=5)
    # at the cap exactly is fine
    assert F.substitute_erasing((1, 2), [(1, 2), (3, 4)], max_letters=4) == (1, 2, 3, 4)
    assert F.substitute_erasing((-2, -1), [(1, 2), (3, 4)], max_letters=4) == (
        -4, -3, -2, -1
    )


def test_zero_letter_rejected():
    # 0 names no generator, so no word centred on it is a conjugated generator
    assert F.conjugate_decompose((0,)) is None
    assert F.conjugate_decompose((-2, 0, 2)) is None
    with pytest.raises(ValueError):
        F.substitute_erasing((0,), [(1,), (2,)])
    with pytest.raises(ValueError):
        F.substitute_erasing((1, 0), [(1,), (2,)])


def test_word_str():
    assert F.word_str((-2, 1, 2)) == "x2^-1 x1 x2"
    assert F.word_str(()) == "1"
