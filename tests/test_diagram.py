import itertools
import random

import pytest

from conftest import (
    has_survivor_swap,
    position_tracking_map,
    random_braid_word,
    random_pure_braid,
    random_word,
)
from partialbraid.action import equal_action, evaluate
from partialbraid.diagram import (
    PartialInjection,
    Skeleton,
    _kept_strands,
    _occupants,
    _replay,
    delete_strand,
    evaluate_skeleton,
)
from partialbraid.garside import canonical_form, word_to_perm
from partialbraid.monoidal import is_i_makanin, is_makanin
from partialbraid.words import (
    EPSILON,
    SIGMA,
    XI,
    Word,
    delta_word,
    epsilon,
    mirror_inverse,
    parse_word,
    sigma,
    sigma_inv,
    xi,
)


def w(text, n):
    return parse_word(text, n)


def test_skeleton_examples():
    s = evaluate_skeleton(w("s1", 2))
    assert (s.domain, s.codomain, str(s.braid)) == ((1, 2), (1, 2), "s1")

    s = evaluate_skeleton(w("e1 s1", 2))
    assert (s.domain, s.codomain, len(s.braid)) == ((2,), (1,), 0)
    assert s.mapping == (None, 1)

    s = evaluate_skeleton(w("s1 s2 e2", 3))
    assert s.mapping == (3, 1, None)

    s = evaluate_skeleton(w("e1 e2", 2))
    assert (s.domain, s.codomain) == ((), ())
    assert s.braid == Word(0)


def test_skeleton_validates_strand_map():
    # the strand map is read off the braid, never passed in: one element,
    # one skeleton
    assert Skeleton(2, (2,), (1,), Word(1)).mapping == (None, 1)
    assert Skeleton(3, (1, 3), (2, 3), w("s1", 2)).mapping == (3, None, 2)
    with pytest.raises(TypeError):
        Skeleton(2, (1,), (1,), Word(1), (2, None))


def test_skeleton_idempotent_deletion_is_noop():
    assert evaluate_skeleton(w("e1 e1", 2)) == evaluate_skeleton(w("e1", 2))


def test_skeleton_crossing_over_empty_position():
    # the surviving strand relocates without recording a crossing
    s = evaluate_skeleton(w("e1 s1 s1", 2))
    assert (s.domain, s.codomain, len(s.braid)) == ((2,), (2,), 0)


def test_skeleton_rejects_xi():
    with pytest.raises(ValueError):
        evaluate_skeleton(w("t1", 2))


def test_welded_tracker_matches_position_tracking():
    # seeded: 2,400 words with e and t letters, n = 1..8
    rng = random.Random(0x7AC4)
    for n in range(1, 9):
        for _ in range(300):
            word = random_word(rng, n, 3 * n, with_xi=True)
            occupant = _occupants(word)
            ends = {s: p for p, s in enumerate(occupant, 1) if s is not None}
            assert ends == position_tracking_map(word), str(word)


def swaps_as_crossings(word):
    """word with every swap t_i read as the crossing s_i."""
    return Word(word.n, tuple(sigma(x.index) if x.kind == XI else x for x in word))


def test_strand_path_refuses_welded_swaps():
    # the tracker follows a swap on any positions; the survivor pass, and
    # so skeletons and canonical forms, refuse it only where it swaps two
    # survivors (t1, s1 t2); a swap that moves one survivor (e1 t1,
    # e3 s1 t2 e1) or none (e1 e2 t1) is a move, as a crossing there is
    for text, ends, refused in [
        ("t1", [2, 1, 3], True),
        ("s1 t2", [2, 3, 1], True),
        ("e1 t1", [2, None, 3], False),
        ("e3 s1 t2 e1", [None, None, 1], False),
        ("e1 e2 t1", [None, None, 3], False),
    ]:
        word = w(text, 3)
        occupant = _occupants(word)
        assert occupant == ends, text
        if not refused:
            crossed = swaps_as_crossings(word)
            assert _replay(word, occupant) == _replay(crossed, occupant), text
            assert evaluate_skeleton(word) == evaluate_skeleton(crossed), text
            assert canonical_form(word) == canonical_form(crossed), text
            continue
        for refuse in (
            lambda: _replay(word, occupant),
            lambda: evaluate_skeleton(word),
            lambda: canonical_form(word),
        ):
            with pytest.raises(ValueError) as caught:
                refuse()
            assert str(caught.value) == "skeletons are not defined for xi letters"


def test_welded_form_is_the_form_with_crossings():
    # seeded: 3,000 words with e and t letters, n = 2..6, up to 14 letters;
    # a word whose swaps all meet an empty position (2,184 of them) has the
    # form of the same word with s for t, and the action agrees the two are
    # equal; the rest have a swap of two survivors and are refused
    rng = random.Random(0x5E1F)
    forms = refused = 0
    for case in range(3000):
        word = random_word(rng, case % 5 + 2, 14, with_xi=True)
        crossed = swaps_as_crossings(word)
        if has_survivor_swap(word):
            with pytest.raises(ValueError, match="^skeletons are not defined"):
                canonical_form(word)
            refused += 1
            continue
        assert canonical_form(word) == canonical_form(crossed), str(word)
        assert equal_action(word, crossed), str(word)
        forms += 1
    assert forms + refused == 3000 and forms > 2000 and refused > 500


def _inverted_occupants(occupant):
    """(mapping, domain, codomain) read off an occupant list by inverting
    it position by position."""
    mapping = [None] * len(occupant)
    for p, strand in enumerate(occupant):
        if strand is not None:
            mapping[strand - 1] = p + 1
    codomain = tuple(p + 1 for p, strand in enumerate(occupant) if strand is not None)
    domain = tuple(s for s, end in enumerate(mapping, 1) if end is not None)
    return tuple(mapping), domain, codomain


def _occupant_lists(n):
    """The occupant list of every partial injection of {1..n}."""
    for k in range(n + 1):
        for ends in itertools.combinations(range(n), k):
            for strands in itertools.permutations(range(1, n + 1), k):
                occupant = [None] * n
                for p, strand in zip(ends, strands):
                    occupant[p] = strand
                yield occupant


def test_strand_map_inverts_every_occupant_list():
    counts = []
    for n in range(6):
        lists = list(_occupant_lists(n))
        for occupant in lists:
            mapping, domain, codomain = _inverted_occupants(occupant)
            starts = PartialInjection(n, tuple(occupant)).inverse()
            assert starts.mapping == mapping, occupant
            assert _kept_strands(occupant) == (domain, codomain), occupant
        counts.append(len(lists))
    assert counts == [1, 2, 7, 34, 209, 1546]


def _delete_letters(letters: list[int], start_pos: int) -> list[int]:
    """Drop one strand from a crossing word given as signed rank indices."""
    out: list[int] = []
    p = start_pos
    for x in letters:
        r = abs(x)
        if r == p:
            p += 1
        elif r == p - 1:
            p -= 1
        elif r > p:
            out.append(x - 1 if x > 0 else x + 1)
        else:
            out.append(x)
    return out


def _reference_skeleton(word):
    """Track every strand, ranking each crossing by a scan over the
    positions, and drop a strand's crossings from the recorded braid when
    it is deleted: (domain, codomain, signed crossing ranks)."""
    occupant = list(range(1, word.n + 1))
    live = list(range(1, word.n + 1))
    braid = []
    for letter in word.letters:
        if letter.kind == XI:
            raise ValueError("xi")
        p = letter.index - 1
        if letter.kind == EPSILON:
            strand = occupant[p]
            if strand is None:
                continue
            braid = _delete_letters(braid, live.index(strand) + 1)
            live.remove(strand)
            occupant[p] = None
        else:
            if occupant[p] is not None and occupant[p + 1] is not None:
                rank = sum(1 for q in range(p + 1) if occupant[q] is not None)
                braid.append(rank if letter.kind == SIGMA else -rank)
            occupant[p], occupant[p + 1] = occupant[p + 1], occupant[p]
    codomain = tuple(p + 1 for p, s in enumerate(occupant) if s is not None)
    return tuple(live), codomain, braid


def _signed_ranks(braid):
    return [x.index if x.kind == SIGMA else -x.index for x in braid]


def _check_skeleton(word):
    skel = evaluate_skeleton(word)
    assert (skel.domain, skel.codomain, _signed_ranks(skel.braid)) == (
        _reference_skeleton(word)
    ), str(word)
    ends = position_tracking_map(word)
    assert skel.domain == tuple(sorted(ends))
    assert skel.codomain == tuple(sorted(ends.values()))
    assert {s: skel.mapping[s - 1] for s in ends} == ends


def test_skeleton_matches_reference_tracker():
    # seeded: 2,080 words of up to 4n letters, 0-50% of them deletions
    rng = random.Random(0x5CE1)
    for n in list(range(2, 13)) + [20, 40]:
        for _ in range(160):
            share = rng.uniform(0.0, 0.5)
            letters = []
            for _ in range(rng.randint(0, 4 * n)):
                if rng.random() < share:
                    letters.append(epsilon(rng.randint(1, n)))
                else:
                    make = sigma if rng.random() < 0.5 else sigma_inv
                    letters.append(make(rng.randint(1, n - 1)))
            _check_skeleton(Word(n, tuple(letters)))


def test_skeleton_edge_cases():
    words = [
        ("e1", 1),
        ("e1 e1", 1),
        ("", 1),
        ("", 0),
        ("e2 e2 s1 s2", 3),  # the second e2 finds its position empty
        ("e2 e3 s2 s2^-1 s1 s3", 4),  # s2 crosses two empty positions
        ("s1 s2 e1 e2 e3 s1", 3),  # every strand deleted
        ("s1 s2 s3 s1 e2 s2^-1 s1", 4),
    ]
    for text, n in words:
        _check_skeleton(w(text, n))
    skel = evaluate_skeleton(w("s1 s2 e1 e2 e3 s1", 3))
    assert (skel.domain, skel.codomain, skel.braid) == ((), (), Word(0))
    with pytest.raises(ValueError):
        evaluate_skeleton(w("s1 t2", 3))
    # a swap next to a deleted strand relocates the survivor
    for text in ("t1 e1", "e1 e2 e3 t1"):
        word = w(text, 3)
        assert evaluate_skeleton(word) == evaluate_skeleton(swaps_as_crossings(word))


def test_skeleton_display():
    assert str(evaluate_skeleton(w("e2", 3))) == "I={1,3} J={1,3} braid="


def test_skeleton_is_what_it_prints():
    # seeded: 3,000 words with e and t letters, n = 0..9, up to 3n letters;
    # each of the 2,056 with a skeleton (773 of them with t letters whose
    # swaps meet an empty position) is rebuilt from the four fields it
    # prints, and the rebuilt strand map inverts the word's occupant list
    rng = random.Random(0x5CE7)
    built = welded = 0
    for case in range(3000):
        n = case % 10
        word = random_word(rng, n, 3 * n, with_xi=True)
        if has_survivor_swap(word):
            continue
        s = evaluate_skeleton(word)
        twin = Skeleton(s.n, s.domain, s.codomain, s.braid)
        assert twin == s and hash(twin) == hash(s), str(word)
        starts = PartialInjection(n, tuple(_occupants(word))).inverse()
        assert twin.mapping == starts.mapping, str(word)
        built += 1
        welded += XI in word.kinds()
    assert built > 1500 and welded > 500, (built, welded)


def test_delete_strand_examples():
    assert delete_strand(w("s1 s1", 2), 1) == Word(1)
    assert str(delete_strand(w("s1 s2 s1", 3), 2)) == "s1"
    assert delete_strand(Word(3), 2) == Word(2)


def test_delete_strand_matches_reference():
    # seeded: 1,200 crossing words, every start position
    rng = random.Random(0xDE1)
    for m in range(1, 13):
        for _ in range(100):
            braid = random_braid_word(rng, m, 4 * m)
            for p in range(1, m + 1):
                out = delete_strand(braid, p)
                assert out.n == m - 1
                assert _signed_ranks(out) == _delete_letters(_signed_ranks(braid), p)


def test_delete_strand_tracks_signs():
    assert str(delete_strand(w("s1^-1 s2 s1", 3), 1)) == "s1"
    assert str(delete_strand(w("s2 s2^-1 s1", 3), 3)) == "s1"


def test_delete_strand_validation():
    with pytest.raises(ValueError):
        delete_strand(w("e1", 2), 1)
    with pytest.raises(ValueError):
        delete_strand(w("s1", 2), 3)


def test_delete_strand_permutation_oracle(rng):
    # deleting a strand from the word matches deleting its point from the
    # positive permutation
    for _ in range(200):
        k = rng.randint(2, 6)
        braid = random_braid_word(rng, k, 12)
        positive = Word(k, tuple(sigma(letter.index) for letter in braid))
        start = rng.randint(1, k)
        perm = word_to_perm(positive)
        smaller = word_to_perm(delete_strand(positive, start))
        expected = []
        for i in range(k):
            if i == start - 1:
                continue
            img = perm[i]
            expected.append(img - (1 if img > perm[start - 1] else 0))
        assert smaller == tuple(expected)


def test_delete_strand_splits_over_products(rng):
    for _ in range(200):
        k = rng.randint(2, 6)
        u = random_braid_word(rng, k, 10)
        v = random_braid_word(rng, k, 10)
        start = rng.randint(1, k)
        threaded = position_tracking_map(u)[start]
        together = delete_strand(u * v, start)
        pieces = delete_strand(u, start) * delete_strand(v, threaded)
        assert together == pieces


def _image_cores(word):
    """tau read off the action by hand: where each strand goes is the
    middle letter of its image, or None for a deleted strand."""
    return tuple(
        None if img is None else img[len(img) // 2] for img in evaluate(word).images
    )


def test_skeleton_agrees_with_tau(rng):
    for _ in range(400):
        word = random_word(rng, rng.randint(0, 6), 20)
        assert evaluate_skeleton(word).mapping == _image_cores(word), str(word)


def test_makanin_examples():
    assert is_i_makanin(w("s1 s1", 2), 1)
    assert not is_i_makanin(w("s1", 2), 1)
    assert is_i_makanin(Word(3), 2)
    assert is_makanin(w("s1 s1", 2))
    assert not is_makanin(w("s1 s2", 3))
    assert not is_makanin(delta_word(3) ** 2)


def test_makanin_domain_restrictions():
    # a partial word is an element of IB_n: the definition e_i w == e_i
    # answers it like any braid
    assert is_i_makanin(w("e1", 2), 1)
    assert is_i_makanin(w("e1 e1", 2), 1)
    assert not is_i_makanin(w("e1", 2), 2)
    assert not is_i_makanin(w("e1 e2", 2), 1)
    assert not is_makanin(w("e1", 2))
    assert is_makanin(w("e1 e1", 1))
    with pytest.raises(ValueError):
        is_i_makanin(w("s1", 2), 3)


def test_makanin_error_texts():
    # a welded letter is answered wherever it sits, deletions or not: the
    # one equality hands it to the action
    for text in ["t1", "e1 t1", "t1 e1"]:
        assert not is_makanin(w(text, 2)), text
    assert is_makanin(w("t1 t1", 2))
    # the strand index is checked first, before any letter
    for text, i in [("t1", 3), ("e1", 0)]:
        with pytest.raises(ValueError) as caught:
            is_i_makanin(w(text, 2), i)
        assert str(caught.value) == f"strand index {i} out of range for n=2", (text, i)
    for text, i in [("t1", 1), ("e1 t1", 1)]:
        assert not is_i_makanin(w(text, 2), i), (text, i)
    # partial words without welded letters get an answer, not an error
    assert not is_makanin(w("s1 e2", 2))
    assert not is_i_makanin(w("s1 e2", 2), 2)


def test_welded_makanin_on_swaps_and_deletions():
    # words of t and e letters act as partial permutations of the
    # generators, so e_i w == e_i exactly when the strand maps agree,
    # whichever engine answers: 11,718 (w, i) cases
    n = 3
    pool = [xi(1), xi(2)] + [epsilon(i) for i in range(1, n + 1)]
    cases = true = 0
    for length in range(6):
        for letters in itertools.product(pool, repeat=length):
            word = Word(n, letters)
            for i in range(1, n + 1):
                e_i = Word(n, (epsilon(i),))
                expected = _occupants(e_i * word) == _occupants(e_i)
                assert is_i_makanin(word, i) == expected, (str(word), i)
                cases += 1
                true += expected
    assert cases == 11718 and true == 246


def test_makanin_agrees_with_definitional_check(rng):
    # the normal-form route against eps_i w == eps_i through the action
    # engine, on braids and on words with deletions
    partial = 0
    for trial in range(2000):
        n = rng.randint(1, 5)
        if trial % 2:
            word = random_word(rng, n, 10)
        else:
            word = random_braid_word(rng, n, 10)
        partial += None in _occupants(word)
        answers = []
        for i in range(1, n + 1):
            eps = Word(n, (epsilon(i),))
            answers.append(equal_action(eps * word, eps))
        i = rng.randint(1, n)
        assert is_i_makanin(word, i) == answers[i - 1], (word, i)
        assert is_makanin(word) == all(answers), word
    assert partial > 500


def test_makanin_conjugation(rng):
    # the i-Makanin property transports to 1-Makanin along the standard
    # conjugating run
    for _ in range(100):
        n = rng.randint(2, 5)
        braid = random_pure_braid(rng, n, 8)
        i = rng.randint(1, n)
        run = Word(n, tuple(sigma(j) for j in range(1, i)))
        conjugated = run * braid * mirror_inverse(run)
        assert is_i_makanin(braid, i) == is_i_makanin(conjugated, 1)


def test_square_of_generator_is_makanin_only_for_two_strands(rng):
    assert is_makanin(w("s1 s1", 2))
    assert not is_makanin(w("s1 s1", 3))  # strand 3 survives but 1,2 link
