import itertools

import pytest

from conftest import letter_pool, position_tracking_map, random_word
from partialbraid import ResourceLimitError, freegroup as F, words as W
from partialbraid.action import (
    PartialEndo,
    _fingerprint,
    _generator_matrices,
    compose,
    equal_action,
    evaluate,
    letter_endo,
    tau,
)
from partialbraid.diagram import (
    AbelianClass,
    PartialInjection,
    _occupants,
    abelian_invariant,
    compose_injection,
)
from partialbraid.words import (
    EPSILON,
    XI,
    Word,
    delta_word,
    epsilon,
    parse_word,
    relation_suite,
    sigma,
    sigma_inv,
    xi,
)


def w(text, n):
    return parse_word(text, n)


def test_letter_endo_definitions():
    assert letter_endo(epsilon(1), 2).images == (None, (2,))
    assert letter_endo(sigma(1), 2).images == ((2,), (-2, 1, 2))
    assert letter_endo(xi(1), 2).images == ((2,), (1,))
    assert letter_endo(sigma_inv(1), 2).images == ((1, 2, -1), (1,))
    # untouched strands act as the identity
    assert letter_endo(sigma(2), 4).images == ((1,), (3,), (-3, 2, 3), (4,))


def test_letter_endo_range_check():
    with pytest.raises(ValueError):
        letter_endo(sigma(2), 2)
    with pytest.raises(ValueError):
        letter_endo(epsilon(3), 2)


def _literal_images(letter, n):
    """The images of one letter on n strands, written out by hand: the
    identity with the letter's one or two images replaced."""
    i = letter.index
    replaced = {
        W.SIGMA: [(i + 1,), (-(i + 1), i, i + 1)],
        W.SIGMA_INV: [(i, i + 1, -i), (i,)],
        W.XI: [(i + 1,), (i,)],
        W.EPSILON: [None],
    }[letter.kind]
    identity = [(j,) for j in range(1, n + 1)]
    return tuple(identity[: i - 1] + replaced + identity[i - 1 + len(replaced) :])


def test_letter_maps_do_not_outlive_evaluate():
    # each of the 597 crossing and swap letters of n = 200 once: a table
    # kept per letter would hold about 1.1 MB of 200-tuples after the call
    import gc
    import tracemalloc

    n = 200
    word = Word(
        n,
        tuple(sigma(i) for i in range(1, n))
        + tuple(sigma_inv(i) for i in range(n - 1, 0, -1))
        + tuple(xi(i) for i in range(1, n)),
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate(word)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 500_000, left
    # and every letter map is still the identity with its one or two
    # images replaced
    n = 5
    for letter in letter_pool(n, with_xi=True):
        expected = _literal_images(letter, n)
        assert letter_endo(letter, n).images == expected, letter.token()


def test_fingerprint_matrices_are_one_table():
    # equal_action on each n = 900..999 once: a table kept per n would hold
    # about 25 MB of matrices after the calls, one grown table about 0.25 MB
    import gc
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(900, 1000):
            assert not equal_action(Word(n, (sigma(n - 1),)), Word(n, (sigma_inv(n - 1),)))
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 1_000_000, left
    # every n gets a prefix of the same seeded sequence
    assert _generator_matrices(999) == _generator_matrices(1000)[:999]
    assert _generator_matrices(3) == _generator_matrices(7)[:3]


def test_sigma_inverse_really_inverts():
    for n in (2, 3, 4):
        for i in range(1, n):
            left = compose(letter_endo(sigma(i), n), letter_endo(sigma_inv(i), n))
            right = compose(letter_endo(sigma_inv(i), n), letter_endo(sigma(i), n))
            assert left == PartialEndo.identity(n)
            assert right == PartialEndo.identity(n)


def test_composition_order_anchor():
    # word order is diagram stacking order: deleting strand 1 then crossing
    # leaves strand 2 ending at position 1
    assert tau(w("e1 s1", 2)).mapping == (None, 1)


def test_compose_matches_evaluate():
    e1 = letter_endo(epsilon(1), 2)
    s1 = letter_endo(sigma(1), 2)
    assert compose(e1, s1) == evaluate(w("e1 s1", 2))
    assert compose(PartialEndo.identity(2), s1) == s1
    assert evaluate(w("e1 s1", 2)) == evaluate(w("s1 e2", 2))


def test_compose_strand_mismatch():
    with pytest.raises(ValueError):
        compose(PartialEndo.identity(2), PartialEndo.identity(3))


def test_evaluate_examples():
    assert evaluate(w("s1 s1^-1", 2)) == PartialEndo.identity(2)
    assert evaluate(w("e1 s1 e1", 2)) == evaluate(w("s1 e1 s1 e1", 2))
    assert evaluate(w("e1 e2", 2)).images == (None, None)


def test_canonical_images_use_codomain_letters_only():
    # the conjugator of the survivor may not mention the deleted strand
    endo = evaluate(w("e1 s1", 2))
    assert endo.images == (None, (1,))
    endo.validate()


def test_partial_endo_validation():
    PartialEndo(2, ((-2, 1, 2), (2,))).validate()
    with pytest.raises(ValueError):
        PartialEndo(2, ((5,), (2,))).validate()  # core outside 1..n
    with pytest.raises(ValueError):
        PartialEndo(2, ((1, 2), None)).validate()  # not a conjugated generator
    with pytest.raises(ValueError):
        PartialEndo(2, ((1,), (1,))).validate()  # not injective
    with pytest.raises(ValueError):
        PartialEndo(2, ((-2, 1, 2), None)).validate()  # x2 is not in the codomain


def test_equal_action_examples():
    assert equal_action(w("s1 s2 s1", 3), w("s2 s1 s2", 3))
    assert not equal_action(w("e1", 2), w("e2", 2))
    with pytest.raises(ValueError):
        equal_action(w("", 2), w("", 3))


@pytest.mark.parametrize("suite_id", ["artin", "ibn-eps", "ibn-balanced", "ibn-2gen", "ibp-mixed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relation_suites_hold_under_action(suite_id, n):
    for rel in relation_suite(suite_id, n):
        assert equal_action(rel.left, rel.right), rel.tag


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sym_inverse_suite_holds_under_injections(n):
    for rel in relation_suite("sym-inverse", n):
        assert tau(rel.left) == tau(rel.right), rel.tag


def test_epsilon_conjugation_recursion():
    # epsilon_{i+1} equals sigma_i^e epsilon_i sigma_i^f for every sign choice
    for n in (2, 3, 4):
        for i in range(1, n):
            target = Word(n, (epsilon(i + 1),))
            for first in (sigma(i), sigma_inv(i)):
                for second in (sigma(i), sigma_inv(i)):
                    cand = Word(n, (first, epsilon(i), second))
                    assert equal_action(cand, target), (n, i, str(cand))


def test_tau_examples():
    assert tau(w("s1", 2)).mapping == (2, 1)
    assert tau(w("e1", 2)).mapping == (None, 2)
    assert str(tau(w("e1 s1", 2))) == "{2->1}"


def test_tau_matches_position_tracking(rng):
    for _ in range(300):
        word = random_word(rng, rng.randint(0, 6), 20, with_xi=True)
        expected = position_tracking_map(word)
        got = {i: j for i, j in enumerate(tau(word).mapping, 1) if j is not None}
        assert got == expected, str(word)


def test_tau_is_a_homomorphism(rng):
    for _ in range(300):
        n = rng.randint(1, 5)
        w1, w2 = random_word(rng, n, 12), random_word(rng, n, 12)
        assert tau(w1 * w2) == compose_injection(tau(w1), tau(w2))


def test_tau_matches_the_welded_strand_tracker(rng):
    # 3,000 seeded words with crossings, deletions and swaps: the image
    # cores of tau against the end positions the strand tracker follows
    deleted = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        word = random_word(rng, n, 30, with_xi=True)
        tracked = PartialInjection(n, tuple(_occupants(word)))
        assert tau(word, max_letters=10 ** 5) == tracked.inverse(), str(word)
        deleted += None in tracked.mapping
    assert 0 < deleted < 3000


def test_injection_axioms():
    p = PartialInjection(2, (2, 1))
    e = PartialInjection(2, (None, 2))
    assert compose_injection(e, p).mapping == (None, 1)
    assert compose_injection(PartialInjection.identity(2), p) == p

    # inverse-monoid axiom over the whole of I_3
    n = 3
    universe = []
    for k in range(n + 1):
        for dom in itertools.combinations(range(1, n + 1), k):
            for img in itertools.permutations(range(1, n + 1), k):
                mapping = [None] * n
                for i, j in zip(dom, img):
                    mapping[i - 1] = j
                universe.append(PartialInjection(n, tuple(mapping)))
    assert len(universe) == 34
    for p in universe:
        q = p.inverse()
        assert compose_injection(compose_injection(p, q), p) == p
        assert compose_injection(compose_injection(q, p), q) == q


def test_injection_validation():
    with pytest.raises(ValueError):
        PartialInjection(2, (1, 1))
    with pytest.raises(ValueError):
        PartialInjection(2, (3, None))


def test_abelian_invariant_examples():
    assert abelian_invariant(w("s1 s2^-1 s1", 3)) == AbelianClass("group", 1)
    assert abelian_invariant(w("e1 s1 s1", 2)) == abelian_invariant(w("e1", 2))
    assert abelian_invariant(Word(4)) == AbelianClass("group", 0)
    # a deletion absorbs welded swaps as it absorbs crossings
    assert abelian_invariant(w("e1 t1", 2)) == AbelianClass("epsilon")
    assert abelian_invariant(w("t2 s1 e3 t1", 3)) == AbelianClass("epsilon")
    with pytest.raises(ValueError, match="^abelian invariant is not defined for xi"):
        abelian_invariant(w("t1", 2))


def test_abelian_invariant_constant_on_suites(rng):
    for suite_id in ("artin", "ibn-eps", "ibn-balanced"):
        for n in (2, 3, 4):
            for rel in relation_suite(suite_id, n):
                assert abelian_invariant(rel.left) == abelian_invariant(rel.right)
    # the welded relations with a deletion on both sides, eps-xi's among them
    checked = 0
    for n in (2, 3, 4):
        for rel in relation_suite("ibp-mixed", n):
            if EPSILON in rel.left.kinds() and EPSILON in rel.right.kinds():
                assert abelian_invariant(rel.left) == abelian_invariant(rel.right)
                checked += XI in rel.left.kinds()
    assert checked > 0


def test_delta_commutes_with_deletions():
    for n in range(1, 8):
        dn = delta_word(n)
        for i in range(1, n + 1):
            lhs = Word(n, (epsilon(i),)) * dn
            rhs = dn * Word(n, (epsilon(n + 1 - i),))
            assert equal_action(lhs, rhs), (n, i)


def test_central_elements_commute_with_generators():
    for n in (2, 3, 4):
        delta_sq = delta_word(n) ** 2
        empty_braid = Word(n, tuple(epsilon(i) for i in range(1, n + 1)))
        gens = [Word(n, (sigma(i),)) for i in range(1, n)]
        gens += [Word(n, (epsilon(i),)) for i in range(1, n + 1)]
        for g in gens:
            assert equal_action(delta_sq * g, g * delta_sq)
            assert equal_action(empty_braid * g, g * empty_braid)
    # but the generators themselves are not central
    assert not equal_action(w("s1 e1", 3), w("e1 s1", 3))


def test_evaluate_output_is_canonical(rng):
    for _ in range(200):
        word = random_word(rng, rng.randint(0, 5), 18, with_xi=True)
        evaluate(word).validate()


def test_inverse_monoid_axioms(rng):
    for _ in range(200):
        word = random_word(rng, rng.randint(0, 5), 15)
        mirror = W.mirror_inverse(word)
        assert equal_action(word * mirror * word, word)
        assert equal_action(mirror * word * mirror, mirror)


def test_mirror_inverts_welded_words(rng):
    # fixing the swap letters under the mirror really does invert words of
    # crossings and swaps (checked through the action, not by presentation)
    for _ in range(200):
        word = random_word(rng, rng.randint(2, 5), 12, with_xi=True, no_epsilon=True)
        mirror = W.mirror_inverse(word)
        assert evaluate(word * mirror) == PartialEndo.identity(word.n)
        assert equal_action(word * mirror * word, word)


def test_mirror_inverts_words_mixing_deletions_and_swaps(rng):
    mixed = 0
    while mixed < 2_000:
        word = random_word(rng, rng.randint(2, 5), 12, with_xi=True)
        if not {EPSILON, XI} <= word.kinds():
            continue
        mirror = W.mirror_inverse(word)
        assert equal_action(word * mirror * word, word), str(word)
        assert equal_action(mirror * word * mirror, mirror), str(word)
        mixed += 1


def test_resource_limit_surfaces():
    braid = parse_word("s1 s2 " * 40, 3)
    with pytest.raises(ResourceLimitError) as caught:
        evaluate(braid, max_letters=50)
    exc = caught.value
    assert (exc.position, exc.token, exc.strand, exc.length, exc.cap) == (
        47, "s1", 2, 51, 50
    )
    assert str(exc) == (
        "letter 47 (s1): image of strand 2 reached 51 letters, over the cap of 50"
    )
    # compose names the strand only; it knows no letter
    big = evaluate(Word(3, braid.letters[:46]))
    with pytest.raises(ResourceLimitError) as caught:
        compose(big, letter_endo(sigma(1), 3), max_letters=50)
    assert str(caught.value) == "image of strand 2 reached 51 letters, over the cap of 50"


def _projecting_compose(first, second, max_letters):
    """Composition that always projects the images onto the surviving cores."""
    mapped = []
    for strand, img in enumerate(first, 1):
        try:
            u = None if img is None else F.substitute_erasing(img, second, max_letters)
        except ResourceLimitError as exc:
            exc.strand = strand
            raise
        mapped.append(u or None)
    cores = {u[len(u) // 2] for u in mapped if u}
    return tuple(None if u is None else F.project(u, cores) for u in mapped)


def _projecting_fold(word, max_letters):
    """Images of word, or the (position, token, strand, length, cap) of its
    cap hit, from the always-projecting composition."""
    images = tuple((j,) for j in range(1, word.n + 1))
    for position, letter in enumerate(word.letters, 1):
        try:
            images = _projecting_compose(
                images, _literal_images(letter, word.n), max_letters
            )
        except ResourceLimitError as exc:
            return position, letter.token(), exc.strand, exc.length, exc.cap
    return images


def _evaluate_or_cap_hit(word, max_letters):
    try:
        return evaluate(word, max_letters).images
    except ResourceLimitError as exc:
        return exc.position, exc.token, exc.strand, exc.length, exc.cap


def _random_endo(rng, n):
    """A validated partial endomorphism: random injective cores, each
    conjugated by a random word over the codomain generators."""
    domain = [i for i in range(1, n + 1) if rng.random() < 0.8]
    cores = rng.sample(range(1, n + 1), len(domain))
    images = [None] * n
    for i, core in zip(domain, cores):
        conj = [rng.choice(cores) * rng.choice((1, -1)) for _ in range(rng.randint(0, 12))]
        images[i - 1] = F.project([-x for x in reversed(conj)] + [core] + conj, cores)
    return PartialEndo(n, tuple(images)).validate()


@pytest.mark.parametrize("cap", [200, F.MAX_LETTERS])
def test_evaluate_matches_always_projecting_fold(rng, cap):
    # crossing-only words never delete a strand, so they skip the
    # projection throughout; partial words take it after their first
    # deletion; the cap hits must be the same letter, strand and length
    hits = 0
    for n in range(2, 9):
        for kind in ({"no_epsilon": True}, {"no_epsilon": True, "with_xi": True}, {}):
            for _ in range(6):
                word = random_word(rng, n, 40, **kind)
                expected = _projecting_fold(word, cap)
                assert _evaluate_or_cap_hit(word, cap) == expected, str(word)
                hits += isinstance(expected[0], int)
    for _ in range(150):
        n = rng.randint(2, 8)
        e1, e2 = _random_endo(rng, n), _random_endo(rng, n)
        try:
            expected = _projecting_compose(e1.images, e2.images, cap)
        except ResourceLimitError as exc:
            expected = (exc.strand, exc.length, exc.cap)
        try:
            got = compose(e1, e2, cap).images
        except ResourceLimitError as exc:
            got = (exc.strand, exc.length, exc.cap)
        assert got == expected
        hits += isinstance(expected[0], int)
    assert (hits > 0) == (cap == 200)


P = 2 ** 127 - 1


def _rho(free_word, matrices):
    """The matrix of a free word: the product of its letters' matrices,
    an inverse letter read as the adjugate of its determinant-one matrix."""
    product = (1, 0, 0, 1)
    for x in free_word:
        a, b, c, d = matrices[abs(x) - 1]
        e, f, g, h = (a, b, c, d) if x > 0 else (d, -b, -c, a)
        p, q, r, s = product
        product = tuple(
            v % P for v in (p * e + q * g, p * f + q * h, r * e + s * g, r * f + s * h)
        )
    return product


def test_fingerprint_is_rho_of_the_images(rng):
    # 3,000 seeded words with crossings, deletions and swaps: the right to
    # left fold gives rho of the images evaluate builds left to right
    deleted = 0
    for _ in range(3000):
        n = rng.randint(2, 6)
        word = random_word(rng, n, 40, with_xi=True)
        matrices = _generator_matrices(n)
        assert all((a * d - b * c) % P == 1 for a, b, c, d in matrices)
        expected = tuple(
            None if img is None else _rho(img, matrices)
            for img in evaluate(word).images
        )
        assert _fingerprint(word, matrices) == expected, str(word)
        deleted += None in expected
    assert 0 < deleted < 3000


def test_unequal_pairs_never_reach_the_cap(rng):
    # n=10 braids of 400 letters: evaluating one runs into the default cap
    # after seconds, but a pair differing in one letter, dropped or
    # inverted, is told apart by its fingerprints, even under a cap of one
    pool = letter_pool(10, no_epsilon=True)
    for _ in range(8):
        letters = [rng.choice(pool) for _ in range(400)]
        k = rng.randrange(400)
        inverse = W.mirror_inverse(Word(10, (letters[k],))).letters
        word = Word(10, tuple(letters))
        for middle in (), inverse:
            other = Word(10, tuple(letters[:k]) + middle + tuple(letters[k + 1 :]))
            assert not equal_action(word, other)
            assert not equal_action(word, other, max_letters=1)
        with pytest.raises(ResourceLimitError):
            evaluate(word, max_letters=1000)


def _fresh_matrices(rng, n):
    """n random determinant-one matrices, independent of the fixed ones."""
    matrices = []
    for _ in range(n):
        a, b, c = rng.randrange(1, P), rng.randrange(P), rng.randrange(P)
        matrices.append((a, b, c, (1 + b * c) * pow(a, -1, P) % P))
    return tuple(matrices)


def test_fingerprints_agree_with_normal_forms_beyond_the_cap(rng):
    # braids the action cannot evaluate (n up to 40, up to 800 letters, a
    # few deletions): p u s against p v s, u and v the sides of a relation
    # or two random words.  Equal normal forms with different fingerprints
    # would be a proven bug; unequal normal forms with equal fingerprints
    # are drawn again with fresh matrices, and a second match is a bug
    from partialbraid.garside import equal_nf

    verdicts = {True: 0, False: 0}
    for n, length in [(10, 400), (10, 800), (20, 400), (40, 400), (40, 800)]:
        crossings = letter_pool(n, no_epsilon=True)
        relations = relation_suite("ibn-balanced", n)
        for _ in range(6):
            p, s = ([rng.choice(crossings) for _ in range(length // 2)] for _ in "ps")
            if rng.random() < 0.5:
                p[rng.randrange(len(p))] = epsilon(rng.randint(1, n))
            if rng.random() < 0.5:
                rel = rng.choice(relations)
                u, v = rel.left.letters, rel.right.letters
            else:
                u, v = ([rng.choice(crossings) for _ in range(rng.randint(1, 6))]
                        for _ in "uv")
            w1 = Word(n, tuple(p) + tuple(u) + tuple(s))
            w2 = Word(n, tuple(p) + tuple(v) + tuple(s))
            equal = equal_nf(w1, w2)
            matrices = _generator_matrices(n)
            same = _fingerprint(w1, matrices) == _fingerprint(w2, matrices)
            if same and not equal:
                matrices = _fresh_matrices(rng, n)
                same = _fingerprint(w1, matrices) == _fingerprint(w2, matrices)
            assert same == equal, (str(w1), str(w2))
            verdicts[equal] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_equal_pairs_still_raise_at_the_cap():
    # equal words have equal fingerprints, so both are evaluated under the
    # cap; the error says which word outgrew it
    braid = parse_word("s1 s2 " * 40, 3)
    padded = parse_word("s1 s1^-1", 3) * braid
    unwound = braid * W.mirror_inverse(braid)
    for pair, number in ((braid, padded), 1), ((parse_word("s2 s2^-1", 3), unwound), 2):
        with pytest.raises(ResourceLimitError) as caught:
            equal_action(*pair, max_letters=50)
        assert caught.value.word == number
        assert equal_action(*pair)


def test_display_format():
    endo = evaluate(w("e1 s1", 3))
    assert str(endo) == "x1 -> _\nx2 -> x1\nx3 -> x3"
