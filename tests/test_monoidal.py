import itertools
import random

import pytest

from conftest import (
    position_tracking_map,
    random_braid_word,
    random_pure_braid,
    random_word,
)
from partialbraid import monoidal
from partialbraid.action import equal_action, tau
from partialbraid.diagram import PartialInjection
from partialbraid.garside import canonical_form, equal_nf, reconstruct_word
from partialbraid.monoidal import (
    _commutes_with_generators,
    check_naturality,
    factorize,
    is_central,
    mu,
    positive_lift,
)
from partialbraid.garside import is_permutation_braid
from partialbraid.words import (
    EPSILON,
    SIGMA,
    SIGMA_INV,
    XI,
    Letter,
    Word,
    braiding_word,
    delta_word,
    epsilon,
    mirror_inverse,
    parse_word,
    sigma,
    xi,
)


def w(text, n):
    return parse_word(text, n)


def test_mu_examples():
    assert str(mu(w("s1", 2), w("s1", 2))) == "s1 s3"
    assert str(mu(w("e1", 1), w("e1", 1))) == "e1 e2"
    assert mu(Word(0), w("s1 e2", 3)) == w("s1 e2", 3)


def test_mu_is_associative(rng):
    for _ in range(100):
        a = random_word(rng, rng.randint(0, 3), 6)
        b = random_word(rng, rng.randint(0, 3), 6)
        c = random_word(rng, rng.randint(0, 3), 6)
        assert mu(mu(a, b), c) == mu(a, mu(b, c))


def test_mu_restricted_to_braids_is_index_shift():
    left = w("s1 s2^-1", 3)
    right = w("s1", 2)
    assert str(mu(left, right)) == "s1 s2^-1 s4"


def test_naturality_examples():
    assert check_naturality(w("s1", 2), w("e1", 1))
    assert check_naturality(Word(0), Word(0))


def test_naturality_random(rng):
    for _ in range(80):
        m = rng.randint(0, 4)
        n2 = rng.randint(0, 4)
        bm = random_word(rng, m, 8)
        bn = random_word(rng, n2, 8)
        assert check_naturality(bm, bn), (str(bm), str(bn))


def test_braiding_conjugates_deletions():
    # carrying the blocks over each other relabels the deleted strand
    for m in range(1, 5):
        for n2 in range(1, 5):
            total = m + n2
            c = braiding_word(m, n2)
            for i in range(1, total + 1):
                target = i - n2 if i > n2 else i + m
                lhs = c * Word(total, (epsilon(i),))
                rhs = Word(total, (epsilon(target),)) * c
                assert equal_action(lhs, rhs), (m, n2, i)


def test_factorize_examples():
    for text, n, expected in [
        ("e1", 2, ("e1", "")),
        ("e1 s1", 2, ("e1", "s1")),
        ("s1 e1", 2, ("e2", "s1")),
    ]:
        idempotent, braid_part = factorize(w(text, n))
        assert (str(idempotent), str(braid_part)) == expected


def test_printed_words_with_several_deletions():
    # (word, n, factorize parts, positive_lift of its injection,
    # reconstruct_word of its canonical form); the spreading braids fill
    # the deleted positions in ascending order
    for text, n, idempotent, braid_part, lift, rebuilt in [
        (
            "e1 e2 s3", 4, "e1 e2",
            "s2 s1 s3 s2 s1 s2^-1 s3^-1 s1^-1 s2^-1", "e1 e2 s3",
            "s2 s1 s3 s2 e3 e4 s1 e3 e4 s2 s3 s1 s2",
        ),
        (
            "e2 e4 s1 s2^-1 s3", 5, "e2 e4",
            "s2 s4 s3 s1^-1 s3^-1 s4^-1 s2^-1 s3 s1", "e2 e4 s1 s2 s3",
            "s2 s4 s3 e4 e5 s1^-1 s2^-1 s1^-1 s1 s2 e4 e5 s3 s4 s2 s3 s1",
        ),
        ("s1 e1 e3", 3, "e2 e3", "s1", "e2 e3 s1", "e2 e3 e2 e3 s1"),
        (
            "s3 s2 s1 e2 e3", 4, "e1 e2",
            "s2 s1 s3 s2 s1 s2^-1 s3^-1 s1^-1 s2^-1 s2 s1", "e1 e2 s3 s2 s1",
            "s2 s1 s3 s2 e3 e4 s1 e3 e4 s2 s3",
        ),
        (
            "e1 s2 e4 s1 s3^-1", 4, "e1 e4",
            "s1 s2 s1 s2^-1 s1^-1 s3 s1", "e1 e4 s2 s3 s1",
            "s1 s2 e3 e4 s1 e3 e4 s2 s3",
        ),
    ]:
        word = w(text, n)
        assert tuple(map(str, factorize(word))) == (idempotent, braid_part), text
        assert str(positive_lift(tau(word))) == lift, text
        assert str(reconstruct_word(canonical_form(word))) == rebuilt, text


def test_positive_lift_length_on_all_of_i4():
    # one letter per deletion, plus one crossing per inversion of the
    # minimal extension: deleted starts to unused ends, both ascending
    n, lifts = 4, 0
    for size in range(n + 1):
        for domain in itertools.combinations(range(1, n + 1), size):
            for image in itertools.permutations(range(1, n + 1), size):
                targets = dict(zip(domain, image))
                spare = iter(j for j in range(1, n + 1) if j not in image)
                extension = [targets.get(i) or next(spare) for i in range(1, n + 1)]
                inversions = sum(
                    extension[i] > extension[j]
                    for i in range(n)
                    for j in range(i + 1, n)
                )
                mapping = tuple(targets.get(i) for i in range(1, n + 1))
                lifted = positive_lift(PartialInjection(n, mapping))
                assert len(lifted) == (n - size) + inversions, mapping
                lifts += 1
    assert lifts == 209


def test_factorize_properties(rng):
    for _ in range(200):
        n = rng.randint(0, 5)
        word = random_word(rng, n, 14)
        idempotent, braid_part = factorize(word)
        assert equal_action(idempotent * braid_part, word)
        assert equal_action(idempotent * idempotent, idempotent)
        assert all(letter.kind == EPSILON for letter in idempotent)
        assert all(letter.kind != EPSILON for letter in braid_part)
        assert tau(idempotent).domain() == tau(word).domain()
        # the braid part deletes nothing
        assert tau(braid_part).is_total()


def test_positive_lift_is_a_section(rng):
    for _ in range(200):
        n = rng.randint(1, 5)
        injection = tau(random_word(rng, n, 10))
        lifted = positive_lift(injection)
        assert tau(lifted) == injection
        assert all(letter.kind in (SIGMA, EPSILON) for letter in lifted)
        crossings = Word(n, tuple(l for l in lifted if l.kind == SIGMA))
        assert is_permutation_braid(crossings, n)


def test_positive_lift_identity():
    assert positive_lift(PartialInjection.identity(3)) == Word(3)


def test_is_central_examples():
    assert is_central(delta_word(3) ** 2)
    assert is_central(w("e1 e2 e3", 3))
    assert not is_central(w("s1", 3))
    assert not is_central(w("e1", 2))
    assert is_central(Word(3))  # the identity


def test_is_central_agrees_with_action_oracle(rng):
    # the normal-form route against w g == g w through the action engine,
    # on random words with deletions and on conjugates of the full twist
    verdicts = set()
    for _ in range(150):
        n = rng.randint(1, 5)
        word = random_word(rng, n, 8)
        if rng.random() < 0.3:
            u = random_braid_word(rng, n, 4)
            word = u * delta_word(n) ** 2 * mirror_inverse(u)
        generators = [Word(n, (sigma(i),)) for i in range(1, n)]
        generators += [Word(n, (epsilon(i),)) for i in range(1, n + 1)]
        expected = all(equal_action(word * g, g * word) for g in generators)
        assert is_central(word) == expected, str(word)
        verdicts.add(expected)
    assert verdicts == {True, False}
    # welded words: t1 t1 keeps every strand in place and goes to the
    # action; t1 moves two strands, which its strand map answers
    assert is_central(w("t1 t1", 3))
    assert not is_central(w("t1", 3))


def _central_by_canonical_form(word):
    """The canonical-form rule alone, with no invariant exit before it: an
    empty domain, or a full one with no factors and an even half-twist
    power."""
    form = canonical_form(word)
    return not form.domain or (
        len(form.domain) == word.n and not form.nf.factors and form.nf.inf % 2 == 0
    )


def _central_word(rng, n):
    """One of: a random word with deletions, a braid word, a pure braid,
    or a conjugate u Delta^(2m) u^-1, that last one at times followed by
    one deletion or by all of them."""
    shape = rng.randrange(4)
    if shape == 0:
        return random_word(rng, n, 10)
    if shape == 1:
        return random_braid_word(rng, n, 10)
    if shape == 2 or n == 0:
        return random_pure_braid(rng, n, 8)
    u = random_braid_word(rng, n, 6)
    m = rng.randint(-2, 2)
    twist = delta_word(n) ** (2 * abs(m))
    if m < 0:
        twist = mirror_inverse(twist)
    word = u * twist * mirror_inverse(u)
    tail = rng.random()
    if tail < 0.2:
        word = word * Word(n, (epsilon(rng.randint(1, n)),))
    elif tail < 0.3:
        word = word * Word(n, tuple(epsilon(i) for i in range(1, n + 1)))
    return word


def test_is_central_exits_agree_with_the_canonical_form_rule(monkeypatch):
    # seeded: 20,400 words, n = 0..5 (see _central_word).  Only a word with
    # a full domain, the identity strand map and an exponent sum a multiple
    # of n(n-1) may build a normal form; every answer is the rule's
    rng = random.Random(0xCE17)
    built = []
    real = monoidal._rank_nf
    monkeypatch.setattr(
        monoidal, "_rank_nf", lambda k, ranks: built.append(k) or real(k, ranks)
    )
    routes = {}
    for case in range(20_400):
        n = case % 6
        word = _central_word(rng, n)
        del built[:]
        got = is_central(word)
        assert got == _central_by_canonical_form(word), str(word)
        ends = position_tracking_map(word)
        total = sum(
            (x.kind == SIGMA) - (x.kind == SIGMA_INV) for x in word.letters
        )
        if len(ends) < n:
            route = "partial"
        elif any(start != end for start, end in ends.items()):
            route = "strand map"
        elif n >= 2 and total % (n * (n - 1)):
            route = "exponent sum"
        else:
            route = "canonical form"
        assert built == ([n] if route == "canonical form" else []), str(word)
        routes[route, got] = routes.get((route, got), 0) + 1
    print(f"is_central words per (route, verdict): {routes}")
    assert set(routes) == {
        ("partial", False), ("partial", True), ("strand map", False),
        ("exponent sum", False), ("canonical form", False),
        ("canonical form", True),
    }, routes


def _welded_central_word(rng, n):
    """A word with a t letter: random, with deletions at times; or a
    crossing-and-swap word followed by the swaps that put every strand
    back, at times followed by one deletion or by all of them."""
    while True:
        shape = rng.randrange(3)
        if shape == 0:
            word = random_word(rng, n, 10, with_xi=True)
        else:
            occupant = list(range(1, n + 1))
            letters = list(random_word(rng, n, 10, with_xi=True, no_epsilon=True))
            for x in letters:
                i = x.index - 1
                occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
            # bubble sort by swaps, so the strand map becomes the identity
            for top in range(n - 1, 0, -1):
                for i in range(top):
                    if occupant[i] > occupant[i + 1]:
                        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
                        letters.append(xi(i + 1))
            if shape == 2:
                tail = rng.sample(range(1, n + 1), rng.choice((1, n)))
                letters += [epsilon(i) for i in tail]
            word = Word(n, tuple(letters))
        if XI in word.kinds():
            return word


def test_is_central_on_welded_words_against_the_definition(monkeypatch):
    # seeded: 6,000 words with a t letter, n = 2..5 (see
    # _welded_central_word).  Every answer is the definition's, and only a
    # word that keeps every strand in place reaches the definition
    rng = random.Random(0x7E1C)
    definition = monoidal._commutes_with_generators
    reached = []
    monkeypatch.setattr(
        monoidal,
        "_commutes_with_generators",
        lambda word, max_letters: reached.append(word) or definition(word, max_letters),
    )
    routes = {}
    for case in range(6000):
        n = case % 4 + 2
        word = _welded_central_word(rng, n)
        del reached[:]
        got = is_central(word)
        assert got == definition(word), str(word)
        ends = position_tracking_map(word)
        if len(ends) < n:
            route = "partial"
        elif any(start != end for start, end in ends.items()):
            route = "strand map"
        else:
            route = "definition"
        assert reached == ([word] if route == "definition" else []), str(word)
        routes[route, got] = routes.get((route, got), 0) + 1
    print(f"welded is_central words per (route, verdict): {routes}")
    assert set(routes) == {
        ("partial", False), ("partial", True), ("strand map", False),
        ("definition", False), ("definition", True),
    }, routes


def test_is_central_tries_sigmas_and_epsilons_only():
    # s1 s1 t1 t1 commutes with s1, e1 and e2 but not with the swap t1
    word, t1 = w("s1 s1 t1 t1", 2), w("t1", 2)
    assert is_central(word)
    assert not equal_action(word * t1, t1 * word)


def test_is_central_refuses_odd_twist_powers(rng):
    # the half-twist reverses the strands, so no odd power of it is
    # central, however it is written: u Delta tau(u)^-1 is Delta itself
    # (tau the index reversal), and u Delta u^-1 a conjugate of it; the
    # square of either is central
    for n in range(3, 7):
        twist = delta_word(n)
        for _ in range(6):
            u = random_braid_word(rng, n, 6)
            reversed_u = Word(n, tuple(Letter(x.kind, n - x.index) for x in u))
            disguised = u * twist * mirror_inverse(reversed_u)
            conjugate = u * twist * mirror_inverse(u)
            for word in disguised, conjugate:
                assert not is_central(word), str(word)
                assert not is_central(word * word * word), str(word)
                assert is_central(word * word), str(word)
            assert canonical_form(disguised) == canonical_form(twist)
            assert not _commutes_with_generators(disguised)


def test_equal_dispatch_error_path(monkeypatch):
    from partialbraid import action, garside, monoidal
    from partialbraid.freegroup import ResourceLimitError

    # a strand-count mismatch keeps its text whether or not a word is welded
    for left, right in [("s1", "s1"), ("t1", "t1"), ("s1", "t1"), ("t1", "s1")]:
        with pytest.raises(ValueError, match=r"^strand-count mismatch: 2 vs 3$"):
            monoidal._equal(w(left, 2), w(right, 3))
    # a cap hit on a welded pair is raised on its own, not chained to the
    # normal forms' refusal; the pair is equal, so its fingerprints agree
    # and the action has to evaluate it
    long_word = w("t1 s1 s2 " * 30, 3)
    with pytest.raises(ResourceLimitError) as caught:
        monoidal._equal(long_word, w("t1 t1", 3) * long_word, max_letters=50)
    assert caught.value.__context__ is None
    assert not monoidal._equal(long_word, w("s1", 3), max_letters=50)

    # any other refusal of a pair with no welded letter is raised, and the
    # action never answers it
    def refuse(*args):
        raise ValueError("factor sequence is not left-greedy")

    asked = []

    def action_spy(w1, w2, max_letters):
        asked.append((str(w1), str(w2)))
        return True

    monkeypatch.setattr(garside, "_rank_nf", refuse)
    monkeypatch.setattr(action, "equal_action", action_spy)
    # mixed-sign cores, so the normal forms are asked
    with pytest.raises(ValueError, match="^factor sequence is not left-greedy$"):
        monoidal._equal(w("s1 s2 s1^-1", 3), w("s2^-1 s1 s2", 3))
    assert asked == []
    # welded pairs still reach the action, which monoidal loads on demand
    assert monoidal._equal(w("t1", 2), w("t1 t1 t1", 2))
    assert asked == [("t1", "t1 t1 t1")]


def test_center_classification_small():
    # among all words of length <= 4 on three strands the central ones are
    # exactly the identity, the sampled half-twist powers and the empty braid
    import itertools

    alphabet = ["s1", "s2", "s1^-1", "s2^-1", "e1", "e2", "e3"]
    delta_sq = delta_word(3) ** 2
    empty_braid = w("e1 e2 e3", 3)
    central, checked = 0, 0
    for length in range(0, 5):
        for combo in itertools.product(alphabet, repeat=length):
            word = w(" ".join(combo), 3)
            expected = (
                equal_nf(word, Word(3))
                or equal_nf(word, delta_sq)  # length caps rule out higher powers
                or equal_nf(word, empty_braid)
            )
            assert is_central(word) == expected, str(word)
            checked += 1
            central += expected
    assert checked == 1 + 7 + 49 + 343 + 2401
    assert central > 0
