import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    has_survivor_swap,
    position_tracking_map,
    random_braid_word,
    random_pure_braid,
    random_word,
)
from partialbraid import ResourceLimitError, garside, monoidal
from partialbraid.action import equal_action
from partialbraid.diagram import (
    PartialInjection,
    _occupants,
    _replay,
    evaluate_skeleton,
)
from partialbraid.freegroup import reduce
from partialbraid.garside import (
    CanonicalForm,
    GarsideNF,
    canonical_form,
    equal_nf,
    identity_perm,
    invert_perm,
    is_permutation_braid,
    left_greedy_nf,
    left_weighted,
    longest_perm,
    perm_to_word,
    reconstruct_word,
    word_to_perm,
)
from partialbraid.monoidal import positive_lift
from partialbraid.words import (
    EPSILON,
    SIGMA,
    XI,
    Word,
    delta_word,
    epsilon,
    mirror_inverse,
    parse_word,
    relation_suite,
    sigma,
    sigma_inv,
    xi,
)


def w(text, n):
    return parse_word(text, n)


def perm_length(p):
    """Number of inversions; the crossing count of the permutation braid."""
    return sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )


def test_perm_helpers():
    assert identity_perm(3) == (0, 1, 2)
    assert longest_perm(4) == (3, 2, 1, 0)
    assert perm_length(longest_perm(4)) == 6
    p = (1, 2, 0)
    inv = invert_perm(p)
    assert tuple(inv[v] for v in p) == identity_perm(3)


def test_word_to_perm_examples():
    assert word_to_perm(w("s1 s2 s1", 3)) == longest_perm(3)
    assert word_to_perm(Word(4)) == identity_perm(4)
    assert word_to_perm(w("s1 s1", 2)) == identity_perm(2)


def test_word_to_perm_rejects_inverses():
    with pytest.raises(ValueError):
        word_to_perm(w("s1^-1", 2))


def test_word_to_perm_error_texts():
    for text, n, message in [
        ("s2^-1", 3, "word_to_perm expects positive crossings only"),
        ("s1 t1", 2, "word_to_perm expects positive crossings only"),
        ("e1", 2, "word_to_perm expects positive crossings only"),
    ]:
        with pytest.raises(ValueError) as caught:
            word_to_perm(w(text, n))
        assert str(caught.value) == message, text


def test_perm_to_word_examples():
    assert perm_to_word(identity_perm(4)).letters == ()
    assert str(perm_to_word((1, 0))) == "s1"
    # the longest element lifts to a word positively equal to the half twist
    lift = perm_to_word(longest_perm(3))
    assert len(lift) == 3
    assert word_to_perm(lift) == longest_perm(3)
    assert equal_action(lift, delta_word(3))


def test_perm_to_word_round_trip(rng):
    for _ in range(200):
        k = rng.randint(1, 7)
        images = list(range(k))
        rng.shuffle(images)
        p = tuple(images)
        lift = perm_to_word(p)
        assert word_to_perm(lift) == p
        assert len(lift) == perm_length(p)


def _leftmost_descent_word(p, n=None):
    """perm_to_word as first written: swap the leftmost descent of the
    inverse permutation, searching again from strand 0 after every swap."""
    k = len(p)
    if n is None:
        n = k
    apos = list(invert_perm(p))
    reversed_letters = []
    while True:
        g = next((g for g in range(k - 1) if apos[g + 1] < apos[g]), None)
        if g is None:
            break
        apos[g], apos[g + 1] = apos[g + 1], apos[g]
        reversed_letters.append(g)
    return Word(n, tuple(sigma(g + 1) for g in reversed(reversed_letters)))


def test_perm_to_word_matches_the_leftmost_descent_search():
    for k in range(8):
        for p in itertools.permutations(range(k)):
            assert perm_to_word(p) == _leftmost_descent_word(p), p
    rng = random.Random(0x5047)
    for _ in range(300):
        k = rng.randint(8, 60)
        images = list(range(k))
        rng.shuffle(images)
        p, n = tuple(images), k + rng.randint(1, 5)
        assert perm_to_word(p, n) == _leftmost_descent_word(p, n), p


def test_is_permutation_braid():
    assert is_permutation_braid(w("s1 s2", 3))
    assert not is_permutation_braid(w("s1 s1", 2))
    assert is_permutation_braid(delta_word(4))
    assert is_permutation_braid(Word(5))


def _inversion_count_verdict(word):
    """is_permutation_braid as first written: as many letters as the
    permutation has inversions; an error is returned as its text."""
    try:
        return len(word.letters) == perm_length(word_to_perm(word))
    except ValueError as exc:
        return str(exc)


def test_is_permutation_braid_matches_the_inversion_count(rng):
    verdicts = {True: 0, False: 0}
    for _ in range(20_000):
        k = rng.randint(1, 9)
        word = random_word(rng, k, 12, positive_only=True, no_epsilon=True)
        got = is_permutation_braid(word)
        assert got == _inversion_count_verdict(word), str(word)
        verdicts[got] += 1
    assert all(v > 2_000 for v in verdicts.values()), verdicts
    # other letters raise word_to_perm's errors
    for _ in range(2_000):
        word = random_word(rng, rng.randint(1, 6), 6, with_xi=True)
        try:
            got = is_permutation_braid(word)
        except ValueError as exc:
            got = str(exc)
        assert got == _inversion_count_verdict(word), str(word)
    for text, n, message in [
        ("s2^-1", 3, "word_to_perm expects positive crossings only"),
        ("s1 t1", 2, "word_to_perm expects positive crossings only"),
        ("e1", 2, "word_to_perm expects positive crossings only"),
    ]:
        with pytest.raises(ValueError) as caught:
            is_permutation_braid(w(text, n))
        assert str(caught.value) == message, text


def test_permutation_braids_on_a_thousand_strands():
    """The block shift 1..500 -> 501..1000 lifts to 250,000 crossings, and
    deleting strands 1..500 rebuilds through the same spreading braid."""
    n = 1000
    shift = PartialInjection(n, tuple(range(501, 1001)) + (None,) * 500)
    start = time.perf_counter()
    lift = positive_lift(shift)
    assert time.perf_counter() - start < 2
    assert len(lift) == 500 + 500 * 500
    assert _occupants(lift) == [None] * 500 + list(range(1, 501))
    form = canonical_form(parse_word(" ".join(f"e{i}" for i in range(1, 501)), n))
    start = time.perf_counter()
    rebuilt = reconstruct_word(form)
    assert time.perf_counter() - start < 2
    assert canonical_form(rebuilt) == form


def test_left_greedy_examples():
    nf = left_greedy_nf(delta_word(3))
    assert (nf.inf, nf.factors) == (1, ())

    nf = left_greedy_nf(w("s1 s1^-1", 2))
    assert (nf.inf, nf.factors) == (0, ())

    nf = left_greedy_nf(w("s1^-1", 3))
    assert nf.inf == -1
    assert nf.factors == (word_to_perm(w("s1 s2", 3)),)


def test_left_greedy_error_texts():
    # letter by letter, the kind is checked before the range, as
    # word_to_perm does: a deletion is refused for its kind at any index
    for text, n, k, message in [
        ("e3 s1", 3, None, "normal forms expect crossing-only words"),
        ("e2", 3, 2, "normal forms expect crossing-only words"),
        ("t2", 3, 2, "normal forms expect crossing-only words"),
        ("s2 e1", 3, 2, "crossing s2 out of range for k=2"),
        ("s1 s2^-1 t1", 3, 2, "crossing s2^-1 out of range for k=2"),
        ("s1 e1", 3, 2, "normal forms expect crossing-only words"),
        ("e1 s2", 3, 2, "normal forms expect crossing-only words"),
        ("t1", 3, None, "normal forms expect crossing-only words"),
        ("s1^-1 t2", 3, None, "normal forms expect crossing-only words"),
    ]:
        with pytest.raises(ValueError) as caught:
            left_greedy_nf(w(text, n), k)
        assert str(caught.value) == message, text


def _starts(p):
    """0-based g such that the braid of p can begin with crossing g+1."""
    return {g for g in range(len(p) - 1) if p[g] > p[g + 1]}


def test_left_weighted_is_start_set_inclusion():
    # (a, b) is left-weighted exactly when every crossing that can start b
    # can finish a, i.e. start the braid of a's inverse
    for k in range(6):
        perms = list(itertools.permutations(range(k)))
        weighted = 0
        for a in perms:
            finishes = _starts(invert_perm(a))
            for b in perms:
                expected = _starts(b) <= finishes
                assert left_weighted(a, b) == expected, (a, b)
                weighted += expected
        assert 0 < weighted <= len(perms) ** 2


def test_left_greedy_splits_generator_square():
    nf = left_greedy_nf(w("s1 s1", 3))
    assert nf.inf == 0
    assert len(nf.factors) == 2
    assert all(factor == word_to_perm(w("s1", 3)) for factor in nf.factors)


def test_nf_factors_are_greedy_permutation_braids(rng):
    for _ in range(150):
        k = rng.randint(1, 6)
        braid = random_braid_word(rng, k, 20)
        nf = left_greedy_nf(braid)
        for factor in nf.factors:
            assert factor != identity_perm(k)
            assert factor != longest_perm(k)
            assert is_permutation_braid(perm_to_word(factor))
        for a, b in zip(nf.factors, nf.factors[1:]):
            assert left_weighted(a, b)


def test_nf_multiplies_back(rng):
    for _ in range(150):
        k = rng.randint(1, 6)
        braid = random_braid_word(rng, k, 15)
        assert equal_action(left_greedy_nf(braid).to_word(), braid)


def test_nf_is_a_class_invariant(rng):
    # compute the form from two different spellings of the same braid
    for _ in range(100):
        k = rng.randint(2, 6)
        braid = random_braid_word(rng, k, 12)
        padded = w("s1 s1^-1", k) * braid
        assert left_greedy_nf(padded) == left_greedy_nf(braid)


def test_positive_words_have_nonnegative_inf(rng):
    for _ in range(100):
        k = rng.randint(2, 6)
        braid = random_braid_word(rng, k, 15)
        positive = Word(k, tuple(sigma(letter.index) for letter in braid))
        nf = left_greedy_nf(positive)
        assert nf.inf >= 0
        assert equal_action(nf.to_word(), positive)


def test_positively_equal_words_share_normal_forms(rng):
    # pairs differing by braid-relation rewrites only: same form, inf >= 0
    from partialbraid.words import relation_suite

    for _ in range(100):
        k = rng.randint(3, 6)
        relations = relation_suite("artin", k)
        chunks = [
            Word(k, tuple(sigma(rng.randint(1, k - 1)) for _ in range(rng.randint(0, 5))))
            for _ in range(3)
        ]
        rel1, rel2 = rng.choice(relations), rng.choice(relations)
        v = chunks[0] * rel1.left * chunks[1] * rel2.left * chunks[2]
        u = chunks[0] * rel1.right * chunks[1] * rel2.right * chunks[2]
        nf_v, nf_u = left_greedy_nf(v), left_greedy_nf(u)
        assert nf_v == nf_u
        assert nf_v.inf >= 0


def test_index_reversal_regression():
    # conjugating by the half twist reverses crossing indices
    for k in range(2, 7):
        dk = delta_word(k)
        for i in range(1, k):
            lhs = dk * Word(k, (sigma(i),))
            rhs = Word(k, (sigma(k - i),)) * dk
            assert equal_action(lhs, rhs), (k, i)


def _conjugated_factors(k, ranks):
    """The normal-form core's input built at the permutation level: every
    factor first, then the index-reversal automorphism applied to each
    factor with an odd number of inverse crossings to its right.  Returns
    the half-twist power and the factors, before left-weighting."""
    half_twist = longest_perm(k)
    raw = []
    for r in ranks:
        if r > 0:
            p = list(range(k))
            p[r - 1], p[r] = p[r], p[r - 1]
            raw.append((tuple(p), 0))
        else:
            p = list(half_twist)
            p[k + r], p[k - 1 + r] = p[k - 1 + r], p[k + r]
            raw.append((tuple(p), -1))
    total = 0
    factors = []
    for p, d in reversed(raw):
        if total % 2:
            p = tuple(k - 1 - p[k - 1 - s] for s in range(k))
        factors.append(p)
        total += d
    factors.reverse()
    return total, factors


def test_rank_nf_matches_permutation_level_conjugation(monkeypatch):
    # seeded: 20,000 signed rank lists, k = 1..12, up to 12 crossings.  The
    # factors _rank_nf hands to _normalize, and its half-twist power, must
    # be those of the permutation-level route on the freely reduced ranks;
    # _normalize is stubbed out, as left-weighting equal inputs gives equal
    # forms
    handed = []
    monkeypatch.setattr(
        garside, "_normalize", lambda factors, k: handed.append(factors) or (0, ())
    )
    rng = random.Random(0xD317A)
    for _ in range(20_000):
        k = rng.randint(1, 12)
        length = rng.randint(0, 12) if k > 1 else 0
        ranks = [rng.choice((1, -1)) * rng.randint(1, k - 1) for _ in range(length)]
        nf = garside._rank_nf(k, ranks)
        expected = _conjugated_factors(k, reduce(ranks))
        assert (nf.inf, handed.pop()) == expected, (k, ranks)


def test_garside_nf_refuses_factors_that_are_not_permutations():
    for factor in ((1, 0), (0, 0, 1), (0, 1, 3), (1, 2, 0, 3), ()):
        with pytest.raises(ValueError) as caught:
            GarsideNF(3, 0, (factor,))
        assert str(caught.value) == f"factor {factor} is not a permutation of 0..2"
    # the check comes before the identity, half-twist and greedy checks
    with pytest.raises(ValueError) as caught:
        GarsideNF(3, 0, ((1, 2, 0), (2, 2, 2)))
    assert str(caught.value) == "factor (2, 2, 2) is not a permutation of 0..2"
    assert str(GarsideNF(3, 0, ((1, 2, 0),))) == "inf=0 factors=[2 3 1]"


def test_perm_to_word_refuses_non_permutations():
    # a repeated value and a value past k - 1 are refused before the sort,
    # which would read the one as the identity and index past the other
    for p in ((1, 1), (0, 2)):
        with pytest.raises(ValueError) as caught:
            perm_to_word(p)
        assert str(caught.value) == f"{p} is not a permutation of 0..1"
    assert perm_to_word((), 2) == Word(2)


def test_garside_nf_validation():
    with pytest.raises(ValueError):
        GarsideNF(3, 0, (identity_perm(3),))
    with pytest.raises(ValueError):
        GarsideNF(3, 0, (longest_perm(3),))
    # a non-greedy pair: s1 followed by s2 is not left weighted
    with pytest.raises(ValueError):
        GarsideNF(3, 0, (word_to_perm(w("s1", 3)), word_to_perm(w("s2", 3))))


def test_canonical_form_examples():
    form = canonical_form(w("s1", 2))
    assert (form.domain, form.codomain) == ((1, 2), (1, 2))
    assert (form.nf.inf, form.nf.factors) == (1, ())

    form = canonical_form(w("e1", 2))
    assert str(form) == "I={2} J={2} inf=0 factors=[]"

    assert canonical_form(w("e1 s1 e1", 2)) == canonical_form(w("s1 e1 s1 e1", 2))


def _has_cancelling_pair(ranks):
    return any(a == -b for a, b in zip(ranks, ranks[1:]))


def test_normal_forms_start_from_the_freely_reduced_braid(monkeypatch):
    # _rank_nf freely reduces the ranks it is given: the factors it hands
    # _normalize are those of ranks with no adjacent r, -r, for every
    # normal form canonical_form, left_greedy_nf and is_central build from
    # an unreduced survivor braid, and for direct calls
    handed = []
    real = garside._normalize

    def spy(factors, k):
        handed.append(list(factors))
        return real(factors, k)

    monkeypatch.setattr(garside, "_normalize", spy)
    # the pairs cancel as written, after an inner pair goes, and once a
    # deleted strand takes the crossing between them; is_central's words
    # are pure with a multiple of n(n-1) as exponent sum, so they reach
    # the normal form
    braids = ["s1 s1^-1", "s1 s2 s2^-1 s1^-1 s2", "s2^-1 s1 s1^-1 s2 s1",
              "s1 s1^-1 s1 s2 s1 s2 s1 s2"]
    central = ["s1 s1^-1", "s1 s2 s1 s2 s2^-1 s2 s1 s2", "s1 s2 s2^-1 s1^-1"]
    deleted = ["s1 s2 s1^-1 e3 s1 s2^-1"]
    cases = [(canonical_form, text, 4) for text in braids + deleted]
    cases += [(left_greedy_nf, text, 4) for text in braids]
    cases += [(monoidal.is_central, text, 3) for text in central]
    for build, text, n in cases:
        word = w(text, n)
        occupant = _occupants(word)
        ranks = _replay(word, occupant)
        assert _has_cancelling_pair(ranks), text
        del handed[:]
        build(word)
        k = n - occupant.count(None)
        expected = _conjugated_factors(k, reduce(ranks))[1]
        assert handed == [expected], (build.__name__, text)
    assert all(monoidal.is_central(w(text, 3)) for text in central)
    # direct calls: pairs as written, nested, and apart from an outer pair
    direct = [(2, [1, -1]), (3, [2, -1, 1, -2]), (4, [3, 1, 2, -2, -1, 1]),
              (4, [-3, 3, -2, 1, 2, -2, -1])]
    for k, ranks in direct:
        del handed[:]
        garside._rank_nf(k, ranks)
        reduced = reduce(ranks)
        assert len(reduced) < len(ranks) and not _has_cancelling_pair(reduced)
        assert handed == [_conjugated_factors(k, reduced)[1]], (k, ranks)


def test_canonical_form_matches_the_unreduced_normal_form(monkeypatch):
    # seeded: free reduction leaves the normal form as it was, on crossing
    # words of n = 3..10, 20 and 40 strands and up to 400 letters, each
    # with s_i s_i^-1 pairs inserted at random and, every other word, a
    # deletion or two.  The unreduced side is _rank_nf with its reduction
    # patched out
    rng = random.Random(0xF4EE)
    cancelled = 0
    for n in (*range(3, 11), 20, 40):
        for max_len in (40, 400):
            letters = list(random_braid_word(rng, n, max_len).letters)
            inserts = [(sigma(i), sigma_inv(i)) for i in rng.choices(range(1, n), k=8)]
            if max_len > 40:
                inserts += [(epsilon(rng.randint(1, n)),) for _ in range(2)]
            for insert in inserts:
                pos = rng.randint(0, len(letters))
                letters[pos:pos] = insert[::rng.choice((1, -1))]
            word = Word(n, letters)
            occupant = _occupants(word)
            ranks = _replay(word, occupant)
            with monkeypatch.context() as patch:
                patch.setattr(garside, "reduce", tuple)
                unreduced = garside._rank_nf(n - occupant.count(None), ranks)
            assert canonical_form(word).nf == unreduced, str(word)
            cancelled += _has_cancelling_pair(ranks)
    # a deletion may take one inserted pair's crossings with it
    assert cancelled >= 15, cancelled


def test_equal_nf_examples():
    assert not equal_nf(w("e1", 2), w("e2", 2))
    assert equal_nf(w("s1 s2 s1", 3), w("s2 s1 s2", 3))
    # a pure braid has the identity's strand map but is not the identity
    assert not equal_nf(w("s1 s1", 2), Word(2))
    # at most one survivor: no crossing has a rank, so the strand maps decide
    assert equal_nf(Word(0), Word(0))
    assert equal_nf(w("e1", 1), w("e1 e1", 1))
    assert not equal_nf(w("", 1), w("e1", 1))
    assert equal_nf(w("s1 e1 e2", 2), w("e2 e1", 2))
    assert equal_nf(w("e2 s1 s1^-1 s1", 2), w("e2 s1", 2))
    with pytest.raises(ValueError):
        equal_nf(w("", 2), w("", 3))


def _word_with_deletions(rng, n, max_len, share):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < share:
            letters.append(epsilon(rng.randint(1, n)))
        else:
            i = rng.randint(1, n - 1)
            letters.append(sigma(i) if rng.random() < 0.5 else sigma_inv(i))
    return Word(n, tuple(letters))


def _commute(a, b):
    """Do adjacent letters a, b commute by a far-commutation relation?"""
    if a.kind == EPSILON and b.kind == EPSILON:
        return True
    if a.kind != EPSILON and b.kind != EPSILON:
        return abs(a.index - b.index) >= 2
    e, c = (a, b) if a.kind == EPSILON else (b, a)
    return e.index not in (c.index, c.index + 1)


def _rewrite(rng, word, steps):
    """An equal word: insert free cancellations and braid-relation cycles,
    swap far-commuting neighbours, double deletions (e_i e_i = e_i)."""
    n = word.n
    letters = list(word.letters)
    for _ in range(steps):
        move = rng.randrange(4)
        pos = rng.randint(0, len(letters))
        if move == 0:
            i = rng.randint(1, n - 1)
            letters[pos:pos] = rng.choice(
                [[sigma(i), sigma_inv(i)], [sigma_inv(i), sigma(i)]]
            )
        elif move == 1 and n >= 3:
            i = rng.randint(1, n - 2)
            letters[pos:pos] = [sigma(i), sigma(i + 1), sigma(i),
                                sigma_inv(i + 1), sigma_inv(i), sigma_inv(i + 1)]
        elif move == 2 and pos + 1 < len(letters):
            a, b = letters[pos], letters[pos + 1]
            if _commute(a, b):
                letters[pos], letters[pos + 1] = b, a
        elif move == 3 and pos < len(letters) and letters[pos].kind == EPSILON:
            letters.insert(pos, letters[pos])
    return Word(n, tuple(letters))


def _freely_reduced(braid):
    """The letters of a crossing-only word with each adjacent s_i s_i^-1
    or s_i^-1 s_i cancelled, until none is left."""
    out = []
    for letter in braid.letters:
        if out and out[-1].index == letter.index and out[-1].kind != letter.kind:
            out.pop()
        else:
            out.append(letter)
    return out


def _count_calls(monkeypatch, name):
    """Patch garside.<name> to record each call's arguments in the
    returned list."""
    calls = []
    real = getattr(garside, name)
    monkeypatch.setattr(
        garside, name, lambda *args: calls.append(args) or real(*args)
    )
    return calls


def _one_sign_permutation_braids(k, c1, c2):
    """Are the signed-rank cores c1 and c2 all of one sign between them,
    and each a permutation braid?  Read as a length equal to the inversion
    count of its permutation."""
    ranks = c1 + c2
    if not (all(r > 0 for r in ranks) or all(r < 0 for r in ranks)):
        return False
    return all(
        len(core)
        == perm_length(word_to_perm(Word(k, tuple(sigma(abs(r)) for r in core))))
        for core in (c1, c2)
    )


def _signed_sum(ranks):
    """Exponent sum of a signed-rank braid: +1 per crossing, -1 per
    inverse crossing."""
    return sum(1 if r > 0 else -1 for r in ranks)


def _cores_exit(core_calls, nf_calls):
    """Which exit of equal_nf's last stage decided, checked against the
    cores it received: the permutation comparison exactly for one-sign
    permutation braids, the normal forms of both cores otherwise."""
    (k, c1, c2), = core_calls
    if _one_sign_permutation_braids(k, c1, c2):
        assert nf_calls == [], (k, c1, c2)
        return "permutation"
    assert nf_calls == [(k, c1), (k, c2)], (k, c1, c2)
    return "normal form"


def test_equal_nf_strand_map_exit_differential(monkeypatch):
    # seeded: 1,320 pairs, n = 2..12, 0-30% deletions; equal by rewriting,
    # equal strand maps (w against w s_i s_i, pure-braid conjugates), and
    # strand maps differing in domain, codomain or permutation
    rng = random.Random(0xE0A1)
    replay_calls = _count_calls(monkeypatch, "_replay")
    core_calls = _count_calls(monkeypatch, "_equal_cores")
    nf_calls = _count_calls(monkeypatch, "_rank_nf")
    # pairs per (branch taken, verdict): the strand-map and exponent-sum
    # exits only say False, the reduced-braid exit only True; the last
    # stage decides the cores by their permutations or by their normal forms
    seen = {
        ("strand map", False): 0,
        ("reduced braid", True): 0,
        ("exponent sum", False): 0,
        ("cores", False): 0,
        ("cores", True): 0,
    }
    exits = {"permutation": 0, "normal form": 0}
    oracle_checked = cap_hits = 0
    for n in range(2, 13):
        for k in range(120):
            share = rng.uniform(0.0, 0.3)
            w1 = _word_with_deletions(rng, n, 3 * n, share)
            kind = k % 6
            if kind == 0:
                w2 = _rewrite(rng, w1, rng.randint(1, 8))
            elif kind == 1:
                i = rng.randint(1, n - 1)
                w2 = w1 * Word(n, (sigma(i), sigma(i)))
            elif kind == 2:
                p = random_pure_braid(rng, n, 2 * n)
                w2 = p * w1 * mirror_inverse(p)
            elif kind == 3:
                w2 = w1 * Word(n, (epsilon(rng.randint(1, n)),))
            elif kind == 4:
                w2 = w1 * Word(n, (sigma(rng.randint(1, n - 1)),))
            else:
                w2 = _word_with_deletions(rng, n, 3 * n, share)
            del replay_calls[:], core_calls[:], nf_calls[:]
            got = equal_nf(w1, w2)
            if not replay_calls:
                branch = "strand map"
            elif core_calls:
                branch = "cores"
                exits[_cores_exit(core_calls, nf_calls)] += 1
            else:
                branch = "reduced braid" if got else "exponent sum"
            assert got == (canonical_form(w1) == canonical_form(w2)), (str(w1), str(w2))
            same_map = position_tracking_map(w1) == position_tracking_map(w2)
            assert same_map == (branch != "strand map"), (str(w1), str(w2))
            if branch != "strand map":
                r1, r2 = _reduced_ranks(w1), _reduced_ranks(w2)
                assert (r1 == r2) == (branch == "reduced braid"), (str(w1), str(w2))
                if r1 != r2:
                    sums_differ = _signed_sum(r1) != _signed_sum(r2)
                    assert sums_differ == (branch == "exponent sum"), (str(w1), str(w2))
            seen[branch, got] += 1
            if kind == 0:
                assert got, (str(w1), str(w2))
            if kind == 1:
                ends = set(position_tracking_map(w1).values())
                assert got == (i not in ends or i + 1 not in ends), (str(w1), i)
            if n <= 5:
                try:
                    expected = equal_action(w1, w2, max_letters=20_000)
                except ResourceLimitError:
                    cap_hits += 1
                else:
                    oracle_checked += 1
                    assert got == expected, (str(w1), str(w2))
    print(
        f"equal_nf: {seen['strand map', False]} pairs unequal on strand maps, "
        f"{seen['reduced braid', True]} equal on freely reduced braids, "
        f"{seen['exponent sum', False]} unequal on exponent sums; "
        f"by cores {seen['cores', True]} equal and {seen['cores', False]} "
        f"unequal, decided by {exits}; action oracle checked "
        f"{oracle_checked}, {cap_hits} hit the letter cap"
    )
    assert all(seen.values()), seen
    assert oracle_checked > 0


def test_equal_nf_error_order():
    # the strand-count check comes before any letter is looked at
    with pytest.raises(ValueError, match=r"^strand-count mismatch: 2 vs 3$"):
        equal_nf(w("t1", 2), w("s1 t2", 3))
    with pytest.raises(ValueError, match=r"^strand-count mismatch: 3 vs 2$"):
        equal_nf(w("e1", 3), w("t1", 2))
    # welded words have strand maps: where they differ the answer is False;
    # where they agree a swap that moves one survivor (e1 t1) or none
    # (e1 e2 t1) is answered, and only a swap of two survivors raises
    for a, b in [("e1", "t1"), ("t1", "e1"), ("e1 e2", "s1 t2"), ("t1", "t2")]:
        assert not equal_nf(w(a, 3), w(b, 3)), (a, b)
    for a, b in [("e1 t1", "e1 s1"), ("e1 e2", "e1 e2 t1")]:
        assert equal_nf(w(a, 3), w(b, 3)), (a, b)
    for a, b in [("t1", "s1"), ("s1", "t1"), ("t1 t1", "")]:
        with pytest.raises(
            ValueError, match=r"^skeletons are not defined for xi letters$"
        ):
            equal_nf(w(a, 3), w(b, 3))


def test_equal_nf_welded_pairs_against_the_action():
    # seeded: 6,000 pairs with a t letter in at least one word, n = 2..5
    # (one strand has no swap), up to 10 letters with crossings, deletions
    # and swaps; half are independent words, half a word against itself
    # with t_i t_i or s_i s_i^-1 inserted.  equal_nf answers False where
    # the strand maps differ, as the action does; where they agree it
    # answers as the action does unless a swap meets two survivors, which
    # the independent marker walk confirms for every refusal
    rng = random.Random(0x3E1D)
    exits = answered = refused = 0
    for case in range(6000):
        n = case % 4 + 2
        while True:
            w1 = random_word(rng, n, 10, with_xi=True)
            if case % 2:
                w2 = random_word(rng, n, 10, with_xi=True)
            else:
                i = rng.randint(1, n - 1)
                pair = rng.choice([(xi(i), xi(i)), (sigma(i), sigma_inv(i))])
                cut = rng.randint(0, len(w1))
                w2 = Word(n, w1.letters[:cut] + pair + w1.letters[cut:])
            if XI in w1.kinds() | w2.kinds():
                break
        if position_tracking_map(w1) != position_tracking_map(w2):
            assert equal_nf(w1, w2) is False, (str(w1), str(w2))
            assert not equal_action(w1, w2), (str(w1), str(w2))
            exits += 1
        elif has_survivor_swap(w1) or has_survivor_swap(w2):
            with pytest.raises(
                ValueError, match=r"^skeletons are not defined for xi letters$"
            ):
                equal_nf(w1, w2)
            refused += 1
        else:
            assert equal_nf(w1, w2) == equal_action(w1, w2), (str(w1), str(w2))
            answered += 1
    print(f"welded pairs: {exits} exits, {answered} answered, {refused} refused")
    assert (exits, answered, refused) == (2942, 1899, 1159)


@st.composite
def _inserted_pairs(draw):
    """(w, w', square): w on 2..8 strands with deletions, and w' with
    s_i s_i^-1, s_i^-1 s_i or (square) s_i s_i inserted somewhere;
    at most 25 letters."""
    n = draw(st.integers(2, 8))
    pool = [sigma(i) for i in range(1, n)] + [sigma_inv(i) for i in range(1, n)]
    pool += [epsilon(i) for i in range(1, n + 1)]
    letters = draw(st.lists(st.sampled_from(pool), max_size=23))
    pos = draw(st.integers(0, len(letters)))
    i = draw(st.integers(1, n - 1))
    inserted = draw(
        st.sampled_from(
            [(sigma(i), sigma_inv(i)), (sigma_inv(i), sigma(i)), (sigma(i), sigma(i))]
        )
    )
    square = inserted[0] == inserted[1]
    word = Word(n, tuple(letters))
    return word, Word(n, tuple(letters[:pos]) + inserted + tuple(letters[pos:])), square


def test_equal_nf_free_reduction_hypothesis(monkeypatch):
    core_calls = _count_calls(monkeypatch, "_equal_cores")
    counts = {"cancelling": 0, "square equal": 0, "square unequal": 0}

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_inserted_pairs())
    def check(case):
        w1, w2, square = case
        del core_calls[:]
        got = equal_nf(w1, w2)
        decided_early = not core_calls
        same_form = canonical_form(w1) == canonical_form(w2)
        if square:
            assert got == same_form, (str(w1), str(w2))
            counts["square equal" if got else "square unequal"] += 1
        else:
            # a cancelling pair never reaches the cores
            assert got and same_form and decided_early, (str(w1), str(w2))
            counts["cancelling"] += 1

    check()
    print(f"hypothesis inserted pairs: {counts}")
    assert all(counts.values()), counts


def _reduced_ranks(word):
    """Signed survivor ranks of word's freely reduced braid."""
    return tuple(
        letter.index if letter.kind == SIGMA else -letter.index
        for letter in _freely_reduced(evaluate_skeleton(word).braid)
    )


def _crossings(rng, n, max_len):
    return list(random_braid_word(rng, n, max_len).letters)


def _sides(rng, n, shape):
    """Crossing words u, v: a far commutation, a braid relation (both
    equal, mirrored at random), s_i s_i against the empty word, or two
    random words."""
    if shape == "commutation":
        i = rng.randint(1, n - 3)
        j = rng.randint(i + 2, n - 1)
        u, v = [sigma(i), sigma(j)], [sigma(j), sigma(i)]
    elif shape == "braid relation":
        i = rng.randint(1, n - 2)
        u = [sigma(i), sigma(i + 1), sigma(i)]
        v = [sigma(i + 1), sigma(i), sigma(i + 1)]
    elif shape == "square":
        i = rng.randint(1, n - 1)
        return [sigma(i), sigma(i)], []
    else:
        return _crossings(rng, n, 6), _crossings(rng, n, 6)
    if rng.random() < 0.5:
        u, v = (list(mirror_inverse(Word(n, tuple(x))).letters) for x in (u, v))
    return u, v


def test_equal_nf_cancels_common_prefix_and_suffix(monkeypatch):
    # seeded: 1,320 pairs, n = 2..12, deletions in the contexts p and s:
    # p u s against p v s for relation sides and random u, v; p against
    # p v, s against v s, and powers p c^a s against p c^b s, where the
    # common prefix and suffix scans could overlap.  Pairs whose reduced
    # braids differ in exponent sum never reach the cores, so 240 more,
    # n = 3..8, keep unequal cores of equal sum coming: p x y s against
    # p y x s for pure braids x, y.
    rng = random.Random(0xC0E5)
    replay_calls = _count_calls(monkeypatch, "_replay")
    core_calls = _count_calls(monkeypatch, "_equal_cores")
    nf_calls = _count_calls(monkeypatch, "_rank_nf")
    shapes = ["commutation", "braid relation", "square", "random",
              "prefix", "suffix", "power"]
    pairs = []
    for n in range(2, 13):
        for k in range(120):
            shape = shapes[k % len(shapes)]
            if shape == "commutation" and n < 4 or shape == "braid relation" and n < 3:
                shape = "square"
            share = rng.uniform(0.0, 0.3)
            p = list(_word_with_deletions(rng, n, n, share).letters)
            s = list(_word_with_deletions(rng, n, n, share).letters)
            if shape == "prefix":
                a, b = p, p + _crossings(rng, n, 6)
            elif shape == "suffix":
                a, b = s, _crossings(rng, n, 6) + s
            elif shape == "power":
                c = _crossings(rng, n, 3) or [sigma(1)]
                a = p + c * rng.randint(0, 3) + s
                b = p + c * rng.randint(0, 3) + s
            else:
                u, v = _sides(rng, n, shape)
                a, b = p + u + s, p + v + s
            pairs.append((shape, Word(n, tuple(a)), Word(n, tuple(b))))
    shapes.append("pure swap")
    rng = random.Random(0xC0E6)
    for n in range(3, 9):
        for _ in range(40):
            share = rng.uniform(0.0, 0.3)
            p = _word_with_deletions(rng, n, n, share)
            s = _word_with_deletions(rng, n, n, share)
            x, y = random_pure_braid(rng, n, n), random_pure_braid(rng, n, n)
            pairs.append(("pure swap", p * x * y * s, p * y * x * s))
    seen = {(shape, verdict): 0 for shape in shapes for verdict in (False, True)}
    sum_exits = dict.fromkeys(shapes, 0)
    exits = {"permutation": 0, "normal form": 0}
    empty_cores = oracle_checked = cap_hits = 0
    for shape, w1, w2 in pairs:
        n = w1.n
        del replay_calls[:], core_calls[:], nf_calls[:]
        got = equal_nf(w1, w2)
        same_map = bool(replay_calls)
        if core_calls:
            exits[_cores_exit(core_calls, nf_calls)] += 1
        assert got == (canonical_form(w1) == canonical_form(w2)), (str(w1), str(w2))
        if shape in ("commutation", "braid relation"):
            assert got, (str(w1), str(w2))
        if same_map:
            r1, r2 = _reduced_ranks(w1), _reduced_ranks(w2)
            sum_exit = r1 != r2 and _signed_sum(r1) != _signed_sum(r2)
            assert sum_exit == (not got and not core_calls), (str(w1), str(w2))
            sum_exits[shape] += sum_exit
        if core_calls:
            # the cores are one window of both reduced braids, with the
            # same common prefix and suffix cut from each, and neither
            # scan stopped early
            _, c1, c2 = core_calls[0]
            r1, r2 = _reduced_ranks(w1), _reduced_ranks(w2)
            cut = len(r1) - len(c1)
            assert cut == len(r2) - len(c2), (str(w1), str(w2))
            assert any(
                r1[:i] == r2[:i]
                and r1[i : i + len(c1)] == c1
                and r2[i : i + len(c2)] == c2
                and r1[i + len(c1) :] == r2[i + len(c2) :]
                for i in range(cut + 1)
            ), (str(w1), str(w2))
            assert not c1 or not c2 or (c1[0] != c2[0] and c1[-1] != c2[-1])
            empty_cores += not c1 or not c2
            seen[shape, got] += 1
        if n <= 5:
            try:
                expected = equal_action(w1, w2, max_letters=20_000)
            except ResourceLimitError:
                cap_hits += 1
            else:
                oracle_checked += 1
                assert got == expected, (str(w1), str(w2))
    print(
        f"equal_nf cores: per (shape, verdict) {seen}; decided by {exits}; "
        f"per shape unequal on exponent sums {sum_exits}; "
        f"{empty_cores} with an empty core; action oracle checked "
        f"{oracle_checked}, {cap_hits} hit the letter cap"
    )
    for shape in shapes:
        assert seen[shape, False] + seen[shape, True] + sum_exits[shape], shape
    assert seen["braid relation", True] and seen["pure swap", False], seen
    assert sum_exits["square"] and sum_exits["random"], sum_exits
    assert empty_cores and oracle_checked and all(exits.values()), exits


@pytest.mark.parametrize(
    "n, a, b, core1, core2, verdict, exit",
    [
        # deletions in the context; the relation's sides are the cores
        (5, "e5 s3 s2^-1 s3 s1 s2 s1 s3 s1^-1 s2 e5",
         "e5 s3 s2^-1 s3 s2 s1 s2 s3 s1^-1 s2 e5", (1, 2, 1), (2, 1, 2), True,
         "permutation"),
        # the suffix scan stops where the prefix scan ended
        (2, "s1 s1", "s1 s1 s1 s1", (), (1, 1), False, "normal form"),
        (2, "s1 s1 s1 s1", "s1 s1", (1, 1), (), False, "normal form"),
        (3, "s1 s2^-1", "s1 s2^-1 s1 s1", (), (1, 1), False, "normal form"),
        (3, "s2 s1", "s1 s1 s2 s1", (), (1, 1), False, "normal form"),
        # an empty core equal to a braid relation's cycle
        (3, "s2^-1 s1 s2 s1 s2^-1 s1^-1 s2^-1 s1^-1", "s2^-1 s1^-1",
         (1, 2, 1, -2, -1, -2), (), True, "normal form"),
        # the inverse relation's sides
        (4, "s1^-1 s2^-1 s1^-1 e4", "s2^-1 s1^-1 s2^-1 e4", (-1, -2, -1),
         (-2, -1, -2), True, "permutation"),
        # a pure braid against the empty braid: s1 crosses twice
        (3, "e3 s1 s1", "e3", (1, 1), (), False, "normal form"),
        # mixed signs between the cores
        (2, "s1", "s1^-1", (1,), (-1,), False, "normal form"),
        # unequal cores of equal exponent sum: the suffix scan stops where
        # the prefix scan ended, a pure core repeats its crossings, and
        # mixed signs over one permutation
        (3, "s1 s1", "s1 s1 s2^-1 s2^-1 s1 s1", (), (-2, -2, 1, 1), False,
         "normal form"),
        (3, "s1 s1 s2^-1 s2^-1 s1 s1", "s1 s1", (-2, -2, 1, 1), (), False,
         "normal form"),
        (3, "s1 s1", "s2 s2", (1, 1), (2, 2), False, "normal form"),
        (4, "e4 s2 s1 s2^-1", "e4 s1 s2 s1^-1", (2, 1, -2), (1, 2, -1), False,
         "normal form"),
    ],
)
def test_equal_nf_normal_forms_see_only_the_cores(
    monkeypatch, n, a, b, core1, core2, verdict, exit
):
    # core1 and core2 are what is left of the reduced braids once their
    # common prefix and suffix are cut; when their exponent sums differ,
    # equal_nf answers before it cuts them, and the cores, handed to the
    # last stage, are decided the same way
    replay_calls = _count_calls(monkeypatch, "_replay")
    core_calls = _count_calls(monkeypatch, "_equal_cores")
    nf_calls = _count_calls(monkeypatch, "_rank_nf")
    assert equal_nf(w(a, n), w(b, n)) is verdict
    k = len(evaluate_skeleton(w(a, n)).domain)
    assert len(replay_calls) == 2
    if _signed_sum(core1) != _signed_sum(core2):
        assert core_calls == [] and nf_calls == [] and not verdict
        assert garside._equal_cores(k, core1, core2) is verdict
    assert core_calls == [(k, core1, core2)]
    assert _cores_exit(core_calls, nf_calls) == exit


def test_equal_nf_exponent_sum_exit_against_the_action(monkeypatch):
    # seeded: 2,400 sign-flip pairs, n = 2..5 with deletions: w against w
    # with one or two crossings inverted.  One flip of a crossing of two
    # survivors moves the exponent sum by 2 and leaves the strand map; a
    # crossing with a deleted strand is a move whichever its sign
    rng = random.Random(0x5E11)
    replay_calls = _count_calls(monkeypatch, "_replay")
    core_calls = _count_calls(monkeypatch, "_equal_cores")
    routes = {}
    for n in range(2, 6):
        for _ in range(600):
            w1 = _word_with_deletions(rng, n, 4 * n, rng.uniform(0.0, 0.3))
            crossings = [
                q for q, x in enumerate(w1.letters) if x.kind != EPSILON
            ]
            letters = list(w1.letters)
            for q in rng.sample(crossings, min(len(crossings), rng.randint(1, 2))):
                flip = sigma_inv if letters[q].kind == SIGMA else sigma
                letters[q] = flip(letters[q].index)
            w2 = Word(n, tuple(letters))
            del replay_calls[:], core_calls[:]
            got = equal_nf(w1, w2)
            assert len(replay_calls) == 2, (str(w1), str(w2))
            if core_calls:
                route = "cores"
            else:
                route = "reduced braid" if got else "exponent sum"
            r1, r2 = _reduced_ranks(w1), _reduced_ranks(w2)
            sums_differ = _signed_sum(r1) != _signed_sum(r2)
            assert sums_differ == (route == "exponent sum"), (str(w1), str(w2))
            assert got == equal_action(w1, w2, max_letters=20_000), (str(w1), str(w2))
            routes[route, got] = routes.get((route, got), 0) + 1
    print(f"sign-flip pairs per (route, verdict): {routes}")
    assert routes.get(("exponent sum", False), 0) > 500, routes
    assert routes.get(("reduced braid", True)) and routes.get(("cores", False)), routes


def _permutation_braid_sides(rng, k):
    """Two positive permutation braids of one random permutation, as
    rank lists: a reduced word, and the same word moved by far
    commutations and braid relations."""
    perm = list(range(k))
    rng.shuffle(perm)
    word = [letter.index for letter in perm_to_word(tuple(perm)).letters]
    other = list(word)
    for _ in range(3 * len(other)):
        g = rng.randrange(max(len(other) - 1, 1))
        pair, triple = other[g : g + 2], other[g : g + 3]
        if len(pair) == 2 and abs(pair[0] - pair[1]) >= 2:
            other[g : g + 2] = pair[::-1]
        elif len(triple) == 3 and triple[0] == triple[2] and abs(triple[0] - triple[1]) == 1:
            other[g : g + 3] = [triple[1], triple[0], triple[1]]
    return word, other


def test_equal_cores_matches_normal_forms(monkeypatch, rng):
    # seeded: 4,000 core pairs on k = 2..7 against the normal-form
    # comparison; one-sign relation cores, empty against a permutation
    # braid, repeated crossings and mixed signs
    rank_nf = garside._rank_nf
    nf_calls = _count_calls(monkeypatch, "_rank_nf")
    counts = {}
    for case in range(4000):
        k = rng.randint(2, 7)
        shape = ("relation", "two permutations", "empty", "repeated", "mixed",
                 "random")[case % 6]
        if shape == "relation":
            c1, c2 = _permutation_braid_sides(rng, k)
        elif shape == "two permutations":
            c1 = _permutation_braid_sides(rng, k)[0]
            c2 = _permutation_braid_sides(rng, k)[1]
        elif shape == "empty":
            c1, c2 = [], _permutation_braid_sides(rng, k)[0]
        elif shape == "repeated":
            g = rng.randint(1, k - 1)
            c1, c2 = _permutation_braid_sides(rng, k)
            at = rng.randint(0, len(c2))
            c2[at:at] = [g, g]
        elif shape == "mixed":
            c1, c2 = _permutation_braid_sides(rng, k)
            c2 = c2 or [1]
            at = rng.randrange(len(c2))
            c2[at] = -c2[at]
        else:
            c1, c2 = ([rng.choice([-1, 1]) * rng.randint(1, k - 1)
                       for _ in range(rng.randint(0, 6))] for _ in "12")
        if rng.random() < 0.5:
            c1, c2 = c2, c1
        if rng.random() < 0.5:
            c1, c2 = [-r for r in c1], [-r for r in c2]
        if not c1 and not c2:
            continue
        c1, c2 = tuple(c1), tuple(c2)
        expected = rank_nf(k, c1) == rank_nf(k, c2)
        del nf_calls[:]
        assert garside._equal_cores(k, c1, c2) == expected, (k, c1, c2)
        route = _one_sign_permutation_braids(k, c1, c2)
        assert nf_calls == ([] if route else [(k, c1), (k, c2)]), (k, c1, c2)
        counts[shape, route, expected] = counts.get((shape, route, expected), 0) + 1
    print(f"last-stage cores per (shape, permutation exit, verdict): {counts}")
    for key in [("relation", True, True), ("two permutations", True, False),
                ("empty", True, False), ("repeated", False, False),
                ("mixed", False, False)]:
        assert counts.get(key), (key, counts)


def test_reconstruct_word_examples():
    for text, n in [("e1 e2", 2), ("s1", 2), ("e1 s1", 2)]:
        form = canonical_form(w(text, n))
        rebuilt = reconstruct_word(form)
        assert equal_action(rebuilt, w(text, n)), text
        assert canonical_form(rebuilt) == form, text


def test_reconstruct_emits_marker_blocks():
    rebuilt = reconstruct_word(canonical_form(w("e1 s1", 2)))
    assert str(rebuilt) == "s1 e2 e2"


def _spreading_runs(codomain):
    """Positive runs spreading positions 1..k out to codomain, for
    t = k..1, so each strand only ever moves across empty positions."""
    return tuple(
        sigma(g)
        for t in range(len(codomain), 0, -1)
        for g in range(t, codomain[t - 1])
    )


def test_reconstruct_spreads_by_runs():
    # with the survivors starting at 1..k and a trivial braid, the word is
    # the deletion block twice, then the spreading braid
    for n in range(11):
        for k in range(n + 1):
            block = tuple(epsilon(i) for i in range(k + 1, n + 1))
            for codomain in itertools.combinations(range(1, n + 1), k):
                form = CanonicalForm(n, tuple(range(1, k + 1)), codomain, GarsideNF(k, 0, ()))
                expected = block + block + _spreading_runs(codomain)
                assert reconstruct_word(form).letters == expected, codomain


def test_reconstruct_round_trip(rng):
    for _ in range(200):
        n = rng.randint(0, 6)
        word = random_word(rng, n, 18)
        form = canonical_form(word)
        rebuilt = reconstruct_word(form)
        assert canonical_form(rebuilt) == form
        assert equal_action(rebuilt, word)


def test_engines_agree(rng):
    for _ in range(400):
        n = rng.randint(1, 6)
        w1 = random_word(rng, n, 16)
        w2 = random_word(rng, n, 16)
        assert equal_nf(w1, w2) == equal_action(w1, w2), (str(w1), str(w2))


@st.composite
def _word_pairs(draw):
    """(w1, w2) on n <= 5 strands, at most 30 letters each, with deletions:
    half equal by one relation of the balanced presentation inside a
    random context, half with an independently drawn w2."""
    n = draw(st.integers(1, 5))
    pool = [sigma(i) for i in range(1, n)] + [sigma_inv(i) for i in range(1, n)]
    pool += [epsilon(i) for i in range(1, n + 1)]
    letters = st.lists(st.sampled_from(pool), max_size=13)
    rel = draw(st.sampled_from(relation_suite("ibn-balanced", n)))
    before, after = tuple(draw(letters)), tuple(draw(letters))
    w1 = Word(n, before + rel.left.letters + after)
    if draw(st.booleans()):
        return w1, Word(n, before + rel.right.letters + after)
    return w1, Word(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=30))))


def test_engines_agree_hypothesis():
    counts = {"checked": 0, "equal": 0, "cap hits": 0}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_word_pairs())
    def check(pair):
        w1, w2 = pair
        for word in pair:
            form = canonical_form(word)
            assert canonical_form(reconstruct_word(form)) == form, str(word)
        try:
            expected = equal_action(w1, w2, max_letters=20_000)
        except ResourceLimitError:
            counts["cap hits"] += 1
            return
        assert equal_nf(w1, w2) == expected, (str(w1), str(w2))
        counts["checked"] += 1
        counts["equal"] += expected

    check()
    print(f"hypothesis equal_nf against equal_action: {counts}")
    assert counts["checked"] > counts["equal"] > 0


def test_all_two_strand_elements():
    # IB_2 splits into braids on both strands, four one-strand pieces and
    # the empty braid; spot check the count over short words
    seen = set()
    alphabet = ["s1", "s1^-1", "e1", "e2"]
    for length in range(0, 5):
        for combo in itertools.product(alphabet, repeat=length):
            seen.add(str(canonical_form(w(" ".join(combo), 2))))
    # braids sigma_1^k for k in -4..4, four single-strand elements, empty
    assert len(seen) == 9 + 4 + 1
