"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
suite is deterministic (seeded generators throughout).
"""

import itertools
import random
import time

from conftest import letter_pool, random_braid_word, random_word
from partialbraid import ResourceLimitError
from partialbraid.action import equal_action, tau
from partialbraid.diagram import PartialInjection, compose_injection
from partialbraid.garside import (
    canonical_form,
    equal_nf,
    identity_perm,
    is_permutation_braid,
    left_weighted,
    longest_perm,
    perm_to_word,
    reconstruct_word,
)
from partialbraid.monoidal import (
    check_naturality,
    is_i_makanin,
    is_makanin,
    positive_lift,
)
from partialbraid.words import (
    SUITE_IDS,
    Word,
    braiding_word,
    delta_word,
    epsilon,
    mirror_inverse,
    relation_suite,
    sigma,
)

SEED = 0x1B4D


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_01_presentation_suites():
    started = time.perf_counter()
    checked = 0
    for suite_id in SUITE_IDS:
        for n in range(1, 7):
            for rel in relation_suite(suite_id, n):
                if suite_id == "sym-inverse":
                    ok = tau(rel.left) == tau(rel.right)
                elif suite_id == "ibp-mixed":
                    ok = equal_action(rel.left, rel.right)
                else:
                    ok = equal_action(rel.left, rel.right) and equal_nf(
                        rel.left, rel.right
                    )
                assert ok, (suite_id, n, rel.tag)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"{checked} relation instances over n<=6 hold ({elapsed:.2f}s)")


def _rewrite_pair(rng, n, relations):
    left_parts, right_parts = [], []
    for _ in range(rng.randint(1, 2)):
        chunk = random_word(rng, n, 4)
        rel = rng.choice(relations)
        left_parts += [chunk, rel.left]
        right_parts += [chunk, rel.right]
    tail = random_word(rng, n, 4)
    w1, w2 = Word(n), Word(n)
    for part in left_parts:
        w1 = w1 * part
    for part in right_parts:
        w2 = w2 * part
    return w1 * tail, w2 * tail


def test_criterion_02_cross_engine_equivalence():
    rng = random.Random(SEED)
    started = time.perf_counter()
    suites = {n: relation_suite("ibn-balanced", n) for n in range(1, 7)}
    disagreements = 0
    positives = 0
    for _ in range(10_000):
        n = rng.randint(1, 6)
        w1 = random_word(rng, n, 30)
        w2 = random_word(rng, n, 30)
        if equal_action(w1, w2) != equal_nf(w1, w2):
            disagreements += 1
    for _ in range(1_000):
        n = rng.randint(1, 6)
        w1, w2 = _rewrite_pair(rng, n, suites[n])
        assert len(w1) <= 30 and len(w2) <= 30
        agree_action = equal_action(w1, w2)
        agree_nf = equal_nf(w1, w2)
        if agree_action != agree_nf:
            disagreements += 1
        positives += agree_action and agree_nf
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert positives == 1_000  # every rewrite pair is equal by construction
    assert elapsed < 60.0
    report(2, f"11000 pairs, 0 disagreements, 1000 equal-by-rewrite ({elapsed:.1f}s)")


def test_criterion_03_normal_form_uniqueness():
    rng = random.Random(SEED + 3)
    for _ in range(1_000):
        n = rng.randint(0, 6)
        form = canonical_form(random_word(rng, n, 20))
        assert canonical_form(reconstruct_word(form)) == form
        k = len(form.domain)
        for factor in form.nf.factors:
            assert factor not in (identity_perm(k), longest_perm(k))
            assert is_permutation_braid(perm_to_word(factor))
        for a, b in zip(form.nf.factors, form.nf.factors[1:]):
            assert left_weighted(a, b)
    report(3, "1000 canonical forms: rebuild round-trips, factors greedy")


def test_criterion_04_delta_commutation():
    for n in range(1, 8):
        word_delta = delta_word(n)
        for i in range(1, n + 1):
            lhs = Word(n, (epsilon(i),)) * word_delta
            rhs = word_delta * Word(n, (epsilon(n + 1 - i),))
            assert equal_nf(lhs, rhs), (n, i)
    report(4, "deletions slide through the half twist for all n<=7")


def _expected_central(form):
    n = form.n
    if not form.domain:
        return True  # the empty braid
    if len(form.domain) < n:
        return False
    return form.nf.factors == () and form.nf.inf % 2 == 0


def test_criterion_05_center():
    from partialbraid.monoidal import is_central

    rng = random.Random(SEED + 5)
    for n in range(1, 7):
        assert is_central(delta_word(n) ** 2)
        assert is_central(Word(n, tuple(epsilon(i) for i in range(1, n + 1))))
    failures = 0
    while failures < 1_000:
        n = rng.randint(2, 5)
        word = random_word(rng, n, 8)
        if _expected_central(canonical_form(word)):
            continue  # skip half-twist powers, the empty braid, the identity
        assert not is_central(word), str(word)
        failures += 1
    report(5, "half-twist squares and empty braids central; 1000 others fail")


def test_criterion_06_inverse_monoid_axioms():
    rng = random.Random(SEED + 6)
    for _ in range(1_000):
        n = rng.randint(0, 6)
        word = random_word(rng, n, 15)
        mirror = mirror_inverse(word)
        assert equal_action(word * mirror * word, word)
        assert equal_action(mirror * word * mirror, mirror)
    for n in range(1, 5):
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(range(1, n + 1), k) for k in range(n + 1)
            )
        )
        products = [Word(n, tuple(epsilon(i) for i in s)) for s in subsets]
        for e1 in products:
            assert equal_action(e1 * e1, e1)
            for e2 in products:
                assert equal_action(e1 * e2, e2 * e1)
    report(6, "1000 mirror-inverse axioms and all idempotent products commute")


def _all_partial_injections(n):
    universe = []
    for k in range(n + 1):
        for dom in itertools.combinations(range(1, n + 1), k):
            for img in itertools.permutations(range(1, n + 1), k):
                mapping = [None] * n
                for i, j in zip(dom, img):
                    mapping[i - 1] = j
                universe.append(PartialInjection(n, tuple(mapping)))
    return universe


def test_criterion_07_tau_image_and_homomorphism():
    expected_sizes = {1: 2, 2: 7, 3: 34, 4: 209}
    for n in range(1, 5):
        universe = set(_all_partial_injections(n))
        assert len(universe) == expected_sizes[n]
        generators = [tau(Word(n, (letter,))) for letter in letter_pool(n)]
        reached = {PartialInjection.identity(n)}
        frontier = list(reached)
        while frontier:
            nxt = []
            for p in frontier:
                for g in generators:
                    q = compose_injection(p, g)
                    if q not in reached:
                        reached.add(q)
                        nxt.append(q)
            frontier = nxt
        assert reached == universe, n
    rng = random.Random(SEED + 7)
    for _ in range(10_000):
        n = rng.randint(1, 5)
        w1 = random_word(rng, n, 12)
        w2 = random_word(rng, n, 12)
        assert tau(w1 * w2) == compose_injection(tau(w1), tau(w2))
    report(7, "generator products reach all of I_n (2/7/34/209); tau homomorphic")


def test_criterion_08_positive_section():
    injections = _all_partial_injections(4)
    assert len(injections) == 209
    forms = set()
    for injection in injections:
        lift = positive_lift(injection)
        assert tau(lift) == injection
        forms.add(str(canonical_form(lift)))
    assert len(forms) == 209
    report(8, "209/209 positive lifts hit their injections, pairwise distinct")


def test_criterion_09_makanin():
    rng = random.Random(SEED + 9)
    for _ in range(1_000):
        n = rng.randint(2, 5)
        braid = random_braid_word(rng, n, 12)
        i = rng.randint(1, n)
        eps = Word(n, (epsilon(i),))
        assert is_i_makanin(braid, i) == equal_action(eps * braid, eps)
    assert is_makanin(Word(2, (sigma(1), sigma(1))))
    assert not is_makanin(delta_word(3) ** 2)
    report(9, "1000 strand-deletion tests agree with the definitional check")


def test_criterion_10_naturality():
    rng = random.Random(SEED + 10)
    for _ in range(500):
        m = rng.randint(0, 4)
        n2 = rng.randint(0, 4)
        bm = random_word(rng, m, 12)
        bn = random_word(rng, n2, 12)
        assert check_naturality(bm, bn), (str(bm), str(bn))
    for m in range(1, 5):
        for n2 in range(1, 5):
            total = m + n2
            c = braiding_word(m, n2)
            for i in range(1, total + 1):
                target = i - n2 if i > n2 else i + m
                lhs = c * Word(total, (epsilon(i),))
                rhs = Word(total, (epsilon(target),)) * c
                assert equal_action(lhs, rhs), (m, n2, i)
    report(10, "500 naturality pairs and every deletion conjugation identity")


def test_criterion_11_performance():
    rng = random.Random(SEED + 11)

    def long_word():
        # crossing-heavy words are the stress case: nothing collapses early
        pool = letter_pool(10, no_epsilon=True)
        return Word(10, tuple(rng.choice(pool) for _ in range(200)))

    worst = 0.0
    for _ in range(5):
        w1, w2 = long_word(), long_word()
        started = time.perf_counter()
        equal_nf(w1, w2)
        worst = max(worst, time.perf_counter() - started)
    assert worst < 1.0

    outcomes = []
    for _ in range(2):
        w1, w2 = long_word(), long_word()
        try:
            equal_action(w1, w2, max_letters=100_000)
            outcomes.append("completed")
        except ResourceLimitError:
            outcomes.append("resource-limit")
    assert all(outcome in ("completed", "resource-limit") for outcome in outcomes)
    report(
        11,
        f"equal_nf worst {worst*1000:.0f}ms on length-200 pairs; "
        f"action engine outcomes {outcomes}",
    )
