"""The scale envelope: verbs run as real processes at the strand bound.

Each corner starts ``python -B -m partialbraid`` at n = 1000 on seeded
words of about 2,000 letters and must answer within BOUND_S seconds; the
answers follow from how the words are built.  On a 2-vCPU host a bare
interpreter start took about 0.06 s and each corner 0.1-0.2 s.  ``canon``,
``nf`` and ``tau`` are outside the envelope and are not run here.

    python tests/test_envelope.py random|deletions|pure

prints one of the words, for a shell check of an installed script.
"""

from __future__ import annotations

import functools
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
N = 1000
LENGTH = 2000
BOUND_S = 5.0
SEED = 0xE17E


def _inverse(token: str) -> str:
    return token[:-3] if token.endswith("^-1") else token + "^-1"


def _index(token: str) -> int:
    return int(token.split("^")[0][1:])


@functools.lru_cache(maxsize=None)
def corners() -> tuple[dict[str, str], frozenset[int]]:
    """The seeded words, and the two start strands the pure braid's x crosses.

    random     LENGTH crossings, each index and sign uniform;
    deletions  the random word with 1% of its letters made deletions;
    pure       u v^-1, u of LENGTH/2 random crossings and v the same word
               with one letter x's sign flipped: freely a x^2 a^-1, a
               pure braid of exponent sum 2 or -2;
    cancelled  the random word with s1 s1^-1 inserted in its middle;
    empty      the identity.
    """
    rng = random.Random(SEED)
    crossings = [
        f"s{rng.randint(1, N - 1)}" + rng.choice(("", "^-1")) for _ in range(LENGTH)
    ]
    deletions = [
        f"e{rng.randint(1, N)}" if rng.random() < 0.01 else token
        for token in crossings
    ]
    u = crossings[: LENGTH // 2]
    j = rng.randrange(len(u))
    v = u[:j] + [_inverse(u[j])] + u[j + 1 :]
    order = list(range(1, N + 1))
    for token in u[:j]:
        g = _index(token)
        order[g - 1], order[g] = order[g], order[g - 1]
    g = _index(u[j])
    middle = LENGTH // 2
    texts = {
        "random": crossings,
        "deletions": deletions,
        "pure": u + [_inverse(token) for token in reversed(v)],
        "cancelled": crossings[:middle] + ["s1", "s1^-1"] + crossings[middle:],
        "empty": [],
    }
    words = {name: " ".join(tokens) for name, tokens in texts.items()}
    return words, frozenset(order[g - 1 : g + 1])


def _cases():
    _, crossed = corners()
    inside = min(crossed)
    outside = next(i for i in range(1, N + 1) if i not in crossed)
    cases = [
        ("central", [], ["random"], "false", 1),
        ("central", [], ["deletions"], "false", 1),
        ("central", [], ["pure"], "false", 1),
        ("makanin", [], ["random"], "false", 1),
        ("makanin", [], ["pure"], "false", 1),
        ("imakanin", [str(inside)], ["pure"], "true", 0),
        ("imakanin", [str(outside)], ["pure"], "false", 1),
        ("eq", [], ["pure", "empty"], "false", 1),
        ("eq", [], ["random", "cancelled"], "true", 0),
        ("factor", [], ["deletions"], "idempotent=e", 0),
    ]
    return [
        pytest.param(*case, id="-".join([case[0], *case[1], *case[2]]))
        for case in cases
    ]


@pytest.mark.parametrize("verb, extra, names, printed, code", _cases())
def test_verb_answers_at_the_strand_bound(verb, extra, names, printed, code):
    words, _ = corners()
    argv = [verb, "-n", str(N), *extra, *(words[name] for name in names)]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "partialbraid", *argv],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=BOUND_S,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{verb} {names} ran past {BOUND_S} s")
    elapsed = time.perf_counter() - start
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith(printed), proc.stdout[:200]
    assert elapsed < BOUND_S, elapsed


if __name__ == "__main__":
    print(corners()[0][sys.argv[1]])
