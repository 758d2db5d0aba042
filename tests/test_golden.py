"""The golden-output corpus replayed: every recorded CLI invocation must
print what it printed when tests/golden.py --write recorded it."""

import time

from golden import CORPUS, replay


def test_golden_corpus_replays_unchanged():
    assert CORPUS.stat().st_size < 1_000_000
    start = time.perf_counter()
    differences = replay()
    elapsed = time.perf_counter() - start
    assert not differences, "\n".join(differences[:20])
    assert elapsed < 10, elapsed
