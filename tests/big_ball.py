"""The n=3 ball of words up to length 6: 137,257 words, 666 classes.

The same check as tests/test_balls.py, one length further; too slow for
the unit tests (about 10 s), so it is a separate step.  Not collected by
pytest; run from anywhere as

    python tests/big_ball.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_balls import test_ball_partitions_agree  # noqa: E402

SPHERES = [1, 7, 23, 49, 88, 166, 332]


def main() -> int:
    start = time.perf_counter()
    test_ball_partitions_agree(3, SPHERES)
    elapsed = time.perf_counter() - start
    print(f"n=3, length <= 6: {sum(SPHERES)} classes agree ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
