"""The n=3 ball of words up to length 6: 137,257 words, 666 classes, and
the n=4 class graph to radius 7: 19,652 classes.

The same checks as tests/test_balls.py, one step further; too slow for
the unit tests (about 10 s each), so they are a separate step.  Not
collected by pytest; run from anywhere as

    python tests/big_ball.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_balls import class_spheres, test_ball_partitions_agree  # noqa: E402

SPHERES = [1, 7, 23, 49, 88, 166, 332]
CLASS_SPHERES = [1, 10, 50, 176, 529, 1528, 4424, 12934]


def main() -> int:
    start = time.perf_counter()
    test_ball_partitions_agree(3, SPHERES)
    elapsed = time.perf_counter() - start
    print(f"n=3, length <= 6: {sum(SPHERES)} classes agree ({elapsed:.1f}s)")
    start = time.perf_counter()
    spheres = class_spheres(4, len(CLASS_SPHERES) - 1)
    elapsed = time.perf_counter() - start
    if spheres != CLASS_SPHERES:
        print(f"n=4 class spheres {spheres}, expected {CLASS_SPHERES}", file=sys.stderr)
        return 1
    print(f"n=4, radius <= 7: {sum(spheres)} classes agree ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
