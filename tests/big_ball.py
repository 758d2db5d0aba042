"""The n=3 ball of words up to length 6: 137,257 words, 666 classes, and
the class graphs of n=4 to radius 7 (19,652 classes), n=5 to radius 6
(28,586 classes) and the welded monoid on n=3 to radius 7 (52,637
classes).

The same checks as tests/test_balls.py, one step further; too slow for
the unit tests (about 15 s each), so they are a separate step.  Not
collected by pytest; run from anywhere as

    python tests/big_ball.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_balls import (  # noqa: E402
    WELDED_SPHERES,
    class_spheres,
    test_ball_partitions_agree,
)

SPHERES = [1, 7, 23, 49, 88, 166, 332]
# the class graph's spheres by strand count and welded or not
CLASS_SPHERES = {
    (4, False): [1, 10, 50, 176, 529, 1528, 4424, 12934],
    (5, False): [1, 13, 86, 402, 1577, 5773, 20734],
    (3, True): WELDED_SPHERES + [39480],
}


def main() -> int:
    start = time.perf_counter()
    test_ball_partitions_agree(3, SPHERES)
    elapsed = time.perf_counter() - start
    print(f"n=3, length <= 6: {sum(SPHERES)} classes agree ({elapsed:.1f}s)")
    for (n, welded), expected in CLASS_SPHERES.items():
        radius = len(expected) - 1
        start = time.perf_counter()
        spheres = class_spheres(n, radius, welded)
        elapsed = time.perf_counter() - start
        name = f"n={n}{' welded' if welded else ''}"
        if spheres != expected:
            print(f"{name} class spheres {spheres}, expected {expected}", file=sys.stderr)
            return 1
        print(f"{name}, radius <= {radius}: {sum(spheres)} classes agree ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
