"""Where the benchmark runs: the root of a source checkout.

The benchmark measures the package in ./src of the working directory and
nothing else; an installed copy elsewhere must not stand in for it.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


def use_src() -> None:
    """Put ./src first on the import path and check the package came from
    it; exit with code 2 when ./src holds no package."""
    if not (SRC / "partialbraid" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'partialbraid'}; run from the repository root",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import partialbraid

    if Path(partialbraid.__file__).resolve().parent != (SRC / "partialbraid").resolve():
        print(f"error: partialbraid imported from {partialbraid.__file__}", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict:
    """Environment for child Python processes: ./src on the path, nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, max_letters: int) -> dict:
    """What two results must share to be compared."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "max_letters": max_letters,
    }
