"""Golden-output corpus: seeded CLI invocations and what each one printed.

Each line of tests/golden.jsonl is one in-process ``cli.run(argv)`` with
its stdin, stdout, stderr and exit code.  The invocations cover every
verb in text and JSON, n = 1..6, words with e and t letters, the letter
caps 1, 50 and the default, usage errors (exit 2), cap hits (exit 3),
every presentation suite and engine, and ``eq --batch`` from a file and
from stdin.  tests/test_golden.py replays the file in tier-1.

    python tests/golden.py --write   # regenerate the file from the seed
    python tests/golden.py           # replay it; print each difference

A change that alters an expected output regenerates the file, and the
diff shows which invocations changed.  argparse's own usage text wraps
with the terminal and words its messages differently across Python
versions, so for a usage error that argparse raises only the last line
of stderr is kept, and the quotes are dropped from the list of choices
that an invalid choice names.  Help text is kept whole, wrapped at 80
columns; the top-level parser caps its help column, so Python 3.10 to
3.13 print it alike.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden.jsonl"
SEED = 0x601D
FILE = "@file"  # in argv, the path of a file holding the record's "file" text

ONE_WORD_VERBS = (
    "eval", "nf", "canon", "tau", "inv", "makanin", "factor", "abelian", "central",
)
CAPPED = {"eval", "eq", "tau", "central", "verify-presentation"}
SUITES = ("artin", "ibn-eps", "ibn-balanced", "ibn-2gen", "sym-inverse", "ibp-mixed")


def _tokens(n: int, welded: bool, deletions: bool = True) -> list[str]:
    pool = []
    for i in range(1, n):
        pool += [f"s{i}", f"s{i}^-1"]
        if welded:
            pool.append(f"t{i}")
    if deletions:
        pool += [f"e{i}" for i in range(1, n + 1)]
    return pool


def _word(rng: random.Random, n: int, max_len: int, **kinds) -> str:
    pool = _tokens(n, **kinds)
    if not pool:
        return ""
    return " ".join(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def _variant(rng: random.Random, n: int, text: str) -> str:
    """text with a cancelling pair inserted, or a random word."""
    if n < 2 or rng.random() < 0.4:
        return _word(rng, n, 8, welded=rng.random() < 0.2)
    tokens = text.split()
    i = rng.randint(1, n - 1)
    pos = rng.randint(0, len(tokens))
    pair = [f"s{i}", f"s{i}^-1"] if rng.random() < 0.5 else [f"s{i}^-1", f"s{i}"]
    return " ".join(tokens[:pos] + pair + tokens[pos:])


def _with_cap(rng: random.Random, argv: list[str]) -> list[str]:
    cap = rng.choice((None, "1", "50"))
    return argv if cap is None else argv + ["--max-letters", cap]


def _with_format(argv: list[str], fmt: str) -> list[str]:
    return argv if fmt == "text" else argv + ["--format", fmt]


def cases() -> list[dict]:
    """The invocations, in a fixed order drawn from SEED."""
    rng = random.Random(SEED)
    out: list[dict] = []

    def add(argv, stdin=None, file=None):
        out.append({"argv": argv, "stdin": stdin, "file": file})

    for n in range(1, 7):
        for fmt in ("text", "json"):
            for verb in ONE_WORD_VERBS:
                for _ in range(6):
                    welded = rng.random() < 0.25
                    deletions = verb not in ("nf", "makanin") or rng.random() < 0.2
                    word = _word(rng, n, 10, welded=welded, deletions=deletions)
                    argv = _with_format([verb, "-n", str(n), word], fmt)
                    add(_with_cap(rng, argv) if verb in CAPPED else argv)
            for _ in range(25):
                w1 = _word(rng, n, 8, welded=rng.random() < 0.2)
                w2 = _variant(rng, n, w1)
                argv = _with_format(["eq", "-n", str(n), w1, w2], fmt)
                engine = rng.choice((None, "action", "garside"))
                if engine is not None:
                    argv += ["--engine", engine]
                add(_with_cap(rng, argv))
            for i in range(0, n + 2):
                word = _word(rng, n, 8, welded=False, deletions=rng.random() < 0.3)
                add(_with_format(["imakanin", "-n", str(n), str(i), word], fmt))
                word = _word(rng, n, 8, welded=False, deletions=rng.random() < 0.2)
                add(_with_format(["delete", "-n", str(n), word, str(i)], fmt))
            for m in range(1, 5):
                left = _word(rng, n, 5, welded=rng.random() < 0.2)
                right = _word(rng, m, 5, welded=rng.random() < 0.2)
                add(_with_format(["mu", "-n", str(n), "-m", str(m), left, right], fmt))
            for suite in SUITES:
                argv = _with_format(["verify-presentation", "-n", str(n), suite], fmt)
                engine = rng.choice((None, "action", "garside"))
                if engine is not None:
                    argv += ["--engine", engine]
                add(_with_cap(rng, argv))
    for fmt in ("text", "json"):
        for m in range(0, 5):
            for n2 in range(0, 5):
                argv = _with_format(["braiding", str(m), str(n2)], fmt)
                if rng.random() < 0.3:
                    argv += ["-n", str(m + n2 + rng.choice((0, 0, 1)))]
                add(argv)
    # every suite under every engine, uncapped, at a fixed size
    for suite in SUITES:
        for engine in ("action", "garside"):
            add(["verify-presentation", "-n", "4", "--engine", engine, suite])
    # factorizations and canonical forms on more strands
    for n in (8, 12, 20, 40):
        for verb in ("factor", "canon"):
            for _ in range(3):
                add([verb, "-n", str(n), _word(rng, n, 3 * n, welded=False)])
    # cap hits: the images of strands grow with the letters
    for n in range(2, 7):
        for _ in range(4):
            word = " ".join(f"s{rng.randint(1, n - 1)}" for _ in range(40))
            cap = rng.choice(("1", "50"))
            add(["tau", "-n", str(n), "--max-letters", cap, word])
            add(["eval", "-n", str(n), "--max-letters", cap, word])
            add(["central", "-n", str(n), "--max-letters", cap, "t1 " + word])
            add(["eq", "-n", str(n), "--engine", "action", "--max-letters", cap,
                 word, word + " s1 s1^-1"])
    # usage errors
    for argv in (
        ["eq"],
        ["eq", "-n", "2"],
        ["eq", "-n", "2", "s1"],
        ["eq", "-n", "2", "s1", "s1", "s1"],
        ["eq", "-n", "x", "s1", "s1"],
        ["eq", "-n", "1001", "s1", "s1"],
        ["eq", "-n", "2", "--max-letters", "0", "s1", "s1"],
        ["eq", "-n", "2", "--max-letters", "y", "s1", "s1"],
        ["eq", "-n", "2", "--batch", "no/such/file"],
        ["eq", "-n", "2", "--batch", FILE, "s1"],
        ["canon", "-n", "2", "s3"],
        ["canon", "-n", "2", "s0"],
        ["canon", "-n", "2", "x1"],
        ["canon", "-n", "2", "s1 q"],
        ["canon", "-n", "3", "s1  q s2"],
        ["eq", "-n", "3", "s1 s2", "s1 s3 s2"],
        ["canon", "-n", "-1", ""],
        ["canon", "-n", "0", ""],
        ["canon", "-n", "3", "t1"],
        ["nf", "-n", "3", "e1 s1"],
        ["nf", "-n", "3", "t2"],
        ["makanin", "-n", "3", "e1"],
        ["imakanin", "-n", "3", "x", "s1"],
        ["imakanin", "-n", "3", "2", "e1"],
        ["delete", "-n", "3", "e1", "1"],
        ["delete", "-n", "3", "s1", "y"],
        ["mu", "-n", "2", "s1", "s1"],
        ["mu", "-n", "2", "-m", "1001", "s1", ""],
        ["braiding", "2", "2", "-n", "3"],
        ["braiding", "1001", "1"],
        ["tau", "-n", "2"],
        ["verify-presentation", "-n", "0", "artin"],
        ["abelian", "-n", "2", "s1", "s1"],
        ["factor", "-n", "2", "e3"],
        ["inv", "-n", "2", "E E s1'"],
    ):
        add(argv, file="s1\ts1\n" if FILE in argv else None)
    # eq --batch from a file and from stdin
    batches = [
        "s1\ts1\ne1\te2\n",
        "e1 s1 e1\ts1 e1 s1 e1\ne1\te2\n\ns1\ts1\n",
        "s1\ts1\r\n\r\n \ne1\te2\r\n",
        "\t\n  \t  \ns1 s2 s1\ts2 s1 s2\n",
        "s1\n",
        "s1\ts1\ts1\n",
        "s1\ts1\ne1\ts1 x\ns1\ts1\n",
        "s1\ts1\ne1\te2\ns1 s5\ts1\n",
        "t1 t1\tt1 t1\nt1 e2\te1 t1\n",
        "",
        "\n\n",
    ]
    long_word = " ".join(["s1 s2"] * 40)
    batches.append(f"s1\ts1\n{long_word}\ts1\n{long_word}\ts1 s1^-1 {long_word}\n")
    for _ in range(12):
        lines = []
        for _ in range(rng.randint(1, 12)):
            w1 = _word(rng, 3, 8, welded=rng.random() < 0.2)
            lines.append(f"{w1}\t{_variant(rng, 3, w1)}\n")
        batches.append("".join(lines))
    for text in batches:
        for fmt in ("text", "json"):
            argv = _with_format(["eq", "-n", "3"], fmt)
            if rng.random() < 0.5:
                argv += ["--engine", "action", "--max-letters", "50"]
            add(argv + ["--batch", FILE], file=text)
            add(argv + ["--batch", "-"], stdin=text)
    # makanin and imakanin under their cap: drawn from a seed of their own,
    # so that the records above keep theirs
    rng = random.Random(SEED + 1)
    for n in range(2, 6):
        for fmt in ("text", "json"):
            for _ in range(4):
                word = _word(rng, n, 10, welded=rng.random() < 0.6)
                add(_with_cap(rng, _with_format(["makanin", "-n", str(n), word], fmt)))
                word = _word(rng, n, 10, welded=rng.random() < 0.6)
                argv = ["imakanin", "-n", str(n), str(rng.randint(1, n)), word]
                add(_with_cap(rng, _with_format(argv, fmt)))
        # a welded identity, t1 t1 x x^-1, whose strand images outgrow a
        # small cap before they cancel
        x = [f"s{rng.randint(1, n - 1)}" for _ in range(20)]
        word = " ".join(["t1", "t1", *x] + [f"{g}^-1" for g in reversed(x)])
        cap = rng.choice(("1", "50"))
        add(["makanin", "-n", str(n), "--max-letters", cap, word])
        add(["imakanin", "-n", str(n), "--max-letters", cap, str(rng.randint(1, n)), word])
    # welded central, eq and imakanin with deletions under caps 1 and 4,
    # from a seed of their own: the strand maps answer most of them, and
    # the rest (maps that agree, as across an inserted t_i t_i) reach the
    # action and its cap
    rng = random.Random(SEED + 2)
    for n in range(2, 6):
        for cap in ("1", "4"):
            for _ in range(4):
                word = _word(rng, n, 10, welded=True)
                if rng.random() < 0.5:
                    word = _swaps_inserted(rng, n, word)
                add(["central", "-n", str(n), "--max-letters", cap, word])
                w1 = _word(rng, n, 8, welded=True)
                if rng.random() < 0.5:
                    w2 = _swaps_inserted(rng, n, w1)
                else:
                    w2 = _word(rng, n, 8, welded=True)
                add(["eq", "-n", str(n), "--max-letters", cap, w1, w2])
                word = _word(rng, n, 10, welded=True)
                argv = ["imakanin", "-n", str(n), "--max-letters", cap]
                add(argv + [str(rng.randint(1, n)), word])
    # the top-level texts, which the full parser prints, and the help of
    # two verbs, which their own parsers print
    for argv in ([], ["-h"], ["frob", "-n", "2", "s1"], ["eq", "-h"],
                 ["verify-presentation", "-h"]):
        add(argv)
    return out


def _swaps_inserted(rng: random.Random, n: int, text: str) -> str:
    """text with t_i t_i inserted somewhere."""
    tokens = text.split()
    i, pos = rng.randint(1, n - 1), rng.randint(0, len(tokens))
    return " ".join(tokens[:pos] + [f"t{i}", f"t{i}"] + tokens[pos:])


def invoke(case: dict) -> dict:
    """Run one case in-process; returns its code, stdout and stderr."""
    from partialbraid.cli import run

    argv = list(case["argv"])
    with tempfile.TemporaryDirectory() as tmp:
        if case.get("file") is not None:
            path = os.path.join(tmp, "pairs.tsv")
            with open(path, "w", newline="") as handle:
                handle.write(case["file"])
            argv = [path if a == FILE else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(case.get("stdin") or "")
        # argparse wraps help to the width of the terminal
        columns = mock.patch.dict(os.environ, {"COLUMNS": "80"})
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), columns:
                try:
                    code = run(argv)
                    usage = False
                except SystemExit as exc:  # argparse refused the arguments
                    code, usage = exc.code, True
        finally:
            sys.stdin = stdin
    text = err.getvalue()
    if usage:
        text = text.splitlines()[-1] if text else ""
        head, choices, tail = text.partition("(choose from ")
        text = head + choices + tail.replace("'", "")
    return {"code": code, "out": out.getvalue(), "err": text}


def write() -> int:
    with open(CORPUS, "w") as handle:
        for case in cases():
            handle.write(json.dumps({**case, **invoke(case)}) + "\n")
    return 0


def replay() -> list[str]:
    """One message per invocation whose output differs from the corpus."""
    differences = []
    with open(CORPUS) as handle:
        for lineno, line in enumerate(handle, 1):
            record = json.loads(line)
            got = invoke(record)
            for key in ("code", "out", "err"):
                if got[key] != record[key]:
                    differences.append(
                        f"line {lineno} {record['argv']!r}: {key} "
                        f"{record[key]!r} != {got[key]!r}"
                    )
    return differences


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        return write()
    if argv:
        print("usage: python tests/golden.py [--write]", file=sys.stderr)
        return 2
    differences = replay()
    for message in differences:
        print(message)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main(sys.argv[1:]))
