"""Command-line front end.

Every verb takes the ambient strand count with -n and words as positional
arguments in the usual token grammar.  Boolean verbs print true/false and
exit 0/1; usage and word-syntax problems exit 2; blowing the free-word
cap exits 3.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from . import action, diagram, freegroup, garside, monoidal, words
from .freegroup import ResourceLimitError
from .words import Word, WordSyntaxError

USAGE_ERROR = 2
RESOURCE_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialbraid",
        description="Exact computation in the inverse braid monoid.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(verb: str, help_text: str, need_n: bool = True) -> argparse.ArgumentParser:
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument(
            "-n", dest="n", type=int, required=need_n, help="ambient strand count"
        )
        sp.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        sp.add_argument(
            "--max-letters",
            type=int,
            default=freegroup.MAX_LETTERS,
            help="free-word growth cap for the action engine",
        )
        return sp

    sp = add("eval", "partial free-group endomorphism of a word")
    sp.add_argument("word")

    sp = add("eq", "decide equality of two words")
    sp.add_argument("--engine", choices=("action", "garside"), default="garside")
    sp.add_argument(
        "--batch",
        metavar="FILE",
        help="read tab-separated word pairs from FILE ('-' for stdin)",
    )
    sp.add_argument("words", nargs="*")

    sp = add("nf", "left-greedy normal form of a crossing-only word")
    sp.add_argument("word")

    sp = add("canon", "canonical form: strands kept plus normal form")
    sp.add_argument("word")

    sp = add("tau", "induced partial injection of strand endpoints")
    sp.add_argument("word")

    sp = add("inv", "monoid inverse (mirror of the word)")
    sp.add_argument("word")

    sp = add("makanin", "trivial after deleting any one strand?")
    sp.add_argument("word")

    sp = add("imakanin", "trivial after deleting strand i?")
    sp.add_argument("i", type=int)
    sp.add_argument("word")

    sp = add("delete", "remove one strand from a crossing-only word")
    sp.add_argument("word")
    sp.add_argument("start_pos", type=int)

    sp = add("mu", "place two words side by side (-n strands, then -m)")
    sp.add_argument("-m", dest="m", type=int, required=True, help="strands of the right word")
    sp.add_argument("left")
    sp.add_argument("right")

    sp = add("braiding", "block transposition braid on m + n2 strands", need_n=False)
    sp.add_argument("m", type=int)
    sp.add_argument("n2", type=int)

    sp = add("factor", "idempotent times full braid decomposition")
    sp.add_argument("word")

    sp = add("abelian", "commutative-quotient invariant")
    sp.add_argument("word")

    sp = add("central", "does the word commute with every generator?")
    sp.add_argument("word")

    sp = add("verify-presentation", "check every relation of a presentation")
    sp.add_argument("--engine", choices=("action", "garside"), default=None)
    sp.add_argument("suite", choices=words.SUITE_IDS)

    return parser


def _json(payload: dict) -> str:
    import json  # only JSON output pays for loading it

    return json.dumps(payload, sort_keys=True)


def _emit(args, text: str, payload: dict) -> None:
    if args.format == "json":
        print(_json(payload))
    else:
        print(text)


def _bool_result(args, value: bool) -> int:
    _emit(args, "true" if value else "false", {"result": value})
    return 0 if value else 1


def _perm_rows(factors) -> list[list[int]]:
    return [[v + 1 for v in factor] for factor in factors]


def _cmd_eval(args) -> int:
    endo = action.evaluate(
        words.parse_word(args.word, args.n), max_letters=args.max_letters
    )
    payload = {
        f"x{i}": ("_" if img is None else freegroup.word_str(img))
        for i, img in enumerate(endo.images, 1)
    }
    _emit(args, str(endo), payload)
    return 0


def _equal(engine: str, w1: Word, w2: Word, max_letters: int) -> bool:
    if engine == "action":
        return action.equal_action(w1, w2, max_letters=max_letters)
    if engine == "injection":
        return action.tau(w1, max_letters=max_letters) == action.tau(w2, max_letters=max_letters)
    return garside.equal_nf(w1, w2)


def _cmd_eq(args) -> int:
    if args.batch is not None:
        return _cmd_eq_batch(args)
    if len(args.words) != 2:
        print("eq takes exactly two words", file=sys.stderr)
        return USAGE_ERROR
    w1 = words.parse_word(args.words[0], args.n)
    w2 = words.parse_word(args.words[1], args.n)
    return _bool_result(args, _equal(args.engine, w1, w2, args.max_letters))


def _cmd_eq_batch(args) -> int:
    stream = sys.stdin if args.batch == "-" else open(args.batch)
    try:
        for lineno, line in enumerate(stream, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                print(
                    f"line {lineno}: expected word<TAB>word", file=sys.stderr
                )
                return USAGE_ERROR
            try:
                w1 = words.parse_word(parts[0], args.n)
                w2 = words.parse_word(parts[1], args.n)
                value = _equal(args.engine, w1, w2, args.max_letters)
            except ResourceLimitError as exc:
                print(f"line {lineno}: resource limit: {exc}", file=sys.stderr)
                return RESOURCE_ERROR
            except ValueError as exc:
                print(f"line {lineno}: error: {exc}", file=sys.stderr)
                return USAGE_ERROR
            _emit(args, "true" if value else "false", {"result": value})
    finally:
        if stream is not sys.stdin:
            stream.close()
    return 0


def _cmd_nf(args) -> int:
    nf = garside.left_greedy_nf(words.parse_word(args.word, args.n))
    _emit(
        args,
        str(nf),
        {"inf": nf.inf, "factors": _perm_rows(nf.factors)},
    )
    return 0


def _cmd_canon(args) -> int:
    form = garside.canonical_form(words.parse_word(args.word, args.n))
    payload = {
        "I": list(form.domain),
        "J": list(form.codomain),
        "inf": form.nf.inf,
        "factors": _perm_rows(form.nf.factors),
    }
    _emit(args, str(form), payload)
    return 0


def _cmd_tau(args) -> int:
    inj = action.tau(
        words.parse_word(args.word, args.n), max_letters=args.max_letters
    )
    payload = {
        "mapping": {
            str(i): j for i, j in enumerate(inj.mapping, 1) if j is not None
        }
    }
    _emit(args, str(inj), payload)
    return 0


def _cmd_inv(args) -> int:
    out = words.mirror_inverse(words.parse_word(args.word, args.n))
    _emit(args, str(out), {"word": str(out)})
    return 0


def _cmd_makanin(args) -> int:
    return _bool_result(
        args, garside.is_makanin(words.parse_word(args.word, args.n))
    )


def _cmd_imakanin(args) -> int:
    return _bool_result(
        args, garside.is_i_makanin(words.parse_word(args.word, args.n), args.i)
    )


def _cmd_delete(args) -> int:
    out = diagram.delete_strand(
        words.parse_word(args.word, args.n), args.start_pos
    )
    _emit(args, str(out), {"word": str(out)})
    return 0


def _cmd_mu(args) -> int:
    out = monoidal.mu(
        words.parse_word(args.left, args.n),
        words.parse_word(args.right, args.m),
    )
    _emit(args, str(out), {"word": str(out)})
    return 0


def _cmd_braiding(args) -> int:
    out = words.braiding_word(args.m, args.n2)
    if args.n is not None and args.n != out.n:
        print(
            f"braiding of blocks {args.m} and {args.n2} lives on {out.n} strands",
            file=sys.stderr,
        )
        return USAGE_ERROR
    _emit(args, str(out), {"word": str(out)})
    return 0


def _cmd_factor(args) -> int:
    idempotent, braid_part = monoidal.factorize(words.parse_word(args.word, args.n))
    text = f"idempotent={idempotent}\ngroup={braid_part}"
    _emit(args, text, {"idempotent": str(idempotent), "group": str(braid_part)})
    return 0


def _cmd_abelian(args) -> int:
    cls = action.abelian_invariant(words.parse_word(args.word, args.n))
    if cls.kind == action.GROUP_CLASS:
        _emit(args, f"group {cls.exponent_sum}", {"class": "group", "sum": cls.exponent_sum})
    else:
        _emit(args, "epsilon", {"class": "epsilon"})
    return 0


def _cmd_central(args) -> int:
    return _bool_result(
        args,
        monoidal.is_central(
            words.parse_word(args.word, args.n), max_letters=args.max_letters
        ),
    )


def _cmd_verify(args) -> int:
    suite = args.suite
    engine = words.SUITE_ENGINES[suite]
    if engine == "garside" and args.engine is not None:
        engine = args.engine
    relations = words.relation_suite(suite, args.n)
    failures = 0
    rows = []
    for rel in relations:
        ok = _equal(engine, rel.left, rel.right, args.max_letters)
        failures += not ok
        rows.append(
            {"tag": rel.tag, "left": str(rel.left), "right": str(rel.right), "ok": ok}
        )
        if args.format == "text":
            status = "PASS" if ok else "FAIL"
            print(f"{status} {rel.tag}: {rel.left or '1'} == {rel.right or '1'}")
    if args.format == "json":
        print(
            _json(
                {
                    "suite": suite,
                    "n": args.n,
                    "engine": engine,
                    "relations": rows,
                    "failed": failures,
                }
            )
        )
    else:
        print(f"{len(relations) - failures}/{len(relations)} relations hold")
    return 0 if failures == 0 else 1


_COMMANDS: dict[str, Callable] = {
    "eval": _cmd_eval,
    "eq": _cmd_eq,
    "nf": _cmd_nf,
    "canon": _cmd_canon,
    "tau": _cmd_tau,
    "inv": _cmd_inv,
    "makanin": _cmd_makanin,
    "imakanin": _cmd_imakanin,
    "delete": _cmd_delete,
    "mu": _cmd_mu,
    "braiding": _cmd_braiding,
    "factor": _cmd_factor,
    "abelian": _cmd_abelian,
    "central": _cmd_central,
    "verify-presentation": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except (WordSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
