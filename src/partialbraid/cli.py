"""Command-line front end.

Every verb takes the ambient strand count with -n and words as positional
arguments in the usual token grammar.  Boolean verbs print true/false and
exit 0/1; usage and word-syntax problems exit 2, and so does a strand
count over MAX_STRANDS; exit 3 means a free word the action engine had to
build outgrew the letter cap.  The action's equality builds none for a
pair its fingerprints tell apart, so an unequal pair answers false under
any cap unless its matrices collide.
"""

from __future__ import annotations

import argparse
import sys

from . import diagram, freegroup, garside, monoidal, words
from .freegroup import ResourceLimitError
from .words import Word

USAGE_ERROR = 2
RESOURCE_ERROR = 3

# Largest strand count any verb accepts (-n, -m, braiding's blocks); the
# engines allocate per strand, and checking the number first allocates
# nothing.
MAX_STRANDS = 1000


def _int(text: str) -> int:
    """An int argument, refused in argparse's own words."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _strand_count(text: str) -> int:
    """A strand count: an int of at most MAX_STRANDS."""
    value = _int(text)
    if value > MAX_STRANDS:
        raise argparse.ArgumentTypeError(f"at most {MAX_STRANDS} strands, got {value}")
    return value


def _letter_cap(text: str) -> int:
    """--max-letters: an int of at least 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb."""
    return _parser_for(_VERBS)


def _parser_for(verbs) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of verbs only.  A verb's
    usage, help and errors come from its own subparser, so they read the
    same whichever other verbs are built beside it.  The verb list's help
    column is capped at 23, where Python 3.10-3.12 put it and 3.13 would
    put it one further right."""
    parser = argparse.ArgumentParser(
        prog="partialbraid",
        description="Exact computation in the inverse braid monoid.",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, max_help_position=23),
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for verb in verbs:
        help_text, handler, need_n, capped, arguments = _VERBS[verb]
        sp = sub.add_parser(verb, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument(
            "-n", dest="n", type=_strand_count, required=need_n,
            help="ambient strand count",
        )
        sp.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        if capped:
            sp.add_argument(
                "--max-letters",
                type=_letter_cap,
                default=freegroup.MAX_LETTERS,
                help="free-word growth cap for the action engine",
            )
        for name, options in arguments:
            sp.add_argument(name, **options)
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
    from . import action

    endo = action.evaluate(
        words.parse_word(args.word, args.n), max_letters=args.max_letters
    )
    payload = {
        f"x{i}": ("_" if img is None else freegroup.word_str(img))
        for i, img in enumerate(endo.images, 1)
    }
    _emit(args, str(endo), payload)
    return 0


# The default engine of a suite, where it is not "garside" (which hands
# welded pairs with equal strand maps to the action): sym-inverse only
# holds after projecting to partial injections.
_SUITE_ENGINES = {"sym-inverse": "injection"}


def _equal(engine: str, w1: Word, w2: Word, max_letters: int) -> bool:
    """The action on request, equal strand maps for "injection"; otherwise
    the library's own equality."""
    if engine == "action":
        from . import action

        return action.equal_action(w1, w2, max_letters=max_letters)
    if engine == "injection":
        return diagram._occupants(w1) == diagram._occupants(w2)
    return monoidal._equal(w1, w2, max_letters)


def _cmd_eq(args) -> int:
    if args.batch is not None:
        if args.words:
            print("eq --batch takes no positional words", file=sys.stderr)
            return USAGE_ERROR
        return _cmd_eq_batch(args)
    if len(args.words) != 2:
        print("eq takes exactly two words", file=sys.stderr)
        return USAGE_ERROR
    w1 = words.parse_word(args.words[0], args.n)
    w2 = words.parse_word(args.words[1], args.n)
    return _bool_result(args, _equal(args.engine, w1, w2, args.max_letters))


# Answers a file batch writes at once: one write per block, not per answer.
_ANSWER_BLOCK = 4096


def _cmd_eq_batch(args) -> int:
    """Answers from a file go out in blocks of _ANSWER_BLOCK; answers to
    pairs read from stdin are written and flushed one by one, so a client
    that sends a pair and waits gets its answer before EOF.  Whatever is
    pending is written on every way out, before a failing line's message."""
    stream = sys.stdin if args.batch == "-" else open(args.batch)
    if args.format == "json":
        answers = {v: _json({"result": v}) + "\n" for v in (True, False)}
    else:
        answers = {True: "true\n", False: "false\n"}
    out, flush = sys.stdout, stream is sys.stdin
    block = 1 if flush else _ANSWER_BLOCK
    pending: list[str] = []
    failure = None  # (exit code, message) of the line that stops the batch
    seen: dict = {}  # token -> letter, shared by every word of the batch
    try:
        for lineno, line in enumerate(stream, 1):
            line = line.rstrip("\n")
            parts = line.split("\t")
            if len(parts) != 2:
                if len(parts) == 1 and not line.strip():
                    continue  # blank: empty, or whitespace such as a CRLF \r
                failure = USAGE_ERROR, f"line {lineno}: expected word<TAB>word"
                break
            try:
                w1 = words.parse_word(parts[0], args.n, seen)
                w2 = words.parse_word(parts[1], args.n, seen)
                value = _equal(args.engine, w1, w2, args.max_letters)
            except ResourceLimitError as exc:
                failure = RESOURCE_ERROR, f"line {lineno}: resource limit: {exc}"
                break
            except ValueError as exc:
                failure = USAGE_ERROR, f"line {lineno}: error: {exc}"
                break
            pending.append(answers[value])
            if len(pending) == block:
                out.write("".join(pending))
                pending.clear()
                if flush:
                    out.flush()
    finally:
        if pending:
            out.write("".join(pending))
        if stream is not sys.stdin:
            stream.close()
    if failure is None:
        return 0
    code, message = failure
    print(message, file=sys.stderr)
    return code


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
    from . import action

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
    word = words.parse_word(args.word, args.n)
    return _bool_result(args, monoidal.is_makanin(word, args.max_letters))


def _cmd_imakanin(args) -> int:
    word = words.parse_word(args.word, args.n)
    return _bool_result(args, monoidal.is_i_makanin(word, args.i, args.max_letters))


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
    cls = diagram.abelian_invariant(words.parse_word(args.word, args.n))
    if cls.kind == diagram.GROUP_CLASS:
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
    """One row per relation; a relation that hits the letter cap gets a CAP
    row (ok null), its resource-limit line on stderr, and exit 3."""
    suite = args.suite
    engine = args.engine or _SUITE_ENGINES.get(suite, "garside")
    relations = words.relation_suite(suite, args.n)
    failures = capped = 0
    rows = []
    for rel in relations:
        try:
            ok = _equal(engine, rel.left, rel.right, args.max_letters)
        except ResourceLimitError as exc:
            print(f"resource limit: {exc}", file=sys.stderr)
            ok = None
        failures += ok is False
        capped += ok is None
        rows.append(
            {"tag": rel.tag, "left": str(rel.left), "right": str(rel.right), "ok": ok}
        )
        if args.format == "text":
            status = {True: "PASS", False: "FAIL", None: "CAP"}[ok]
            print(f"{status} {rel.tag}: {rel.left or '1'} == {rel.right or '1'}")
    if args.format == "json":
        payload = {
            "suite": suite,
            "n": args.n,
            "engine": engine,
            "relations": rows,
            "failed": failures,
        }
        if capped:
            payload["capped"] = capped
        print(_json(payload))
    else:
        held = len(relations) - failures - capped
        print(f"{held}/{len(relations)} relations hold")
    if capped:
        return RESOURCE_ERROR
    return 0 if failures == 0 else 1


def _verb(help_text: str, handler, *arguments, need_n: bool = True,
          capped: bool = False) -> tuple:
    """A row of _VERBS: a verb bound to its handler, with its own arguments
    as (name, add_argument keywords) pairs; capped verbs can reach the
    action engine and take its letter cap."""
    return help_text, handler, need_n, capped, arguments


_WORD = ("word", {})
_ENGINES = ("action", "garside")

# Every verb, in the order the top-level help lists them.
_VERBS = {
    "eval": _verb(
        "partial free-group endomorphism of a word", _cmd_eval, _WORD, capped=True
    ),
    "eq": _verb(
        "decide equality of two words", _cmd_eq,
        ("--engine", {"choices": _ENGINES, "default": "garside"}),
        ("--batch", {
            "metavar": "FILE",
            "help": "read tab-separated word pairs from FILE ('-' for stdin)",
        }),
        ("words", {"nargs": "*"}),
        capped=True,
    ),
    "nf": _verb("left-greedy normal form of a crossing-only word", _cmd_nf, _WORD),
    "canon": _verb("canonical form: strands kept plus normal form", _cmd_canon, _WORD),
    "tau": _verb(
        "induced partial injection of strand endpoints", _cmd_tau, _WORD, capped=True
    ),
    "inv": _verb("monoid inverse (mirror of the word)", _cmd_inv, _WORD),
    "makanin": _verb(
        "trivial after deleting any one strand?", _cmd_makanin, _WORD, capped=True
    ),
    "imakanin": _verb(
        "trivial after deleting strand i?", _cmd_imakanin,
        ("i", {"type": int}), _WORD, capped=True,
    ),
    "delete": _verb(
        "remove one strand from a crossing-only word", _cmd_delete,
        _WORD, ("start_pos", {"type": int}),
    ),
    "mu": _verb(
        "place two words side by side (-n strands, then -m)", _cmd_mu,
        ("-m", {
            "dest": "m", "type": _strand_count, "required": True,
            "help": "strands of the right word",
        }),
        ("left", {}), ("right", {}),
    ),
    "braiding": _verb(
        "block transposition braid on m + n2 strands", _cmd_braiding,
        ("m", {"type": _strand_count}), ("n2", {"type": _strand_count}),
        need_n=False,
    ),
    "factor": _verb("idempotent times full braid decomposition", _cmd_factor, _WORD),
    "abelian": _verb("commutative-quotient invariant", _cmd_abelian, _WORD),
    "central": _verb(
        "does the word commute with every sigma_i and epsilon_i?", _cmd_central,
        _WORD, capped=True,
    ),
    "verify-presentation": _verb(
        "check every relation of a presentation", _cmd_verify,
        ("--engine", {"choices": _ENGINES, "default": None}),
        ("suite", {"choices": words.SUITE_IDS}),
        capped=True,
    ),
}

# Built on first use and reused, as parse_args keeps no state in them:
# the parser of the verb that argv starts with, or the parser of every
# verb when it starts with none, so that the top-level usage, help and
# errors name them all.
_parsers: dict[str | None, argparse.ArgumentParser] = {}


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    verb = argv[0] if argv and argv[0] in _VERBS else None
    parser = _parsers.get(verb)
    if parser is None:
        parser = _parsers[verb] = _parser_for((verb,) if verb else _VERBS)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except (ValueError, OSError) as exc:  # WordSyntaxError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
