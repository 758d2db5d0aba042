"""Known-answer gate: every output the benchmark collects is checked here,
after the timed region, and a wrong one stops the run.

Canonical forms and tau are checked against the strand-tracking oracle,
eq and welded eq against the verdict fixed when the pair was built.
is_central and is_makanin are checked against their definitions, decided
through the Garside engine, since both verbs run on the action engine.
"""

from __future__ import annotations

from oracle import nf_crossings, nf_perm, track


class WrongVerdict(AssertionError):
    pass


def _fail(op, message: str):
    raise WrongVerdict(f"{op.verb} on n={op.n} {op.words!r}: {message}")


def check_form(op, out) -> None:
    domain, codomain, inf, factors = out
    strands = track(op.n, op.letters[0])
    k = len(domain)
    if (tuple(domain), tuple(codomain)) != (strands.domain, strands.codomain):
        _fail(op, f"survivors {domain}->{codomain}, oracle {strands.domain}->{strands.codomain}")
    if nf_perm(k, inf, factors) != strands.perm:
        _fail(op, "normal form permutes the survivors differently from the word")
    if nf_crossings(k, inf, factors) != strands.signed_crossings:
        _fail(op, f"normal form has exponent sum {nf_crossings(k, inf, factors)}, "
                  f"survivors cross {strands.signed_crossings} times")


def check_tau(op, out) -> None:
    expected = track(op.n, op.letters[0]).mapping()
    if tuple(out) != expected:
        _fail(op, f"tau {out}, oracle {list(expected)}")


def check_verdict(op, out) -> None:
    if out is not op.expected:
        _fail(op, f"answered {out}, built to be {op.expected}")


def _definition(op) -> bool:
    from partialbraid import equal_nf, parse_word

    text, n = op.words[0], op.n

    def same(a: str, b: str) -> bool:
        return equal_nf(parse_word(a, n), parse_word(b, n))

    if op.verb == "central":
        gens = [f"s{i}" for i in range(1, n)] + [f"e{i}" for i in range(1, n + 1)]
        return all(same(f"{text} {g}", f"{g} {text}") for g in gens)
    return all(same(f"e{i} {text}", f"e{i}") for i in range(1, n + 1))


def check_definition(op, out) -> None:
    expected = _definition(op)
    if out is not expected:
        _fail(op, f"answered {out}, the definition gives {expected}")


CHECKS = {
    "canon": check_form,
    "eq": check_verdict,
    "weq": check_verdict,
    "tau": check_tau,
    "central": check_definition,
    "makanin": check_definition,
}

# verbs whose calls carry the letter cap, so hitting it is an answer
CAPPED_VERBS = frozenset(("tau", "weq"))


def check(op, out) -> None:
    CHECKS[op.verb](op, out)
