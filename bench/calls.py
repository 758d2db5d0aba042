"""Calls into the package for each verb, plain and traced.

The traced variants call the public functions in the order the library's
own verb calls them (canonical_form is evaluate_skeleton, then
left_greedy_nf on the survivors' braid), one child span per call, so a
layer's self time is measured from outside the module.  The plain and the
traced variant return the same output, which the worker compares.
"""

from __future__ import annotations

import time

from partialbraid import (
    CanonicalForm,
    ResourceLimitError,
    canonical_form,
    equal_action,
    equal_nf,
    evaluate,
    evaluate_skeleton,
    is_central,
    is_makanin,
    left_greedy_nf,
    parse_word,
    tau,
)

__all__ = ["ResourceLimitError", "run", "run_traced", "tally", "evaluate_stats"]


def _form_out(form: CanonicalForm) -> list:
    return [
        list(form.domain),
        list(form.codomain),
        form.nf.inf,
        [list(f) for f in form.nf.factors],
    ]


def run(op: dict, max_letters: int):
    """One operation, untraced; returns its output as plain JSON data."""
    verb, n, words = op["verb"], op["n"], op["words"]
    if verb == "canon":
        return _form_out(canonical_form(parse_word(words[0], n)))
    if verb == "eq":
        return equal_nf(parse_word(words[0], n), parse_word(words[1], n))
    if verb == "tau":
        return list(tau(parse_word(words[0], n), max_letters=max_letters).mapping)
    if verb == "central":
        return is_central(parse_word(words[0], n))
    if verb == "makanin":
        return is_makanin(parse_word(words[0], n))
    if verb == "weq":
        return equal_action(
            parse_word(words[0], n), parse_word(words[1], n), max_letters=max_letters
        )
    raise ValueError(f"unknown verb {verb!r}")


def _traced_form(tr, w, seen: list) -> CanonicalForm:
    skel = tr.call("diagram.evaluate_skeleton", evaluate_skeleton, w)
    nf = tr.call("garside.left_greedy_nf", left_greedy_nf, skel.braid, len(skel.domain))
    seen.append((w, skel, nf))
    return CanonicalForm(w.n, skel.domain, skel.codomain, nf)


def run_traced(tr, op: dict, max_letters: int, seen: list):
    """The same operation with a child span around every library call.

    seen receives the parsed words and the intermediate objects; tally()
    turns them into per-layer counts after the operation span has ended.
    """
    verb, n, words = op["verb"], op["n"], op["words"]
    # every verb parses all of its words first, as the CLI does
    parsed = [tr.call("words.parse_word", parse_word, text, n) for text in words]
    seen.extend(parsed)
    if verb == "canon":
        return _form_out(_traced_form(tr, parsed[0], seen))
    if verb == "eq":
        f1, f2 = (_traced_form(tr, w, seen) for w in parsed)
        return tr.call("garside.compare", f1.__eq__, f2)
    if verb == "tau":
        return list(tr.call("action.tau", tau, parsed[0], max_letters=max_letters).mapping)
    if verb == "central":
        return tr.call("monoidal.is_central", is_central, parsed[0])
    if verb == "makanin":
        return tr.call("diagram.is_makanin", is_makanin, parsed[0])
    if verb == "weq":
        return tr.call(
            "action.equal_action", equal_action, parsed[0], parsed[1],
            max_letters=max_letters,
        )
    raise ValueError(f"unknown verb {verb!r}")


def tally(counts: dict, seen: list) -> None:
    """Add the work one traced operation did to the per-layer counts."""
    for item in seen:
        if isinstance(item, tuple):
            w, skel, nf = item
            counts["skeletons"] += 1
            counts["survivors"] += len(skel.domain)
            counts["crossings_read"] += sum(1 for x in w.letters if x.kind != "epsilon")
            counts["crossings_kept"] += len(skel.braid)
            counts["nf_letters_in"] += len(skel.braid)
            counts["nf_factors_out"] += len(nf.factors)
        else:
            counts["letters"] += len(item)


def evaluate_stats(op: dict, max_letters: int) -> list[tuple[float, int | None]]:
    """The action layer on its own: evaluate every word of the operation.

    Returns (seconds, longest image) per word; the length is None when the
    word hit the letter cap.
    """
    out = []
    for text in op["words"]:
        w = parse_word(text, op["n"])
        start = time.perf_counter()
        try:
            endo = evaluate(w, max_letters=max_letters)
        except ResourceLimitError:
            out.append((time.perf_counter() - start, None))
            continue
        elapsed = time.perf_counter() - start
        out.append((elapsed, max((len(img) for img in endo.images if img is not None), default=0)))
    return out
