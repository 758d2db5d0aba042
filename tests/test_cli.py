import json

import pytest

from partialbraid.cli import run
from partialbraid.garside import left_greedy_nf
from partialbraid.words import parse_word, relation_suite


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_eq_true_exit_zero(capsys):
    code = run(["eq", "-n", "2", "e1 s1 e1", "s1 e1 s1 e1"])
    assert code == 0
    assert out_lines(capsys) == ["true"]


def test_eq_false_exit_one(capsys):
    code = run(["eq", "-n", "2", "e1", "e2"])
    assert code == 1
    assert out_lines(capsys) == ["false"]


def test_eq_engines_agree(capsys):
    for engine in ("action", "garside"):
        code = run(["eq", "-n", "3", "--engine", engine, "s1 s2 s1", "s2 s1 s2"])
        assert code == 0
    assert out_lines(capsys) == ["true", "true"]


def test_canon_output(capsys):
    assert run(["canon", "-n", "2", "e1"]) == 0
    assert out_lines(capsys) == ["I={2} J={2} inf=0 factors=[]"]


def test_canon_json(capsys):
    assert run(["canon", "-n", "2", "--format", "json", "s1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"I": [1, 2], "J": [1, 2], "inf": 1, "factors": []}


def test_eval_output(capsys):
    assert run(["eval", "-n", "2", "e1 s1"]) == 0
    assert out_lines(capsys) == ["x1 -> _", "x2 -> x1"]


def test_eval_json(capsys):
    assert run(["eval", "-n", "2", "--format", "json", "s1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"x1": "x2", "x2": "x2^-1 x1 x2"}


def test_tau_output(capsys):
    assert run(["tau", "-n", "2", "e1 s1"]) == 0
    assert out_lines(capsys) == ["{2->1}"]
    assert run(["tau", "-n", "2", "--format", "json", "e1 s1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"mapping": {"2": 1}}


def test_nf_output(capsys):
    assert run(["nf", "-n", "3", "s1^-1"]) == 0
    assert out_lines(capsys) == ["inf=-1 factors=[3 1 2]"]


def test_inv_round_trip(capsys):
    assert run(["inv", "-n", "2", "e1 s1"]) == 0
    assert out_lines(capsys) == ["s1^-1 e1"]


def test_makanin_verbs(capsys):
    assert run(["makanin", "-n", "2", "s1 s1"]) == 0
    assert run(["imakanin", "-n", "2", "1", "s1"]) == 1
    assert out_lines(capsys) == ["true", "false"]


def test_delete_verb(capsys):
    assert run(["delete", "-n", "3", "s1 s2 s1", "2"]) == 0
    assert out_lines(capsys) == ["s1"]


def test_mu_verb(capsys):
    assert run(["mu", "-n", "2", "-m", "2", "s1", "s1"]) == 0
    assert out_lines(capsys) == ["s1 s3"]


def test_braiding_verb(capsys):
    assert run(["braiding", "2", "1"]) == 0
    assert out_lines(capsys) == ["s2 s1"]
    assert run(["braiding", "-n", "4", "2", "1"]) == 2


def test_factor_verb(capsys):
    assert run(["factor", "-n", "2", "s1 e1"]) == 0
    assert out_lines(capsys) == ["idempotent=e2", "group=s1"]


def test_abelian_verb(capsys):
    assert run(["abelian", "-n", "3", "s1 s2^-1 s1"]) == 0
    assert run(["abelian", "-n", "2", "e1 s1 s1"]) == 0
    assert out_lines(capsys) == ["group 1", "epsilon"]


def test_central_verb(capsys):
    assert run(["central", "-n", "3", "s1 s2 s1 s1 s2 s1"]) == 0
    assert run(["central", "-n", "3", "s1"]) == 1
    assert out_lines(capsys) == ["true", "false"]


def test_verify_presentation(capsys):
    assert run(["verify-presentation", "-n", "4", "ibn-balanced"]) == 0
    lines = out_lines(capsys)
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("relations hold")


def test_verify_presentation_json(capsys):
    assert run(["verify-presentation", "-n", "3", "--format", "json", "sym-inverse"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    assert payload["engine"] == "injection"
    assert all(row["ok"] for row in payload["relations"])


def test_engine_overrides_every_suite_default(capsys):
    argv = ["verify-presentation", "-n", "3", "--format", "json"]
    assert run(argv + ["--engine", "action", "sym-inverse"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "action"
    assert payload["failed"] > 0
    # the welded suite runs on the production path by default
    assert run(argv + ["ibp-mixed"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "garside"
    assert payload["failed"] == 0


def test_injection_engine_matches_tau(rng):
    # sym-inverse's default engine compares strand maps; the action's
    # projection tau is the independent oracle for it
    from conftest import random_word
    from partialbraid.action import tau
    from partialbraid.cli import _equal
    from partialbraid.freegroup import MAX_LETTERS
    from partialbraid.words import parse_word, relation_suite

    # equal domain and codomain, different maps; equal codomain only
    pairs = [
        (parse_word(a, n), parse_word(b, n))
        for a, b, n in [("s1", "", 2), ("s1 s2", "s2 s1", 3), ("e3 s1", "e3", 3),
                        ("e1 s1", "e2", 2), ("e1 s2", "e1 e2 e3 s1", 3)]
    ]
    while len(pairs) < 600:
        n = rng.randint(1, 6)
        if len(pairs) % 2 == 0:
            rel = rng.choice(relation_suite("sym-inverse", n))
            before, after = random_word(rng, n, 6), random_word(rng, n, 6)
            pairs.append((before * rel.left * after, before * rel.right * after))
        else:
            pairs.append((random_word(rng, n, 8), random_word(rng, n, 8)))
    verdicts = {True: 0, False: 0}
    for w1, w2 in pairs:
        expected = tau(w1) == tau(w2)
        assert _equal("injection", w1, w2, MAX_LETTERS) == expected, (str(w1), str(w2))
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False], verdicts


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sym_inverse_default_engine_never_reaches_the_cap(fmt, capsys):
    # strand maps are compared without the action, so no cap applies;
    # the action engine keeps it
    for n in range(1, 9):
        argv = ["verify-presentation", "-n", str(n), "--format", fmt, "--max-letters", "1"]
        assert run(argv + ["sym-inverse"]) == 0, n
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            assert payload["engine"] == "injection"
            assert payload["failed"] == 0 and all(r["ok"] for r in payload["relations"])
        else:
            lines = out.splitlines()
            assert all(line.startswith("PASS ") for line in lines[:-1]), n
            assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} relations hold"
        if n >= 2:
            assert run(argv + ["--engine", "action", "sym-inverse"]) == 3, n
            captured = capsys.readouterr()
            assert captured.err.startswith("resource limit: ")
            # a capped relation gets its own row and the rest still run
            rows = len(relation_suite("sym-inverse", n))
            limits = captured.err.count("resource limit: ")
            if fmt == "json":
                payload = json.loads(captured.out)
                oks = [r["ok"] for r in payload["relations"]]
                assert len(oks) == rows and payload["capped"] == oks.count(None) == limits
                assert payload["failed"] == oks.count(False)
            else:
                lines = captured.out.splitlines()
                assert len(lines) == rows + 1
                statuses = [line.split()[0] for line in lines[:-1]]
                assert statuses.count("CAP") == limits
                assert lines[-1] == f"{statuses.count('PASS')}/{rows} relations hold"
                if n == 2:
                    assert statuses == ["FAIL", "PASS", "CAP", "CAP"]


def _exit_code(argv) -> int:
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def test_max_letters_only_on_verbs_that_reach_the_action(capsys):
    import argparse

    from partialbraid.cli import build_parser

    (verbs,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    capped = {
        verb
        for verb, sub in verbs.items()
        if any("--max-letters" in action.option_strings for action in sub._actions)
    }
    assert capped == {
        "eval", "eq", "tau", "central", "makanin", "imakanin", "verify-presentation"
    }
    assert len(verbs) == 15
    assert _exit_code(["canon", "-n", "3", "--max-letters", "5", "s1"]) == 2
    assert _exit_code(["canon", "-n", "3", "s1"]) == 0
    capsys.readouterr()


def test_max_letters_below_one_is_a_usage_error(capsys):
    for cap in ("0", "-5"):
        assert _exit_code(["eval", "-n", "2", "--max-letters", cap, "s1"]) == 2
        err = capsys.readouterr().err
        assert f"argument --max-letters: must be at least 1, got {int(cap)}" in err
    assert _exit_code(["eval", "-n", "2", "--max-letters", "x", "s1"]) == 2
    assert "argument --max-letters: invalid int value: 'x'" in capsys.readouterr().err
    assert _exit_code(["eval", "-n", "2", "--max-letters", "1", "s1"]) == 3
    capsys.readouterr()


def test_strand_counts_over_the_bound_are_usage_errors(monkeypatch, capsys):
    # -n, -m and braiding's blocks are checked as they are read, before any
    # word is parsed or built
    from partialbraid import cli, words

    over = str(cli.MAX_STRANDS + 1)

    def refuse(*args):
        raise AssertionError("a word was built for an oversized strand count")

    monkeypatch.setattr(words, "parse_word", refuse)
    monkeypatch.setattr(words, "braiding_word", refuse)
    for argv, flag in [
        (["eq", "-n", over, "s1", "s1"], "-n"),
        (["canon", "-n", over, "s1"], "-n"),
        (["braiding", "-n", over, "1", "1"], "-n"),
        (["mu", "-n", "1", "-m", over, "", ""], "-m"),
        (["braiding", over, "1"], "m"),
        (["braiding", "1", over], "n2"),
    ]:
        assert _exit_code(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"argument {flag}: at most {cli.MAX_STRANDS} strands, got {over}" in err
    monkeypatch.undo()
    # the bound itself is accepted
    bound = str(cli.MAX_STRANDS)
    assert run(["canon", "-n", bound, "s1"]) == 0
    assert run(["braiding", "-n", bound, "1", str(cli.MAX_STRANDS - 1)]) == 0
    capsys.readouterr()


def test_parse_error_exit_two(capsys):
    assert run(["eq", "-n", "2", "s9", "e1"]) == 2
    assert run(["eval", "-n", "2", "zz"]) == 2
    capsys.readouterr()


def test_welded_pairs_answered_by_default_engine(tmp_path, capsys):
    # the normal forms refuse welded words, so the library's equality
    # hands them to the action, under --max-letters
    assert run(["eq", "-n", "2", "t1", "t1"]) == 0
    assert run(["eq", "-n", "3", "t1 t2 t1", "t2 t1 t2"]) == 0
    assert run(["eq", "-n", "2", "t1", "s1"]) == 1
    assert out_lines(capsys) == ["true", "true", "false"]
    batch = tmp_path / "pairs.tsv"
    batch.write_text("s1\ts1\nt1 t1\t\nt1 e1\te2 t1\nt1\ts1\n")
    assert run(["eq", "-n", "2", "--batch", str(batch)]) == 0
    assert out_lines(capsys) == ["true", "true", "true", "false"]
    # an unequal pair is told apart by its fingerprint, whatever the cap;
    # an equal one is evaluated under it, and the cap names line and word
    long_word = "t1 s1 s2 " * 30
    batch.write_text(
        f"t1\tt1\n{long_word}\ts1\n{long_word}\tt1 t1 {long_word}\nt1\tt1\n"
    )
    assert run(["eq", "-n", "3", "--max-letters", "50", "--batch", str(batch)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["true", "false"]
    assert captured.err == (
        "line 3: resource limit: word 1, letter 74 (s1): image of strand 1"
        " reached 51 letters, over the cap of 50\n"
    )


def _welded_pairs(rng, count=240):
    """Seeded pairs on n <= 4 with a welded letter in at least one word:
    ibp-mixed relations in random contexts, equal by construction, and
    random pairs."""
    from conftest import random_word
    from partialbraid.words import XI, relation_suite

    pairs = []
    while len(pairs) < count:
        n = rng.randint(2, 4)
        if len(pairs) % 2 == 0:
            rel = rng.choice(relation_suite("ibp-mixed", n))
            left, right = rel.left, rel.right
            if rng.random() < 0.5:
                left, right = right, left
            before = random_word(rng, n, 5, with_xi=True)
            after = random_word(rng, n, 5, with_xi=True)
            pair = (before * left * after, before * right * after)
        else:
            pair = (random_word(rng, n, 8, with_xi=True), random_word(rng, n, 8, with_xi=True))
        if XI in pair[0].kinds() | pair[1].kinds():
            pairs.append(pair)
    return pairs


def test_welded_default_engine_matches_action(rng, capsys):
    verdicts = {}
    for w1, w2 in _welded_pairs(rng):
        answers = []
        for engine in (), ("--engine", "action"):
            code = run(["eq", "-n", str(w1.n), *engine, str(w1), str(w2)])
            assert code in (0, 1), (str(w1), str(w2), capsys.readouterr().err)
            answers.append(code)
        assert answers[0] == answers[1], (str(w1), str(w2))
        verdicts[answers[0] == 0] = verdicts.get(answers[0] == 0, 0) + 1
    capsys.readouterr()
    assert set(verdicts) == {True, False}
    print(f"welded pairs: {verdicts[True]} equal, {verdicts[False]} unequal")


def test_resource_limit_exit_three(capsys):
    word = "s1 s2 " * 40
    located = (
        "resource limit: letter 47 (s1): image of strand 2 reached 51 letters,"
        " over the cap of 50\n"
    )
    for verb in ("eval", "tau"):
        assert run([verb, "-n", "3", "--max-letters", "50", word]) == 3
        assert capsys.readouterr().err == located
    # eq names the word it was evaluating; an unequal pair never reaches
    # the cap, because the fingerprints tell it apart first
    eq = ["eq", "-n", "3", "--engine", "action", "--max-letters", "50"]
    assert run(eq + [word, "s1"]) == 1
    assert capsys.readouterr().out == "false\n"
    unwound = word + "s2^-1 s1^-1 " * 40
    for pair, number in ([word, "s1 s1^-1 " + word], 1), (["s1 s1^-1", unwound], 2):
        assert run(eq + pair) == 3
        assert capsys.readouterr().err == located.replace(
            "limit: ", f"limit: word {number}, "
        )
    # central runs welded words on the action engine, under the same cap;
    # (s1 s2)^39 is a power of the full twist, so the word is central and
    # every commutator it is checked against is evaluated; the cap line
    # names the product that hit it, and its letter counts in that product
    central = "t1 t1 " + "s1 s2 " * 39
    assert run(["central", "-n", "3", central]) == 0
    assert capsys.readouterr().out == "true\n"
    assert run(["central", "-n", "3", "--max-letters", "50", central]) == 3
    assert capsys.readouterr().err == (
        "resource limit: word 1 (w s1), letter 49 (s1): image of strand 2"
        " reached 51 letters, over the cap of 50\n"
    )
    assert run(["central", "-n", "3", "--max-letters", "85", central]) == 3
    assert capsys.readouterr().err == (
        "resource limit: word 2 (e1 w), letter 70 (s1): image of strand 3"
        " reached 86 letters, over the cap of 85\n"
    )
    assert run(["central", "-n", "3", "--max-letters", "50", "t1 " + word]) == 1
    assert capsys.readouterr().out == "false\n"
    # so do makanin and imakanin: a cap line names the product e_i w, and
    # its letter counts the leading e_i
    unwound = "t1 t1 " + "s1 s2 " * 20 + "s2^-1 s1^-1 " * 20
    assert run(["makanin", "-n", "3", unwound]) == 0
    assert capsys.readouterr().out == "true\n"
    capped = ["-n", "3", "--max-letters", "50"]
    for argv in ["makanin", *capped], ["imakanin", *capped, "1"]:
        assert run(argv + [unwound]) == 3
        assert capsys.readouterr().err == (
            "resource limit: word 1 (e1 w), letter 41 (s2): image of strand 3"
            " reached 51 letters, over the cap of 50\n"
        )


def test_nf_refuses_the_last_deletion_by_kind(capsys):
    # e_n has no crossing of the same index on n strands; it is refused for
    # its kind all the same, by the library and by the verb
    kind = "normal forms expect crossing-only words"
    for n in range(1, 5):
        with pytest.raises(ValueError) as caught:
            left_greedy_nf(parse_word(f"e{n}", n))
        assert str(caught.value) == kind
        assert run(["nf", "-n", str(n), f"e{n}"]) == 2
        assert capsys.readouterr().err == f"error: {kind}\n"


def test_batch_mode(tmp_path, capsys):
    batch = tmp_path / "pairs.tsv"
    batch.write_text("e1 s1 e1\ts1 e1 s1 e1\ne1\te2\n\ns1\ts1\n")
    assert run(["eq", "-n", "2", "--batch", str(batch)]) == 0
    assert out_lines(capsys) == ["true", "false", "true"]


def test_batch_skips_whitespace_and_crlf_blank_lines(tmp_path, monkeypatch, capsys):
    import io
    import sys

    text = "s1\ts1\r\n\r\n \ne1\te2\r\n"
    batch = tmp_path / "pairs.tsv"
    batch.write_bytes(text.encode())
    assert run(["eq", "-n", "2", "--batch", str(batch)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("true\nfalse\n", "")
    # stdin keeps the \r of each CRLF line
    monkeypatch.setattr(sys, "stdin", io.StringIO(text, newline=""))
    assert run(["eq", "-n", "2", "--batch", "-"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("true\nfalse\n", "")
    # a lone tab is still a pair of empty words, and a tabless line with a
    # word on it is still refused
    for where in ("file", "-"):
        text = "\t\n \t \n s1 \n"
        if where == "file":
            batch.write_text(text)
            argv = ["eq", "-n", "2", "--batch", str(batch)]
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            argv = ["eq", "-n", "2", "--batch", "-"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "true\ntrue\n", "line 3: expected word<TAB>word\n"
        )


def test_batch_mode_bad_line(tmp_path, capsys):
    batch = tmp_path / "pairs.tsv"
    batch.write_text("e1 only one word\n")
    assert run(["eq", "-n", "2", "--batch", str(batch)]) == 2
    capsys.readouterr()


def test_batch_mode_refuses_positional_words(tmp_path, capsys):
    batch = tmp_path / "pairs.tsv"
    batch.write_text("s1\ts1\n")
    for extra in (["s1", "e1"], ["s1"]):
        assert run(["eq", "-n", "2", "--batch", str(batch), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "eq --batch takes no positional words\n"
    # without positional words the file is still read
    assert run(["eq", "-n", "2", "--batch", str(batch)]) == 0
    assert out_lines(capsys) == ["true"]


def test_batch_mode_names_the_failing_line(tmp_path, capsys):
    batch = tmp_path / "pairs.tsv"
    # a syntax error on line 3, after one answered pair and a blank line
    batch.write_text("s1\ts1\n\ne1\ts1 x\ns1\ts1\n")
    assert run(["eq", "-n", "2", "--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["true"]
    assert captured.err == "line 3: error: bad token 'x' (at position 3)\n"
    # an index out of range on a later line
    batch.write_text("s1\ts1\ne1\te2\ns1 s5\ts1\n")
    assert run(["eq", "-n", "2", "--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["true", "false"]
    assert captured.err == (
        "line 3: error: index of 's5' out of range for n=2 (at position 3)\n"
    )


def test_batch_mode_resource_limit_names_the_line(tmp_path, capsys):
    batch = tmp_path / "pairs.tsv"
    long_word = "s1 s2 " * 40
    # the unequal pair on line 2 is answered; the equal one on line 3 hits
    # the cap in its first word
    batch.write_text(f"s1\ts1\n{long_word}\ts1\n{long_word}\ts1 s1^-1 {long_word}\n")
    argv = ["eq", "-n", "3", "--engine", "action", "--max-letters", "50"]
    assert run(argv + ["--batch", str(batch)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["true", "false"]
    assert captured.err == (
        "line 3: resource limit: word 1, letter 47 (s1): image of strand 2"
        " reached 51 letters, over the cap of 50\n"
    )


def _aliases(letter):
    """Spellings of a letter: the canonical one twice as often as each
    alias (a leading zero, an Arabic-Indic digit, s<i>' and E)."""
    token, i, digit = letter.token(), letter.index, chr(0x660 + letter.index)
    if letter.kind == "sigma":
        return [token, token, f"s0{i}", f"s{digit}"]
    if letter.kind == "sigma-inverse":
        return [token, token, f"s{i}'", f"s0{i}^-1", f"s{digit}'"]
    return [token, token, f"e0{i}", f"e{digit}"] + (["E"] if i == 1 else [])


def _spelled_pairs(rng, count=2000):
    """Seeded n=6 pair texts: half equal by an ibn-balanced relation in
    context, half random, each letter in a random spelling between runs
    of mixed whitespace."""
    from conftest import random_word
    from partialbraid.words import relation_suite

    relations = relation_suite("ibn-balanced", 6)
    separators = [" ", "  ", "\u00a0", "\u2003", "\x1c", "\x85"]

    def spell(word):
        parts = [rng.choice(["", " "])]
        for letter in word:
            parts += [rng.choice(_aliases(letter)), rng.choice(separators)]
        return "".join(parts[:-1] if rng.random() < 0.5 else parts)

    pairs = []
    for k in range(count):
        if k % 2 == 0:
            rel = rng.choice(relations)
            before, after = random_word(rng, 6, 8), random_word(rng, 6, 8)
            pair = (before * rel.left * after, before * rel.right * after)
        else:
            pair = (random_word(rng, 6, 12), random_word(rng, 6, 12))
        pairs.append((spell(pair[0]), spell(pair[1])))
    return pairs


def test_batch_matches_single_eq_runs_across_spellings(tmp_path, monkeypatch, capsys, rng):
    # eq --batch parses each canonical spelling once per run; its answers
    # and errors must stay those of one eq run per pair
    import io
    import sys

    from partialbraid import cli

    pairs = _spelled_pairs(rng)
    lines = []
    for left, right in pairs:
        lines.append(f"{left}\t{right}")
        if rng.random() < 0.05:
            lines.append("")
    # bad tokens on line 121, once the table is full: out of range, zero
    # index, malformed, each after stored and unstored spellings
    bad_pairs = [("s1 s2 s6", "s1"), ("s1", "s1 s0"), ("e1 s01 e7", "e1"),
                 ("s1\u00a0s2\u2003s5^-", "s1"), ("E s1' q", "")]
    head = 120
    batch = tmp_path / "pairs.tsv"

    def batch_run(argv, text, source):
        if source == "-":
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        else:
            batch.write_text(text, encoding="utf-8")
        code = run(argv + ["--batch", source])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for fmt in ("text", "json"):
        argv = ["eq", "-n", "6", "--format", fmt]
        answers = []
        for left, right in pairs:
            assert run(argv + [left, right]) in (0, 1)
            answers.append(capsys.readouterr().out)
        assert len(set(answers)) == 2
        text = "\n".join(lines) + "\n"
        for source in (str(batch), "-"):
            assert batch_run(argv, text, source) == (0, "".join(answers), "")
        head_text = "".join(line + "\n" for line in lines[:head])
        head_answers = "".join(answers[: sum(1 for line in lines[:head] if line)])
        for left, right in bad_pairs:
            assert run(argv + [left, right]) == 2
            error = capsys.readouterr().err
            bad = f"{head_text}{left}\t{right}\ns1\ts1\n"
            for source in (str(batch), "-"):
                assert batch_run(argv, bad, source) == (
                    2, head_answers, f"line {head + 1}: {error}"
                )


def test_run_builds_the_parser_once(monkeypatch, capsys):
    # every run after the first reuses the parser, usage errors included
    from partialbraid import cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    assert run(["eq", "-n", "3", "s1 s2 s1", "s2 s1 s2"]) == 0
    with pytest.raises(SystemExit):
        run(["eq", "-n", "x", "s1", "s1"])
    assert run(["eq", "-n", "2", "s1", "s1^-1", "--format", "json"]) == 1
    assert run(["canon", "-n", "2", "s1"]) == 0
    out = capsys.readouterr()
    assert out.out == 'true\n{"result": false}\nI={1,2} J={1,2} inf=1 factors=[]\n'
    assert "argument -n: invalid int value: 'x'" in out.err
    assert built == [1]


def test_python_dash_m_entry_point():
    import subprocess
    import sys
    from pathlib import Path

    # Run against this checkout's own src/, whatever directory pytest was
    # started from; the minimal env keeps an outer PYTHONPATH or an
    # installed copy of the package from masking a broken checkout, and
    # -B keeps the child from writing bytecode into src/.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "partialbraid", "eq", "-n", "2", "e1 s1", "s1 e2"],
        capture_output=True,
        text=True,
        cwd=root,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"


def test_import_loads_no_dataclasses_inspect_or_json():
    # start-up cost of every CLI process: JSON is loaded only under
    # --format json, and the value types need no dataclasses machinery
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys; before = set(sys.modules); import partialbraid.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} "
        "& (set(sys.modules) - before)))"
    )
    env = {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # annotations need no typing: without site, which may preload it,
    # importing the CLI must not load it
    proc = subprocess.run(
        [sys.executable, "-B", "-S", "-c", "import sys, partialbraid.cli; "
         "print('typing' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _answer_line(proc, timeout_s=10.0):
    """One answer line from proc's stdout, or None when none arrives in
    time; never blocks past the timeout."""
    import os
    import select

    line = b""
    while not line.endswith(b"\n"):
        if not select.select([proc.stdout], [], [], timeout_s)[0]:
            return None
        chunk = os.read(proc.stdout.fileno(), 4096)
        if not chunk:
            return None
        line += chunk
    return line.decode()


@pytest.mark.parametrize(
    "fmt, answers",
    [("text", ["true\n", "false\n"]), ("json", ['{"result": true}\n', '{"result": false}\n'])],
)
def test_batch_stdin_answers_each_pair_before_eof(fmt, answers):
    # a coprocess client: send one pair, wait for its answer, send the next;
    # run without -u or PYTHONUNBUFFERED, so only the CLI's own flush helps
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.Popen(
        [sys.executable, "-B", "-m", "partialbraid", "eq", "-n", "2", "--format", fmt,
         "--batch", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        proc.stdin.write(b"e1 s1 e1\ts1 e1 s1 e1\n")
        proc.stdin.flush()
        assert _answer_line(proc) == answers[0]
        proc.stdin.write(b"e1\te2\n")
        proc.stdin.close()
        assert _answer_line(proc) == answers[1]
        assert proc.wait(timeout=10) == 0
        assert proc.stdout.read() == b""
        assert proc.stderr.read() == b""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


class _WriteLog:
    """A stdout stand-in that records each write and flush."""

    def __init__(self):
        self.events = []

    def write(self, text):
        self.events.append(text)
        return len(text)

    def flush(self):
        self.events.append("<flush>")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_batch_writes_each_answer_once(tmp_path, monkeypatch, fmt):
    import io
    import sys

    pairs = "e1 s1 e1\ts1 e1 s1 e1\ne1\te2\n\ns1\ts1\n"
    answers = ["true\n", "false\n", "true\n"]
    if fmt == "json":
        answers = [json.dumps({"result": a == "true\n"}) + "\n" for a in answers]
    batch = tmp_path / "pairs.tsv"
    batch.write_text(pairs)
    argv = ["eq", "-n", "2", "--format", fmt, "--batch"]

    log = _WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert run(argv + [str(batch)]) == 0
    # a file's answers stay buffered
    assert log.events == answers

    log = _WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    monkeypatch.setattr(sys, "stdin", io.StringIO(pairs))
    assert run(argv + ["-"]) == 0
    # stdin's answers are flushed one by one
    assert log.events == [e for a in answers for e in (a, "<flush>")]
