import json

from partialbraid.cli import run


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


def test_parse_error_exit_two(capsys):
    assert run(["eq", "-n", "2", "s9", "e1"]) == 2
    assert run(["eval", "-n", "2", "zz"]) == 2
    capsys.readouterr()


def test_xi_rejected_by_garside_engine(capsys):
    assert run(["eq", "-n", "2", "t1", "t1"]) == 2
    assert run(["eq", "-n", "2", "--engine", "action", "t1", "t1"]) == 0
    capsys.readouterr()


def test_resource_limit_exit_three(capsys):
    word = "s1 s2 " * 40
    assert run(["eval", "-n", "3", "--max-letters", "50", word]) == 3
    # central runs welded words on the action engine, under the same cap
    assert run(["central", "-n", "3", "--max-letters", "50", "t1 " + word]) == 3
    capsys.readouterr()


def test_batch_mode(tmp_path, capsys):
    batch = tmp_path / "pairs.tsv"
    batch.write_text("e1 s1 e1\ts1 e1 s1 e1\ne1\te2\n\ns1\ts1\n")
    assert run(["eq", "-n", "2", "--batch", str(batch)]) == 0
    assert out_lines(capsys) == ["true", "false", "true"]


def test_batch_mode_bad_line(tmp_path, capsys):
    batch = tmp_path / "pairs.tsv"
    batch.write_text("e1 only one word\n")
    assert run(["eq", "-n", "2", "--batch", str(batch)]) == 2
    capsys.readouterr()


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
    batch.write_text("s1\ts1\n" + "s1 s2 " * 40 + "\ts1\n")
    argv = ["eq", "-n", "3", "--engine", "action", "--max-letters", "50"]
    assert run(argv + ["--batch", str(batch)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["true"]
    assert captured.err.startswith("line 2: resource limit: ")


def test_python_dash_m_entry_point():
    import subprocess
    import sys
    from pathlib import Path

    # Run against this checkout's own src/, whatever directory pytest was
    # started from; the minimal env keeps an outer PYTHONPATH or an
    # installed copy of the package from masking a broken checkout.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "partialbraid", "eq", "-n", "2", "e1 s1", "s1 e2"],
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
        [sys.executable, "-c", code],
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
        [sys.executable, "-S", "-c", "import sys, partialbraid.cli; "
         "print('typing' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
