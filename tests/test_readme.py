"""The README's examples, run as written and checked against the results
it prints beside them."""

import ast
import contextlib
import io
import itertools
import re
import shlex
import tokenize
from pathlib import Path

from partialbraid import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _shown(value):
    """A value as the README writes it: a tuple as the str of each element."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(str, value)) + ")"
    return str(value)


def test_library_quick_start():
    start = README.index("## Library quick start")
    source = re.compile(r"```python\n(.*?)```", re.S).search(README, start).group(1)
    # a comment on an expression's last line is its result; the text after
    # ": " describes it, and printed lines are joined by " / "
    comments = {
        token.start[0]: token.string.lstrip("#").strip().split(": ")[0]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        code = ast.Module([statement], [])
        expected = comments.get(statement.end_lineno)
        if not isinstance(statement, ast.Expr) or expected is None:
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        call = statement.value
        if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "print":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(code, "README.md", "exec"), namespace)
            shown = " / ".join(out.getvalue().splitlines())
        else:
            value = eval(compile(ast.Expression(call), "README.md", "eval"), namespace)
            shown = _shown(value)
        assert shown == expected, ast.unparse(statement)
        checked += 1
    assert checked == 6


def _command_examples():
    """(command, printed lines) for every `$ partialbraid` line."""
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("$ partialbraid "):
                printed = itertools.takewhile(
                    lambda later: not later.startswith("$ "), lines[i + 1 :]
                )
                yield line[2:], list(printed)


def test_command_line_examples(capsys):
    examples = list(_command_examples())
    assert len(examples) == 3
    for command, printed in examples:
        program, *filters = command.split(" | ")
        assert cli.run(shlex.split(program)[1:]) == 0, command
        out = capsys.readouterr().out.splitlines()
        for stage in filters:
            assert stage == "tail -1", command
            out = out[-1:]
        assert out == printed, command
