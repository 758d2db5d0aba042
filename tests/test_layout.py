"""Module layering and the package's export list.

The free-group action is the independent oracle and the welded engine; the
strand modules must not lean on it.  The import graph is read from the
sources with ast; what a process really loads is checked in fresh
interpreters, since this one has loaded the action long before.
"""

import ast
import subprocess
import sys
from pathlib import Path

import partialbraid

SRC = Path(partialbraid.__file__).resolve().parent

# sorted(partialbraid.__all__): the public names, submodules included
EXPORTS = [
    "AbelianClass", "CanonicalForm", "GarsideNF", "Letter", "PartialEndo",
    "PartialInjection", "RelationPair", "ResourceLimitError", "Skeleton",
    "Word", "WordSyntaxError", "abelian_invariant", "action", "braiding_word",
    "canonical_form", "check_naturality", "compose", "compose_injection",
    "delete_strand", "delta_word", "diagram", "epsilon", "epsilon_block",
    "equal_action", "equal_nf", "evaluate", "evaluate_skeleton", "factorize",
    "format_word", "freegroup", "garside", "is_central", "is_i_makanin",
    "is_makanin", "is_permutation_braid", "left_greedy_nf", "letter_endo",
    "mirror_inverse", "monoidal", "mu", "parse_word", "perm_to_word",
    "positive_lift", "reconstruct_word", "relation_suite", "shift_word",
    "sigma", "sigma_inv", "tau", "word_to_perm", "words", "xi",
]


def _action_imports(module: str) -> list[list[str]]:
    """The names each import of the action in module brings in; a plain
    module import counts as the name "action"."""
    found = []
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.module in ("action", "partialbraid.action"):
                found.append(names)
            elif node.module in (None, "partialbraid") and "action" in names:
                found.append(["action"])
        elif isinstance(node, ast.Import):
            if any(alias.name == "partialbraid.action" for alias in node.names):
                found.append(["action"])
    return found


def test_strand_modules_import_nothing_from_the_action():
    for module in ("words.py", "diagram.py", "garside.py"):
        assert _action_imports(module) == [], module


def test_monoidal_takes_only_the_welded_engine_from_the_action():
    assert _action_imports("monoidal.py") == [["equal_action"]]


def test_export_list_is_unchanged():
    assert sorted(partialbraid.__all__) == EXPORTS


def test_element_predicates_live_in_monoidal():
    from partialbraid import garside

    for name in ("is_central", "is_i_makanin", "is_makanin"):
        assert getattr(partialbraid, name).__module__ == "partialbraid.monoidal"
    assert not [name for name in vars(garside) if "makanin" in name.lower()]


def test_strand_facts_live_in_diagram():
    from partialbraid import action, diagram

    moved = ("PartialInjection", "compose_injection", "AbelianClass",
             "abelian_invariant")
    for name in moved:
        assert getattr(partialbraid, name).__module__ == "partialbraid.diagram"
        assert not hasattr(action, name), name
    for name in ("GROUP_CLASS", "EPSILON_CLASS"):
        assert hasattr(diagram, name) and not hasattr(action, name), name
    assert partialbraid.tau.__module__ == "partialbraid.action"


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's src/, reporting its imports
    on stderr (-X importtime) and writing no bytecode into src/ (-B)."""
    return subprocess.run(
        [sys.executable, "-B", "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC.parent), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


def _loads_action(proc: subprocess.CompletedProcess) -> bool:
    return any(
        line.rsplit("|", 1)[-1].strip() == "partialbraid.action"
        for line in proc.stderr.splitlines()
    )


def test_strand_path_leaves_the_action_unloaded():
    proc = _python(
        "-c",
        "import sys, partialbraid as p\n"
        "w = p.parse_word('s1 s2 s1 e3', 3)\n"
        "print(p.equal_nf(w, p.parse_word('s2 s1 s2 e3', 3)), p.canonical_form(w))\n"
        "print('partialbraid.action' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("True ")
    assert proc.stdout.splitlines()[1] == "False"
    assert not _loads_action(proc)
    proc = _python("-m", "partialbraid", "eq", "-n", "3", "s1 s2 s1", "s2 s1 s2")
    assert (proc.returncode, proc.stdout) == (0, "true\n")
    assert not _loads_action(proc)


def test_welded_words_with_different_strand_maps_leave_the_action_unloaded():
    # t1 and t2 move different strands, and e1 t1 ends strand 2 where e1
    # leaves it in place, so the strand maps answer both
    for argv in (["eq", "-n", "3", "t1", "t2"], ["imakanin", "-n", "2", "1", "t1"]):
        proc = _python("-m", "partialbraid", *argv)
        assert (proc.returncode, proc.stdout) == (1, "false\n"), argv
        assert not _loads_action(proc), argv


def test_welded_swaps_beside_an_empty_position_leave_the_action_unloaded():
    # in e1 t1 the swap moves strand 2 across the emptied position 1, so
    # the survivor pass answers the pair as e1 s1 would
    for argv, out in (
        (["eq", "-n", "3", "e1 t1", "e1 s1"], "true\n"),
        (["canon", "-n", "2", "e1 t1"], "I={2} J={1} inf=0 factors=[]\n"),
    ):
        proc = _python("-m", "partialbraid", *argv)
        assert (proc.returncode, proc.stdout) == (0, out), argv
        assert not _loads_action(proc), argv


def test_welded_words_and_the_action_engine_load_the_action():
    for argv in (
        ["eq", "-n", "2", "t1 t1", "t1 t1"],
        ["eq", "--engine", "action", "-n", "3", "s1 s2 s1", "s2 s1 s2"],
    ):
        proc = _python("-m", "partialbraid", *argv)
        assert (proc.returncode, proc.stdout) == (0, "true\n"), argv
        assert _loads_action(proc), argv
    # and the names the package exports from it resolve on first use
    proc = _python("-c", "from partialbraid import tau; print(tau.__module__)")
    assert proc.stdout == "partialbraid.action\n", proc.stderr
