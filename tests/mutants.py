"""Mutation check: every mutant below must make the tests fail.

Each mutant rewrites one line of the package in a fresh copy of src/ and
tests/, and a focused subset of the tests is run there with -x.  A mutant
that leaves the subset passing survives; any survivor makes the script
exit 1.  The unmutated copy is run first, so a failing subset cannot pass
for a kill.  Not collected by pytest; run from anywhere as

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60

# (what the mutant does, file under src/partialbraid, pattern, replacement,
# tests that must fail)
MUTANTS = [
    (
        "left_greedy_nf checks a letter's range before its kind",
        "garside.py",
        "    for letter in b.letters:\n",
        "    for letter in b.letters:\n        if letter.index >= k:\n"
        "            raise ValueError(f\"crossing {letter.token()} out of range for k={k}\")\n",
        [
            "tests/test_garside.py::test_left_greedy_error_texts",
            "tests/test_cli.py::test_nf_refuses_the_last_deletion_by_kind",
        ],
    ),
    (
        "normal-form core reads inverse ranks as positive",
        "garside.py",
        "    for r in reversed(ranks):\n",
        "    for r in map(abs, reversed(ranks)):\n",
        ["tests/test_garside.py::test_left_greedy_examples"],
    ),
    (
        "half-twist remap dropped",
        "garside.py",
        "        if total % 2:\n            r = k - r if r > 0 else -k - r\n",
        "",
        ["tests/test_garside.py::test_nf_multiplies_back"],
    ),
    (
        "_left_weight_pair with its comparison flipped",
        "garside.py",
        "and ainv[g] < ainv[g + 1]:",
        "and ainv[g] > ainv[g + 1]:",
        ["tests/test_garside.py::test_left_weighted_is_start_set_inclusion"],
    ),
    (
        "left_weighted always true",
        "garside.py",
        "    return not _left_weight_pair(a, b, len(b))[2]\n",
        "    return True\n",
        ["tests/test_garside.py::test_left_weighted_is_start_set_inclusion"],
    ),
    (
        "equal_nf answers true on equal occupant lists",
        "garside.py",
        "    if occupant != _occupants(w2):\n        return False\n",
        "    if occupant != _occupants(w2):\n        return False\n    return True\n",
        ["tests/test_garside.py::test_equal_nf_examples"],
    ),
    (
        "equal_nf's suffix scan runs into the cancelled prefix",
        "garside.py",
        "    while j < m - i and r1[-1 - j] == r2[-1 - j]:\n",
        "    while j < m and r1[-1 - j] == r2[-1 - j]:\n",
        ["tests/test_garside.py::test_equal_nf_normal_forms_see_only_the_cores"],
    ),
    (
        "equal_nf cancels one letter past the common prefix",
        "garside.py",
        "    while i < m and r1[i] == r2[i]:\n        i += 1\n",
        "    while i < m and r1[i] == r2[i]:\n        i += 1\n    i = min(i + 1, m)\n",
        ["tests/test_garside.py::test_equal_nf_normal_forms_see_only_the_cores"],
    ),
    (
        "equal_nf's exponent-sum exit tests == instead of !=",
        "garside.py",
        "    if _exponent_sum(r1) != _exponent_sum(r2):\n",
        "    if _exponent_sum(r1) == _exponent_sum(r2):\n",
        ["tests/test_garside.py::test_equal_nf_exponent_sum_exit_against_the_action"],
    ),
    (
        "equal_nf's exponent-sum exit compares absolute values",
        "garside.py",
        "    if _exponent_sum(r1) != _exponent_sum(r2):\n",
        "    if abs(_exponent_sum(r1)) != abs(_exponent_sum(r2)):\n",
        ["tests/test_garside.py::test_equal_nf_normal_forms_see_only_the_cores"],
    ),
    (
        "the last stage counts a repeated crossing into a permutation braid",
        "garside.py",
        "        if a > b:\n            return None\n",
        "",
        ["tests/test_garside.py::test_equal_nf_normal_forms_see_only_the_cores"],
    ),
    (
        "the last stage compares permutations of cores with mixed signs",
        "garside.py",
        "    if min(both) > 0 or max(both) < 0:\n",
        "    if True:\n",
        ["tests/test_garside.py::test_equal_nf_normal_forms_see_only_the_cores"],
    ),
    (
        "survivor ranks start live at end positions, not start strands",
        "diagram.py",
        "    for strand in occupant:\n        if strand is not None:\n"
        "            live[strand - 1] = True\n",
        "    for p, strand in enumerate(occupant):\n        if strand is not None:\n"
        "            live[p] = True\n",
        ["tests/test_diagram.py::test_skeleton_edge_cases"],
    ),
    (
        "freegroup.reduce cancels r, r, read through project",
        "freegroup.py",
        "        if out and out[-1] == -x:\n            out.pop()\n        else:\n"
        "            out.append(x)\n    return tuple(out)\n",
        "        if out and abs(out[-1]) == abs(x):\n            out.pop()\n        else:\n"
        "            out.append(x)\n    return tuple(out)\n",
        ["tests/test_freegroup.py::test_project"],
    ),
    (
        "freegroup.reduce cancels r, r and keeps r, r^-1, read through equal_nf",
        "freegroup.py",
        "        if out and out[-1] == -x:\n",
        "        if out and out[-1] == x:\n",
        ["tests/test_garside.py::test_equal_nf_free_reduction_hypothesis"],
    ),
    (
        "cap message leaves out the word",
        "freegroup.py",
        "            text = f\"word {self.word}{product}, {text}\"\n",
        "",
        ["tests/test_cli.py::test_resource_limit_exit_three"],
    ),
    (
        "substitute_erasing without its reversed",
        "freegroup.py",
        "for y in reversed(img):",
        "for y in img:",
        ["tests/test_freegroup.py"],
    ),
    (
        "projection skipped whenever every live image has its own core",
        "action.py",
        "    if None not in mapped:\n",
        "    if len({u[len(u) // 2] for u in mapped if u}) == sum(1 for u in mapped if u):\n",
        ["tests/test_action.py::test_compose_matches_evaluate"],
    ),
    (
        "fingerprint's inverse crossing folds like a crossing",
        "action.py",
        "            rho[i], rho[i + 1] = _mul(_mul(a, b), _inv(a)), a\n",
        "            rho[i], rho[i + 1] = b, _mul(_mul(_inv(b), a), b)\n",
        ["tests/test_action.py::test_fingerprint_is_rho_of_the_images"],
    ),
    (
        "_occupants ignores welded swaps",
        "diagram.py",
        "            occupant[p] = None\n        else:\n",
        "            occupant[p] = None\n        elif letter.kind == XI:\n"
        "            continue\n        else:\n",
        ["tests/test_diagram.py::test_welded_tracker_matches_position_tracking"],
    ),
    (
        "_replay lets a welded swap through as a crossing",
        "diagram.py",
        "        if kind == XI:\n"
        "            raise ValueError(\"skeletons are not defined for xi letters\")\n",
        "",
        ["tests/test_garside.py::test_equal_nf_error_order"],
    ),
    (
        "_replay refuses a welded swap only between two survivors",
        "diagram.py",
        "        if kind == XI:\n"
        "            raise ValueError(\"skeletons are not defined for xi letters\")\n"
        "        p = letter.index - 1\n        a, b = live[p], live[p + 1]\n"
        "        if a and b:\n",
        "        p = letter.index - 1\n        a, b = live[p], live[p + 1]\n"
        "        if a and b:\n            if kind == XI:\n"
        "                raise ValueError(\"skeletons are not defined for xi letters\")\n",
        ["tests/test_diagram.py::test_strand_path_refuses_welded_swaps"],
    ),
    (
        "letter maps cached for the life of the process",
        "action.py",
        "def _letter_images(",
        "@__import__('functools').lru_cache(maxsize=None)\ndef _letter_images(",
        ["tests/test_action.py::test_letter_maps_do_not_outlive_evaluate"],
    ),
    (
        "fingerprint matrices cached per strand count",
        "action.py",
        "def _generator_matrices(",
        "@__import__('functools').lru_cache(maxsize=None)\ndef _generator_matrices(",
        ["tests/test_action.py::test_fingerprint_matrices_are_one_table"],
    ),
    (
        "is_central: a partial domain answers true",
        "monoidal.py",
        "        return occupant.count(None) == n\n",
        "        return True\n",
        ["tests/test_monoidal.py::test_is_central_examples"],
    ),
    (
        "is_central sends welded words to the definition before the strand exits",
        "monoidal.py",
        "    n = w.n\n    occupant = _occupants(w)\n",
        "    if XI in w.kinds():\n        return _commutes_with_generators(w, max_letters)\n"
        "    n = w.n\n    occupant = _occupants(w)\n",
        ["tests/test_monoidal.py::test_is_central_on_welded_words_against_the_definition"],
    ),
    (
        "is_central skips the identity-map check",
        "monoidal.py",
        "    if occupant != list(range(1, n + 1)):\n        return False\n",
        "",
        ["tests/test_monoidal.py::test_is_central_exits_agree_with_the_canonical_form_rule"],
    ),
    (
        "is_central skips the exponent-sum check",
        "monoidal.py",
        "    if n >= 2 and _exponent_sum(ranks) % (n * (n - 1)):\n"
        "        return False\n",
        "",
        ["tests/test_monoidal.py::test_is_central_exits_agree_with_the_canonical_form_rule"],
    ),
    (
        "is_central answers true on every pure word of a twist-square sum",
        "monoidal.py",
        "    return not _rank_nf(n, ranks).factors\n",
        "    return True\n",
        ["tests/test_monoidal.py::test_is_central_exits_agree_with_the_canonical_form_rule"],
    ),
    (
        "monoidal._equal falls back to the action on every ValueError",
        "monoidal.py",
        "        if XI not in w1.kinds() and XI not in w2.kinds():\n            raise\n",
        "        pass\n",
        ["tests/test_monoidal.py::test_equal_dispatch_error_path"],
    ),
    (
        "is_i_makanin compares the strand maps only",
        "monoidal.py",
        "        return _equal(e_i * w, e_i, max_letters)\n",
        "        from .diagram import _occupants\n\n"
        "        return _occupants(e_i * w) == _occupants(e_i)\n",
        ["tests/test_diagram.py::test_makanin_examples"],
    ),
    (
        "is_i_makanin asks equal_nf, not _equal",
        "monoidal.py",
        "        return _equal(e_i * w, e_i, max_letters)\n",
        "        return equal_nf(e_i * w, e_i)\n",
        ["tests/test_diagram.py::test_welded_makanin_on_swaps_and_deletions"],
    ),
    (
        "is_makanin skips strand n",
        "monoidal.py",
        "for i in range(1, w.n + 1))",
        "for i in range(1, w.n))",
        ["tests/test_diagram.py::test_makanin_domain_restrictions"],
    ),
    (
        "word_to_perm drops invert_perm",
        "garside.py",
        "    return invert_perm(tuple(s - 1 for s in _occupants(_positive_word(w, k))))\n",
        "    return tuple(s - 1 for s in _occupants(_positive_word(w, k)))\n",
        ["tests/test_garside.py::test_perm_to_word_round_trip"],
    ),
    (
        "perm_to_word sinks a strand bound for the bottom one swap short",
        "garside.py",
        "        while g >= 0 and apos[g] > apos[g + 1]:\n",
        "        while g > 0 and apos[g] > apos[g + 1]:\n",
        ["tests/test_garside.py::test_perm_to_word_round_trip"],
    ),
    (
        "spare positions filled in descending order",
        "garside.py",
        "spare = iter(j for j in range(1, n + 1) if j not in used)",
        "spare = iter(j for j in range(n, 0, -1) if j not in used)",
        [
            "tests/test_monoidal.py::test_printed_words_with_several_deletions",
            "tests/test_monoidal.py::test_positive_lift_length_on_all_of_i4",
        ],
    ),
    (
        "error position is the start of the following token",
        "words.py",
        "    for token in tokens[: k + 1]:\n",
        "    for token in tokens[: k + 2]:\n",
        ["tests/test_words.py::test_parse_matches_character_scanner"],
    ),
    (
        "token table stores every spelling",
        "words.py",
        "            if token == letter.token():\n",
        "            if True:\n",
        ["tests/test_words.py::test_token_table_holds_canonical_spellings_only"],
    ),
    (
        "token table stores before the index and range checks",
        "words.py",
        "            kind, index = EPSILON, 1\n        if index < 1:\n",
        "            kind, index = EPSILON, 1\n"
        "        if _seen is not None and token == _TOKENS[kind].format(index):\n"
        "            _seen[token] = Letter(kind, index)\n"
        "        if index < 1:\n",
        ["tests/test_words.py::test_parse_through_a_warm_table_matches_a_fresh_parse"],
    ),
    (
        "eq --batch - answers without flushing",
        "cli.py",
        "            if flush:\n                out.flush()\n",
        "",
        [
            "tests/test_cli.py::test_batch_writes_each_answer_once",
            "tests/test_cli.py::test_batch_stdin_answers_each_pair_before_eof",
        ],
    ),
    (
        "value equality across value classes",
        "words.py",
        "        if other.__class__ is self.__class__:\n",
        "        if isinstance(other, _Frozen):\n",
        ["tests/test_words.py::test_value_types_keep_dataclass_semantics"],
    ),
    (
        "injection engine compares surviving strands only",
        "cli.py",
        "diagram._occupants(w1) == diagram._occupants(w2)",
        "set(diagram._occupants(w1)) == set(diagram._occupants(w2))",
        ["tests/test_cli.py::test_injection_engine_matches_tau"],
    ),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def _tests_pass(tree: Path, tests: list[str]) -> bool:
    """Run tests with -x in tree against its own src/; a hang counts as a
    failure.  Only the exit code counts, so asserts run plain: rewriting
    them, plugins' modules included, is most of a run's start-up."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--assert=plain"]
    try:
        proc = subprocess.run(
            cmd + tests, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main() -> int:
    every_test = list(dict.fromkeys(t for *_, tests in MUTANTS for t in tests))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        if not _tests_pass(clean, every_test):
            print("the unmutated tree fails the mutant tests", file=sys.stderr)
            return 1
        survivors = 0
        for number, (what, module, pattern, replacement, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{number}"
            _copy(tree)
            path = tree / "src" / "partialbraid" / module
            text = path.read_text()
            count = text.count(pattern)
            assert count == 1, f"{what}: pattern occurs {count} times in {module}"
            path.write_text(text.replace(pattern, replacement))
            start = time.perf_counter()
            survived = _tests_pass(tree, tests)
            elapsed = time.perf_counter() - start
            survivors += survived
            verdict = "SURVIVED" if survived else "killed"
            print(f"{verdict:8} {elapsed:5.1f}s  {what}")
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
