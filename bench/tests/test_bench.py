"""Self-tests of the benchmark: python3 -m pytest bench/tests

Every workload runs end to end at a tiny size, in both modes, and prints
exactly the metrics BENCHMARK.json declares; the gate trips on a wrong
answer; and the command refuses to run without the package.
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import gate
import gen
import oracle
import run
import spans
from conftest import REPO

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a run takes about a second."""
    monkeypatch.setattr(gen, "CANON_LONG_MIX", [(4, 12, 3)])
    monkeypatch.setattr(gen, "CANON_LONG_LARGE", [(6, 30)])
    monkeypatch.setattr(gen, "SWEEP_N", 8)
    monkeypatch.setattr(gen, "SWEEP_CROSSINGS", 40)
    monkeypatch.setattr(gen, "TAU_LENGTHS", (6, 12))
    monkeypatch.setattr(gen, "EQ_PAIRS_PER_FILE", 40)
    monkeypatch.setattr(run, "EQ_FILES", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "CYCLE_COUNT", dict.fromkeys(run.CYCLE_COUNT, 2))


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_tiny(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace)])
    assert code == 0
    result = result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs():
    for workload in gen.CYCLES:
        first = gen.cycles(workload, 3, 2)
        assert first == gen.cycles(workload, 3, 2)
        assert first != gen.cycles(workload, 4, 2)
    assert gen.batch_files(3, 1, 20) == gen.batch_files(3, 1, 20)


def test_wrong_expected_verdict_exits_nonzero(tiny, capsys, monkeypatch):
    build = gen.eq_pairs

    def flipped(rng, count):
        ops = build(rng, count)
        ops[0].expected = not ops[0].expected
        return ops

    monkeypatch.setattr(gen, "eq_pairs", flipped)
    assert run.main(["--workload", "eq-batch", "--seed", "7", "--seconds", "0.2"]) == 1
    out = capsys.readouterr()
    assert "WRONG VERDICT" in out.err
    assert '"correct"' not in out.out


def _canon(op):
    from partialbraid import canonical_form, parse_word

    form = canonical_form(parse_word(op.words[0], op.n))
    return [list(form.domain), list(form.codomain), form.nf.inf,
            [list(f) for f in form.nf.factors]]


def test_gate_trips_on_wrong_answers():
    rng = random.Random(5)
    for op in gen.eq_pairs(rng, 6):
        gate.check(op, op.expected)
        with pytest.raises(gate.WrongVerdict):
            gate.check(op, not op.expected)
    for op in gen.deletion_sweep_cycle(rng, 0) + gen.canon_long_cycle(rng, 0)[:3]:
        good = _canon(op)
        gate.check(op, good)
        domain, codomain, inf, factors = good
        for bad in ([domain, codomain, inf + 2, factors],
                    [domain[::-1], codomain, inf, factors],
                    [domain, codomain, inf, factors + [list(range(len(domain)))[::-1]]]):
            if bad != good:
                with pytest.raises(gate.WrongVerdict):
                    gate.check(op, bad)
    tau_op = gen.oracle_cycle(rng, 0)[0]
    for op in gen.oracle_cycle(rng, 1):
        if op.verb == "tau":
            tau_op = op
        if op.verb in ("central", "makanin"):
            answer = gate._definition(op)
            gate.check(op, answer)
            with pytest.raises(gate.WrongVerdict):
                gate.check(op, not answer)
    mapping = list(oracle.track(tau_op.n, tau_op.letters[0]).mapping())
    gate.check(tau_op, mapping)
    with pytest.raises(gate.WrongVerdict):
        gate.check(tau_op, mapping[1:] + mapping[:1])


def test_oracle_on_known_words():
    s = oracle.track(3, [("s", 1), ("s", 2)])
    assert (s.domain, s.codomain, s.perm, s.signed_crossings) == ((1, 2, 3), (1, 2, 3), (2, 0, 1), 2)
    # the crossing with the deleted strand 2 is dropped, the survivors' kept
    s = oracle.track(3, [("s", 1), ("S", 2), ("e", 1)])
    assert (s.domain, s.codomain, s.perm, s.signed_crossings) == ((1, 3), (2, 3), (1, 0), -1)
    assert oracle.nf_crossings(3, 1, [(1, 0, 2)]) == 4
    assert oracle.nf_perm(3, 1, [(1, 0, 2)]) == (2, 0, 1)


def test_constructed_answers_hold():
    """Verdicts fixed at construction agree with both engines on one seed,
    and the Brunnian and half-twist-square words meet their definitions."""
    from partialbraid import equal_action, equal_nf, parse_word

    rng = random.Random(11)
    for op in gen.eq_pairs(rng, 40):
        w1, w2 = (parse_word(t, op.n) for t in op.words)
        assert equal_nf(w1, w2) is op.expected
    for c in range(3):
        for op in gen.oracle_cycle(rng, c):
            if op.verb == "weq":
                w1, w2 = (parse_word(t, op.n) for t in op.words)
                assert equal_action(w1, w2, max_letters=10 ** 6) is op.expected
    for n in (3, 4, 5):
        assert gate._definition(gen._op("makanin", n, [gen.brunnian(n)])) is True
        assert gate._definition(gen._op("central", n, [gen.half_twist_square(n)])) is True


def test_self_time_subtracts_children():
    trace = [
        [0, None, "op", 0.0, 10.0],
        [1, 0, "a", 1.0, 3.0],
        [2, 0, "b", 4.0, 8.0],
        [3, None, "op", 10.0, 11.0],
    ]
    assert spans.self_times(trace) == {"op": 5.0, "a": 2.0, "b": 4.0}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "canon-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
