"""The repository benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs come from the seed alone; the
package in ./src sees only the generated words.  Every output is checked
by the known-answer gate after the timed region; a wrong verdict exits 1.
The last line of output is one JSON object: with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer ones from a traced
replay.  Spans of a traced run are written to bench/out/ when it ends.

Workloads (see BENCHMARK.json for why each exists):
  eq-batch        the `eq -n 6 --batch` CLI on files of short word pairs
  canon-long      canonical_form on long crossing-only words
  deletion-sweep  canonical_form on n=40 words that delete all but 3-6 strands
  oracle-verbs    tau, is_central, is_makanin and welded equal_action
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import calib
import checkout
import gate
import gen

WORKLOADS = ("eq-batch", "canon-long", "deletion-sweep", "oracle-verbs")

# cycles generated per in-process run.  A 20-second run at the commit the
# benchmark was written against gets through about 15 canon-long, 300
# deletion-sweep and 140 oracle-verbs cycles; deletion-sweep words are long
# to generate, so that workload repeats its cycles about 5 times.
CYCLE_COUNT = {"canon-long": 40, "deletion-sweep": 64, "oracle-verbs": 160}
EQ_FILES = 3
SETUP_REPEATS = 5
# a child that has not finished this long after its budget is killed, so a
# run always ends within 180 seconds
CHILD_GRACE_S = 120

SETUP_SNIPPET = (
    "import partialbraid as p; p.canonical_form(p.parse_word('s1', 2))"
)


class RunFailed(Exception):
    """The program failed in a way the benchmark cannot measure around."""


class Launcher:
    """Starts measured processes from bench/launch.py, which stays small, so
    their peak memory is their own (see launch.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(checkout.ROOT / "bench" / "launch.py")],
            env=checkout.child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, cmd: list[str], stdout=None, timeout: float = CHILD_GRACE_S) -> dict:
        request = {"cmd": cmd, "stdout": stdout and str(stdout), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RunFailed("the launcher process died")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_GRACE_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def median_setup(launcher: Launcher, cmd: list[str]) -> tuple[float, float]:
    """Median wall time of fresh processes running cmd, after one warm-up:
    (scaled to reference speed, raw)."""
    scaled, raw = [], []
    for k in range(SETUP_REPEATS + 1):
        done = launcher.run(cmd)
        if done["returncode"] != 0:
            raise RunFailed(f"set-up run exited {done['returncode']}: {done['stderr']}")
        if k:
            raw.append(done["wall_s"])
            scaled.append(done["wall_s"] * calib.scale(done["reference_s"]))
    return statistics.median(scaled), statistics.median(raw)


def percentiles(times: list[float]) -> tuple[float, float]:
    """(p50, p90) in milliseconds."""
    deciles = statistics.quantiles(times, n=10)
    return deciles[4] * 1000, deciles[8] * 1000


# ---------------------------------------------------------------- in-process

def run_worker(launcher: Launcher, workload: str, seed: int, cycles: list,
               seconds: float | None, trace: bool) -> dict:
    job = {
        "seconds": seconds,
        "trace": trace,
        "max_letters": gen.MAX_LETTERS,
        "cycles": [[{"verb": op.verb, "n": op.n, "words": op.words} for op in c]
                   for c in cycles],
    }
    job_path = checkout.OUT / f"job-{workload}-{seed}.json"
    out_path = checkout.OUT / f"result-{workload}-{seed}.json"
    job_path.write_text(json.dumps(job))
    out_path.unlink(missing_ok=True)
    done = launcher.run(
        [sys.executable, str(checkout.ROOT / "bench" / "worker.py"), str(job_path), str(out_path)],
        timeout=(seconds or 0) + CHILD_GRACE_S,
    )
    job_path.unlink()
    if done["returncode"] != 0:
        raise RunFailed(f"worker exited {done['returncode']}: {done['stderr']}")
    result = json.loads(out_path.read_text())
    out_path.unlink()
    result["peak_rss_kb"] = done["maxrss_kb"]
    return result


def check_outputs(cycles: list, result: dict) -> tuple[int, int, int]:
    """Gate every distinct operation run; returns (attempted, answered, failed).

    Hitting the letter cap is the answer "too large for this cap" for the
    verbs given the cap, so it counts as unanswered, not failed; errors,
    and cap hits of verbs that run under the program's own default cap,
    are failures.
    """
    for key, out in result["outputs"].items():
        ci, oi = map(int, key.split(":"))
        gate.check(cycles[ci][oi], out)
    failed = 0
    for (ci, oi), state in zip(result["order"], result["status"]):
        if state == "e" or (state == "c" and cycles[ci][oi].verb not in gate.CAPPED_VERBS):
            failed += 1
    return len(result["status"]), result["status"].count("o"), failed


def in_process(launcher: Launcher, workload: str, seed: int, seconds: float,
               trace: bool) -> dict:
    if not trace:
        cycles = gen.cycles(workload, seed, CYCLE_COUNT[workload])
        report = {"setup_s": median_setup(launcher, [sys.executable, "-c", SETUP_SNIPPET])}
        result = run_worker(launcher, workload, seed, cycles, seconds, trace=False)
    else:
        # plain and traced runs of each operation for two thirds of the
        # budget, then the action layer alone
        cycles = gen.cycles(workload, seed, max(2, CYCLE_COUNT[workload] // len(WORKLOADS)))
        report = {}
        result = run_worker(launcher, workload, seed, cycles, seconds * 2 / 3, trace=True)
    attempted, answered, failed = check_outputs(cycles, result)
    report.update(attempted=attempted, answered=answered, failed=failed,
                  errors=result["errors"], result=result)
    return report


def timing(setup: tuple[float, float], times: list[float], scales: list[float],
           rate: tuple[float, float] | None = None) -> tuple[dict, dict]:
    """The four timing metrics scaled to reference speed, and unscaled.

    rate, (scaled, raw) operations per second, defaults to operations over
    the summed operation times.
    """
    out = []
    for k, ts in enumerate(([t * f for t, f in zip(times, scales)], times)):
        p50, p90 = percentiles(ts)
        out.append({
            "setup_s": setup[k],
            "ops_per_s": rate[k] if rate else len(ts) / sum(ts),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
        })
    return out[0], out[1]


def end_to_end_in_process(report: dict) -> tuple[dict, dict]:
    result = report["result"]
    metrics, raw = timing(report["setup_s"], result["times"], result["scales"])
    metrics.update(answered_ratio=report["answered"] / report["attempted"],
                   peak_rss_mb=result["peak_rss_kb"] / 1024)
    return metrics, raw


# ------------------------------------------------------------------ eq-batch

def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "partialbraid", *args]


def write_batch(path, ops) -> None:
    path.write_text("".join(f"{op.words[0]}\t{op.words[1]}\n" for op in ops))


def read_verdicts(lines: list[str], ops, label: str) -> None:
    """Gate the CLI's true/false lines against the built verdicts."""
    if len(lines) != len(ops):
        raise RunFailed(f"{label}: {len(lines)} answers for {len(ops)} pairs")
    for line, op in zip(lines, ops):
        if line not in ("true", "false"):
            raise RunFailed(f"{label}: unexpected output line {line!r}")
        gate.check(op, line == "true")


def batch_processes(launcher: Launcher, files: list, paths: list,
                    seconds: float) -> dict:
    """Run `eq --batch FILE` processes over the files, round robin, until
    the budget is used; totals their wall time, pairs and peak memory."""
    totals = {"wall": 0.0, "wall_scaled": 0.0, "pairs": 0, "failed": 0, "files": 0,
              "peak_rss_kb": 0}
    while True:
        k = totals["files"]
        ops, path = files[k % len(files)], paths[k % len(files)]
        out_path = path.with_suffix(".out")
        done = launcher.run(cli("eq", "-n", str(gen.EQ_N), "--batch", str(path)),
                            stdout=out_path)
        totals["wall"] += done["wall_s"]
        totals["wall_scaled"] += done["wall_s"] * calib.scale(done["reference_s"])
        totals["files"] += 1
        totals["peak_rss_kb"] = max(totals["peak_rss_kb"], done["maxrss_kb"])
        if done["returncode"] != 0:
            totals["failed"] += len(ops)
        else:
            read_verdicts(out_path.read_text().splitlines(), ops, f"batch {path.name}")
            totals["pairs"] += len(ops)
        out_path.unlink()
        if totals["wall"] * (1 + 0.5 / totals["files"]) >= seconds:
            return totals


def stream_latencies(files: list, seconds: float) -> tuple[list[float], list[float], int]:
    """Closed loop through one `eq --batch -` process: send a pair, wait for
    its answer line, send the next.  One untimed pair first lets the process
    start.  Returns per-pair times (at least 20), their reference-speed
    factors, and the pairs not answered."""
    proc = subprocess.Popen(
        [sys.executable, "-u", *cli("eq", "-n", str(gen.EQ_N), "--batch", "-")[1:]],
        env=checkout.child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, bufsize=1,
    )
    ops = [op for f in files for op in f]

    def ask(op) -> str:
        proc.stdin.write(f"{op.words[0]}\t{op.words[1]}\n")
        proc.stdin.flush()
        if not select.select([proc.stdout], [], [], CHILD_GRACE_S)[0]:
            raise RunFailed("eq --batch - gave no answer")
        return proc.stdout.readline().rstrip("\n")

    times: list[float] = []
    scales: list[float] = []
    answers: list[str] = []
    try:
        read_verdicts([ask(ops[-1])], ops[-1:], "stream")
        sampler = calib.Sampler()
        start = time.perf_counter()
        while len(times) < 20 or time.perf_counter() - start < seconds:
            scales.append(sampler.factor())
            t0 = time.perf_counter()
            line = ask(ops[len(times) % len(ops)])
            times.append(time.perf_counter() - t0)
            if not line:
                break
            answers.append(line)
        proc.stdin.close()
        proc.wait(timeout=CHILD_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    read_verdicts(answers, [ops[i % len(ops)] for i in range(len(answers))], "stream")
    return times, scales, len(times) - len(answers)


def eq_batch(launcher: Launcher, seed: int, seconds: float, trace: bool) -> dict:
    files = gen.batch_files(seed, 1 if trace else EQ_FILES, gen.EQ_PAIRS_PER_FILE)
    paths = [checkout.OUT / f"eq-{seed}-{k}.tsv" for k in range(len(files) + 1)]
    for path, ops in zip(paths, files + [files[0][:1]]):
        write_batch(path, ops)
    try:
        if not trace:
            setup_s = median_setup(launcher, cli("eq", "-n", str(gen.EQ_N), "--batch", str(paths[-1])))
            # most of the budget to the batch processes, whose rate varies
            # more than the streamed latencies
            batch = batch_processes(launcher, files, paths, seconds * 2 / 3)
            latencies, scales, stream_failed = stream_latencies(files, seconds / 3)
            attempted = batch["pairs"] + batch["failed"] + len(latencies)
            failed = batch["failed"] + stream_failed
            return dict(batch, setup_s=setup_s, latencies=latencies, scales=scales,
                        attempted=attempted, answered=attempted - failed, failed=failed)
        # the CLI for a third of the budget, then the files it answered
        # replayed in-process, untraced and traced
        batch = batch_processes(launcher, files, paths, seconds / 3)
        used = files[:min(len(files), batch["files"])]
        result = run_worker(launcher, "eq-batch", seed, used, None, trace=True)
        _, _, replay_failed = check_outputs(used, result)
        return dict(batch, result=result, attempted=batch["pairs"] + batch["failed"],
                    answered=batch["pairs"], failed=batch["failed"] + replay_failed,
                    errors=result["errors"])
    finally:
        for path in paths:
            path.unlink(missing_ok=True)


def end_to_end_eq(report: dict) -> tuple[dict, dict]:
    rate = (report["pairs"] / report["wall_scaled"], report["pairs"] / report["wall"])
    metrics, raw = timing(report["setup_s"], report["latencies"], report["scales"], rate)
    metrics.update(answered_ratio=report["answered"] / report["attempted"],
                   peak_rss_mb=report["peak_rss_kb"] / 1024)
    return metrics, raw


# ----------------------------------------------------------------- per layer

# the spans each workload's operations open, in call order
CALL_SPANS = {
    "eq-batch": ("words.parse_word", "diagram.evaluate_skeleton",
                 "garside.left_greedy_nf", "garside.compare"),
    "canon-long": ("words.parse_word", "diagram.evaluate_skeleton", "garside.left_greedy_nf"),
    "deletion-sweep": ("words.parse_word", "diagram.evaluate_skeleton", "garside.left_greedy_nf"),
    "oracle-verbs": ("words.parse_word", "action.tau", "action.equal_action",
                     "monoidal.is_central", "diagram.is_makanin"),
}


def per_layer(workload: str, report: dict) -> dict:
    """Per-layer metrics of one workload's traced run, for the layers its
    operations call."""
    result = report["result"]
    if result["mismatches"]:
        raise gate.WrongVerdict(f"{result['mismatches']} traced outputs differ from untraced ones")
    ops, op_time = result["ops"], result["op_time_s"]
    untraced = sum(result["times"])
    c = result["counts"]
    metrics = {}
    for name in CALL_SPANS[workload]:
        self_s = result["self_s"].get(name, 0.0)
        if name != "garside.compare":
            metrics[f"{name}.share"] = self_s / op_time
        metrics[f"{name}.ms_per_op"] = self_s * 1000 / ops
    metrics["words.parse_word.letters"] = c["letters"] / ops
    if c.get("skeletons"):
        metrics["diagram.evaluate_skeleton.survivors"] = c["survivors"] / c["skeletons"]
        metrics["diagram.evaluate_skeleton.crossings_kept_ratio"] = (
            c["crossings_kept"] / c["crossings_read"])
        metrics["garside.left_greedy_nf.letters_in"] = c["nf_letters_in"] / c["skeletons"]
        metrics["garside.left_greedy_nf.factors_out"] = c["nf_factors_out"] / c["skeletons"]
    if result["evaluate"]:
        evaluated = result["evaluate"]
        metrics["action.evaluate.ms_per_op"] = (
            sum(t for t, _ in evaluated) * 1000 / len(evaluated))
        metrics["action.evaluate.image_letters_max"] = max(
            (m for _, m in evaluated if m is not None), default=0)
        metrics["action.evaluate.cap_hits"] = sum(1 for _, m in evaluated if m is None)
    if workload == "eq-batch":
        metrics["cli.ms_per_op"] = (
            report["wall"] / report["pairs"] - untraced / len(result["times"])) * 1000
    metrics["trace.overhead_ratio"] = op_time / untraced - 1
    return {f"{workload}.{name}": value for name, value in metrics.items()}


def traced_run(launcher: Launcher, seed: int, seconds: float) -> tuple[dict, dict]:
    """Trace every workload for an equal share of the budget, so that every
    per-layer metric is measured in every traced run."""
    metrics: dict = {}
    totals = {"attempted": 0, "answered": 0, "failed": 0, "errors": [], "spans": {}}
    for workload in WORKLOADS:
        share = seconds / len(WORKLOADS)
        if workload == "eq-batch":
            report = eq_batch(launcher, seed, share, trace=True)
        else:
            report = in_process(launcher, workload, seed, share, trace=True)
        metrics.update(per_layer(workload, report))
        for key in ("attempted", "answered", "failed", "errors"):
            totals[key] += report[key]
        totals["spans"][workload] = report["result"]["spans"]
    return totals, metrics


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "answered_ratio": "ratio", "peak_rss_mb": "MB"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("ms_per_op"):
        return "ms"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def write_spans(seed: int, stamp: dict, report: dict) -> None:
    path = checkout.OUT / f"spans-seed{seed}.json"
    path.write_text(json.dumps({
        "stamp": stamp,
        "fields": ["id", "parent", "name", "start_s", "end_s"],
        "spans": report["spans"],
    }))
    count = sum(len(s) for s in report["spans"].values())
    print(f"spans: {path.relative_to(checkout.ROOT)} ({count} spans)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkout.use_src()
    checkout.OUT.mkdir(parents=True, exist_ok=True)
    stamp = checkout.stamp(args.workload, args.seed, gen.MAX_LETTERS)
    print(json.dumps({"stamp": stamp}))
    # one CPU for this process and all it starts, so the reference loop
    # samples the CPU the measured code runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    launcher = Launcher()
    try:
        raw: dict = {}
        if args.trace:
            report, metrics = traced_run(launcher, args.seed, args.seconds)
            write_spans(args.seed, stamp, report)
        elif args.workload == "eq-batch":
            report = eq_batch(launcher, args.seed, args.seconds, trace=False)
            metrics, raw = end_to_end_eq(report)
        else:
            report = in_process(launcher, args.workload, args.seed, args.seconds, trace=False)
            metrics, raw = end_to_end_in_process(report)
    except gate.WrongVerdict as exc:
        print(f"WRONG VERDICT: {exc}", file=sys.stderr)
        return 1
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
    unanswered = report["attempted"] - report["answered"]
    print(f"attempted {report['attempted']}, answered {report['answered']}, "
          f"failed {report['failed']}, failed_ratio (cap hits and failures) "
          f"{unanswered / report['attempted']:.4f}")
    for error in report.get("errors", []):
        print(f"  error: {error}")
    for name, value in metrics.items():
        unscaled = f"   (unscaled {raw[name]:.6f})" if name in raw else ""
        print(f"{name:52s} {value:14.6f} {unit(name)}{unscaled}")
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
