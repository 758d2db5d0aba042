"""The process that does the in-process work: python3 bench/worker.py JOB OUT.

It reads the generated words from the job file, runs them against the
package in src/, and writes per-operation times and outputs to OUT.  It
runs whole cycles of the workload until the time budget is used, so the
operation mix is the same on every seed.  With tracing on, every
operation also runs once with spans, and the two outputs are compared.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import checkout

checkout.use_src()

import calib  # noqa: E402
import calls  # noqa: E402  (needs src/ on the path)
from spans import Tracer, self_times  # noqa: E402


def _attempt(fn):
    """(status, output): ok, capped (hit the letter cap), or error."""
    try:
        return "ok", fn()
    except calls.ResourceLimitError:
        return "capped", None
    except Exception as exc:  # any other failure is counted and reported
        return "error", f"{type(exc).__name__}: {exc}"


def _cycles(cycles: list, seconds: float | None):
    """Yield cycle indices: whole cycles until seconds have been spent,
    stopping at the cycle end nearest the budget; with seconds None, every
    cycle once."""
    start = time.perf_counter()
    c = 0
    while True:
        yield c % len(cycles)
        c += 1
        elapsed = time.perf_counter() - start
        if (c == len(cycles) if seconds is None else elapsed * (1 + 0.5 / c) >= seconds):
            return


def timed(cycles: list, seconds: float | None, max_letters: int, tracer=None) -> dict:
    """Run whole cycles until the budget is spent, timing every operation.

    With a tracer, every operation also runs a second time with spans,
    alternating which of the two runs goes first, so both see the same
    conditions; the untraced times are the base of the trace overhead.
    Each operation's time comes with the reference-speed factor sampled
    just before it.
    """
    sampler = calib.Sampler()
    times: list[float] = []
    scales: list[float] = []
    order: list[list[int]] = []
    status: list[str] = []
    outputs: dict[str, object] = {}
    errors: list[str] = []
    counts: Counter = Counter()
    mismatches = 0

    def run_traced(op):
        seen: list = []
        sid = tracer.begin("op")
        outcome = _attempt(lambda: calls.run_traced(tracer, op, max_letters, seen))
        tracer.end(sid)
        calls.tally(counts, seen)
        return outcome

    for ci in _cycles(cycles, seconds):
        for oi, op in enumerate(cycles[ci]):
            traced_first = tracer is not None and len(order) % 2 == 1
            if traced_first:
                traced_outcome = run_traced(op)
            scales.append(sampler.factor())
            t0 = time.perf_counter()
            state, out = _attempt(lambda: calls.run(op, max_letters))
            times.append(time.perf_counter() - t0)
            if tracer is not None and not traced_first:
                traced_outcome = run_traced(op)
            if tracer is not None and traced_outcome != (state, out):
                mismatches += 1
            order.append([ci, oi])
            status.append(state[0])
            if state == "ok":
                outputs.setdefault(f"{ci}:{oi}", out)
            elif state == "error":
                errors.append(out)
    result = {
        "times": times,
        "scales": scales,
        "order": order,
        "status": "".join(status),
        "outputs": outputs,
        "errors": errors[:5],
    }
    if tracer is not None:
        result.update(counts=dict(counts), mismatches=mismatches)
    return result


def traced(cycles: list, seconds: float | None, max_letters: int) -> dict:
    """Paired plain and traced runs, then the action layer on its own."""
    tr = Tracer()
    result = timed(cycles, seconds, max_letters, tr)
    evaluated: list = []
    if any(op["verb"] not in ("canon", "eq") for cycle in cycles for op in cycle):
        # once per distinct operation, outside the operation spans
        for key in sorted({tuple(k) for k in result["order"]}):
            evaluated += calls.evaluate_stats(cycles[key[0]][key[1]], max_letters)
    op_spans = [s for s in tr.spans if s[2] == "op"]
    result.update(
        ops=len(op_spans),
        op_time_s=sum(s[4] - s[3] for s in op_spans),
        self_s=self_times(tr.spans),
        evaluate=evaluated,
        spans=tr.spans,
    )
    return result


def main(job_path: str, out_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    cycles, cap = job["cycles"], job["max_letters"]
    calls.run({"verb": "canon", "n": 2, "words": ["s1"]}, cap)  # warm up
    run = traced if job["trace"] else timed
    Path(out_path).write_text(json.dumps(run(cycles, job["seconds"], cap)))


if __name__ == "__main__":
    main(*sys.argv[1:])
