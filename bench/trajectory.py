"""Record one point of the bench trajectory.

    python3 bench/trajectory.py --seeds 1-10 --out bench/trajectory/NAME.json

Runs bench/run.py once per workload and seed with tracing off, and once
traced on the first seed, from the repository root.  For every end-to-end
metric it stores the ten values, their median and quartiles, and the
spread (quartile distance over median) that the bounds in BENCHMARK.json
are judged against.  Compare two points only if their stamps agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads(Path("BENCHMARK.json").read_text())


def seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"stamp": json.loads(lines[0])["stamp"], "result": json.loads(lines[-1])}


def summary(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    point: dict = {"run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for w in BENCHMARK["workloads"]:
        runs = [run(w["name"], seed, 0) for seed in seeds(args.seeds)]
        point["stamp"] = {k: v for k, v in runs[0]["stamp"].items()
                          if k not in ("workload", "seed")}
        metrics = {}
        for name, bound in bounds.items():
            metrics[name] = summary([r["result"]["metrics"][name]["value"] for r in runs], bound)
            print(f"{w['name']:15s} {name:15s} median {metrics[name]['median']:12.5f} "
                  f"spread {metrics[name]['spread']:.4f} (bound {bound})", flush=True)
        point["workloads"][w["name"]] = {
            "seeds": seeds(args.seeds),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "metrics": metrics,
        }
    traced = run(BENCHMARK["workloads"][0]["name"], seeds(args.seeds)[0], 1)
    point["per_layer"] = {name: m["value"] for name, m in traced["result"]["metrics"].items()}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
