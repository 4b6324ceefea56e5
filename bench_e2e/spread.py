#!/usr/bin/env python3
"""Run the benchmark several times and print each metric's run-to-run spread.

    python3 bench_e2e/spread.py --workload batch_city --seeds 1-10 [--seconds N] [--trace 0]

Run from the repository root. The command and the default run length come
from BENCHMARK.json. For every metric the script prints the median of the
runs and the distance between the first and third quartile as a share of
that median (``statistics.quantiles(values, n=4)``), next to the metric's
bound, and flags a spread above a third of the bound. Each run's result and
properties are appended to ``bench_e2e/out/runs.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs("bench_e2e/out", exist_ok=True)

    values = {}
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        start = time.monotonic()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - start
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(lines[-1])
        props = json.loads(lines[-2]).get("properties", {}) if len(lines) > 1 else {}
        with open("bench_e2e/out/runs.jsonl", "a") as f:
            row = {"workload": args.workload, "seed": seed, "wall_s": wall, **result,
                   "properties": props}
            f.write(json.dumps(row) + "\n")
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output ({result['failed']} failed)")
        brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed} ({wall:.0f} s): {brief}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or med == 0:
            print(f"{name:32s} median {med:.4f}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:32s} median {med:.4f}  spread {spread:.3f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
