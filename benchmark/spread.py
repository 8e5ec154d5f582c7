#!/usr/bin/env python3
"""How steady is the benchmark?  The check its bounds were set with.

Runs every workload of BENCHMARK.json ten times, each time with another
--seed, and prints for each end-to-end metric its median and its spread: the
distance between the first and the third quartile of the ten values
(statistics.quantiles(values, n=4)) as a share of their median.  A bound in
BENCHMARK.json is sound while the spread stays below a third of it.

    python3 benchmark/spread.py [first_seed] [workload ...]

Run from the root of the repo, on an otherwise idle machine.
"""
import json
import statistics
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
chosen = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

for workload in chosen:
    values = {}
    for seed in range(first_seed, first_seed + 10):
        command = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: {result['failed']} failed\n{done.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(workload)
    for name, ten in values.items():
        q1, median, q3 = statistics.quantiles(ten, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread < bounds[name] / 3 or name == "setup_s" else "TOO WIDE"
        print(f"  {name:<20} median {median:>14.4f}  spread {spread:6.2%}"
              f"  bound {bounds[name]:4.0%}  {verdict}")
