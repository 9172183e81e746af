#!/usr/bin/env python3
"""Runs the benchmark the way its driver does and reports how steady it is.

For each workload in BENCHMARK.json the command is run once per seed with
`--trace 0`; for each end-to-end metric the distance between the first and
third quartile of those values (statistics.quantiles(values, n=4)) is taken
as a share of their median and set against the metric's bound. The driver
accepts the benchmark only if every spread but setup_s's stays within its
bound, and if the second set's medians are not worse than the first's by
more than the bound; a spread below a third of the bound is the target.

    python3 benchmark/calibrate.py --sets 2 --seeds 10 --out benchmark/baseline/seeds.json

Run it from the repository root. It also times every run, so the total can
be held against the driver's cap (4 + 22 x workloads runs in 3420 s).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect: {result}")
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="only these workloads")
    parser.add_argument("--out", help="write medians, quartiles and spreads here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    command, seconds = contract["command"], contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workload:
        workloads = [w for w in workloads if w in args.workload]
    end_to_end = {m["name"]: m for m in contract["end_to_end"]}

    record = {"command": command, "run_seconds": seconds, "seeds": args.seeds, "sets": []}
    walls = []
    for s in range(args.sets):
        rows = {}
        for workload in workloads:
            values = {name: [] for name in end_to_end}
            for i in range(args.seeds):
                result, wall = run(command, workload, args.first_seed + i, seconds, 0)
                walls.append(wall)
                for name in end_to_end:
                    values[name].append(result["metrics"][name]["value"])
            # One traced run per workload and set, as the driver makes.
            _, wall = run(command, workload, args.first_seed, seconds, 1)
            walls.append(wall)
            rows[workload] = {}
            for name, vals in values.items():
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                rows[workload][name] = {
                    "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med, "unit": end_to_end[name]["unit"],
                }
        record["sets"].append(rows)

        print(f"\nset {s + 1}: spread = (q3 - q1) / median over {args.seeds} seeds")
        print(f"{'workload':<13} {'metric':<18} {'median':>16} {'spread':>8} {'bound':>6}  note")
        for workload, metrics in rows.items():
            for name, row in metrics.items():
                bound = end_to_end[name]["bound"]
                note = ""
                if name != "setup_s" and row["spread"] > bound:
                    note = "OVER THE BOUND"
                elif name != "setup_s" and row["spread"] > bound / 3:
                    note = "over a third of the bound"
                if s > 0:
                    first = record["sets"][0][workload][name]["median"]
                    sign = 1 if end_to_end[name]["better"] == "lower" else -1
                    drift = sign * (row["median"] - first) / first
                    note += f" drift {drift:+.3f}" + (" WORSE THAN SET 1" if drift > bound else "")
                print(f"{workload:<13} {name:<18} {row['median']:>16.6g} "
                      f"{row['spread']:>8.4f} {bound:>6}  {note}")

    per_workload = 22 * sum(walls) / len(walls)
    print(f"\n{len(walls)} runs, mean {sum(walls) / len(walls):.1f} s, max {max(walls):.1f} s; "
          f"the driver's 4 + 22 x {len(contract['workloads'])} runs would take about "
          f"{per_workload * len(contract['workloads']):.0f} s of its 3420 s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
