#!/usr/bin/env python3
"""Measures how steady the benchmark is.

Runs the benchmark once per seed on each workload, one run at a time, and
reports for every metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median. Each end-to-end spread
except that of setup_s is compared with the metric's bound in
BENCHMARK.json: a spread above a third of the bound is marked UNSTEADY,
and one above the bound makes the script exit 1. Run from the checkout's
root:

    python3 perfbench/steady.py --seeds 1-10 --out steadiness.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, within, env = {}, True, {}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            env, result = run_once(bench["command"], workload, seed, seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: failed checks")
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']}", file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            if name in bounds and name != "setup_s":
                s["bound"] = bounds[name]
                s["steady"] = s["spread"] < bounds[name] / 3
                within &= s["spread"] <= bounds[name]
            metrics[name] = s
            print(f"  {name:28s} median {s['median']:<14.6g} spread {s['spread']:.4f}"
                  + (" UNSTEADY" if s.get("steady") is False else ""),
                  file=sys.stderr)
        summary[workload] = {"attempted": [r["attempted"] for r in runs], "metrics": metrics}

    env = {k: env.get(k) for k in ("nproc", "gomaxprocs", "go", "commit", "source")}
    env.update(seconds=seconds, seeds=args.seeds, trace=args.trace)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": env, "workloads": summary}, fh, indent=1)
    sys.exit(0 if within else 1)


if __name__ == "__main__":
    main()
