#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how far its figures spread.

    python3 e2ebench/spread.py --workload iso-outlier80 --seeds 0-9

Runs ``e2ebench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric its median, its first and third quartiles
(``statistics.quantiles(values, n=4)``) and the distance between them as a
share of the median, next to the bound that ``BENCHMARK.json`` fixes. It
also prints the share of failed operations of every run. Results are kept
in ``e2ebench/out/spread-<workload>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"), help="inclusive range, e.g. 0-9")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {args.seconds} s")
    print("failed shares:", sorted({r["failed"] / r["attempted"] for r in runs}))
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        print(f"{name:>14}: median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f}  "
              f"bound {bound}  spread/bound {spread / bound:.2f}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.workload}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
