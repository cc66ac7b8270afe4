#!/usr/bin/env python3
"""Run workloads over several seeds into a result set.

    python3 perfbench/sweep.py [--workload <name>[,<name>...]] [--seeds 1-10] [--out <dir>] [--trace 0|1] [--seconds S]

Run from the root of a checkout. Each run goes through `perfbench/run.py`,
prints its metrics (name, value, unit, sample count) and leaves
`<workload>-seed<n>-trace<t>.json` in `<dir>` (default
`perfbench/results`). `--workload` defaults to BENCHMARK.json's
workloads (`wdc_ingest` runs only when named), `--seeds` to 1,
`--seconds` to BENCHMARK.json's `run_seconds`. Exits
non-zero if any run fails or answers wrongly. Summarise or compare result
sets with `perfbench/compare.py`.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="comma-separated workload names")
    p.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--out", default=str(HERE / "results"))
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workload.split(",") if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bad = 0
    for workload in workloads:
        for seed in seeds(args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(args.trace),
                "--results-dir", args.out,
            ]
            res = subprocess.run(cmd, capture_output=True, text=True)
            lines = res.stdout.strip().splitlines()
            print(f"== {workload} seed {seed}: exit {res.returncode}", flush=True)
            for line in lines[:-2]:
                print("   " + line, flush=True)
            if res.returncode != 0:
                bad += 1
                sys.stderr.write(res.stderr[-2000:])
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
