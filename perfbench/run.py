#!/usr/bin/env python3
"""Build the repository and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `pexeso` binary (the daemons
under test) and the harness in `perfbench/`, runs the harness, records the
host facts next to its result in `perfbench/results/`, prints every metric
with its unit and sample count, and prints as its last line the JSON
result: `{"correct", "attempted", "failed", "metrics"}`, where the metrics
are the `end_to_end` metrics of BENCHMARK.json (`--trace 0`) or its
`per_layer` metrics (`--trace 1`). Exits non-zero on any wrong answer or
when the checkout cannot be built.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("open_threshold", "wdc_routed_topk", "wdc_ingest")
HARNESS_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir(default):
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else default


def build(root):
    """Build the daemon binary and the harness; return both paths."""
    if not (root / "Cargo.toml").is_file() or not (root / "src").is_dir():
        fail(f"{root} is not a checkout of the repository (no Cargo.toml / src)")
    steps = [
        (["cargo", "build", "--release", "--offline", "--bin", "pexeso"], root / "target"),
        (
            ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
            HERE / "target",
        ),
    ]
    outs = []
    for cmd, default_target in steps:
        res = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
        outs.append(target_dir(default_target) / "release")
    return outs[0] / "pexeso", outs[1] / "perfbench"


def read(cmd, cwd=None):
    try:
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=20).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def host_facts(root, args):
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    mem_kb = 0
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    except OSError:
        pass
    commit = read(["git", "rev-parse", "HEAD"], cwd=root) or "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "mem_total_mb": mem_kb // 1024,
        "kernel": platform.release(),
        "rustc": read(["rustc", "--version"]),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def run_harness(cmd):
    """Run the harness in its own process group so every daemon it starts
    can be stopped with it; return (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, start_new_session=True)
    # Stopped from outside, still stop the harness and its daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        print("run.py: harness timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--results-dir", default=str(HERE / "results"), help="where result files go")
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found; run from the root of a checkout")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bin_path, harness = build(root)
    results = Path(args.results_dir).resolve()
    results.mkdir(parents=True, exist_ok=True)
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    cmd = [
        str(harness),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--pexeso", str(bin_path),
        "--work", str(work),
        "--out", str(results),
    ]
    started = time.time()
    try:
        code, out = run_harness(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        full = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"harness exited with code {code} and no result", 1)

    facts = host_facts(root, args)
    full["host"] = facts
    full["wall_s"] = time.time() - started
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(full, indent=1) + "\n")

    for line in lines[:-1]:
        print(line)
    print("host: " + ", ".join(f"{k}={v}" for k, v in facts.items()))

    section = full["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = section.get(m["name"])
        if got is None or got["value"] is None:
            fail(f"metric {m['name']} was not measured", 1)
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} measured in {got['unit']}, BENCHMARK.json says {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {
        "correct": bool(full["correct"]) and code == 0,
        "attempted": int(full["attempted"]),
        "failed": int(full["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
