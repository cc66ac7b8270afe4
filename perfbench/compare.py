#!/usr/bin/env python3
"""Summarise one result set, or compare two.

    python3 perfbench/compare.py <dir>               # spread of one set
    python3 perfbench/compare.py <parent-dir> <change-dir>

A result set is a directory of `perfbench/run.py` result files (see
`perfbench/sweep.py`). For each workload and metric the summary prints the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread,
the distance between the quartiles as a share of the median. End-to-end
metrics take their bounds from BENCHMARK.json; per-layer metrics have none.

Comparing two sets pairs runs by seed and gives each metric a verdict:

- improved: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
- worse: the change's median is worse than the parent's by more than the
  bound, with both spreads within the bound, or every change run is worse
  than every parent run;
- unresolved: a spread is wider than the bound and no side dominates;
- held: none of the above (within the bound).

A gain does not count when more operations fail: when the change's runs
fail (wrong, refused, non-exact or errored) more operations than the
parent's, summed over the paired seeds, no metric of that workload is
called improved; the verdict reads "not improved (more failed)".

Exits 1 when any end-to-end metric is worse or the change fails more
operations, else 0.
"""

import json
import statistics
import sys
from pathlib import Path


def load(dirpath):
    """{(workload, traced): {seed: result}}"""
    sets = {}
    for f in sorted(Path(dirpath).glob("*.json")):
        try:
            r = json.loads(f.read_text())
            host = r["host"]
        except (ValueError, KeyError):
            continue
        sets.setdefault((host["workload"], host["traced"]), {})[host["seed"]] = r
    return sets


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def metric_specs(spec, traced):
    key = "per_layer" if traced else "end_to_end"
    return [(m["name"], m["unit"], m["better"], m.get("bound")) for m in spec[key]]


def values(runs, section, name, seeds):
    return [runs[s][section][name]["value"] for s in seeds if runs[s][section].get(name, {}).get("value") is not None]


def fmt(x):
    return f"{x:.4g}"


def summary(spec, sets):
    ok = True
    for (workload, traced), runs in sorted(sets.items()):
        section = "per_layer" if traced else "end_to_end"
        hosts = {json.dumps({k: v for k, v in r["host"].items() if k in ("nproc", "cpu_model", "rustc", "git_commit")}) for r in runs.values()}
        print(f"\n== {workload} ({'traced' if traced else 'untraced'}, {len(runs)} runs) host {'; '.join(hosts)}")
        print(f"{'metric':<36}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  n")
        for name, unit, _, bound in metric_specs(spec, traced):
            v = values(runs, section, name, sorted(runs))
            if not v:
                print(f"{name:<36}{'missing':>12}")
                ok = False
                continue
            med, q1, q3, spread = stats(v)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <- spread above a third of the bound"
            b = fmt(bound) if bound is not None else "-"
            print(f"{name:<36}{fmt(med):>12}{fmt(q1):>12}{fmt(q3):>12}{spread:>9.3f}{b:>7}  {len(v)} {unit}{flag}")
    return ok


def verdict(parent, change, better, bound):
    pm, _, _, ps = stats(parent)
    cm, _, _, cs = stats(change)
    sign = 1 if better == "higher" else -1
    gain = lambda c, p: sign * (c - p)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if gain(c, p) > 0)
    q1, q3 = stats(parent)[1:3]
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > (q3 - q1) and gain(cm, pm) > 0:
        return "improved"
    dominated = all(gain(c, p) < 0 for c in change for p in parent)
    if bound is None:
        return "worse" if dominated else "held"
    worse_by = -gain(cm, pm) / abs(pm) if pm else 0.0
    if dominated or (worse_by > bound and ps <= bound and cs <= bound):
        return "worse"
    if ps > bound or cs > bound:
        return "unresolved"
    return "held"


def compare(spec, a, b):
    any_worse = False
    for key in sorted(set(a) & set(b)):
        workload, traced = key
        section = "per_layer" if traced else "end_to_end"
        seeds = sorted(set(a[key]) & set(b[key]))
        print(f"\n== {workload} ({'traced' if traced else 'untraced'}, {len(seeds)} paired seeds)")
        p_att, p_fail = (sum(int(a[key][s][k]) for s in seeds) for k in ("attempted", "failed"))
        c_att, c_fail = (sum(int(b[key][s][k]) for s in seeds) for k in ("attempted", "failed"))
        more_failed = c_fail > p_fail
        print(f"failed / attempted: parent {p_fail} / {p_att}, change {c_fail} / {c_att}" + ("  <- change fails more" if more_failed else ""))
        any_worse |= more_failed
        print(f"{'metric':<36}{'parent med':>12}{'[q1, q3]':>24}{'change med':>12}{'[q1, q3]':>24}  verdict")
        for name, unit, better, bound in metric_specs(spec, traced):
            pv = values(a[key], section, name, seeds)
            cv = values(b[key], section, name, seeds)
            if len(pv) != len(seeds) or len(cv) != len(seeds) or not seeds:
                print(f"{name:<36} missing")
                continue
            pm, p1, p3, _ = stats(pv)
            cm, c1, c3, _ = stats(cv)
            v = verdict(pv, cv, better, bound)
            if v == "improved" and more_failed:
                v = "not improved (more failed)"
            any_worse |= v == "worse" and not traced
            print(
                f"{name:<36}{fmt(pm):>12}{'[' + fmt(p1) + ', ' + fmt(p3) + ']':>24}"
                f"{fmt(cm):>12}{'[' + fmt(c1) + ', ' + fmt(c3) + ']':>24}  {v}"
            )
    return any_worse


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if len(sys.argv) == 2:
        sys.exit(0 if summary(spec, load(sys.argv[1])) else 1)
    sys.exit(1 if compare(spec, load(sys.argv[1]), load(sys.argv[2])) else 0)


if __name__ == "__main__":
    main()
