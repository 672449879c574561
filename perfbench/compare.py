#!/usr/bin/env python3
"""Compares two sets of benchmark reports, metric by metric.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are files or directories of files holding run.py's
captured stdout; every report line in them is read. Reports are
grouped by (workload, trace). For each metric it prints the median of each
side, the change as a share of BEFORE's median, and each side's spread
(interquartile range over median). When the reports came from different
hosts (nproc, CPU model, pool threads or rustc), it says so first and
marks every row, so a cross-host comparison is never silent.
"""

import json
import os
import statistics
import sys


def load(path):
    files = [os.path.join(path, f) for f in sorted(os.listdir(path))] if os.path.isdir(path) else [path]
    reports = []
    for name in files:
        with open(name) as handle:
            for line in handle:
                line = line.strip()
                if line.startswith('{"report"'):
                    reports.append(json.loads(line)["report"])
    return reports


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    before, after = load(sys.argv[1]), load(sys.argv[2])
    if not before or not after:
        sys.exit("compare.py: no report lines found")
    hosts = {json.dumps(r["host"], sort_keys=True) for r in before + after}
    cross_host = len(hosts) > 1
    if cross_host:
        print("HOSTS DIFFER: these numbers compare different machines or toolchains:")
        for host in sorted(hosts):
            print(f"  {host}")
    groups = {}
    for side, reports in (("before", before), ("after", after)):
        for r in reports:
            key = (r["workload"], r["trace"])
            for name, metric in r["metrics"].items():
                groups.setdefault(key, {}).setdefault(name, {"before": [], "after": []})[side].append(
                    metric["value"])
    mark = " [cross-host]" if cross_host else ""
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"\n{workload} (trace {int(trace)}){mark}")
        for name, sides in metrics.items():
            b, a = sides["before"], sides["after"]
            if not b or not a:
                continue
            mb, ma = statistics.median(b), statistics.median(a)
            change = (ma - mb) / mb if mb else float("nan")
            print(f"  {name:34s} {mb:14.6g} -> {ma:14.6g}  {change:+8.2%}  "
                  f"spread {spread(b):.3f}/{spread(a):.3f}  n={len(b)}/{len(a)}")


if __name__ == "__main__":
    main()
