#!/usr/bin/env python3
"""Compare two sets of benchmark runs (parent and change) metric by metric.

Usage (from the root of a checkout):

    python3 perfbench/compare.py parent.log change.log

Each log is the concatenated standard output of untraced runs of
perfbench/run.py. Make at least ten pairs per workload, alternating which
side runs first, with the same seeds and --seconds on both sides, e.g.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      first=parent; second=change; [ $((s % 2)) = 0 ] && first=change && second=parent
      (cd $first && python3 perfbench/run.py --workload families --seed $s \
          --seconds 36 --trace 0) >> $first.log
      (cd $second && python3 perfbench/run.py --workload families --seed $s \
          --seconds 36 --trace 0) >> $second.log
    done

The i-th run of a workload in one log is paired with the i-th in the other.
For every (workload, end-to-end metric) the verdict follows the benchmark's
rules: ``improved`` when the change wins at least 9 of 10 pairs (ties count
for neither) over at least ten pairs and the medians differ by more than the
parent's quartile spread; ``unresolved`` when the parent's spread exceeds the
metric's bound, unless every change run beats every parent run; ``worse``
when the change's median is worse than the parent's by more than the bound;
else ``unchanged``. The share of failed operations is compared as well. The
exit code is 1 when any metric is worse or more operations failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DETAIL_PREFIX = "perfbench-detail "
MIN_PAIRS = 10
WIN_SHARE = 0.9


def read_runs(path: Path) -> dict:
    """{workload: [run]}, each run {"detail": ..., "result": ...}, in start order."""
    runs: dict = {}
    detail = None
    for line in path.read_text().splitlines():
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        elif line.startswith("{") and detail is not None:
            if not detail.get("trace"):
                runs.setdefault(detail["workload"], []).append(
                    {"detail": detail, "result": json.loads(line)}
                )
            detail = None
    for group in runs.values():
        group.sort(key=lambda r: r["detail"]["started_at"])
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Classify one (workload, metric) from paired values."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)  # positive when the change is better
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        label = "improved"
    elif spread > bound and not dominates:
        label = "unresolved"
    elif pm and -gain / abs(pm) > bound:
        label = "worse"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "pairs": len(pairs),
        "wins": wins,
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "parent_spread": spread,
    }


def failed_share(runs: list) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs)
    return sum(r["result"]["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent_runs: dict, change_runs: dict, end_to_end: list) -> tuple[list, list, bool]:
    rows, notes, bad = [], [], False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        parent_first = sum(
            p["detail"]["started_at"] < c["detail"]["started_at"] for p, c in zip(p_runs, c_runs)
        )
        notes.append(f"{workload}: {n} pairs, parent ran first in {parent_first}")
        seeds_differ = [p["detail"]["seed"] != c["detail"]["seed"] for p, c in zip(p_runs, c_runs)]
        if any(seeds_differ):
            notes.append(f"{workload}: {sum(seeds_differ)} pairs ran different seeds")
        for metric in end_to_end:
            name = metric["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            row = verdict(pv, cv, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"])
            rows.append(row)
            bad |= row["verdict"] == "worse"
        pf, cf = failed_share(p_runs), failed_share(c_runs)
        more_failed = cf > pf
        bad |= more_failed
        notes.append(
            f"{workload}: failed share parent {pf:.4f}, change {cf:.4f}"
            + (" (MORE FAILURES)" if more_failed else "")
        )
    return rows, notes, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = ap.parse_args(argv)
    end_to_end = json.loads(args.benchmark.read_text())["end_to_end"]
    rows, notes, bad = compare(read_runs(args.parent), read_runs(args.change), end_to_end)
    print(f"{'workload':14s} {'metric':20s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'wins':>7s}  verdict")
    for r in rows:
        fmt = "/".join(f"{x:.4g}" for x in r["parent"]), "/".join(f"{x:.4g}" for x in r["change"])
        print(f"{r['workload']:14s} {r['metric']:20s} {fmt[0]:>32s} {fmt[1]:>32s} "
              f"{r['wins']:>3d}/{r['pairs']:<3d}  {r['verdict']}")
    for note in notes:
        print(note)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
