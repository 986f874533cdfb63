"""Compare two result sets, one from the parent commit and one from a change.

    python3 perfbench/compare.py perfbench/_work/results-parent.json \
        perfbench/_work/results-change.json

For each workload and end-to-end metric it prints each side's median and
quartiles, the share of paired runs (same seed) the change won, whether the
medians differ by more than the parent's interquartile spread, and whether
the change is worse than the parent by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchstats import pair_wins, quartiles, worse_by


def _values(result_set: dict, workload: str, metric: str) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][metric]["value"]
            for r in result_set["runs"].get(workload, [])
            if metric in r["result"]["metrics"]}


def compare(parent: dict, change: dict) -> list[dict]:
    rows = []
    for metric in change["benchmark"]["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        for workload in change["runs"]:
            a, b = _values(parent, workload, name), _values(change, workload, name)
            seeds = sorted(set(a) & set(b))
            if not seeds:
                continue
            pa, pb = quartiles(list(a.values())), quartiles(list(b.values()))
            rows.append({
                "workload": workload, "metric": name, "parent": pa, "change": pb,
                "wins": pair_wins([a[s] for s in seeds], [b[s] for s in seeds], better),
                "pairs": len(seeds),
                "beyond_spread": abs(pb[1] - pa[1]) > pa[2] - pa[0],
                "worse_than_bound": worse_by(pa[1], pb[1], better) > bound,
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    print(f"{'workload':16s} {'metric':20s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} wins  >spread >bound")
    regressions = 0
    for row in compare(parent, change):
        fmt = "{1:.5g} [{0:.5g}, {2:.5g}]"
        print(f"{row['workload']:16s} {row['metric']:20s} {fmt.format(*row['parent']):34s} "
              f"{fmt.format(*row['change']):34s} {row['wins']:.2f}  "
              f"{'yes' if row['beyond_spread'] else 'no':7s} "
              f"{'WORSE' if row['worse_than_bound'] else 'no'}")
        regressions += row["worse_than_bound"]
    print(f"{regressions} workload/metric pairs worse than their bound")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
