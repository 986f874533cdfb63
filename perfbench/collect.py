"""Collect a result set: several runs of each workload, one seed per run.

    python3 perfbench/collect.py --runs 10 --out perfbench/_work/results-parent.json

Run from the repository root. Each run is an untraced ``run.py`` in a process
of its own, with seeds 1, 2, ..., ``--runs`` on every workload, so that two
sets pair up by seed in ``compare.py``. The result set holds
the environment block, ``BENCHMARK.json`` and every run's result, and the
command prints each end-to-end metric's median and spread per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from benchstats import quartiles, spread
from run import ROOT, environment, load_benchmark

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, proc.stderr


def summarize(result_set: dict) -> list[str]:
    """One line per workload and metric: median, quartiles, spread vs bound."""
    lines = []
    for metric in result_set["benchmark"]["end_to_end"]:
        for workload, runs in result_set["runs"].items():
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs
                      if metric["name"] in r["result"]["metrics"]]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            lines.append(f"{workload:16s} {metric['name']:20s} median {q2:.6g} "
                         f"[{q1:.6g}, {q3:.6g}] spread {spread(values):.4f} "
                         f"bound {metric['bound']}")
    for workload, runs in result_set["runs"].items():
        fails = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        correct = all(r["result"]["correct"] for r in runs)
        lines.append(f"{workload:16s} correct {correct} failed/attempted {sorted(fails)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    result_set = {"environment": environment(), "benchmark": bench,
                  "runs": {name: [] for name in names}}
    for name in names:
        for seed in range(1, args.runs + 1):
            result, stderr = run_once(name, seed, bench["run_seconds"])
            # stderr holds the round wall times and any failed check
            result_set["runs"][name].append({"seed": seed, "result": result,
                                             "stderr": stderr[-4000:]})
            print(f"{name} seed {seed}: correct {result['correct']}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result_set, fh, indent=1)
    print("\n".join(summarize(result_set)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
