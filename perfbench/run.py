"""Run one benchmark workload against heavyrff's public CLI and print its metrics.

    python3 perfbench/run.py --workload approx_matern --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. The run
sets up several times in child processes (``setup_s``), repeats whole rounds
of the workload's operations for ``--seconds`` seconds, checks the last
round's outputs, and prints one JSON object as the last line of stdout.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports per-layer metrics from the
traced ones, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_REPEATS = 3


def load_benchmark() -> dict:
    """BENCHMARK.json: the metric names and units a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _import_package() -> None:
    """Put ``src/`` first on the path and import the CLI from it, or exit."""
    if not os.path.isfile(os.path.join(SRC, "heavyrff", "cli.py")):
        sys.exit(f"error: no heavyrff package under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    from heavyrff import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: heavyrff was imported from {cli.__file__}, not {SRC}")


def _setup_child(workload: str, seed: int, workdir: str) -> None:
    """What one set-up does: import the CLI and write the inputs."""
    _import_package()
    from workloads import WORKLOADS, Context
    os.makedirs(workdir, exist_ok=True)
    WORKLOADS[workload].make_inputs(Context(seed, workdir))


def _time_setup(workload: str, seed: int, workdir: str) -> float:
    """Median wall time, over fresh processes, from launch to inputs on disk."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
               "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        subprocess.run(cmd + ["--workdir", os.path.join(workdir, f"setup{k}")],
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    """Versions, BLAS, CPU count and thread settings the figures were taken with."""
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a checkout may not be a repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "cpu_count": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_commit": commit or "unknown"}


def _round(ops) -> tuple[float, int]:
    """Run one round; returns (wall seconds, failed operations)."""
    failed = 0
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for op in ops:
            try:
                failed += not op()
            except Exception as exc:  # one failed operation must not end the run
                print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 1
    return time.perf_counter() - t0, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        _setup_child(args.workload, args.seed, args.workdir)
        return 0

    _import_package()
    from tracer import Tracer
    from workloads import WORKLOADS, Context
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_s = _time_setup(args.workload, args.seed, workdir)
        ctx = Context(args.seed, workdir)
        workload.make_inputs(ctx)
        ops = workload.operations(ctx)

        walls, traced_walls, layer_rows, spans = [], [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            traced = args.trace == 1 and len(walls) > len(traced_walls)
            if traced:
                with Tracer() as tracer:
                    wall, bad = _round(ops)
                traced_walls.append(wall)
                layer_rows.append(tracer.metrics())
                spans.append(tracer)
            else:
                wall, bad = _round(ops)
                walls.append(wall)
            attempted += len(ops)
            failed += bad
            if time.perf_counter() - start >= args.seconds and (
                    args.trace == 0 or traced_walls):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"round walls (s): untraced {[round(w, 4) for w in walls]}, "
              f"traced {[round(w, 4) for w in traced_walls]}", file=sys.stderr)

        try:
            failures, quality = workload.check(ctx)
        except Exception as exc:  # e.g. a report missing after a failed operation
            failures, quality = [f"{type(exc).__name__}: {exc}"], {}
        for line in failures:
            print(f"check failed: {line}", file=sys.stderr)
        print(json.dumps({"environment": environment()}))
        if args.trace == 1:
            values = {name: statistics.median(row[name] for row in layer_rows)
                      for name in layer_rows[0]}
            values["trace.overhead_s"] = (statistics.median(traced_walls)
                                          - statistics.median(walls))
            spans[-1].dump(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            # a quality metric is missing only when a check failed, so the run
            # already reads incorrect
            values = dict(quality, setup_s=setup_s, run_s=statistics.median(walls),
                          peak_rss_mb=peak_rss_mb)
        kind = "per_layer" if args.trace == 1 else "end_to_end"
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in load_benchmark()[kind]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
