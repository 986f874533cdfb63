"""Command-line surface: experiment orchestration and report emission.

Subcommands mirror the experiment taxonomy: ``sample`` (distribution draws
with goodness-of-fit checks), ``features`` (build and serialize operators),
``approx`` (Gram error sweeps), ``bench`` (timing), ``krr`` and ``klr``
(ridge / logistic regression on features vs the exact baseline).

Every run writes one JSON report embedding the full config and seeds, plus a
long-format CSV for plotting. Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import __version__
from .data import (DataSet, load_csv, make_classification, make_regression,
                   preprocess, subsample, train_test_split)
from .distributions import (GbpParams, StableParams, gbp_cdf, sample_betaprime,
                            sample_chi, sample_gbp, sample_stable_cms,
                            stable_charfn)
from .features import build_operator, featurize, operator_record, save_operator
from .harness import NORMS, bench_speedup, measure_approximation
from .kernels import EXP_POWER, FAMILIES, MATERN, KernelSpec
from .learners import (evaluate, fit_krr_exact, fit_logistic_features,
                       fit_ridge_features, one_hot)
from .multivariate import ShapeMatrix
from .rng import RngStream

SCHEMA_VERSION = 1
CSV_COLUMNS = ("dataset", "kernel", "scheme", "p", "norm", "value", "time_ms", "seed")


@dataclass
class ExperimentConfig:
    kind: str
    kernel: str = "laplacian"
    alpha: float | None = None
    nu: float | None = None
    scheme: str = "rff"
    p_grid: tuple[int, ...] = (1024,)
    seed: int = 0
    lam: float = 1e-6
    norms: tuple[str, ...] = NORMS
    out: str = "report"
    data_path: str | None = None
    label_col: int | str = -1
    task: str = "classification"
    recipe: str = "none"
    m_file: str | None = None
    n: int = 1000
    d: int = 16
    n_classes: int = 2
    test_fraction: float = 0.2
    cap: int = 10_000
    repeats: int = 3
    round_p: bool = False


def _load_shape(d: int, m_file: str | None) -> ShapeMatrix:
    if m_file is None:
        return ShapeMatrix.identity(d)
    M = np.loadtxt(m_file, delimiter=",", ndmin=2)
    if M.shape == (1, d):  # a single row is read as a diagonal
        return ShapeMatrix.diagonal(M[0])
    return ShapeMatrix(M)


def _kernel_spec(cfg: ExperimentConfig, d: int) -> KernelSpec:
    shape = _load_shape(d, cfg.m_file)
    alpha = cfg.alpha if cfg.kernel == EXP_POWER else None
    nu = cfg.nu if cfg.kernel == MATERN else None
    return KernelSpec(cfg.kernel, shape, alpha=alpha, nu=nu)


def _load_dataset(cfg: ExperimentConfig, rng: RngStream) -> tuple[DataSet, list[str]]:
    notes = []
    if cfg.data_path:
        ds = load_csv(cfg.data_path, label_col=cfg.label_col, task=cfg.task)
    elif cfg.task == "regression":
        ds = make_regression(cfg.n, cfg.d, rng.substream(900))
        notes.append("synthetic regression data")
    else:
        ds = make_classification(cfg.n, cfg.d, cfg.n_classes, rng.substream(900))
        notes.append("synthetic classification data")
    if cfg.recipe != "none":
        ds = preprocess(ds, cfg.recipe)
    before = ds.n
    ds = subsample(ds, cfg.cap, rng.substream(901))
    if ds.n < before:
        notes.append(f"subsampled {before} -> {ds.n}")
    return ds, notes


def _rounded_p(cfg: ExperimentConfig, d: int, notes: list[str]) -> tuple[int, ...]:
    if cfg.scheme != "orf":
        return cfg.p_grid
    out = []
    for p in cfg.p_grid:
        if p % d != 0:
            if not cfg.round_p:
                raise ValueError(
                    f"ORF requires p to be a multiple of d={d} (got {p}); "
                    "pass --round-p to round up")
            rounded = ((p + d - 1) // d) * d
            notes.append(f"p rounded {p} -> {rounded} for ORF")
            p = rounded
        out.append(p)
    return tuple(out)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: ExperimentConfig, results: list[dict], rows: list[dict],
          notes: list[str], status: str = "ok") -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "status": status,
        "config": dataclasses.asdict(cfg),
        "notes": notes,
        "results": results,
    }
    _atomic_write(cfg.out + ".json", json.dumps(report, indent=2))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in CSV_COLUMNS})
    _atomic_write(cfg.out + ".csv", buf.getvalue())
    return report


def _dataset_name(cfg: ExperimentConfig) -> str:
    return os.path.basename(cfg.data_path) if cfg.data_path else "synthetic"


def _run_approx(cfg: ExperimentConfig, rng: RngStream) -> dict:
    ds, notes = _load_dataset(cfg, rng)
    spec = _kernel_spec(cfg, ds.d)
    p_grid = _rounded_p(cfg, ds.d, notes)
    reports = measure_approximation(spec, ds.X, cfg.scheme, list(p_grid), rng,
                                    norms=cfg.norms)
    results, rows = [], []
    for rep in reports:
        rec = dataclasses.asdict(rep)
        results.append(rec)
        for norm in cfg.norms:
            rows.append({"dataset": _dataset_name(cfg), "kernel": cfg.kernel,
                         "scheme": cfg.scheme, "p": rep.p, "norm": norm,
                         "value": rec[f"rel_{norm}"],
                         "time_ms": rep.featurize_ms + rep.gram_ms,
                         "seed": cfg.seed})
    return _emit(cfg, results, rows, notes)


def _run_bench(cfg: ExperimentConfig, rng: RngStream) -> dict:
    ds, notes = _load_dataset(cfg, rng)
    spec = _kernel_spec(cfg, ds.d)
    p_grid = _rounded_p(cfg, ds.d, notes)
    bench = bench_speedup(spec, ds.X, list(p_grid), cfg.scheme,
                          rng.substream(0), repeats=cfg.repeats)
    results = [dict(dataclasses.asdict(b), speedup=b.speedup) for b in bench]
    rows = [{"dataset": _dataset_name(cfg), "kernel": cfg.kernel,
             "scheme": cfg.scheme, "p": b.p, "norm": "frobenius",
             "value": b.rel_frobenius, "time_ms": b.feature_ms,
             "seed": cfg.seed} for b in bench]
    return _emit(cfg, results, rows, notes)


def _fit_feature_model(cfg, spec, p, train: DataSet, rng, logistic: bool):
    op = build_operator(cfg.scheme, spec, p, rng)
    phi = featurize(op, train.X)
    if logistic:
        return op, fit_logistic_features(phi, train.y, cfg.lam, operator=op)
    Y = one_hot(train.y) if train.task == "classification" else train.y
    return op, fit_ridge_features(phi, Y, cfg.lam, operator=op)


def _run_learning(cfg: ExperimentConfig, rng: RngStream, logistic: bool) -> dict:
    ds, notes = _load_dataset(cfg, rng)
    spec = _kernel_spec(cfg, ds.d)
    p_grid = _rounded_p(cfg, ds.d, notes)
    train, test = train_test_split(ds, cfg.test_fraction, rng.substream(902))
    results, rows = [], []
    # exact baseline (ridge, per the representer model)
    Y_train = one_hot(train.y) if ds.task == "classification" else train.y
    t0 = time.perf_counter()
    exact = fit_krr_exact(spec, train.X, Y_train, cfg.lam)
    exact_ms = 1e3 * (time.perf_counter() - t0)
    exact_metrics = evaluate(exact, test.X, test.y, ds.task)
    results.append({"model": "exact_krr", "p": None, "metrics": exact_metrics,
                    "time_ms": exact_ms})
    metric_name = "accuracy" if ds.task == "classification" else "r2"
    rows.append({"dataset": _dataset_name(cfg), "kernel": cfg.kernel,
                 "scheme": "exact", "p": "", "norm": metric_name,
                 "value": exact_metrics[metric_name], "time_ms": exact_ms,
                 "seed": cfg.seed})
    for j, p in enumerate(p_grid):
        # fit time covers what training costs from raw inputs, as for the
        # exact model: operator build, featurization and solve
        t0 = time.perf_counter()
        op, model = _fit_feature_model(cfg, spec, p, train, rng.substream(j), logistic)
        fit_ms = 1e3 * (time.perf_counter() - t0)
        phi_test = featurize(op, test.X)
        metrics = evaluate(model, phi_test, test.y, ds.task)
        result = {
            "model": "logistic_features" if logistic else "ridge_features",
            "p": p, "metrics": metrics,
            "gap_vs_exact": metrics[metric_name] - exact_metrics[metric_name],
            "time_ms": fit_ms,
            "operator": operator_record(op),
        }
        if logistic:
            result.update(converged=model.converged, grad_norm=model.grad_norm,
                          n_iter=model.n_iter, n_fev=model.n_fev,
                          n_hessp=model.n_hessp)
        results.append(result)
        rows.append({"dataset": _dataset_name(cfg), "kernel": cfg.kernel,
                     "scheme": cfg.scheme, "p": p, "norm": metric_name,
                     "value": metrics[metric_name], "time_ms": fit_ms,
                     "seed": cfg.seed})
    return _emit(cfg, results, rows, notes)


def _run_features(cfg: ExperimentConfig, rng: RngStream) -> dict:
    spec = _kernel_spec(cfg, cfg.d)
    notes: list[str] = []
    p_grid = _rounded_p(cfg, cfg.d, notes)
    results = []
    for j, p in enumerate(p_grid):
        op = build_operator(cfg.scheme, spec, p, rng.substream(j))
        path = f"{cfg.out}-operator-p{p}.json"
        save_operator(op, path)
        results.append({"p": p, "path": path, "operator": operator_record(op)})
    return _emit(cfg, results, [], notes)


_SAMPLE_DISTS = ("chi", "betaprime", "gbp", "stable")


def _run_sample(cfg: ExperimentConfig, rng: RngStream, dist: str,
                params: list[float], n_draws: int) -> dict:
    """Draw from a scalar law and run the matching goodness-of-fit check."""
    notes: list[str] = []
    if dist == "chi":
        (k,) = params
        draws = sample_chi(k, rng, size=n_draws)
        stat, pvalue = stats.kstest(np.asarray(draws) ** 2, "chi2", args=(k,))
        check = {"test": "ks_vs_chi2", "stat": stat, "pvalue": pvalue}
    elif dist == "betaprime":
        a, b = params
        draws = sample_betaprime(a, b, rng, size=n_draws)
        stat, pvalue = stats.kstest(draws, "betaprime", args=(a, b))
        check = {"test": "ks_vs_betaprime", "stat": stat, "pvalue": pvalue}
    elif dist == "gbp":
        gp = GbpParams(*params)
        draws = sample_gbp(gp, rng, size=n_draws)
        stat, pvalue = stats.kstest(draws, lambda x: gbp_cdf(gp, x))
        check = {"test": "ks_vs_gbp_cdf", "stat": stat, "pvalue": pvalue}
    elif dist == "stable":
        sp = StableParams(*params)
        draws = sample_stable_cms(sp, rng, size=n_draws)
        # no closed-form CDF: compare the empirical CF on a small grid
        ts = np.linspace(-2.0, 2.0, 9)
        emp = np.array([np.mean(np.exp(1j * t * draws)) for t in ts])
        dev = float(np.abs(emp - stable_charfn(sp, ts)).max())
        check = {"test": "charfn_deviation", "max_deviation": dev,
                 "mc_tolerance": 3.0 / np.sqrt(n_draws)}
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    draws = np.asarray(draws)
    results = [{"distribution": dist, "params": params, "n": n_draws,
                "mean": float(draws.mean()), "median": float(np.median(draws)),
                "check": check}]
    return _emit(cfg, results, [], notes)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kernel", choices=FAMILIES, default="laplacian")
    sub.add_argument("--alpha", type=float, default=None, help="exp_power exponent")
    sub.add_argument("--nu", type=float, default=None, help="matern smoothness")
    sub.add_argument("--scheme", choices=("rff", "orf"), default="rff")
    sub.add_argument("--p", type=str, default="1024",
                     help="comma-separated feature counts")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--lambda", dest="lam", type=float, default=1e-6)
    sub.add_argument("--norms", type=str, default="frobenius,operator,nuclear")
    sub.add_argument("--out", type=str, default="report")
    sub.add_argument("--data", type=str, default=None, help="CSV dataset path")
    sub.add_argument("--label-col", type=str, default="-1")
    sub.add_argument("--task", choices=("classification", "regression"),
                     default="classification")
    sub.add_argument("--recipe", type=str, default="none")
    sub.add_argument("--m-file", type=str, default=None,
                     help="CSV with the shape matrix (single row = diagonal)")
    sub.add_argument("--n", type=int, default=1000, help="synthetic sample count")
    sub.add_argument("--d", type=int, default=16, help="synthetic dimension")
    sub.add_argument("--classes", type=int, default=2)
    sub.add_argument("--test-fraction", type=float, default=0.2)
    sub.add_argument("--cap", type=int, default=10_000)
    sub.add_argument("--repeats", type=int, default=3)
    sub.add_argument("--round-p", action="store_true",
                     help="round p up to a multiple of d for ORF")


def _config_from_args(kind: str, args: argparse.Namespace) -> ExperimentConfig:
    label_col: int | str = args.label_col
    try:
        label_col = int(args.label_col)
    except ValueError:
        pass
    return ExperimentConfig(
        kind=kind, kernel=args.kernel, alpha=args.alpha, nu=args.nu,
        scheme=args.scheme,
        p_grid=tuple(int(tok) for tok in args.p.split(",")),
        seed=args.seed, lam=args.lam,
        norms=tuple(args.norms.split(",")),
        out=args.out, data_path=args.data, label_col=label_col,
        task=args.task, recipe=args.recipe, m_file=args.m_file,
        n=args.n, d=args.d, n_classes=args.classes,
        test_fraction=args.test_fraction, cap=args.cap,
        repeats=args.repeats, round_p=args.round_p)


def run_experiment(cfg: ExperimentConfig, **kwargs) -> dict:
    """Run one experiment and write its JSON + CSV reports."""
    rng = RngStream(cfg.seed)
    try:
        if cfg.kind == "approx":
            return _run_approx(cfg, rng)
        if cfg.kind == "bench":
            return _run_bench(cfg, rng)
        if cfg.kind == "krr":
            return _run_learning(cfg, rng, logistic=False)
        if cfg.kind == "klr":
            return _run_learning(cfg, rng, logistic=True)
        if cfg.kind == "features":
            return _run_features(cfg, rng)
        if cfg.kind == "sample":
            return _run_sample(cfg, rng, kwargs["dist"], kwargs["params"],
                               kwargs["n_draws"])
        raise ValueError(f"unknown experiment kind {cfg.kind!r}")
    except Exception as exc:
        # flush a failure marker so partial runs are identifiable
        _emit(cfg, [], [], [f"error: {type(exc).__name__}: {exc}"], status="failed")
        raise


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="heavyrff",
        description="Random features for the Laplacian, Exponential-power and "
                    "Matern kernels: sampling checks, approximation sweeps, "
                    "benchmarks and regression experiments.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in ("approx", "bench", "krr", "klr", "features"):
        sub = subparsers.add_parser(name)
        _add_common(sub)
    sample = subparsers.add_parser("sample")
    _add_common(sample)
    sample.add_argument("--dist", choices=_SAMPLE_DISTS, required=True)
    sample.add_argument("--params", type=str, required=True,
                        help="comma-separated distribution parameters")
    sample.add_argument("--draws", type=int, default=100_000)
    args = parser.parse_args(argv)
    cfg = _config_from_args(args.command, args)
    try:
        if args.command == "sample":
            run_experiment(cfg, dist=args.dist,
                           params=[float(tok) for tok in args.params.split(",")],
                           n_draws=args.draws)
        else:
            run_experiment(cfg)
    except (ValueError, FileNotFoundError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {cfg.out}.json and {cfg.out}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
