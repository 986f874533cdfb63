"""Command-line surface: experiment orchestration and report emission.

Subcommands mirror the experiment taxonomy: ``sample`` (distribution draws
with goodness-of-fit checks), ``features`` (build and serialize operators),
``approx`` and ``bench`` (one Gram-error and timing sweep, with different
defaults), ``krr`` and ``klr`` (ridge / logistic regression on features vs
the exact baseline).

Each subcommand takes only the flags it reads, and their parsed namespace is
the run's config. Every run writes one JSON report embedding that config,
plus a long-format CSV for plotting. Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .data import (RECIPES, X_RECIPES, DataSet, load_csv, make_classification,
                   make_regression, preprocess, subsample, train_test_split)
from .distributions import (GbpParams, StableParams, finite_draws, gbp_cdf,
                            sample_chi, sample_gbp, sample_stable_cms, stable_charfn)
from .features import (_atomic_write, build_operator, featurize, operator_record,
                       save_operator)
from .harness import NORMS, _timed, measure_approximation
from .kernels import FAMILIES, KernelSpec
from .learners import (evaluate, fit_krr_exact, fit_logistic_features,
                       fit_ridge_features, one_hot)
from .multivariate import ShapeMatrix
from .rng import RngStream, count

SCHEMA_VERSION = 1
CSV_COLUMNS = ("dataset", "kernel", "scheme", "p", "norm", "value", "time_ms", "seed")


def _load_shape(d: int, m_file: str | None) -> ShapeMatrix:
    if m_file is None:
        return ShapeMatrix.identity(d)
    try:
        M = np.loadtxt(m_file, delimiter=",", ndmin=2)
    except ValueError as exc:  # a cell that is not a number, or bytes that are not UTF-8
        raise ValueError(f"--m-file {m_file}: {exc}") from exc
    if M.shape == (1, d):  # a single row is read as a diagonal
        return ShapeMatrix.diagonal(M[0])
    if M.shape != (d, d):
        raise ValueError(f"--m-file holds a {M.shape[0]}x{M.shape[1]} matrix; "
                         f"d={d} needs {d}x{d}, or 1x{d} for a diagonal")
    return ShapeMatrix(M)


def _kernel_spec(cfg: argparse.Namespace, d: int) -> KernelSpec:
    return KernelSpec(cfg.kernel, _load_shape(d, cfg.m_file), alpha=cfg.alpha, nu=cfg.nu)


def _load_dataset(cfg: argparse.Namespace, rng: RngStream) -> tuple[DataSet, list[str]]:
    notes = []
    # klr fits classes only. The sweeps read only X: they drop a label column unchecked,
    # as krr drops regression targets, and make_regression draws make_classification's X.
    task = getattr(cfg, "task", "classification" if cfg.kind == "klr" else "regression")
    if cfg.data_path:
        ds = load_csv(cfg.data_path, label_col=cfg.label_col, task=task)
        labels = f", {np.unique(ds.y).size} labels" if ds.task == "classification" else ""
        unread = "--n, --d and --classes" if "n_classes" in vars(cfg) else "--n and --d"
        notes.append(f"data has {ds.n} rows, {ds.d} feature columns{labels}; "
                     f"{unread} are not read")
    else:
        ds = (make_regression(cfg.n, cfg.d, rng.substream(900)) if task == "regression" else
              make_classification(cfg.n, cfg.d, cfg.n_classes, rng.substream(900)))
        notes.append(f"synthetic {task} data")
    if cfg.recipe != "none":
        ds = preprocess(ds, cfg.recipe)
    before = ds.n
    ds = subsample(ds, cfg.cap, rng.substream(901))
    if ds.n < before:
        notes.append(f"subsampled {before} -> {ds.n}")
    return ds, notes


def _rounded_p(cfg: argparse.Namespace, d: int, notes: list[str]) -> tuple[int, ...]:
    if cfg.scheme != "orf":
        return cfg.p_grid
    rounded = tuple(-(-p // d) * d for p in cfg.p_grid)  # ORF stacks d x d blocks
    notes.extend(f"p rounded {p} -> {q} for ORF"
                 for p, q in zip(cfg.p_grid, rounded) if q != p)
    return rounded


def _csv_rows(cfg: argparse.Namespace, results: list[dict]) -> list[dict]:
    """The long-format CSV rows of a report's results: one per sweep norm and
    p, or one per fitted model; ``features`` and ``sample`` write none."""
    if cfg.kind not in ("approx", "bench", "krr", "klr"):
        return []
    base = {"dataset": os.path.basename(cfg.data_path) if cfg.data_path else "synthetic",
            "kernel": cfg.kernel, "seed": cfg.seed}
    if cfg.kind in ("approx", "bench"):
        return [dict(base, scheme=cfg.scheme, p=res["p"], norm=norm,
                     value=res[f"rel_{norm}"],
                     time_ms=res["featurize_ms"] + res["gram_ms"])
                for res in results for norm in cfg.norms]
    metric = "accuracy" if getattr(cfg, "task", "classification") == "classification" else "r2"
    return [dict(base, scheme="exact" if res["p"] is None else cfg.scheme,
                 p="" if res["p"] is None else res["p"], norm=metric,
                 value=res["metrics"][metric], time_ms=res["time_ms"])
            for res in results]


def _emit(cfg: argparse.Namespace, results: list[dict], notes: list[str],
          status: str = "ok") -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "status": status,
        "config": vars(cfg),
        "notes": notes,
        "results": results,
    }
    _atomic_write(cfg.out + ".json", json.dumps(report, indent=2, allow_nan=False))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(_csv_rows(cfg, results))
    _atomic_write(cfg.out + ".csv", buf.getvalue())
    return report


def _run_sweep(cfg: argparse.Namespace, rng: RngStream) -> dict:
    ds, notes = _load_dataset(cfg, rng)
    spec = _kernel_spec(cfg, ds.d)
    p_grid = _rounded_p(cfg, ds.d, notes)
    # bench draws its operators below substream 0 of the seed, approx below the seed
    root = rng.substream(0) if cfg.kind == "bench" else rng
    results = measure_approximation(spec, ds.X, cfg.scheme, list(p_grid), root,
                                    norms=cfg.norms, repeats=cfg.repeats)
    return _emit(cfg, results, notes)


def _run_learning(cfg: argparse.Namespace, rng: RngStream) -> dict:
    logistic = cfg.kind == "klr"
    ds, notes = _load_dataset(cfg, rng)
    spec = _kernel_spec(cfg, ds.d)
    p_grid = _rounded_p(cfg, ds.d, notes)
    train, test = train_test_split(ds, cfg.test_fraction, rng.substream(902))
    results = []
    # exact baseline (ridge, per the representer model)
    Y_train = one_hot(train.y) if ds.task == "classification" else train.y
    exact, exact_ms = _timed(lambda: fit_krr_exact(spec, train.X, Y_train, cfg.lam), 1)
    exact_metrics = evaluate(exact, test.X, test.y, ds.task)
    results.append({"model": "exact_krr", "p": None, "metrics": exact_metrics,
                    "time_ms": exact_ms})
    metric_name = "accuracy" if ds.task == "classification" else "r2"
    for j, p in enumerate(p_grid):
        # fit time covers what training costs from raw inputs, as for the
        # exact model: operator build, featurization and solve
        def fit():
            op = build_operator(cfg.scheme, spec, p, rng.substream(j))
            phi = featurize(op, train.X)
            return op, (fit_logistic_features(phi, train.y, cfg.lam) if logistic else
                        fit_ridge_features(phi, Y_train, cfg.lam))
        (op, model), fit_ms = _timed(fit, 1)
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
    return _emit(cfg, results, notes)


def _run_features(cfg: argparse.Namespace, rng: RngStream) -> dict:
    spec = _kernel_spec(cfg, cfg.d)
    notes: list[str] = []
    p_grid = _rounded_p(cfg, cfg.d, notes)
    results = []
    for j, p in enumerate(p_grid):
        op = build_operator(cfg.scheme, spec, p, rng.substream(j))
        path = f"{cfg.out}-operator-p{p}.json"
        save_operator(op, path)
        results.append({"p": p, "path": path, "operator": operator_record(op)})
    return _emit(cfg, results, notes)


# each law's parameters, in the order --params gives them
_SAMPLE_PARAMS = {"chi": ("k",), "gbp": ("alpha", "beta", "p", "q"),
                  "stable": ("alpha", "beta", "sigma")}


def _run_sample(cfg: argparse.Namespace, rng: RngStream) -> dict:
    """Draw from a scalar law and run the matching goodness-of-fit check."""
    # imported here: scipy.stats is the largest part of the CLI's start-up
    # and only this subcommand reads it
    from scipy import stats
    dist, params, n_draws = cfg.dist, cfg.params, cfg.draws
    what = f"{dist} draws at --params {','.join(map(str, params))}"
    # finite draws can still overflow their mean or the check; refused below by name
    with np.errstate(over="ignore", invalid="ignore"):
        if dist == "chi":
            (k,) = params
            draws = finite_draws(what, sample_chi, k, rng, n_draws)
            stat, pvalue = stats.kstest(draws ** 2, "chi2", args=(k,))
            check = {"test": "ks_vs_chi2", "stat": stat, "pvalue": pvalue}
        elif dist == "gbp":
            gp = GbpParams(*params)
            draws = finite_draws(what, sample_gbp, gp, rng, n_draws)
            stat, pvalue = stats.kstest(draws, lambda x: gbp_cdf(gp, x))
            check = {"test": "ks_vs_gbp_cdf", "stat": stat, "pvalue": pvalue}
        elif dist == "stable":
            sp = StableParams(*params)
            draws = finite_draws(what, sample_stable_cms, sp, rng, n_draws)
            # no closed-form CDF: compare the empirical CF on a small grid
            ts = np.linspace(-2.0, 2.0, 9)
            emp = np.array([np.mean(np.exp(1j * t * draws)) for t in ts])
            dev = float(np.abs(emp - stable_charfn(sp, ts)).max())
            check = {"test": "charfn_deviation", "max_deviation": dev,
                     "mc_tolerance": 3.0 / np.sqrt(n_draws)}
        else:
            raise ValueError(f"unknown distribution {dist!r}")
        summary = {"mean": float(draws.mean()), "median": float(np.median(draws))}
    for name, value in {**summary, **check}.items():
        if name != "test" and not np.isfinite(value):
            raise ValueError(f"{what}: {name} is not finite")
    results = [{"distribution": dist, "params": params, "n": n_draws, **summary,
                "check": check}]
    return _emit(cfg, results, [])


def _add_flags(sub: argparse.ArgumentParser, kind: str) -> None:
    """Declare the flags subcommand ``kind`` reads; each dest is a config key."""
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=str, default="report")
    if kind == "sample":
        sub.add_argument("--dist", choices=tuple(_SAMPLE_PARAMS), required=True)
        sub.add_argument("--params", type=str, required=True,
                         help="comma-separated distribution parameters")
        sub.add_argument("--draws", type=int, default=100_000)
        return
    sub.add_argument("--kernel", choices=FAMILIES, default="laplacian")
    sub.add_argument("--alpha", type=float, default=None, help="exp_power exponent")
    sub.add_argument("--nu", type=float, default=None, help="matern smoothness")
    sub.add_argument("--scheme", choices=("rff", "orf"), default="rff")
    sub.add_argument("--p", dest="p_grid", type=str, default="1024",
                     help="comma-separated feature counts")
    sub.add_argument("--m-file", type=str, default=None,
                     help="CSV with the shape matrix (single row = diagonal)")
    sub.add_argument("--d", type=int, default=16,
                     help="input dimension of the operator or of synthetic data")
    if kind == "features":
        return
    sub.add_argument("--data", dest="data_path", type=str, default=None,
                     help="CSV dataset path")
    sub.add_argument("--label-col", type=str, default="-1")
    if kind == "krr":  # klr fits classification labels only, the sweeps none
        sub.add_argument("--task", choices=("classification", "regression"),
                         default="classification")
    # log-target rewrites y, which only krr fits as a real target
    sub.add_argument("--recipe", choices=RECIPES if kind == "krr" else X_RECIPES, default="none")
    sub.add_argument("--n", type=int, default=1000, help="synthetic sample count")
    sub.add_argument("--cap", type=int, default=10_000)
    if kind in ("approx", "bench"):
        sub.add_argument("--norms", type=str,
                         default=",".join(NORMS) if kind == "approx" else "frobenius",
                         help="comma-separated error norms")
        sub.add_argument("--repeats", type=int, default=1 if kind == "approx" else 3,
                         help="timed repeats per p")
    else:
        sub.add_argument("--classes", dest="n_classes", type=int, default=2)
        sub.add_argument("--lambda", dest="lam", type=float, default=1e-6)
        sub.add_argument("--test-fraction", type=float, default=0.2)


def _law_params(dist: str, text: str) -> list[float]:
    """``--params`` as floats, as many as ``dist`` takes, or a ValueError."""
    names = _SAMPLE_PARAMS[dist]
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"--params must be comma-separated numbers, got {text!r}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"--params must be finite, got {text!r}")
    least = 1 if dist == "stable" else len(names)  # StableParams defaults beta, sigma
    if not least <= len(values) <= len(names):
        count = len(names) if least == len(names) else f"{least} to {len(names)}"
        raise ValueError(f"--params for {dist} takes {count} value{'s' * (count != 1)} "
                         f"({','.join(names)}), got {len(values)}")
    return values


def _check_flags(cfg: argparse.Namespace) -> None:
    """Convert and check, in place, every flag the subcommand took."""
    flags = vars(cfg)
    if "p_grid" in flags:
        tokens = cfg.p_grid.split(",")
        for i, token in enumerate(tokens):
            with contextlib.suppress(ValueError):  # else the count rule refuses the text
                tokens[i] = int(token)
        cfg.p_grid = tuple(count("--p", token) for token in tokens)
    for name, flag in (("n", "--n"), ("d", "--d"), ("n_classes", "--classes"),
                       ("cap", "--cap"), ("repeats", "--repeats"), ("draws", "--draws")):
        if name in flags:
            flags[name] = count(flag, flags[name])
    for name, flag in (("alpha", "--alpha"), ("nu", "--nu"), ("lam", "--lambda"),
                       ("test_fraction", "--test-fraction")):
        if flags.get(name) is not None and not np.isfinite(flags[name]):
            raise ValueError(f"{flag} must be finite, got {flags[name]}")
    if "norms" in flags:
        if not set(cfg.norms.split(",")) <= set(NORMS):
            raise ValueError(f"--norms must list norms out of {','.join(NORMS)}, got {cfg.norms!r}")
        cfg.norms = tuple(cfg.norms.split(","))
    if flags.get("recipe") == "log-target" and flags.get("task") == "classification":
        raise ValueError("--recipe log-target needs --task regression")
    if "label_col" in flags:
        with contextlib.suppress(ValueError):  # a column name stays a string
            cfg.label_col = int(cfg.label_col)
    if "params" in flags:
        cfg.params = _law_params(cfg.dist, cfg.params)


# each subcommand's runner, in the order the CLI lists them
_RUNNERS = {"approx": _run_sweep, "bench": _run_sweep, "krr": _run_learning,
            "klr": _run_learning, "features": _run_features, "sample": _run_sample}


def run_experiment(cfg: argparse.Namespace) -> dict:
    """Run one experiment and write its JSON + CSV reports."""
    try:
        if cfg.kind not in _RUNNERS:
            raise ValueError(f"unknown experiment kind {cfg.kind!r}")
        return _RUNNERS[cfg.kind](cfg, RngStream(cfg.seed))
    except Exception as exc:
        # flush a failure marker so partial runs are identifiable
        _emit(cfg, [], [f"error: {type(exc).__name__}: {exc}"], status="failed")
        raise


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="heavyrff",
        description="Random features for the Laplacian, Exponential-power and "
                    "Matern kernels: sampling checks, approximation sweeps, "
                    "benchmarks and regression experiments.")
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind in _RUNNERS:
        _add_flags(subparsers.add_parser(kind), kind)
    cfg = parser.parse_args(argv)
    try:
        _check_flags(cfg)
        run_experiment(cfg)
    except (ValueError, OSError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {cfg.out}.json and {cfg.out}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
