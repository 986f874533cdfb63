"""Approximation-error measurement and timing benchmarks.

Relative error of the featurized Gram matrix against the exact kernel matrix
in Frobenius, operator and nuclear norms; empirical characteristic-function
checks of the weight samplers against their target kernels; and wall-clock
comparison of exact kernel assembly versus featurize-plus-Gram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .features import build_operator, featurize, gram_approx
from .kernels import (EXP_POWER, GAUSSIAN, L1_LAPLACIAN, LAPLACIAN, MATERN,
                      KernelSpec, kernel_matrix, kernel_profile)
from .multivariate import sample_ec_stable, sample_mv_cauchy, sample_mv_t, sample_mvn
from .rng import RngStream

__all__ = [
    "ErrorReport",
    "BenchRow",
    "rel_error",
    "measure_approximation",
    "fourier_sampler",
    "cf_check",
    "bench_speedup",
]

NORMS = ("frobenius", "operator", "nuclear")


@dataclass
class ErrorReport:
    """Relative Gram-approximation errors plus the context needed to rerun them."""

    n: int
    p: int
    kernel: str
    scheme: str
    rel_frobenius: float
    rel_operator: float
    rel_nuclear: float
    seed: int
    stream_id: int = 0
    exact_ms: float = 0.0
    featurize_ms: float = 0.0
    gram_ms: float = 0.0


@dataclass
class BenchRow:
    p: int
    exact_ms: float
    featurize_ms: float
    gram_ms: float
    build_ms: float
    rel_frobenius: float

    @property
    def feature_ms(self) -> float:
        return self.featurize_ms + self.gram_ms

    @property
    def speedup(self) -> float:
        return self.exact_ms / self.feature_ms


@dataclass
class _ExactSide:
    """What the error of every Gram estimate against one exact K shares:
    K itself, its symmetry figures and the denominators of the norms asked for."""

    K: np.ndarray
    abs_max: float
    asym: float
    frobenius: float = float("nan")
    spectrum: np.ndarray | None = None  # |eigvalsh(K)|


def _exact_side(K: np.ndarray, norms: tuple[str, ...]) -> _ExactSide:
    for name in norms:
        if name not in NORMS:
            raise ValueError(f"unknown norm {name!r}")
    exact = _ExactSide(K=K, abs_max=np.abs(K).max(), asym=np.abs(K - K.T).max())
    if "frobenius" in norms:
        exact.frobenius = np.linalg.norm(K)
    if "operator" in norms or "nuclear" in norms:
        exact.spectrum = np.abs(np.linalg.eigvalsh(K))
    return exact


def _gram_errors(exact: _ExactSide, G: np.ndarray,
                 norms: tuple[str, ...]) -> dict[str, float]:
    """Relative errors of G against the exact side; norms not asked for are nan."""
    K = exact.K
    scale = max(exact.abs_max, np.abs(G).max(), 1.0)
    if max(exact.asym, np.abs(G - G.T).max()) > 1e-10 * scale:
        raise ValueError("matrices must be symmetric")
    errs = dict.fromkeys(NORMS, float("nan"))
    if "frobenius" in norms:
        if exact.frobenius == 0.0:
            raise ZeroDivisionError("||K|| is zero")
        errs["frobenius"] = float(np.linalg.norm(G - K) / exact.frobenius)
    if exact.spectrum is not None:
        # one eigendecomposition of G - K serves both spectral norms
        ev_diff = np.abs(np.linalg.eigvalsh(G - K))
        for name, reduce in (("operator", np.max), ("nuclear", np.sum)):
            if name not in norms:
                continue
            denom = reduce(exact.spectrum)
            if denom == 0.0:
                raise ZeroDivisionError("||K|| is zero")
            errs[name] = float(reduce(ev_diff) / denom)
    return errs


def rel_error(K: np.ndarray, G: np.ndarray, norm: str = "frobenius") -> float:
    """||G - K|| / ||K|| for symmetric matrices in the requested norm.

    Operator and nuclear norms use the symmetric eigendecomposition, which is
    exact for these matrices (spectral norm = max |eigenvalue|, nuclear norm =
    sum of |eigenvalues|).
    """
    K = np.asarray(K, dtype=float)
    G = np.asarray(G, dtype=float)
    if K.shape != G.shape:
        raise ValueError(f"shape mismatch {K.shape} vs {G.shape}")
    return _gram_errors(_exact_side(K, (norm,)), G, (norm,))[norm]


def measure_approximation(spec: KernelSpec, X: np.ndarray, scheme: str,
                          p_grid: list[int], rng: RngStream,
                          norms: tuple[str, ...] = NORMS) -> list[ErrorReport]:
    """Featurize X at each p of the grid and compare each Gram against the
    exact kernel, one ErrorReport per p.

    Grid point j draws its operator from ``rng.substream(j)``. The exact
    kernel, its checks and its spectrum are computed once for the whole grid,
    so every report carries the same ``exact_ms``.
    """
    t0 = time.perf_counter()
    K = kernel_matrix(spec, X)
    exact_ms = 1e3 * (time.perf_counter() - t0)
    exact = _exact_side(K, norms)
    reports = []
    for j, p in enumerate(p_grid):
        op_rng = rng.substream(j)
        t1 = time.perf_counter()
        phi = featurize(build_operator(scheme, spec, p, op_rng), X)
        t2 = time.perf_counter()
        G = gram_approx(phi)
        t3 = time.perf_counter()
        errs = _gram_errors(exact, G, norms)
        reports.append(ErrorReport(
            n=X.shape[0], p=p, kernel=spec.family, scheme=scheme,
            rel_frobenius=errs["frobenius"], rel_operator=errs["operator"],
            rel_nuclear=errs["nuclear"], seed=op_rng.seed,
            stream_id=op_rng.stream_id, exact_ms=exact_ms,
            featurize_ms=1e3 * (t2 - t1), gram_ms=1e3 * (t3 - t2)))
        del phi, G  # free this point's arrays before the next, larger p is built
    return reports


def fourier_sampler(spec: KernelSpec):
    """Sampler for the weight law whose characteristic function is the kernel."""
    if spec.family == GAUSSIAN:
        return lambda rng, n: sample_mvn(spec.shape, rng, size=n)
    if spec.family == LAPLACIAN:
        return lambda rng, n: sample_mv_cauchy(spec.shape, rng, size=n)
    if spec.family == MATERN:
        return lambda rng, n: sample_mv_t(spec.nu, spec.shape, rng, size=n)
    if spec.family == EXP_POWER:
        if spec.alpha == 2.0:
            return lambda rng, n: np.sqrt(2.0) * sample_mvn(spec.shape, rng, size=n)
        return lambda rng, n: sample_ec_stable(spec.alpha, spec.shape, rng, size=n)
    # l1_laplacian: independent standard Cauchy coordinates
    return lambda rng, n: rng.generator.standard_cauchy((n, spec.dim))


def cf_check(sampler, spec: KernelSpec, probes: np.ndarray, n_samples: int,
             rng: RngStream) -> np.ndarray:
    """Per-probe deviation |mean cos(w^T D) - kappa(D)| over n_samples draws."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if not np.isfinite(probes).all():
        raise ValueError("probes must be finite")
    draws = sampler(rng, n_samples)
    emp = np.cos(draws @ probes.T).mean(axis=0)
    if spec.family == L1_LAPLACIAN:
        r = np.abs(probes).sum(axis=1)
    else:
        r = spec.shape.norm(probes)
    return np.abs(emp - kernel_profile(spec, r))


def bench_speedup(spec: KernelSpec, X: np.ndarray, p_grid: list[int], scheme: str,
                  rng: RngStream, repeats: int = 3,
                  include_build: bool = False) -> list[BenchRow]:
    """Time exact kernel assembly against featurize + Gram across a p grid.

    Operator construction is timed separately and excluded from the speedup
    by default; pass ``include_build=True`` to fold it in. K's checks and
    Frobenius norm are computed once and shared by every p.
    """
    X = np.asarray(X, dtype=float)
    exact_times = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        K = kernel_matrix(spec, X)
        exact_times.append(1e3 * (time.perf_counter() - t0))
    exact_ms = float(np.median(exact_times))
    exact = _exact_side(K, ("frobenius",))
    rows = []
    for j, p in enumerate(p_grid):
        op_rng = rng.substream(j)
        t0 = time.perf_counter()
        op = build_operator(scheme, spec, p, op_rng)
        build_ms = 1e3 * (time.perf_counter() - t0)
        feat_times, gram_times = [], []
        for _ in range(max(1, repeats)):
            t1 = time.perf_counter()
            phi = featurize(op, X)
            t2 = time.perf_counter()
            G = gram_approx(phi)
            t3 = time.perf_counter()
            feat_times.append(1e3 * (t2 - t1))
            gram_times.append(1e3 * (t3 - t2))
        feat_ms = float(np.median(feat_times))
        gram_ms = float(np.median(gram_times))
        if include_build:
            feat_ms += build_ms
        errs = _gram_errors(exact, G, ("frobenius",))
        rows.append(BenchRow(p=p, exact_ms=exact_ms, featurize_ms=feat_ms,
                             gram_ms=gram_ms, build_ms=build_ms,
                             rel_frobenius=errs["frobenius"]))
    return rows
