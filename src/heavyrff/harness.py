"""Approximation-error measurement and timing.

One sweep over a feature-count grid gives the relative error of each
featurized Gram matrix against the exact kernel matrix in Frobenius, operator
and nuclear norms, with the wall-clock time of exact kernel assembly against
featurize-plus-Gram. An empirical characteristic-function check compares
either scheme's feature operator with its target kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .features import build_operator, featurize, gram_approx
from .kernels import TILE, KernelSpec, kernel_matrix
from .rng import RngStream

__all__ = [
    "rel_error",
    "measure_approximation",
    "cf_check",
]

NORMS = ("frobenius", "operator", "nuclear")


@dataclass
class _ExactSide:
    """What the error of every Gram estimate against one exact K shares:
    K itself, its symmetry figures and the denominators of the norms asked for."""

    K: np.ndarray
    abs_max: float
    asym: float
    frobenius: float = float("nan")
    operator: float = float("nan")
    nuclear: float = float("nan")


def _abs_max(A: np.ndarray) -> float:
    """max |A| without an |A| temporary; not finite exactly when A is not."""
    return max(A.max(), -A.min())


def _asym_max(A: np.ndarray) -> float:
    """max |A - A.T| over tile pairs (I, J >= I), without an n x n temporary.

    IEEE subtraction is exactly antisymmetric, a - b == -(b - a), so the tiles
    on and above the diagonal give the full maximum bit for bit.
    """
    n = A.shape[0]
    worst = 0.0
    for i in range(0, n, TILE):
        for j in range(i, n, TILE):
            diff = A[i:i + TILE, j:j + TILE] - A[j:j + TILE, i:i + TILE].T
            worst = max(worst, _abs_max(diff))
    return worst


def _finite_abs_max(A: np.ndarray) -> float:
    abs_max = _abs_max(A)
    if not np.isfinite(abs_max):
        raise ValueError("matrices must be finite")
    return abs_max


def _check_norms(norms: tuple[str, ...]) -> None:
    for name in norms:
        if name not in NORMS:
            raise ValueError(f"unknown norm {name!r}")


def _top_eigenvalue(K: np.ndarray) -> float:
    """max |eigenvalue| of a nonzero symmetric K by Lanczos (ARPACK), from a
    fixed-seed Gaussian start: all-ones is orthogonal to the top eigenvector
    of some PSD matrices, such as [[1, -0.9], [-0.9, 1]]."""
    if K.shape[0] == 1:  # ARPACK needs k < n
        return abs(float(K[0, 0]))
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(0).standard_normal(K.shape[0])
    try:
        (top,) = eigsh(K, k=1, which="LM", tol=0, v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence:
        raise np.linalg.LinAlgError(
            "Lanczos for the operator norm of K did not converge") from None
    return abs(float(top))


def _exact_side(K: np.ndarray, norms: tuple[str, ...]) -> _ExactSide:
    exact = _ExactSide(K=K, abs_max=_finite_abs_max(K), asym=_asym_max(K))
    if "frobenius" in norms:
        exact.frobenius = np.linalg.norm(K)
    if "operator" in norms:  # a zero K is refused by name, not by ARPACK
        exact.operator = _top_eigenvalue(K) if exact.abs_max > 0.0 else 0.0
    if "nuclear" in norms:
        exact.nuclear = np.trace(K)  # sum |eigenvalue| for a PSD K, as a kernel matrix is
    return exact


def _gram_errors(exact: _ExactSide, G: np.ndarray,
                 norms: tuple[str, ...]) -> dict[str, float | None]:
    """Relative errors of G against the exact side; norms not asked for are None.

    Consumes G: once it has passed the checks it is overwritten by G - K, so
    no n x n temporary is formed. A caller that still needs G passes a copy.
    """
    scale = max(exact.abs_max, _finite_abs_max(G), 1.0)
    if max(exact.asym, _asym_max(G)) > 1e-10 * scale:
        raise ValueError("matrices must be symmetric")
    for name in norms:
        if getattr(exact, name) == 0.0:
            raise ZeroDivisionError("||K|| is zero")
    diff = np.subtract(G, exact.K, out=G)
    errs = dict.fromkeys(NORMS)  # None, not nan: JSON has no NaN token
    if "frobenius" in norms:
        errs["frobenius"] = float(np.linalg.norm(diff) / exact.frobenius)
    if "operator" in norms or "nuclear" in norms:
        # one eigendecomposition of G - K serves both spectral norms; the
        # nuclear norm needs every eigenvalue
        ev_diff = np.abs(np.linalg.eigvalsh(diff))
        for name, reduce in (("operator", np.max), ("nuclear", np.sum)):
            if name in norms:
                errs[name] = float(reduce(ev_diff) / getattr(exact, name))
    return errs


def rel_error(K: np.ndarray, G: np.ndarray, norm: str = "frobenius") -> float:
    """||G - K|| / ||K|| for symmetric matrices in the requested norm.

    The spectral norms of G - K come from its symmetric eigendecomposition
    (operator norm = max |eigenvalue|, nuclear norm = sum of |eigenvalues|).
    ||K||_2 is K's largest |eigenvalue| by Lanczos, and ||K||_* is its trace,
    so the nuclear norm needs a positive semidefinite K, as every kernel
    matrix is: a K with an eigenvalue below -n * 2^-52 * ||K||_2 is refused.
    """
    _check_norms((norm,))
    K = np.asarray(K, dtype=float)
    G = np.array(G, dtype=float)  # _gram_errors consumes its G
    if K.shape != G.shape:
        raise ValueError(f"shape mismatch {K.shape} vs {G.shape}")
    err = _gram_errors(_exact_side(K, (norm,)), G, (norm,))[norm]
    if norm == "nuclear":  # after the finite, symmetric and nonzero checks
        ev = np.linalg.eigvalsh(K)
        floor = -K.shape[0] * np.finfo(float).eps * np.abs(ev).max()
        if ev[0] < floor:
            raise ValueError(f"the nuclear norm needs a positive semidefinite K: its "
                             f"smallest eigenvalue {ev[0]:.3g} is below {floor:.3g}")
    return err


def _timed(call, repeats: int):
    """``call()``'s last result and the median of its ``repeats`` wall times in
    ms; each result is dropped before the next call is timed."""
    times = []
    for _ in range(repeats):
        result = None
        t0 = time.perf_counter()
        result = call()
        times.append(1e3 * (time.perf_counter() - t0))
    return result, float(np.median(times))


def measure_approximation(spec: KernelSpec, X: np.ndarray, scheme: str,
                          p_grid: list[int], rng: RngStream,
                          norms: tuple[str, ...] = NORMS,
                          repeats: int = 1) -> list[dict]:
    """Featurize X at each p of the grid and compare each Gram against the
    exact kernel, one JSON-ready report row per p.

    A row holds ``n, p, kernel, scheme``, the errors ``rel_frobenius,
    rel_operator, rel_nuclear`` (None for a norm not asked for), the
    operator's ``seed, stream_id``, and ``exact_ms, featurize_ms, gram_ms,
    build_ms, speedup``, in that order. Grid point j draws its operator from
    ``rng.substream(j)``; the build is timed once as ``build_ms`` and left out
    of ``speedup = exact_ms / (featurize_ms + gram_ms)``. The other times are
    medians over ``repeats``: K's repeats run first, then at each p those of
    featurize and then those of the Gram of the last Phi. K's checks and norms
    are computed once for the grid, so every row carries the same
    ``exact_ms``. At most K, one G and one p's Phi are resident at a time.
    """
    _check_norms(norms)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    X = np.asarray(X, dtype=float)
    K, exact_ms = _timed(lambda: kernel_matrix(spec, X), repeats)
    exact = _exact_side(K, norms)
    rows = []
    for j, p in enumerate(p_grid):
        op_rng = rng.substream(j)
        op, build_ms = _timed(lambda: build_operator(scheme, spec, p, op_rng), 1)
        phi, featurize_ms = _timed(lambda: featurize(op, X), repeats)
        G, gram_ms = _timed(lambda: gram_approx(phi), repeats)
        del phi  # only G is scored
        errs = _gram_errors(exact, G, norms)
        del G  # free this point's Gram before the next, larger p is built
        rows.append({
            "n": X.shape[0], "p": p, "kernel": spec.family, "scheme": scheme,
            **{f"rel_{norm}": errs[norm] for norm in NORMS},
            "seed": op_rng.seed, "stream_id": op_rng.stream_id,
            "exact_ms": exact_ms, "featurize_ms": featurize_ms,
            "gram_ms": gram_ms, "build_ms": build_ms,
            "speedup": exact_ms / (featurize_ms + gram_ms)})
    return rows


def cf_check(spec: KernelSpec, probes: np.ndarray, n_samples: int,
             rng: RngStream, scheme: str = "rff") -> np.ndarray:
    """Per-probe deviation |mean cos(w^T D) - kappa(D)| over the n_samples
    rows w of the operator that ``build_operator(scheme, ...)`` samples."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if not np.isfinite(probes).all():
        raise ValueError("probes must be finite")
    op = build_operator(scheme, spec, n_samples, rng)
    emp = np.cos(op.project(probes)).mean(axis=1)
    kappa = kernel_matrix(spec, probes, np.zeros((1, probes.shape[1])))[:, 0]
    return np.abs(emp - kappa)
