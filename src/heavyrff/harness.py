"""Approximation-error measurement and timing.

One sweep over a feature-count grid gives the relative error of each
featurized Gram matrix against the exact kernel matrix in Frobenius, operator
and nuclear norms, with the wall-clock time of exact kernel assembly against
featurize-plus-Gram. An empirical characteristic-function check compares
either scheme's feature operator with its target kernel.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .features import build_operator, featurize, gram_approx
from .kernels import TILE, KernelSpec, _distance_tiles, _scaled, kernel_matrix, kernel_profile
from .rng import RngStream, count, matrix

__all__ = [
    "rel_error",
    "measure_approximation",
    "cf_check",
]

NORMS = ("frobenius", "operator", "nuclear")


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


def _square_sum(T: np.ndarray) -> float:
    """Square T = A[a:b, a:], rows [a, b) of a symmetric A from column a on,
    in place, and return its share of ||A||_F^2.

    The order is fixed: each row's squares in the diagonal block [a, b) are
    added by numpy's pairwise ``sum``, and so are those right of it, which
    count twice for the mirror image below the diagonal; row i gives
    d_i + 2 o_i, and the rows are added in order. No BLAS call takes part, so
    the sum does not depend on the BLAS kernel or thread count.
    """
    np.square(T, out=T)
    w = T.shape[0]
    rows = T[:, :w].sum(axis=1)
    rows += 2.0 * T[:, w:].sum(axis=1)
    total = 0.0
    for value in rows.tolist():
        total += value
    return total


def _frobenius(A: np.ndarray, in_place: bool = False) -> float:
    """||A||_F of a symmetric n x n A, read from its upper triangle: the
    ``_square_sum`` of each ``TILE``-row tile A[a:b, a:], added tile by tile
    from the top. Each tile is squared in a copy, or in A itself when
    ``in_place``."""
    total = 0.0
    for a in range(0, A.shape[0], TILE):
        T = A[a:a + TILE, a:]
        total += _square_sum(T if in_place else T.copy())
    return math.sqrt(total)


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


def _exact_side(K: np.ndarray, norms: tuple[str, ...]) -> dict[str, float]:
    """||K|| in each norm asked for, which every Gram's error against K shares:
    ||K||_2 is one Lanczos eigenvalue and ||K||_* the trace, the sum of the
    |eigenvalues| of a PSD K, as a kernel matrix is. K must be nonzero."""
    k_norms = {"frobenius": _frobenius, "operator": _top_eigenvalue, "nuclear": np.trace}
    return {name: k_norms[name](K) for name in norms}


def _gram_errors(K: np.ndarray, exact: dict[str, float],
                 G: np.ndarray) -> dict[str, float | None]:
    """Relative errors of G against K in the norms of ``exact``, the output of
    ``_exact_side(K, ...)``; norms not asked for are None.

    Only scores: the sweep's K and G are finite and exactly symmetric by
    construction, and ``rel_error`` checks a caller's matrices before this.
    Consumes G: it is overwritten by G - K, and for the Frobenius norm then
    squared, so no n x n temporary is formed. A caller that still needs G
    passes a copy.
    """
    diff = np.subtract(G, K, out=G)
    errs = dict.fromkeys(NORMS)  # None, not nan: JSON has no NaN token
    if "operator" in exact or "nuclear" in exact:
        # one eigendecomposition of G - K serves both spectral norms; the
        # nuclear norm needs every eigenvalue
        ev_diff = np.abs(np.linalg.eigvalsh(diff))
        for name, reduce in (("operator", np.max), ("nuclear", np.sum)):
            if name in exact:
                errs[name] = float(reduce(ev_diff) / exact[name])
    if "frobenius" in exact:
        errs["frobenius"] = _frobenius(diff, in_place=True) / exact["frobenius"]
    return errs


def rel_error(K: np.ndarray, G: np.ndarray, norm: str = "frobenius") -> float:
    """||G - K|| / ||K|| for symmetric matrices in the requested norm.

    Both Frobenius norms are read from the upper triangle in one fixed order,
    which the sweep shares, so its values equal this function's bit for bit
    and do not depend on the BLAS thread count: ||A||_F^2 is summed over
    ``TILE``-row tiles A[a:b, a:] from the top, each tile's rows in order,
    and each row as its squares in the diagonal block [a, b) plus twice those
    right of it, both by numpy's pairwise ``sum``. For a matrix symmetric
    only within rounding, that is the norm of its upper triangle mirrored.

    The spectral norms of G - K come from its symmetric eigendecomposition
    (operator norm = max |eigenvalue|, nuclear norm = sum of |eigenvalues|).
    ||K||_2 is K's largest |eigenvalue| by Lanczos, and ||K||_* is its trace,
    so the nuclear norm needs a positive semidefinite K, as every kernel
    matrix is: a K with an eigenvalue below -n * 2^-52 * ||K||_2 is refused.

    The caller's matrices are checked here, in this order, before any norm:
    each through ``rng.matrix``, K square, both of one shape, symmetric within
    1e-10 of their scale, ||K|| nonzero, and K PSD for the nuclear norm.
    """
    _check_norms((norm,))
    K = matrix("K", K)
    G = matrix("G", G).copy()  # _gram_errors consumes its G
    if K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be square, got shape {K.shape}")
    if K.shape != G.shape:
        raise ValueError(f"shape mismatch {K.shape} vs {G.shape}")
    k_max, g_max = _abs_max(K), _abs_max(G)
    if max(_asym_max(K), _asym_max(G)) > 1e-10 * max(k_max, g_max, 1.0):
        raise ValueError("matrices must be symmetric")
    if k_max == 0.0 or (norm == "nuclear" and np.trace(K) == 0.0):
        raise ZeroDivisionError("||K|| is zero")
    if norm == "nuclear":
        ev = np.linalg.eigvalsh(K)
        floor = -K.shape[0] * np.finfo(float).eps * np.abs(ev).max()
        if ev[0] < floor:
            raise ValueError(f"the nuclear norm needs a positive semidefinite K: its "
                             f"smallest eigenvalue {ev[0]:.3g} is below {floor:.3g}")
    return _gram_errors(K, _exact_side(K, (norm,)), G)[norm]


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


def _tile_pass(spec: KernelSpec, metric: str, Xs: np.ndarray,
               phis: dict[int, np.ndarray], repeats: int) -> tuple[list, dict, float, dict]:
    """One walk over K's upper triangle in ``TILE``-row tiles [a, b), scoring
    every Phi of ``phis`` against it without an n x n array.

    Each K tile K[a:b, a:] is the profile of one ``_distance_tiles`` tile,
    computed in place. For each Phi, G[a:b, a:] = Phi[a:b] Phi[a:]^T goes into
    one reused tile buffer, K's tile is subtracted from it, and
    ``_square_sum`` adds it to ||G - K||_F^2; K's tile then adds itself to
    ||K||_F^2. Each K tile and each G tile is formed ``repeats`` times in a
    row, and the r-th times are summed over the tiles. Returns those sums in
    ms, for K's tiles (distances and profile) and for each Phi's G tiles,
    then ||K||_F^2 and each ||G - K||_F^2.
    """
    n = Xs.shape[0]
    buf = np.empty(min(TILE, n) * n)
    k_ms, k_sq = [0.0] * repeats, 0.0
    g_ms = {j: [0.0] * repeats for j in phis}
    diff_sq = dict.fromkeys(phis, 0.0)
    for a, b, distances in _distance_tiles(metric, Xs):
        for r in range(repeats):
            t0 = time.perf_counter()
            K = distances()
            kernel_profile(spec, K, out=K)
            k_ms[r] += 1e3 * (time.perf_counter() - t0)
        G = buf[:K.size].reshape(K.shape)
        for j, phi in phis.items():
            for r in range(repeats):
                t0 = time.perf_counter()
                np.matmul(phi[a:b], phi[a:].T, out=G)
                g_ms[j][r] += 1e3 * (time.perf_counter() - t0)
            diff_sq[j] += _square_sum(np.subtract(G, K, out=G))
        k_sq += _square_sum(K)
    return k_ms, g_ms, k_sq, diff_sq


def measure_approximation(spec: KernelSpec, X: np.ndarray, scheme: str,
                          p_grid: list[int], rng: RngStream,
                          norms: tuple[str, ...] = NORMS,
                          repeats: int = 1) -> list[dict]:
    """Featurize X at each p of the grid and compare each Gram against the
    exact kernel, one JSON-ready report row per p, in grid order.

    A row holds ``n, p, kernel, scheme``, the errors ``rel_frobenius,
    rel_operator, rel_nuclear`` (None for a norm not asked for), the
    operator's ``seed, stream_id``, and ``exact_ms, featurize_ms, gram_ms,
    build_ms, speedup``, in that order. Grid point j draws its operator from
    ``rng.substream(j)``; the build is timed once as ``build_ms`` and left out
    of ``speedup = exact_ms / (featurize_ms + gram_ms)``. The other times are
    medians over ``repeats``. The points are visited from the largest p down,
    ties in grid order, and each point runs its featurize repeats first. K's
    norms are computed once for the grid, so every row carries the same
    ``exact_ms``. X goes through ``rng.matrix`` with d columns, and each p
    through ``rng.count``, before any operator is built.

    A sweep that asks for no spectral norm forms no n x n array. It
    featurizes every point first, then walks K's upper triangle once in
    ``TILE``-row tiles (``_tile_pass``): each K tile is computed once, and
    every point's G tile is formed and scored against it. It holds the sum
    of the Phi plus two ``TILE`` x n tile buffers. The sum of the Phi exceeds
    the largest Phi + G that the dense path below holds only when
    2 (sum of p - largest p) > n; the two tiles add 2 ``TILE`` n doubles.
    Each tile is formed ``repeats`` times in a row: ``exact_ms`` is the
    median over the repeats of the time of K's tiles, their distances and
    profile, and ``gram_ms`` the median over the repeats of the time of that
    point's G tiles. Scoring is not timed. X times sqrt(M) is refused, as
    ``kernel_matrix`` refuses it, before any operator is built.

    A sweep that asks for the operator or nuclear norm forms each point's G
    (``gram_ms``, its repeats on the last Phi) and drops that Phi before G is
    scored. K is assembled by ``kernel_matrix``, its repeats timed as
    ``exact_ms``, only once the first point's Gram has dropped its Phi. The
    sweep holds at most the largest of Phi_max + G, G + K + one
    ``kernel_matrix`` tile's temporaries, and K + G + the second-largest Phi:
    never K beside the largest Phi. What ``kernel_matrix`` refuses in X times
    sqrt(M) or in the profile comes after the largest point's Gram.

    K and G are scored without checks: K's tiles are finite and exactly
    symmetric with a unit diagonal, and G = Phi Phi^T is finite, exactly
    symmetric, and within rounding of [-1, 1]. Both paths score the
    Frobenius norm by ``rel_error``'s tile rule, on bit-equal tiles, so they
    give the same value bit for bit.
    """
    _check_norms(norms)
    repeats = count("repeats", repeats)
    X = matrix("X", X, spec.dim)
    # sorted() computes every key, refusing a bad p, before it compares
    order = sorted(range(len(p_grid)), key=lambda j: -count("feature count p", p_grid[j]))
    tiled = not {"operator", "nuclear"} & set(norms)
    if tiled:
        metric, Xs, _ = _scaled(spec, X)
    built = {}

    def featurized(j):
        op_rng = rng.substream(j)
        op, build_ms = _timed(lambda: build_operator(scheme, spec, p_grid[j], op_rng), 1)
        phi, featurize_ms = _timed(lambda: featurize(op, X), repeats)
        built[j] = op.p, op_rng, build_ms, featurize_ms
        return phi

    errs, gram_ms = {}, {}
    if tiled:
        phis = {j: featurized(j).phi for j in order}
        k_ms, g_ms, k_sq, diff_sq = _tile_pass(spec, metric, Xs, phis, repeats)
        exact_ms = float(np.median(k_ms))
        for j in order:
            gram_ms[j] = float(np.median(g_ms[j]))
            errs[j] = {norm: math.sqrt(diff_sq[j]) / math.sqrt(k_sq) if norm in norms
                       else None for norm in NORMS}
    else:
        exact = None
        for j in order:
            phi = featurized(j)
            G, gram_ms[j] = _timed(lambda: gram_approx(phi), repeats)
            del phi  # only G is scored
            if exact is None:
                K, exact_ms = _timed(lambda: kernel_matrix(spec, X), repeats)
                exact = _exact_side(K, norms)
            errs[j] = _gram_errors(K, exact, G)
            del G  # free this point's Gram before the next p is built
    rows = []
    for j in range(len(p_grid)):
        p, op_rng, build_ms, featurize_ms = built[j]
        rows.append({
            "n": X.shape[0], "p": p, "kernel": spec.family, "scheme": scheme,
            **{f"rel_{norm}": errs[j][norm] for norm in NORMS},
            "seed": op_rng.seed, "stream_id": op_rng.stream_id,
            "exact_ms": exact_ms, "featurize_ms": featurize_ms,
            "gram_ms": gram_ms[j], "build_ms": build_ms,
            "speedup": exact_ms / (featurize_ms + gram_ms[j])})
    return rows


def cf_check(spec: KernelSpec, probes: np.ndarray, n_samples: int,
             rng: RngStream, scheme: str = "rff") -> np.ndarray:
    """Per-probe deviation |mean cos(w^T D) - kappa(D)| over the n_samples
    rows w of the operator that ``build_operator(scheme, ...)`` samples; the
    probes, made 2-D, go through ``rng.matrix`` and n_samples through ``rng.count``."""
    probes = matrix("probes", np.atleast_2d(probes), spec.dim)
    op = build_operator(scheme, spec, count("n_samples", n_samples), rng)
    emp = np.cos(op.project(probes)).mean(axis=1)
    kappa = kernel_matrix(spec, probes, np.zeros((1, probes.shape[1])))[:, 0]
    return np.abs(emp - kappa)
