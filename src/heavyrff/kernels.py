"""Exact evaluation of the five shift-invariant kernels.

Families: Gaussian e^{-||D||_M^2 / 2}, l1-Laplacian e^{-||D||_1},
Laplacian e^{-||D||_M}, Exponential-power e^{-||D||_M^alpha}, and the
Matern family built on the modified Bessel function of the second kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.spatial.distance import cdist

from .multivariate import ShapeMatrix

__all__ = [
    "GAUSSIAN",
    "L1_LAPLACIAN",
    "LAPLACIAN",
    "EXP_POWER",
    "MATERN",
    "KernelSpec",
    "matern_profile",
    "kernel_profile",
    "kernel_eval",
    "kernel_matrix",
]

GAUSSIAN = "gaussian"
L1_LAPLACIAN = "l1_laplacian"
LAPLACIAN = "laplacian"
EXP_POWER = "exp_power"
MATERN = "matern"

FAMILIES = (GAUSSIAN, L1_LAPLACIAN, LAPLACIAN, EXP_POWER, MATERN)

# Rows per tile of kernel_matrix and the side of the square tiles harness's
# symmetry check compares; each holds a few tiles of temporaries, never n x n.
TILE = 256


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus exactly the parameters that family needs."""

    family: str
    shape: ShapeMatrix
    alpha: float | None = None  # exp_power only, in (0, 2]
    nu: float | None = None     # matern only, > 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == EXP_POWER:
            if self.alpha is None or not (0.0 < self.alpha <= 2.0):
                raise ValueError(f"exp_power needs alpha in (0, 2], got {self.alpha}")
        elif self.alpha is not None:
            raise ValueError(f"alpha is only valid for exp_power, not {self.family}")
        if self.family == MATERN:
            if self.nu is None or not self.nu > 0.0:
                raise ValueError(f"matern needs nu > 0, got {self.nu}")
        elif self.nu is not None:
            raise ValueError(f"nu is only valid for matern, not {self.family}")

    @property
    def dim(self) -> int:
        return self.shape.dim


def _matern_bessel(nu: float, r: np.ndarray) -> np.ndarray:
    """General-nu Matern profile (2^{1-nu}/Gamma(nu)) t^nu K_nu(t), t = sqrt(2 nu) r.

    One ``kve`` call per entry. Where the product is inf or nan, an entry
    beyond t = max(nu^2, 2000) is 0 (``kve`` is nan from t ~ 1e9 on): there
    K_nu(t) < e^{1/2} sqrt(pi / 2t) e^{-t}, so the profile is below e^{-1800}.
    The others, where ``kve`` overflows (tiny t, large nu), are recomputed by
    ``_matern_ladder``.
    """
    with np.errstate(over="ignore"):
        t = np.sqrt(2.0 * nu) * r
    out = np.ones_like(t)
    pos = t > 0.0
    tp = t[pos]
    # log-space for the t^nu prefactor; kve keeps the e^{-t} decay separate
    log_pref = (1.0 - nu) * np.log(2.0) - special.gammaln(nu) + nu * np.log(tp)
    with np.errstate(invalid="ignore"):
        out[pos] = np.exp(log_pref - tp) * special.kve(nu, tp)
    out[~np.isfinite(out) & (t > max(nu * nu, 2000.0))] = 0.0
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(over="ignore", invalid="ignore"):
            out[bad] = _matern_ladder(nu, r[bad])
    return out


def _matern_ladder(nu: float, r: np.ndarray) -> np.ndarray:
    """Matern profile by the upward recurrence in the order.

    With v_m = e^t t^m K_m(t) / (2^{m-1} Gamma(m)), the recurrence
    K_{m+1} = K_{m-1} + (2m/t) K_m reads v_{m+1} = v_m + t^2 v_{m-1} / (4m(m-1)),
    and the profile is v_nu e^{-t}. All terms are positive, so no digits
    cancel, and v_nu <= e^t is finite for t < 709. The ladder starts at the
    lowest order m in (0, 1] that differs from nu by an integer, with
    v_{m+1} = v_m + t^{m+1} kve(1-m, t) / (2^m Gamma(m+1)) from K_{1-m} = K_{m-1}:
    v_{1/2} = 1 and v_{3/2} = 1 + t for half-integer nu, which makes every
    half-integer profile a finite closed form (DLMF 10.49.12); v_1 = t k1e(t)
    and v_2 = v_1 + t^2 k0e(t) / 2 for integer nu; ``kve`` at orders m and
    1 - m otherwise. Each step updates the arrays in place.
    """
    t = np.sqrt(2.0 * nu) * r.ravel()
    m = nu - np.floor(nu) or 1.0
    if m == 0.5:
        if nu == 0.5:
            np.negative(t, out=t)
            return np.exp(t, out=t).reshape(r.shape)
        lo, hi = None, 1.0 + t               # lo = v_{1/2} = 1 stays implicit
    elif m == 1.0:
        # t k1e(t) is exactly 1 at the smallest normal t, and nan at t = 0
        np.maximum(t, np.finfo(float).tiny, out=t)
        lo = special.k1e(t)
        lo *= t
        if nu > 1.0:
            hi = special.k0e(t)
            hi *= t
            hi *= t
            hi *= 0.5
            hi += lo
    else:
        # kve is inf below t ~ 1e-304 at every order; the profile is 1 there
        # to double precision for all but tiny fractional orders
        np.maximum(t, 1e-300, out=t)
        log_t = np.log(t)
        lo = special.kve(m, t)
        lo *= np.exp((1.0 - m) * np.log(2.0) - special.gammaln(m) + m * log_t)
        if nu > m:
            hi = special.kve(1.0 - m, t)
            hi *= np.exp((m + 1.0) * log_t - m * np.log(2.0) - special.gammaln(m + 1.0))
            hi += lo
    if nu == m:
        lo, hi = None, lo
    if nu > m + 1.0:
        t2 = np.multiply(t, t, out=t)        # t's buffer; t is recomputed below
        m += 1.0                             # the order of hi
        while m < nu:
            # v_{m+1} = v_m + t^2 v_{m-1} / (4m(m-1)), written over v_{m-1}
            c = 4.0 * m * (m - 1.0)
            if lo is None:
                lo = t2 / c
            else:
                lo *= t2
                lo /= c
            lo += hi
            lo, hi = hi, lo
            m += 1.0
        t = np.multiply(np.sqrt(2.0 * nu), r.ravel(), out=t2)
    del lo
    np.negative(t, out=t)
    hi *= np.exp(t, out=t)
    return hi.reshape(r.shape)


def matern_profile(nu: float, r: float | np.ndarray, method: str = "auto") -> float | np.ndarray:
    """Matern correlation as a function of the Mahalanobis distance r >= 0.

    ``auto`` evaluates every nu with 2 nu an integer by the ladder
    (``_matern_ladder``) and any other nu by one ``kve`` call per entry;
    ``closed`` is the ladder for half-integer nu, where it is a finite closed
    form, and raises otherwise; ``bessel`` is always the ``kve`` path, which
    keeps it an independent cross-check. Beyond t = 708, where the ladder's
    e^{-t} factor is subnormal and v_nu may overflow, entries are taken from
    the ``kve`` path (except at nu = 1/2, where the profile is e^{-r}).

    An entry that neither path can represent raises ``ValueError`` naming nu
    and the smallest such r. That happens only at large nu, in a band of
    moderate t where ``kve`` and the ladder's v_nu both overflow: the
    profile is finite at every r up to nu ~ 1000, but at nu = 1500 it is not
    for r in about [14.6, 27.4].
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0.0):
        raise ValueError("distance must be non-negative and not NaN")
    frac = nu - np.floor(nu)
    if method == "closed" and frac != 0.5:
        raise ValueError(f"no closed form for nu={nu}")
    if method == "closed" or (method == "auto" and frac in (0.0, 0.5)):
        with np.errstate(over="ignore", invalid="ignore"):
            out = _matern_ladder(nu, r)
        bad = ~np.isfinite(out)
        if nu > 0.5:
            bad |= r > 708.0 / np.sqrt(2.0 * nu)  # e^{-t} is subnormal beyond
        if bad.any():
            out[bad] = _matern_bessel(nu, r[bad])
    elif method in ("auto", "bessel"):
        out = _matern_bessel(nu, r)
    else:
        raise ValueError(f"unknown method {method!r}")
    if not np.isfinite(out).all():
        raise ValueError(
            f"Matern profile at nu={nu} overflows double precision at "
            f"r={float(r[~np.isfinite(out)].min())!r}; "
            f"it is finite at every r for nu up to about 1000")
    return float(out) if out.ndim == 0 else out


def kernel_profile(spec: KernelSpec, r: float | np.ndarray) -> float | np.ndarray:
    """Kernel value as a function of the relevant distance.

    ``r`` is the Mahalanobis distance for all families except l1_laplacian,
    where it is the l1 distance.
    """
    r = np.asarray(r, dtype=float)
    if spec.family == GAUSSIAN:
        out = np.exp(-0.5 * r * r)
    elif spec.family in (LAPLACIAN, L1_LAPLACIAN):
        out = np.exp(-r)
    elif spec.family == EXP_POWER:
        out = np.exp(-(r ** spec.alpha))
    else:
        out = np.asarray(matern_profile(spec.nu, r))
    return float(out) if out.ndim == 0 else out


def kernel_eval(spec: KernelSpec, x: np.ndarray, z: np.ndarray) -> float:
    """Exact kernel value K(x, z)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != z.shape or x.shape[-1] != spec.dim:
        raise ValueError(f"dimension mismatch: {x.shape} vs {z.shape}, d={spec.dim}")
    if not (np.isfinite(x).all() and np.isfinite(z).all()):
        raise ValueError("inputs must be finite")
    delta = x - z
    if spec.family == L1_LAPLACIAN:
        r = np.abs(delta).sum()
    else:
        r = spec.shape.norm(delta)
    return float(kernel_profile(spec, r))


def kernel_matrix(spec: KernelSpec, X: np.ndarray,
                  Z: np.ndarray | None = None) -> np.ndarray:
    """Dense kernel matrix with entries K(X_i, Z_j); Z defaults to X.

    K is filled in place, ``TILE`` rows at a time, so beside K only one
    tile's distances and profile temporaries are held. When Z is X, tile
    [a, b) computes the rows' entries from column a on and mirrors them into
    the rows below, so each entry is computed once. ``cdist`` computes each
    pair alone and the profile works entry by entry, so K is bit-equal to the
    profile of the whole distance matrix, and exactly symmetric when Z is X.
    Non-finite X or Z is refused before any tile is built.
    """
    X = np.asarray(X, dtype=float)
    Z = X if Z is None else np.asarray(Z, dtype=float)
    if X.shape[1] != spec.dim or Z.shape[1] != spec.dim:
        raise ValueError(
            f"column counts {X.shape[1]}, {Z.shape[1]} must equal d={spec.dim}")
    if not (np.isfinite(X).all() and np.isfinite(Z).all()):
        raise ValueError("inputs must be finite")
    if spec.family == L1_LAPLACIAN:
        metric, Xs, Zs = "cityblock", X, Z
    else:
        metric, Xs = "euclidean", X @ spec.shape.sqrtM
        Zs = Xs if Z is X else Z @ spec.shape.sqrtM
    n = Xs.shape[0]
    K = np.empty((n, Zs.shape[0]))
    for a in range(0, n, TILE):
        b = min(a + TILE, n)
        if Zs is Xs:
            K[a:b, a:] = kernel_profile(spec, cdist(Xs[a:b], Xs[a:], metric=metric))
            K[b:, a:b] = K[a:b, b:].T
        else:
            K[a:b] = kernel_profile(spec, cdist(Xs[a:b], Zs, metric=metric))
    return K
