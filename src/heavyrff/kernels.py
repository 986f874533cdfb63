"""Exact evaluation of the five shift-invariant kernels.

Families: Gaussian e^{-||D||_M^2 / 2}, l1-Laplacian e^{-||D||_1},
Laplacian e^{-||D||_M}, Exponential-power e^{-||D||_M^alpha}, and the
Matern family built on the modified Bessel function of the second kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .multivariate import ShapeMatrix
from .rng import matrix, real

__all__ = [
    "GAUSSIAN",
    "L1_LAPLACIAN",
    "LAPLACIAN",
    "EXP_POWER",
    "MATERN",
    "KernelSpec",
    "matern_profile",
    "kernel_profile",
    "kernel_matrix",
]

GAUSSIAN = "gaussian"
L1_LAPLACIAN = "l1_laplacian"
LAPLACIAN = "laplacian"
EXP_POWER = "exp_power"
MATERN = "matern"

FAMILIES = (GAUSSIAN, L1_LAPLACIAN, LAPLACIAN, EXP_POWER, MATERN)

# Rows per tile of K's upper triangle, which kernel_matrix and harness's
# Frobenius rule walk, and the side of the square tiles harness's symmetry check
# compares; beside K, kernel_matrix holds at most one tile buffer and the Matern
# profile's tile temporaries.
TILE = 256

# The nu envelope KernelSpec and matern_profile accept. A subnormal nu overflows the profile
# at every r > 0; the ladder takes one step per unit of nu, and from nu ~ 1000 on the
# profile overflows in a widening band of r.
_MATERN_NU_MIN = float(np.finfo(float).tiny)
_MATERN_NU_MAX = 1e4
_MATERN_NU = f"[{_MATERN_NU_MIN!r}, {_MATERN_NU_MAX!r}]"  # repr parses back to each bound


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus exactly the parameters that family needs, as floats
    checked by ``rng.real``: alpha in (0, 2] for exp_power, nu in the Matern
    envelope [_MATERN_NU_MIN, _MATERN_NU_MAX] for matern. Any other family
    refuses either one."""

    family: str
    shape: ShapeMatrix
    alpha: float | None = None  # exp_power only
    nu: float | None = None     # matern only

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        for name, family, interval in (("alpha", EXP_POWER, "(0, 2]"),
                                       ("nu", MATERN, _MATERN_NU)):
            value = getattr(self, name)
            if self.family == family:  # frozen: set once, here
                object.__setattr__(self, name, real(name, value, interval))
            elif value is not None:
                raise ValueError(f"{name} is only valid for {family}, not {self.family}")

    @property
    def dim(self) -> int:
        return self.shape.dim


def _distances(r) -> np.ndarray:
    """``r`` as a float array if no entry is negative or NaN. That is read from
    ``r.min()``, which NaN propagates through, so no mask of r's size is formed."""
    r = np.asarray(r, dtype=float)
    if r.size and not r.min() >= 0.0:
        raise ValueError("distance must be non-negative and not NaN")
    return r


def _matern_bessel(nu: float, r: np.ndarray) -> np.ndarray:
    """General-nu Matern profile (2^{1-nu}/Gamma(nu)) t^nu K_nu(t), t = sqrt(2 nu) r.

    One ``kve`` call per entry. Where the product is inf or nan, an entry
    beyond t = max(nu^2, 2000) is 0 (``kve`` is nan from t ~ 1e9 on): there
    K_nu(t) < e^{1/2} sqrt(pi / 2t) e^{-t}, so the profile is below e^{-1800}.
    The others, where ``kve`` overflows (tiny t, large nu), are NaN.
    """
    # imported here so that loading the package does not pay for scipy.special
    from scipy import special

    with np.errstate(over="ignore"):
        t = np.sqrt(2.0 * nu) * r
    out = np.ones_like(t)
    pos = t > 0.0
    tp = t[pos]
    # log-space for the t^nu prefactor; kve keeps the e^{-t} decay separate
    log_pref = (1.0 - nu) * np.log(2.0) - special.gammaln(nu) + nu * np.log(tp)
    with np.errstate(invalid="ignore"):
        out[pos] = np.exp(log_pref - tp) * special.kve(nu, tp)
    bad = ~np.isfinite(out)
    out[bad] = np.where(t[bad] > max(nu * nu, 2000.0), 0.0, np.nan)
    return out


@np.errstate(over="ignore", invalid="ignore")
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
    1 - m otherwise. Each step updates the arrays in place. Entries where v_nu
    overflows, or (nu > 1/2) beyond t = 708 where e^{-t} is subnormal, are NaN.
    """
    from scipy import special

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
    bad = ~np.isfinite(hi)
    if nu > 0.5:
        bad |= r.ravel() > 708.0 / np.sqrt(2.0 * nu)
    hi[bad] = np.nan
    return hi.reshape(r.shape)


def matern_profile(nu: float, r: float | np.ndarray) -> float | np.ndarray:
    """Matern correlation as a function of the Mahalanobis distance r >= 0.

    This is the one place that picks the route. Each route is NaN where it
    cannot give the value, and those entries are taken from the other one.
    Every nu with 2 nu an integer starts on the ladder (``_matern_ladder``),
    a finite closed form at half-integer nu, and takes from the ``kve``
    route (``_matern_bessel``) what lies beyond t = 708 or where v_nu
    overflows. Any other nu starts on ``kve`` and takes from the ladder the
    tiny t where ``kve`` overflows.

    nu goes through ``rng.real`` with the envelope [``_MATERN_NU_MIN``,
    ``_MATERN_NU_MAX``], and r through ``_distances``, before any work. An entry
    that neither route can represent raises ``ValueError`` naming nu as given and
    the smallest such r. That happens only at large nu, in a band of moderate t
    where ``kve`` overflows and the ladder's e^{-t} is subnormal or its v_nu
    overflows: the profile is finite at every r up to nu ~ 1000, but at
    nu = 1500 it is not for r in about [12.93, 27.38].
    """
    nu, given = real("nu", nu, _MATERN_NU), nu
    r = _distances(r)
    first, second = _matern_ladder, _matern_bessel
    if nu - np.floor(nu) not in (0.0, 0.5):
        first, second = second, first
    out = first(nu, r)
    bad = np.isnan(out)
    if bad.any():
        rest = second(nu, r[bad])
        out[bad] = rest
        if np.isnan(rest).any():
            raise ValueError(
                f"Matern profile at nu={given} overflows double precision at "
                f"r={float(r[bad][np.isnan(rest)].min())!r}; "
                f"it is finite at every r for nu up to about 1000")
    return float(out) if out.ndim == 0 else out


def kernel_profile(spec: KernelSpec, r: float | np.ndarray,
                   out: np.ndarray | None = None) -> float | np.ndarray:
    """Kernel value as a function of the relevant distance.

    ``r`` is the Mahalanobis distance for all families except l1_laplacian,
    where it is the l1 distance. ``out``, when given, is a float64 array of
    r's shape that receives the values and is returned; it may be ``r``
    itself. Every family but Matern then writes only into ``out``, and the
    values are bit-equal to those of ``out=None``. A 0-d r gives a float.
    Every family refuses a negative or NaN distance by ``_distances``, which
    reads r once (``matern_profile`` does it for Matern).
    """
    r = np.asarray(r, dtype=float)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == r.shape):
        raise ValueError(f"kernel_profile out must be a float64 array of shape {r.shape}")
    if spec.family == MATERN:  # the ladder and kve routes keep their temporaries
        value = np.asarray(matern_profile(spec.nu, r))
        if out is None:
            out = value
        else:
            out[...] = value
    else:
        r = _distances(r)
        if out is None:
            out = np.empty(r.shape)
        if spec.family == GAUSSIAN:
            # (r r)(-1/2) is (-r/2) r bit for bit: halving is exact, except
            # where a product is subnormal or overflows, and exp gives 1.0
            # or 0.0 for both there
            with np.errstate(over="ignore"):
                np.multiply(r, r, out=out)
            out *= -0.5
        elif spec.family == EXP_POWER:
            with np.errstate(over="ignore"):  # r^alpha = inf only where the kernel is 0
                np.power(r, spec.alpha, out=out)
            np.negative(out, out=out)
        else:  # laplacian, l1_laplacian
            np.negative(r, out=out)
        np.exp(out, out=out)
    return float(out) if out.ndim == 0 else out


def _scaled(spec: KernelSpec, X: np.ndarray, Z: np.ndarray | None = None
            ) -> tuple[str, np.ndarray, np.ndarray]:
    """``(metric, Xs, Zs)``: X and Z (Z defaults to X) as ``cdist`` reads them.

    X and Z go through ``rng.matrix`` with d columns. The l1 family reads them
    as they are, under the cityblock metric; every other family reads them
    times sqrt(M), under the Euclidean one, and rows whose product overflows
    are refused. Zs is Xs when Z is X.
    """
    X = matrix("X", X, spec.dim)
    Z = X if Z is None else matrix("Z", Z, spec.dim)
    if spec.family == L1_LAPLACIAN:
        return "cityblock", X, Z
    with np.errstate(over="ignore", invalid="ignore"):
        Xs = X @ spec.shape.sqrtM
        Zs = Xs if Z is X else Z @ spec.shape.sqrtM
    if not (np.isfinite(Xs).all() and np.isfinite(Zs).all()):
        raise ValueError("inputs times sqrt(M) must be finite")
    return "euclidean", Xs, Zs


def _distance_tiles(metric: str, Xs: np.ndarray):
    """Yield ``(a, b, distances)`` for each ``TILE``-row tile [a, b) of the
    n x n distance matrix's upper triangle. Each call of ``distances()``
    computes the distances of rows [a, b) to rows a on, (b - a) x (n - a), into
    one reused ``TILE`` x n buffer and returns that view; the next tile's calls
    overwrite it. ``cdist`` computes each pair alone, so every tile is
    bit-equal to its block of the whole distance matrix."""
    from scipy.spatial.distance import cdist

    n = Xs.shape[0]
    buf = np.empty(min(TILE, n) * n)
    for a in range(0, n, TILE):
        b = min(a + TILE, n)
        r = buf[:(b - a) * (n - a)].reshape(b - a, n - a)
        yield a, b, partial(cdist, Xs[a:b], Xs[a:], metric=metric, out=r)


def kernel_matrix(spec: KernelSpec, X: np.ndarray,
                  Z: np.ndarray | None = None) -> np.ndarray:
    """Dense kernel matrix with entries K(X_i, Z_j); Z defaults to X.

    K is filled ``TILE`` rows at a time, and each tile is written once, where
    it ends up. Against Z, ``cdist`` writes a tile's distances into K's rows
    and the profile maps them in place, so K is the only array of its size.
    When Z is X, the profile writes each tile of ``_distance_tiles`` into
    K[a:b, a:], and it is mirrored into the rows below, so each entry is
    computed once and K is held with one tile buffer beside it. The profile
    works entry by entry, so K is bit-equal to the profile of the whole
    distance matrix, and exactly symmetric when Z is X. X and Z are checked
    and scaled by ``_scaled`` before any tile is built, so K is finite.
    """
    from scipy.spatial.distance import cdist

    metric, Xs, Zs = _scaled(spec, X, Z)
    n = Xs.shape[0]
    K = np.empty((n, Zs.shape[0]))
    if Zs is not Xs:
        for a in range(0, n, TILE):
            r = cdist(Xs[a:a + TILE], Zs, metric=metric, out=K[a:a + TILE])
            kernel_profile(spec, r, out=r)
        return K
    for a, b, distances in _distance_tiles(metric, Xs):
        kernel_profile(spec, distances(), out=K[a:b, a:])
        K[b:, a:b] = K[a:b, b:].T
    return K
