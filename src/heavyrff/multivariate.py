"""PSD linear algebra and multivariate heavy-tailed samplers.

Provides the anisotropy container :class:`ShapeMatrix` (positive definite M
with its cached symmetric square root and Cholesky factor), Haar-random
orthogonal blocks, and samplers for N(0, M), Cauchy(0, M), the multivariate
t with 2*nu degrees of freedom, and the elliptically contoured alpha-stable
law.
"""

from __future__ import annotations

import numpy as np

from .distributions import StableParams, sample_stable_cms
from .rng import RngStream

__all__ = [
    "NotPositiveDefiniteError",
    "ShapeMatrix",
    "HaarBlockMatrix",
    "sqrt_psd",
    "sample_haar_blocks",
    "sample_mvn",
    "sample_mv_cauchy",
    "sample_mv_t",
    "sample_ec_stable",
    "sample_stable_mixing",
]

_EIG_RTOL = 1e-12  # eigenvalues below this fraction of the largest are rejected


class NotPositiveDefiniteError(ValueError):
    """Raised when a shape matrix is not (numerically) positive definite."""


def sqrt_psd(M: np.ndarray) -> np.ndarray:
    """Unique symmetric positive definite square root of ``M``.

    Computed by symmetric eigendecomposition; eigenvalues at or below
    1e-12 times the largest raise :class:`NotPositiveDefiniteError`.
    """
    M = np.asarray(M, dtype=float)
    vals, vecs = np.linalg.eigh(M)
    if vals[-1] <= 0.0 or vals[0] <= _EIG_RTOL * vals[-1]:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (eigenvalue range [{vals[0]:.3e}, {vals[-1]:.3e}])"
        )
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return (root + root.T) / 2.0


class ShapeMatrix:
    """Positive definite matrix M defining the Mahalanobis norm ||u||_M.

    Immutable after construction; caches the symmetric square root (used by
    the orthogonal feature construction) and the Cholesky factor (used for
    fast Gaussian sampling).
    """

    def __init__(self, M: np.ndarray):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {M.shape}")
        if not np.isfinite(M).all():
            raise ValueError("shape matrix has non-finite entries")
        scale = np.abs(M).max()
        if scale == 0.0 or np.abs(M - M.T).max() > 1e-12 * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        self.M = (M + M.T) / 2.0
        self.dim = M.shape[0]
        self.sqrtM = sqrt_psd(self.M)
        try:
            self.cholM = np.linalg.cholesky(self.M)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - sqrt_psd catches first
            raise NotPositiveDefiniteError(str(exc)) from exc
        self.M.setflags(write=False)
        self.sqrtM.setflags(write=False)
        self.cholM.setflags(write=False)

    @classmethod
    def identity(cls, d: int) -> "ShapeMatrix":
        return cls(np.eye(d))

    @classmethod
    def diagonal(cls, diag: np.ndarray) -> "ShapeMatrix":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    def norm(self, u: np.ndarray) -> float | np.ndarray:
        """Mahalanobis norm sqrt(u^T M u), computed as ||sqrtM @ u||_2."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: {u.shape[-1]} != {self.dim}")
        return np.linalg.norm(u @ self.sqrtM, axis=-1)

    def __repr__(self) -> str:
        return f"ShapeMatrix(dim={self.dim})"


class HaarBlockMatrix:
    """p x d matrix of vertically stacked independent Haar-orthogonal blocks."""

    def __init__(self, Q: np.ndarray):
        Q = np.asarray(Q, dtype=float)
        p, d = Q.shape
        if p % d != 0:
            raise ValueError(f"row count {p} must be a multiple of block size {d}")
        self.Q = Q
        self.p = p
        self.d = d

    @property
    def blocks(self) -> np.ndarray:
        return self.Q.reshape(self.p // self.d, self.d, self.d)


def sample_haar_blocks(p: int, d: int, rng: RngStream) -> HaarBlockMatrix:
    """Stack p/d independent Haar-distributed d x d orthogonal blocks.

    Each block is the QR of an i.i.d. standard Gaussian matrix with the signs
    of R's diagonal folded into Q, which corrects the raw QR map to Haar measure.
    One call draws every block, in the order block-by-block draws would take;
    each block's Q is written back over its draw (``qr`` copies its input),
    and one pass over the stack then applies all the signs.
    """
    if p < 1 or d < 1 or p % d != 0:
        raise ValueError(f"feature count p={p} must be a positive multiple "
                         f"of block size d={d} >= 1")
    Q = rng.generator.standard_normal((p // d, d, d))
    signs = np.empty((p // d, d))
    for k in range(p // d):
        Q[k], r = np.linalg.qr(Q[k])
        signs[k] = r.diagonal()
    np.sign(signs, out=signs)
    signs[signs == 0.0] = 1.0
    Q *= signs[:, None, :]
    return HaarBlockMatrix(Q.reshape(p, d))


def sample_mvn(shape: ShapeMatrix, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` rows from N(0, M) as cholM @ g for standard normal g."""
    return rng.generator.standard_normal((size, shape.dim)) @ shape.cholM.T


def _draw_nonzero(draw, n: int) -> np.ndarray:
    """``draw(n)``, each entry below 1e-300 in magnitude redrawn by ``draw(k)``
    until none is left, so that dividing by it stays finite."""
    v = draw(n)
    tiny = np.abs(v) < 1e-300
    while tiny.any():
        v[tiny] = draw(int(tiny.sum()))
        tiny = np.abs(v) < 1e-300
    return v


def sample_mv_cauchy(shape: ShapeMatrix, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` rows from Cauchy(0, M) as u / v with u ~ N(0, M), v ~ N(0, 1)."""
    u = sample_mvn(shape, rng, size)
    v = _draw_nonzero(rng.generator.standard_normal, size)
    return u / v[:, None]


def sample_mv_t(nu: float, shape: ShapeMatrix, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` rows from the multivariate t with 2*nu degrees of freedom, shape M.

    u * sqrt(2 nu / v) for u ~ N(0, M) and v ~ chi-squared(2 nu).
    """
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    u = sample_mvn(shape, rng, size)
    v = _draw_nonzero(lambda k: rng.generator.chisquare(2.0 * nu, size=k), size)
    return u * np.sqrt(2.0 * nu / v)[:, None]


def sample_stable_mixing(alpha: float, rng: RngStream, size: int) -> np.ndarray:
    """``size`` draws of sqrt(A) for A one-sided stable, alpha in (0, 2].

    A ~ S(alpha/2, 1, 2 cos^{2/alpha}(pi alpha / 4)), the scale that gives
    sqrt(A) * N(0, M) the characteristic function e^{-||u||_M^alpha}. At
    alpha = 2 the law of A is the point mass at 2, and nothing is drawn.
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if alpha == 2.0:
        return np.full(size, np.sqrt(2.0))
    sigma = 2.0 * np.cos(np.pi * alpha / 4.0) ** (2.0 / alpha)
    return np.sqrt(sample_stable_cms(StableParams(alpha / 2.0, 1.0, sigma), rng, size))


def sample_ec_stable(alpha: float, shape: ShapeMatrix, rng: RngStream,
                     size: int) -> np.ndarray:
    """Draw ``size`` rows from the elliptically contoured alpha-stable law, alpha in (0, 2].

    sqrt(A) * G with sqrt(A) from :func:`sample_stable_mixing` and G ~ N(0, M);
    every projection u^T X is S(alpha, 0, ||u||_M).
    """
    a = sample_stable_mixing(alpha, rng, size)
    return a[:, None] * sample_mvn(shape, rng, size)
