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
    "stable_scale_sigma",
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
    """
    if d < 1 or p % d != 0:
        raise ValueError(f"block size d={d} must be >= 1 and divide the feature count {p}")
    Q = np.empty((p, d))
    for k in range(0, p, d):
        q, r = np.linalg.qr(rng.generator.standard_normal((d, d)))
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        Q[k:k + d] = q * signs
    return HaarBlockMatrix(Q)


def sample_mvn(shape: ShapeMatrix, rng: RngStream,
               size: int | None = None) -> np.ndarray:
    """Draw from N(0, M) as cholM @ g for standard normal g."""
    n = 1 if size is None else int(size)
    g = rng.generator.standard_normal((n, shape.dim))
    out = g @ shape.cholM.T
    return out[0] if size is None else out


def sample_mv_cauchy(shape: ShapeMatrix, rng: RngStream,
                     size: int | None = None) -> np.ndarray:
    """Draw from Cauchy(0, M) as u / v with u ~ N(0, M), v ~ N(0, 1)."""
    n = 1 if size is None else int(size)
    u = sample_mvn(shape, rng, size=n)
    v = rng.generator.standard_normal(n)
    tiny = np.abs(v) < 1e-300
    while tiny.any():
        v[tiny] = rng.generator.standard_normal(int(tiny.sum()))
        tiny = np.abs(v) < 1e-300
    out = u / v[:, None]
    return out[0] if size is None else out


def sample_mv_t(nu: float, shape: ShapeMatrix, rng: RngStream,
                size: int | None = None) -> np.ndarray:
    """Draw from the multivariate t with 2*nu degrees of freedom, shape M.

    u * sqrt(2 nu / v) for u ~ N(0, M) and v ~ chi-squared(2 nu).
    """
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    n = 1 if size is None else int(size)
    u = sample_mvn(shape, rng, size=n)
    v = rng.generator.chisquare(2.0 * nu, size=n)
    tiny = v < 1e-300
    while tiny.any():
        v[tiny] = rng.generator.chisquare(2.0 * nu, size=int(tiny.sum()))
        tiny = v < 1e-300
    out = u * np.sqrt(2.0 * nu / v)[:, None]
    return out[0] if size is None else out


def stable_scale_sigma(alpha: float) -> float:
    """Scale making sqrt(A) * N(0, M) have characteristic function e^{-||u||_M^alpha}."""
    return 2.0 * np.cos(np.pi * alpha / 4.0) ** (2.0 / alpha)


def sample_ec_stable(alpha: float, shape: ShapeMatrix, rng: RngStream,
                     size: int | None = None) -> np.ndarray:
    """Draw from the elliptically contoured alpha-stable law, alpha in (0, 2).

    sqrt(A) * G with A one-sided stable S(alpha/2, 1, 2 cos^{2/alpha}(pi alpha / 4))
    and G ~ N(0, M); every projection u^T X is S(alpha, 0, ||u||_M).
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    n = 1 if size is None else int(size)
    params = StableParams(alpha / 2.0, 1.0, stable_scale_sigma(alpha))
    a = np.atleast_1d(sample_stable_cms(params, rng, size=n))
    g = sample_mvn(shape, rng, size=n)
    out = np.sqrt(a)[:, None] * g
    return out[0] if size is None else out
