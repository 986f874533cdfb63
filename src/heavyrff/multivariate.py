"""PSD linear algebra and multivariate heavy-tailed samplers.

Provides the anisotropy container :class:`ShapeMatrix` (positive definite M
with its cached symmetric square root and Cholesky factor), Haar-random
orthogonal blocks, and samplers for N(0, M), Cauchy(0, M), the multivariate
t with 2*nu degrees of freedom, and the elliptically contoured alpha-stable
law.
"""

from __future__ import annotations

import numpy as np

from .distributions import StableParams, redraw_once, sample_stable_cms
from .rng import RngStream, count, is_real, vectors

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
_HAAR_QR_CALLS = 64  # most qr calls per Haar stack: fewer grow the temporaries, more cost time


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
        # numpy reads [1, True] as [1, 1], so entries not in a real array are checked one by one
        A = M if isinstance(M, np.ndarray) and M.dtype.kind in "iuf" else np.array(M, dtype=object)
        if (A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0
                or A.dtype == object and not all(map(is_real, A.flat))):
            raise ValueError(f"M must be a nonempty square matrix of real numbers, got {M!r}")
        M = A.astype(float)
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
        return cls(np.eye(count("d", d)))

    @classmethod
    def diagonal(cls, diag: np.ndarray) -> "ShapeMatrix":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    def norm(self, u: np.ndarray) -> float | np.ndarray:
        """Mahalanobis norm sqrt(u^T M u) along u's last axis, computed as
        ||sqrtM @ u||_2; u goes through ``rng.vectors`` with d entries."""
        u = vectors("u", u, self.dim)
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
    One call draws every block, in the order block-by-block draws would take.
    The stack is factored in at most ``_HAAR_QR_CALLS`` contiguous slices, one
    ``qr`` each: numpy's stacked QR runs the same LAPACK calls per block, so Q
    keeps every bit, and each slice's temporaries are a small fraction of Q.
    Each slice's Q is written back over its draw (``qr`` copies its input),
    and one pass over the stack then applies all the signs.
    """
    if p < 1 or d < 1 or p % d != 0:
        raise ValueError(f"feature count p={p} must be a positive multiple "
                         f"of block size d={d} >= 1")
    blocks = p // d
    Q = rng.generator.standard_normal((blocks, d, d))
    signs = np.empty((blocks, d))
    calls = min(blocks, _HAAR_QR_CALLS)
    edges = [blocks * k // calls for k in range(calls + 1)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        Q[lo:hi], r = np.linalg.qr(Q[lo:hi])
        signs[lo:hi] = r.diagonal(axis1=1, axis2=2)
    np.sign(signs, out=signs)
    signs[signs == 0.0] = 1.0
    Q *= signs[:, None, :]
    return HaarBlockMatrix(Q.reshape(p, d))


def sample_mvn(shape: ShapeMatrix, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` rows from N(0, M) as cholM @ g for standard normal g.

    The heavy-tailed samplers scale the returned rows in place, so each holds
    its result plus one (size, d) draw.
    """
    # The result is allocated before g, so that g ends up above it. Once a
    # larger array has been freed, glibc raises its mmap threshold and serves
    # both from the heap, and it returns g's freed block to the system only
    # when nothing lies above it: else the block stays resident.
    out = np.empty((size, shape.dim))
    g = rng.generator.standard_normal((size, shape.dim))
    return np.matmul(g, shape.cholM.T, out=out)


def sample_mv_cauchy(shape: ShapeMatrix, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` rows from Cauchy(0, M) as u / v with u ~ N(0, M), v ~ N(0, 1)."""
    u = sample_mvn(shape, rng, size)  # v is not redrawn: P(|v| < 1e-300) < 1e-299
    u /= rng.generator.standard_normal(size)[:, None]
    return u


def sample_mv_t(nu: float, shape: ShapeMatrix, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` rows from the multivariate t with 2*nu degrees of freedom, shape M.

    u * sqrt(2 nu / v) for u ~ N(0, M) and v ~ chi-squared(2 nu); a v below
    1e-300 is redrawn once by :func:`redraw_once`, and NaN after that.
    """
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    u = sample_mvn(shape, rng, size)
    v = redraw_once(lambda k: rng.generator.chisquare(2.0 * nu, size=k),
                    lambda v: v < 1e-300, size)
    u *= np.sqrt(2.0 * nu / v)[:, None]
    return u


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
    u = sample_mvn(shape, rng, size)
    u *= a[:, None]
    return u
