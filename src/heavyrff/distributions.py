"""Univariate samplers and analytic laws used by the feature constructions.

Covers the Chi, BetaPrime and generalized Beta-prime (GBP) positive laws, and
the univariate alpha-stable family sampled with the Chambers-Mallows-Stuck
(CMS) transform. Analytic CDF / characteristic-function evaluators are
provided where they exist so samplers can be validated statistically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .rng import RngStream

__all__ = [
    "StableParams",
    "GbpParams",
    "sample_chi",
    "sample_betaprime",
    "sample_gbp",
    "sample_stable_cms",
    "stable_charfn",
    "gbp_cdf",
    "gbp_pdf",
]


@dataclass(frozen=True)
class StableParams:
    """Parameters of the zero-location stable law S(alpha, beta, sigma)."""

    alpha: float
    beta: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class GbpParams:
    """Parameters of the generalized Beta-prime law GBP(alpha, beta, p, q)."""

    alpha: float
    beta: float
    p: float
    q: float

    def __post_init__(self):
        for name in ("alpha", "beta", "p", "q"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def sample_chi(k: float, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` values from the Chi distribution with ``k > 0`` degrees of freedom.

    Squaring a draw yields a chi-squared(k) draw; for integer k this is the
    norm of a standard Gaussian vector in k dimensions.
    """
    if not k > 0:
        raise ValueError(f"degrees of freedom must be positive, got {k}")
    return np.sqrt(rng.generator.chisquare(k, size=size))


def sample_betaprime(a: float, b: float, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` values from BetaPrime(a, b), the odds distribution of Beta(a, b).

    Implemented through the two-Gamma representation: with Ga ~ Gamma(a) and
    Gb ~ Gamma(b), Z = Ga/(Ga+Gb) is Beta(a, b) and Z/(1-Z) = Ga/Gb. Taking
    the ratio directly avoids the 1-Z cancellation for Z near 1.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    g = rng.generator
    return g.gamma(a, size=size) / g.gamma(b, size=size)


def sample_gbp(params: GbpParams, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` values q * u**(1/p) with u ~ BetaPrime(alpha, beta)."""
    u = sample_betaprime(params.alpha, params.beta, rng, size=size)
    return params.q * u ** (1.0 / params.p)


def _cms_transform(params: StableParams, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """CMS transform of V ~ Uniform(-pi/2, pi/2) and W ~ Exponential(1)."""
    alpha, beta, sigma = params.alpha, params.beta, params.sigma
    if alpha == 1.0:
        # The exponent (1-alpha)/alpha vanishes, dropping the W factor; the
        # B, C constants below are only finite for beta = 0 (Cauchy).
        if beta != 0.0:
            raise ValueError("alpha=1 with beta != 0 is not supported")
        return sigma * np.tan(v)
    t = np.tan(np.pi * alpha / 2.0)
    b = np.arctan(beta * t) / alpha
    c = (1.0 + beta * beta * t * t) ** (1.0 / (2.0 * alpha))
    s = alpha * (v + b)
    return (sigma * c * np.sin(s) / np.cos(v) ** (1.0 / alpha)
            * (np.cos(v - s) / w) ** ((1.0 - alpha) / alpha))


def sample_stable_cms(params: StableParams, rng: RngStream, size: int) -> np.ndarray:
    """``size`` draws from S(alpha, beta, sigma) via the Chambers-Mallows-Stuck transform.

    Non-finite draws (possible deep in the tail for very small alpha) are
    resampled once; a second failure raises.
    """
    g = rng.generator
    v = g.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    w = g.exponential(1.0, size=size)
    x = _cms_transform(params, v, w)
    bad = ~np.isfinite(x)
    if bad.any():
        v = g.uniform(-np.pi / 2.0, np.pi / 2.0, size=int(bad.sum()))
        w = g.exponential(1.0, size=int(bad.sum()))
        x[bad] = _cms_transform(params, v, w)
        if not np.isfinite(x).all():
            raise FloatingPointError("stable sampler produced non-finite draws twice")
    return x


def stable_charfn(params: StableParams, t: float | np.ndarray) -> complex | np.ndarray:
    """Characteristic function of S(alpha, beta, sigma) at ``t``.

    exp(-|sigma t|^alpha (1 - j beta sgn(t) Phi(t))) with
    Phi = tan(pi alpha / 2) for alpha != 1 and -(2/pi) log|t| at alpha = 1.
    """
    alpha, beta, sigma = params.alpha, params.beta, params.sigma
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if alpha == 1.0:
            phi = np.where(t != 0.0, -(2.0 / np.pi) * np.log(np.abs(t)), 0.0)
        else:
            phi = np.tan(np.pi * alpha / 2.0)
        out = np.exp(-np.abs(sigma * t) ** alpha
                     * (1.0 - 1j * beta * np.sign(t) * phi))
    out = np.where(t == 0.0, 1.0 + 0.0j, out)
    return complex(out) if out.ndim == 0 else out


def gbp_pdf(params: GbpParams, x: float | np.ndarray) -> float | np.ndarray:
    """Density of GBP(alpha, beta, p, q); zero for x < 0."""
    a, b, p, q = params.alpha, params.beta, params.p, params.q
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = (x / q) ** p
        dens = p * (x / q) ** (a * p - 1.0) / (q * special.beta(a, b)
                                               * (1.0 + y) ** (a + b))
    dens = np.where(x < 0.0, 0.0, dens)
    return float(dens) if dens.ndim == 0 else dens


def gbp_cdf(params: GbpParams, x: float | np.ndarray) -> float | np.ndarray:
    """CDF of GBP(alpha, beta, p, q); returns 0 for negative x by convention."""
    a, b, p, q = params.alpha, params.beta, params.p, params.q
    x = np.asarray(x, dtype=float)
    y = np.maximum(x, 0.0) ** p / (q ** p + np.maximum(x, 0.0) ** p)
    out = special.betainc(a, b, y)
    out = np.where(x < 0.0, 0.0, out)
    return float(out) if out.ndim == 0 else out
