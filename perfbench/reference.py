"""Reference computations that the benchmark checks heavyrff's outputs against.

Written apart from the package on purpose: the exact kernels use their own
distances and ``scipy.special.kv``, the norms use numpy directly, and the
softmax regression reference is fitted with scipy's L-BFGS-B.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, special

BLOCK_ROWS = 256


def distances(X: np.ndarray, Z: np.ndarray, ord: int = 2) -> np.ndarray:
    """Pairwise ``ord``-norm distances, from explicit differences in row blocks."""
    out = np.empty((X.shape[0], Z.shape[0]))
    for i in range(0, X.shape[0], BLOCK_ROWS):
        diff = X[i:i + BLOCK_ROWS, None, :] - Z[None, :, :]
        if ord == 1:
            out[i:i + BLOCK_ROWS] = np.abs(diff).sum(axis=2)
        else:
            out[i:i + BLOCK_ROWS] = np.sqrt((diff * diff).sum(axis=2))
    return out


def matern(r: np.ndarray, nu: float) -> np.ndarray:
    """(2^{1-nu} / Gamma(nu)) t^nu K_nu(t) with t = sqrt(2 nu) r; 1 at r = 0."""
    r = np.asarray(r, dtype=float)
    t = np.sqrt(2.0 * nu) * r
    out = np.ones_like(t)
    pos = t > 0
    out[pos] = 2.0 ** (1.0 - nu) / special.gamma(nu) * t[pos] ** nu * special.kv(nu, t[pos])
    return out


def profile(family: str, r: np.ndarray, alpha: float | None = None,
            nu: float | None = None) -> np.ndarray:
    """Kernel value as a function of the distance (l1 distance for l1_laplacian)."""
    if family == "gaussian":
        return np.exp(-0.5 * r * r)
    if family in ("laplacian", "l1_laplacian"):
        return np.exp(-r)
    if family == "exp_power":
        return np.exp(-r ** alpha)
    if family == "matern":
        return matern(r, nu)
    raise ValueError(f"unknown family {family!r}")


def kernel(family: str, X: np.ndarray, Z: np.ndarray | None = None,
           alpha: float | None = None, nu: float | None = None) -> np.ndarray:
    """Exact kernel matrix for the identity shape matrix."""
    Z = X if Z is None else Z
    r = distances(X, Z, ord=1 if family == "l1_laplacian" else 2)
    return profile(family, r, alpha=alpha, nu=nu)


def rel_errors(K: np.ndarray, G: np.ndarray) -> dict[str, float]:
    """||G - K|| / ||K|| in the Frobenius, operator and nuclear norms."""
    ev_k = np.abs(np.linalg.eigvalsh(K))
    ev_d = np.abs(np.linalg.eigvalsh(G - K))
    return {"frobenius": float(np.linalg.norm(G - K) / np.linalg.norm(K)),
            "operator": float(ev_d.max() / ev_k.max()),
            "nuclear": float(ev_d.sum() / ev_k.sum())}


def loglog_slope(p: list[int], err: list[float]) -> float:
    """Least-squares slope of log(err) against log(p)."""
    return float(np.polyfit(np.log(p), np.log(err), 1)[0])


def ece(probs: np.ndarray, labels: np.ndarray, n_bins: int = 15) -> float:
    """Expected calibration error of the top-class probability, equal-width bins."""
    conf = probs.max(axis=1)
    hit = (probs.argmax(axis=1) == labels).astype(float)
    bins = np.minimum((conf * n_bins).astype(int), n_bins - 1)
    total = 0.0
    for b in np.unique(bins):
        mask = bins == b
        total += mask.sum() * abs(hit[mask].mean() - conf[mask].mean())
    return float(total / len(labels))


def _softmax_objective(flat, P, Y, lam):
    theta = flat.reshape(P.shape[1], Y.shape[1])
    scores = P @ theta
    scores -= scores.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(scores).sum(axis=1))
    probs = np.exp(scores - log_z[:, None])
    obj = np.mean(log_z - (scores * Y).sum(axis=1)) + 0.5 * lam * flat @ flat
    grad = P.T @ (probs - Y) / P.shape[0] + lam * theta
    return obj, grad.ravel()


def fit_softmax(P: np.ndarray, labels: np.ndarray, n_classes: int, lam: float,
                max_iter: int = 500) -> np.ndarray:
    """Softmax cross-entropy + (lam/2)||theta||^2 minimised by L-BFGS-B."""
    Y = np.eye(n_classes)[labels]
    res = optimize.minimize(_softmax_objective, np.zeros(P.shape[1] * n_classes),
                            args=(P, Y, lam), jac=True, method="L-BFGS-B",
                            options={"maxiter": max_iter})
    return res.x.reshape(P.shape[1], n_classes)


def centroid_probs(P_train: np.ndarray, y_train: np.ndarray, P_eval: np.ndarray,
                   n_classes: int) -> np.ndarray:
    """Kernel-mean classifier in feature space: class scores are the mean
    approximate kernel value to each class's training rows, clipped at 0 and
    normalised into probabilities."""
    means = np.stack([P_train[y_train == c].mean(axis=0) for c in range(n_classes)])
    scores = np.clip(P_eval @ means.T, 0.0, None)
    return scores / scores.sum(axis=1, keepdims=True)
