"""Ridge and logistic regression on random features, plus an exact-kernel
ridge baseline and evaluation metrics (accuracy, R-squared, expected
calibration error).

Ridge solvers are dense direct methods at desk scale, with one-hot columns
for multiclass targets. Multinomial logistic regression (softmax
cross-entropy) is fitted by scipy's trust-region Newton-CG (``trust-ncg``)
with exact Hessian-vector products: ``max_iter`` counts Newton iterations and
a fit has converged when the gradient's 2-norm is below ``tol``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix
from .kernels import KernelSpec, kernel_matrix
from .rng import count, matrix, real, real_array

__all__ = [
    "LinearModel",
    "ExactKernelModel",
    "fit_krr_exact",
    "fit_ridge_features",
    "fit_logistic_features",
    "one_hot",
    "clip_renormalize",
    "softmax",
    "expected_calibration_error",
    "r_squared",
    "evaluate",
]

DESK_SCALE_CAP = 20_000


def _one_d(name: str, A) -> np.ndarray:
    """``A`` as an array if it is 1-D: an (n, 1) column would broadcast
    against n predictions to an n x n comparison."""
    A = np.asarray(A)
    if A.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {A.shape}")
    return A


def one_hot(labels: np.ndarray) -> np.ndarray:
    labels = _one_d("labels", labels)
    if labels.dtype.kind not in "iu":
        raise ValueError("labels must be integers")
    if labels.size == 0:
        raise ValueError("labels must not be empty")
    if labels.min() < 0:
        raise ValueError("labels out of range")
    out = np.zeros((labels.shape[0], int(labels.max()) + 1))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def clip_renormalize(scores: np.ndarray) -> np.ndarray:
    """Map raw one-hot regression outputs to probabilities.

    Clip to [0, 1] and renormalize rows; rows that clip to zero fall back to
    the uniform distribution.
    """
    p = np.clip(scores, 0.0, 1.0)
    s = p.sum(axis=1, keepdims=True)
    uniform = np.full_like(p, 1.0 / p.shape[1])
    return np.where(s > 0.0, p / np.where(s > 0.0, s, 1.0), uniform)


@dataclass
class LinearModel:
    """Feature-space linear model; one weight column per output."""

    theta: np.ndarray           # (2p, n_outputs)
    link: str = "identity"      # "identity" (ridge) | "softmax" (logistic)
    converged: bool = True
    grad_norm: float = 0.0
    # logistic solver counts (0 for ridge): Newton iterations, objective
    # evaluations and Hessian-vector products
    n_iter: int = 0
    n_fev: int = 0
    n_hessp: int = 0

    def decision_function(self, phi: FeatureMatrix) -> np.ndarray:
        return matrix("Phi", phi.phi, self.theta.shape[0]) @ self.theta


@dataclass
class ExactKernelModel:
    """Kernel machine sum_i alpha_i K(x, x_i) with coefficient columns per output."""

    alphas: np.ndarray          # (n_train, n_outputs)
    X_train: np.ndarray
    spec: KernelSpec
    link = "identity"           # class constant: ridge outputs on one-hot targets

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return kernel_matrix(self.spec, X, self.X_train) @ self.alphas


def _as_targets(Y: np.ndarray) -> np.ndarray:
    Y = real_array("Y", Y)
    return matrix("Y", Y[:, None] if Y.ndim == 1 else Y)


def _check_rows(name: str, A: np.ndarray, of: str, n: int) -> None:
    """Refuse ``A`` unless it has one row per row of ``of``, which has ``n``."""
    if A.shape[:1] != (n,):
        raise ValueError(f"{name} must have {n} rows, one per row of {of}; got shape {A.shape}")


def _solve_shifted(A: np.ndarray, lam: float, B: np.ndarray) -> np.ndarray:
    """Solve (A + lam I) X = B for an exactly symmetric A, overwriting A with
    its Cholesky factor: A.T is A as an F-ordered view, which LAPACK factors
    without the copy a C-ordered A needs."""
    # imported here so that loading the package does not pay for scipy.linalg
    from scipy.linalg import cho_factor, cho_solve

    A.flat[::A.shape[0] + 1] += lam
    return cho_solve(cho_factor(A.T, lower=True, overwrite_a=True), B)


def fit_krr_exact(spec: KernelSpec, X: np.ndarray, Y: np.ndarray,
                  lam: float) -> ExactKernelModel:
    """Solve (K + lam I) A = Y by Cholesky factorization.

    Y may be real targets (regression) or an n x C one-hot matrix. X goes
    through ``rng.matrix`` with d columns before the desk-scale cap reads its
    rows, and lam through ``rng.real`` with [0, inf). K is factored in place,
    so the fit holds one n x n matrix of doubles beside ``kernel_matrix``'s one
    tile buffer.
    """
    X = matrix("X", X, spec.dim)
    if X.shape[0] > DESK_SCALE_CAP:
        raise ValueError(f"n={X.shape[0]} exceeds the desk-scale cap {DESK_SCALE_CAP}")
    lam = real("lambda", lam, "[0, inf)")
    Y = _as_targets(Y)
    _check_rows("Y", Y, "X", X.shape[0])
    try:
        alphas = _solve_shifted(kernel_matrix(spec, X), lam, Y)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"K + lambda*I is numerically singular ({exc}); use lambda > 0") from exc
    return ExactKernelModel(alphas=alphas, X_train=X, spec=spec)


def fit_ridge_features(phi: FeatureMatrix, Y: np.ndarray, lam: float) -> LinearModel:
    """Ridge regression in feature space: theta = (Phi^T Phi + lam I)^{-1} Phi^T Y.

    When the feature dimension exceeds n the algebraically equivalent dual
    form theta = Phi^T (Phi Phi^T + lam I)^{-1} Y is solved instead, which is
    both cheaper and avoids materializing the 2p x 2p normal matrix. Either
    Gram matrix is factored in place. lam goes through ``rng.real`` with [0, inf).
    """
    lam = real("lambda", lam, "[0, inf)")
    P = matrix("Phi", phi.phi)
    Y = _as_targets(Y)
    _check_rows("Y", Y, "Phi", P.shape[0])
    n, m = P.shape
    try:
        if m <= n or lam == 0.0:
            theta = _solve_shifted(P.T @ P, lam, P.T @ Y)
        else:
            theta = P.T @ _solve_shifted(P @ P.T, lam, Y)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"normal equations are singular ({exc}); use lambda > 0") from exc
    return LinearModel(theta=theta)


def _logistic_objective(theta: np.ndarray, P: np.ndarray, Yoh: np.ndarray,
                        lam: float, keep: dict | None = None) -> tuple[float, np.ndarray]:
    """Objective and gradient at theta; ``keep["S"]`` receives softmax(P theta)."""
    n = P.shape[0]
    scores = P @ theta
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    z = e.sum(axis=1, keepdims=True)
    ce = (np.log(z[:, 0]) - (scores * Yoh).sum(axis=1)).mean()
    obj = ce + 0.5 * lam * float((theta * theta).sum())
    probs = e / z
    if keep is not None:
        keep["S"] = probs
    grad = P.T @ (probs - Yoh) / n + lam * theta
    return obj, grad


def _logistic_hessp(theta: np.ndarray, v: np.ndarray, P: np.ndarray,
                    lam: float, S: np.ndarray | None = None) -> np.ndarray:
    """Hessian of the logistic objective at theta times v:
    P^T [S o (PV - rowsum(S o PV))] / n + lam V with S = softmax(P theta).

    theta and v are (2p, C) matrices or their row-major flattenings; the
    product has the shape of v. ``S``, when given, must be softmax(P theta).
    """
    m = P.shape[1]
    V = v.reshape(m, -1)
    if S is None:
        S = softmax(P @ theta.reshape(m, -1))
    PV = P @ V
    SPV = S * PV
    inner = SPV - S * SPV.sum(axis=1, keepdims=True)
    return (P.T @ inner / P.shape[0] + lam * V).reshape(v.shape)


def fit_logistic_features(phi: FeatureMatrix, labels: np.ndarray, lam: float,
                          tol: float = 1e-6, max_iter: int = 5000) -> LinearModel:
    """Softmax cross-entropy + (lam/2)||theta||^2 by trust-region Newton-CG.

    scipy's ``trust-ncg`` runs on the exact gradient and Hessian-vector products,
    from theta = 0, lam in [0, inf) by ``rng.real``. It stops when the gradient's
    2-norm drops below ``tol`` in (0, inf) (converged) or after ``max_iter`` (a
    count) Newton iterations; a fit that stops unconverged emits a RuntimeWarning
    and is marked as not converged.
    On the lam-strongly convex objective f, a gradient below lam*eps (theta
    within eps of the optimum) or below sqrt(2 lam eps |f|) (less than eps*|f|
    left to gain) also counts as converged, eps = 2^-52. The model carries the
    solver's iteration, evaluation and Hessian-vector product counts.
    """
    # imported here so that loading the package does not pay for scipy.optimize
    from scipy.optimize import minimize

    lam = real("lambda", lam, "[0, inf)")
    tol = real("tol", tol, "(0, inf)")
    max_iter = count("max_iter", max_iter)
    P = matrix("Phi", phi.phi)
    labels = np.asarray(labels)
    _check_rows("labels", labels, "Phi", P.shape[0])
    Yoh = one_hot(labels)
    shape = (P.shape[1], Yoh.shape[1])

    # trust-ncg takes Hessian-vector products at its iterate, which is most
    # often the theta it last evaluated; the objective's softmax serves them
    # bit for bit there, since softmax of max-shifted scores shifts by zero
    last = {"theta": None}

    def objective(t):
        obj, grad = _logistic_objective(t.reshape(shape), P, Yoh, lam, last)
        last["theta"] = t.copy()
        return obj, grad.ravel()

    def hessp(t, v):
        S = last["S"] if np.array_equal(t, last["theta"]) else None
        return _logistic_hessp(t, v, P, lam, S)

    res = minimize(objective, np.zeros(shape).ravel(), method="trust-ncg",
                   jac=True, hessp=hessp,
                   options={"gtol": tol, "maxiter": max_iter})
    gnorm = float(np.linalg.norm(res.jac))
    converged = gnorm < max(tol, lam * 2.0 ** -52, np.sqrt(2 * lam * 2.0 ** -52 * abs(res.fun)))
    if not converged:
        warnings.warn(
            f"logistic fit stopped after {res.nit} iterations "
            f"(max_iter={max_iter}) with gradient norm {gnorm:.3e}: "
            f"{res.message}", RuntimeWarning)
    return LinearModel(theta=res.x.reshape(shape), link="softmax", converged=converged, grad_norm=gnorm,
                       n_iter=int(res.nit), n_fev=int(res.nfev),
                       n_hessp=int(res.nhev))


def expected_calibration_error(probs: np.ndarray, labels: np.ndarray,
                               n_bins: int = 15) -> float:
    """Binned ECE on the max-class probability in ``n_bins`` (a count) equal-width
    bins; ``probs`` goes through ``rng.matrix``, and ``labels`` is 1-D with one
    entry per row."""
    n_bins = count("n_bins", n_bins)
    probs = matrix("probs", probs)
    labels = _one_d("labels", labels)
    _check_rows("labels", labels, "probs", probs.shape[0])
    conf = probs.max(axis=1)
    pred = probs.argmax(axis=1)
    correct = (pred == labels).astype(float)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    idx = np.clip(np.digitize(conf, edges[1:-1]), 0, n_bins - 1)
    n = conf.shape[0]
    ece = 0.0
    for b in range(n_bins):
        mask = idx == b
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        ece += (cnt / n) * abs(correct[mask].mean() - conf[mask].mean())
    return float(ece)


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination of 1-D targets; ``y_pred`` has the shape
    of ``y_true``, one entry per entry and no other axis."""
    y_true = _one_d("y_true", np.asarray(y_true, dtype=float))
    y_pred = np.asarray(y_pred, dtype=float)
    _check_rows("y_pred", y_pred, "y_true", y_true.shape[0])
    y_pred = _one_d("y_pred", y_pred)
    sst = float(((y_true - y_true.mean()) ** 2).sum())
    if sst == 0.0:
        raise ValueError("R^2 is undefined for constant targets")
    sse = float(((y_true - y_pred) ** 2).sum())
    return 1.0 - sse / sst


def evaluate(model, inputs, y_test: np.ndarray, task: str) -> dict:
    """Metrics record: accuracy + ECE for classification, R^2 for regression.

    ``inputs`` is whatever the model consumes: the test FeatureMatrix for
    feature models, raw X for exact kernel models; the model's
    ``decision_function`` sends it through ``rng.matrix``. Classification
    labels must be 1-D, and are refused before any score is computed. R^2
    scores one output: a model with more output columns is refused before
    any metric. The scores are computed once, so an exact model builds its
    test kernel once.
    """
    if task not in ("classification", "regression"):
        raise ValueError(f"unknown task {task!r}")
    if task == "classification":
        y_test = _one_d("labels", y_test)
    scores = model.decision_function(inputs)
    if task == "classification":
        pred = scores.argmax(axis=1)
        probs = softmax(scores) if model.link == "softmax" else clip_renormalize(scores)
        return {
            "accuracy": float((pred == y_test).mean()),
            "ece": expected_calibration_error(probs, y_test),
        }
    if scores.ndim == 2:
        if scores.shape[1] != 1:
            raise ValueError(f"regression needs one output column, got scores of shape "
                             f"{scores.shape}")
        scores = scores[:, 0]
    return {"r2": r_squared(y_test, scores)}
