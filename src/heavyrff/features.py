"""Random feature constructions approximating the exact kernels.

Two schemes are provided. RFF stacks p i.i.d. draws from the kernel's
Fourier-transform law as rows of W and maps x -> psi(W x). ORF replaces the
directions with stacked Haar-orthogonal blocks Q, keeps the norm law in a
diagonal S, and maps x -> psi(S Q sqrt(M) x). The SinCos nonlinearity psi
stores interleaved (cos, sin) pairs scaled by 1/sqrt(p), so feature rows have
unit Euclidean norm and Gram entries are averages of cos(w^T (x - z)).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import GbpParams, sample_chi, sample_gbp
from .kernels import EXP_POWER, GAUSSIAN, L1_LAPLACIAN, LAPLACIAN, MATERN, KernelSpec
from .multivariate import (HaarBlockMatrix, ShapeMatrix, sample_ec_stable,
                           sample_haar_blocks, sample_mv_cauchy, sample_mv_t,
                           sample_mvn, sample_stable_mixing)
from .rng import RngStream

__all__ = [
    "FeatureOperator",
    "FeatureMatrix",
    "psi",
    "build_rff",
    "build_orf",
    "build_operator",
    "featurize",
    "gram_approx",
    "operator_record",
    "operator_from_record",
    "save_operator",
    "load_operator",
]

LAYOUT = "interleaved-cos-sin"
RECORD_FORMAT = "heavyrff-operator"
RECORD_VERSION = 1
# a psi worker gets at least this many entries; smaller inputs run serially
_MIN_ENTRIES_PER_WORKER = 2 ** 16


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def psi(u: np.ndarray) -> np.ndarray:
    """SinCos map: (..., p) -> (..., 2p) interleaved (cos u_i, sin u_i)/sqrt(p).

    Large inputs are split by columns over the CPUs this process may run on.
    Every column is computed by the same ufuncs in either case, so the result
    is bit-identical to the serial map.
    """
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("projections must be finite")
    p = u.shape[-1]
    out = np.empty(u.shape[:-1] + (2 * p,))
    scale = np.sqrt(p)

    def sincos(cols: tuple[int, int]) -> None:
        a, b = cols
        np.cos(u[..., a:b], out=out[..., 2 * a:2 * b:2])
        np.sin(u[..., a:b], out=out[..., 2 * a + 1:2 * b:2])
        out[..., 2 * a:2 * b] /= scale

    # numpy's ufuncs release the GIL, so threads run the slices in parallel
    workers = max(1, min(_cpu_count(), p, u.size // _MIN_ENTRIES_PER_WORKER))
    bounds = [p * k // workers for k in range(workers + 1)]
    slices = list(zip(bounds[:-1], bounds[1:]))
    if workers == 1:
        sincos(slices[0])
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(sincos, slices))
    return out


@dataclass
class FeatureOperator:
    """A sampled feature operator, reconstructible bit-for-bit from its seeds.

    RFF holds the p x d weight matrix W; ORF holds the positive diagonal S
    and the stacked Haar blocks Q, and reads sqrt(M) from its kernel's shape.
    """

    scheme: str                 # "rff" | "orf"
    kernel: KernelSpec
    p: int
    seed: int
    stream_id: int
    W: np.ndarray | None = None
    S: np.ndarray | None = None
    Q: HaarBlockMatrix | None = None

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def sqrtM(self) -> np.ndarray:
        return self.kernel.shape.sqrtM

    def project(self, X: np.ndarray) -> np.ndarray:
        """Linear part of the map: W x for RFF, S Q sqrt(M) x for ORF."""
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: {X.shape[-1]} != {self.dim}")
        if self.scheme == "rff":
            return X @ self.W.T
        out = X @ self.sqrtM @ self.Q.Q.T
        out *= self.S
        return out


@dataclass
class FeatureMatrix:
    """n x 2p SinCos feature matrix; every row has unit squared norm."""

    phi: np.ndarray


def _rff_rows(spec: KernelSpec, p: int, rng: RngStream) -> np.ndarray:
    """p draws from the weight law whose characteristic function is the kernel."""
    shape = spec.shape
    if spec.family == GAUSSIAN:
        return sample_mvn(shape, rng, size=p)
    if spec.family == L1_LAPLACIAN:
        # separable kernel: entries i.i.d. standard Cauchy, M plays no role
        return rng.generator.standard_cauchy((p, shape.dim))
    if spec.family == LAPLACIAN:
        return sample_mv_cauchy(shape, rng, size=p)
    if spec.family == MATERN:
        return sample_mv_t(spec.nu, shape, rng, size=p)
    return sample_ec_stable(spec.alpha, shape, rng, size=p)  # exp_power


def _finite_draws(scheme: str, kernel: KernelSpec, draw, *args) -> np.ndarray:
    """``draw(*args)``, refused by name if a value is not finite: tiny alpha or
    nu put the weight laws' tails beyond float range, and a redraw would change
    the values a record reproduces."""
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values = draw(*args)  # the check below names what these would warn of
        if np.isfinite(values).all():
            return values
    except FloatingPointError:  # the stable sampler failed twice
        pass
    param = {EXP_POWER: f" alpha={kernel.alpha}", MATERN: f" nu={kernel.nu}"}
    raise ValueError(f"{scheme} weights for {kernel.family}"
                     f"{param.get(kernel.family, '')} are not finite")


def build_rff(kernel: KernelSpec, p: int, rng: RngStream) -> FeatureOperator:
    """Sample a p x d RFF weight matrix for any of the five kernel families."""
    if p < 1:
        raise ValueError(f"feature count must be >= 1, got {p}")
    rng = rng.fresh()
    W = _finite_draws("rff", kernel, _rff_rows, kernel, p, rng)
    return FeatureOperator("rff", kernel, p, rng.seed, rng.stream_id, W=W)


def _orf_diag(spec: KernelSpec, p: int, d: int, rng: RngStream) -> np.ndarray:
    if spec.family == GAUSSIAN:
        return sample_chi(d, rng, size=p)
    if spec.family == LAPLACIAN:
        return sample_gbp(GbpParams(d / 2.0, 0.5, 2.0, 1.0), rng, size=p)
    if spec.family == MATERN:
        return sample_gbp(GbpParams(d / 2.0, spec.nu, 2.0, np.sqrt(2.0 * spec.nu)),
                          rng, size=p)
    # exp_power: norm of sqrt(A) G is sqrt(A) * chi(d)
    q = sample_chi(d, rng, size=p)
    return q * sample_stable_mixing(spec.alpha, rng, size=p)


def build_orf(kernel: KernelSpec, p: int, rng: RngStream) -> FeatureOperator:
    """Sample an ORF operator x -> S Q sqrt(M) x; requires p to be a multiple of d."""
    if kernel.family == L1_LAPLACIAN:
        raise ValueError("l1_laplacian is not rotationally invariant; ORF does not apply")
    d = kernel.dim
    rng = rng.fresh()
    Q = sample_haar_blocks(p, d, rng)
    S = _finite_draws("orf", kernel, _orf_diag, kernel, p, d, rng)
    return FeatureOperator("orf", kernel, p, rng.seed, rng.stream_id, S=S, Q=Q)


def build_operator(scheme: str, kernel: KernelSpec, p: int,
                   rng: RngStream) -> FeatureOperator:
    if scheme == "rff":
        return build_rff(kernel, p, rng)
    if scheme == "orf":
        return build_orf(kernel, p, rng)
    raise ValueError(f"unknown scheme {scheme!r}")


def featurize(op: FeatureOperator, X: np.ndarray) -> FeatureMatrix:
    """Apply the operator and the SinCos map to every row of X."""
    phi = psi(op.project(np.asarray(X, dtype=float)))
    return FeatureMatrix(phi)


def gram_approx(phi: FeatureMatrix) -> np.ndarray:
    """Phi Phi^T: the Monte-Carlo kernel matrix estimate, unit diagonal."""
    return phi.phi @ phi.phi.T


def operator_record(op: FeatureOperator) -> dict:
    """Versioned record from which the operator can be resampled bit-exactly."""
    k = op.kernel
    return {
        "format": RECORD_FORMAT,
        "version": RECORD_VERSION,
        "scheme": op.scheme,
        "kernel": {
            "family": k.family,
            "alpha": k.alpha,
            "nu": k.nu,
            "M": k.shape.M.tolist(),
        },
        "p": op.p,
        "seed": op.seed,
        "stream_id": op.stream_id,
        "layout": LAYOUT,
    }


def operator_from_record(record: dict) -> FeatureOperator:
    """Rebuild an operator by re-sampling from the recorded seeds."""
    if record.get("format") != RECORD_FORMAT:
        raise ValueError("not an operator record")
    if record.get("version") != RECORD_VERSION:
        raise ValueError(f"unsupported record version {record.get('version')}")
    if record.get("layout") != LAYOUT:
        raise ValueError(f"unsupported feature layout {record.get('layout')}")
    k = record["kernel"]
    spec = KernelSpec(k["family"], ShapeMatrix(np.asarray(k["M"])),
                      alpha=k["alpha"], nu=k["nu"])
    rng = RngStream(record["seed"], record["stream_id"])
    return build_operator(record["scheme"], spec, record["p"], rng)


def save_operator(op: FeatureOperator, path) -> None:
    with open(path, "w") as fh:
        json.dump(operator_record(op), fh, indent=2)


def load_operator(path) -> FeatureOperator:
    with open(path) as fh:
        return operator_from_record(json.load(fh))
