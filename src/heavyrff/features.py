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

from .distributions import GbpParams, finite_draws, sample_chi, sample_gbp
from .kernels import EXP_POWER, GAUSSIAN, L1_LAPLACIAN, LAPLACIAN, MATERN, KernelSpec
from .multivariate import (HaarBlockMatrix, ShapeMatrix, sample_ec_stable,
                           sample_haar_blocks, sample_mv_cauchy, sample_mv_t,
                           sample_mvn, sample_stable_mixing)
from .rng import RngStream, count, real_array, vectors

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
# projections a psi worker copies out, checks and maps at a time
_TILE_ENTRIES = 2 ** 14


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def psi(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """SinCos map: (..., p) -> (..., 2p) interleaved (cos u_i, sin u_i)/sqrt(p).

    The rows are split into contiguous blocks, one per worker thread on the
    CPUs this process may run on (a worker gets at least 2**16 entries, so
    small inputs run serially). A worker walks its block in tiles of about
    2**14 projections, each row's columns upward: it copies a tile out,
    refuses it if it is not finite, and writes its (cos, sin)/sqrt(p) pairs.
    A tile's pairs land at or left of the columns it was read from, so the
    map can run in place: the one ``out`` psi takes is a C-contiguous float64
    array whose right half ``out[..., p:]`` is ``u``. The map holds ``out``
    plus one tile per worker. Every entry goes through the same ufuncs as in
    the serial map, so the result is bit-identical to it. On a non-finite
    projection ``out`` is left partly written.
    """
    u = real_array("psi u", u)
    if u.ndim == 0:
        raise ValueError("psi u must have at least one axis, got a 0-d array")
    p = u.shape[-1]
    shape = u.shape[:-1] + (2 * p,)
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == shape
              and out.flags.c_contiguous and u.ctypes.data == out[..., p:].ctypes.data
              and u.strides == out[..., p:].strides):
        raise ValueError(f"psi out must be a C-contiguous float64 array of shape {shape} "
                         f"whose right half out[..., p:] is u")
    if u.size == 0:
        return out
    rows_u, rows_out = u.reshape(-1, p), out.reshape(-1, 2 * p)
    n = rows_u.shape[0]
    scale = np.sqrt(p)
    width = min(p, _TILE_ENTRIES)            # a tile is part of one row ...
    height = max(1, _TILE_ENTRIES // p)      # ... or whole rows

    def sincos(block: tuple[int, int]) -> None:
        buf = np.empty(height * width)
        for r in range(*block, height):
            r_end = min(r + height, block[1])
            for c in range(0, p, width):
                c_end = min(c + width, p)
                tile = buf[:(r_end - r) * (c_end - c)].reshape(r_end - r, c_end - c)
                np.copyto(tile, rows_u[r:r_end, c:c_end])
                if not np.isfinite(tile).all():
                    raise ValueError("projections must be finite")
                dest = rows_out[r:r_end, 2 * c:2 * c_end]
                np.cos(tile, out=dest[:, 0::2])
                np.sin(tile, out=dest[:, 1::2])
                dest /= scale

    # numpy's ufuncs release the GIL, so threads map the row blocks in parallel
    workers = max(1, min(_cpu_count(), n, u.size // _MIN_ENTRIES_PER_WORKER))
    bounds = [n * k // workers for k in range(workers + 1)]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    if workers == 1:
        sincos(blocks[0])
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(sincos, blocks))
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

    def project(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Linear part of the map: W x for RFF, S Q sqrt(M) x for ORF, on every
        d-vector along X's last axis.

        X goes through ``rng.vectors`` with d entries before any product. The
        product is written into ``out`` when given (any float64 array of
        shape ``X.shape[:-1] + (p,)``, a strided view included) by the same
        GEMM that would allocate it.
        """
        X = vectors("X", X, self.dim)
        if self.scheme == "rff":
            return np.matmul(X, self.W.T, out=out)
        out = np.matmul(X @ self.sqrtM, self.Q.Q.T, out=out)
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


def _weights(scheme: str, kernel: KernelSpec) -> str:
    """What a build draws, as a refusal names it."""
    param = {EXP_POWER: f" alpha={kernel.alpha}", MATERN: f" nu={kernel.nu}"}
    return f"{scheme} weights for {kernel.family}{param.get(kernel.family, '')}"


def build_rff(kernel: KernelSpec, p: int, rng: RngStream) -> FeatureOperator:
    """Sample a p x d RFF weight matrix for any of the five kernel families."""
    p = count("feature count p", p)
    rng = rng.fresh()
    W = finite_draws(_weights("rff", kernel), _rff_rows, kernel, p, rng)
    return FeatureOperator("rff", kernel, p, rng.seed, rng.stream_id, W=W)


def _orf_diag(spec: KernelSpec, p: int, d: int, rng: RngStream) -> np.ndarray:
    if spec.family == GAUSSIAN:
        return sample_chi(d, rng, size=p)
    if spec.family in (LAPLACIAN, MATERN):
        nu = spec.nu if spec.family == MATERN else 0.5  # Laplacian = Matern at nu = 1/2
        return sample_gbp(GbpParams(d / 2.0, nu, 2.0, np.sqrt(2.0 * nu)), rng, size=p)
    # exp_power: norm of sqrt(A) G is sqrt(A) * chi(d)
    q = sample_chi(d, rng, size=p)
    return q * sample_stable_mixing(spec.alpha, rng, size=p)


def build_orf(kernel: KernelSpec, p: int, rng: RngStream) -> FeatureOperator:
    """Sample an ORF operator x -> S Q sqrt(M) x; requires p to be a multiple of d."""
    p = count("feature count p", p)
    if kernel.family == L1_LAPLACIAN:
        raise ValueError("l1_laplacian is not rotationally invariant; ORF does not apply")
    d = kernel.dim
    rng = rng.fresh()
    Q = sample_haar_blocks(p, d, rng)
    S = finite_draws(_weights("orf", kernel), _orf_diag, kernel, p, d, rng)
    return FeatureOperator("orf", kernel, p, rng.seed, rng.stream_id, S=S, Q=Q)


def build_operator(scheme: str, kernel: KernelSpec, p: int,
                   rng: RngStream) -> FeatureOperator:
    if scheme == "rff":
        return build_rff(kernel, p, rng)
    if scheme == "orf":
        return build_orf(kernel, p, rng)
    raise ValueError(f"unknown scheme {scheme!r}")


def featurize(op: FeatureOperator, X: np.ndarray) -> FeatureMatrix:
    """Apply the operator and the SinCos map to every d-vector along X's last axis.

    X is refused by ``project``, through ``rng.vectors``, before any product.
    Phi is the only array of its size: the projection is written into its
    right half and psi maps it in place, so no separate n x p array exists.
    """
    phi = np.empty(np.shape(X)[:-1] + (2 * op.p,))
    u = phi[..., op.p:]
    op.project(X, out=u)
    psi(u, out=phi)
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
    """Rebuild an operator by re-sampling from the recorded seeds.

    Only the record's own format is checked here; each value is refused by
    name by the constructor or builder that takes it."""
    if not isinstance(record, dict) or record.get("format") != RECORD_FORMAT:
        raise ValueError("not an operator record")
    if record.get("version") != RECORD_VERSION:
        raise ValueError(f"unsupported record version {record.get('version')}")
    if record.get("layout") != LAYOUT:
        raise ValueError(f"unsupported feature layout {record.get('layout')}")
    scheme, kernel, p, seed, stream_id = _fields(
        record, "scheme", "kernel", "p", "seed", "stream_id")
    if not isinstance(kernel, dict):
        raise ValueError(f"operator record field 'kernel' must be an object, got {kernel!r}")
    family, alpha, nu, M = _fields(kernel, "family", "alpha", "nu", "M")
    spec = KernelSpec(family, ShapeMatrix(M), alpha=alpha, nu=nu)
    return build_operator(scheme, spec, p, RngStream(seed, stream_id))


def _fields(record: dict, *keys: str) -> list:
    """The values of ``keys`` in ``record``, refusing by name the first one missing."""
    for key in keys:
        if key not in record:
            raise ValueError(f"operator record lacks {key!r}")
    return [record[key] for key in keys]


def _atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file renamed over it,
    creating missing directories; the file gets the mode ``open(path, "w")`` gives."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:  # under the umask, as "w"; mkstemp's mode is 0600
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_operator(op: FeatureOperator, path) -> None:
    _atomic_write(path, json.dumps(operator_record(op), indent=2, allow_nan=False))


def load_operator(path) -> FeatureOperator:
    with open(path) as fh:
        return operator_from_record(json.load(fh))
