"""One rule for every data matrix the library takes: a real, finite, nonempty
2-D array, with d columns where the kernel's dimension applies. And one rule
for every batch of d-vectors: a real, finite array of any leading shape whose
last axis is d.

``rng.matrix`` and ``rng.vectors`` hold the rules and their refusal texts;
each callable below sends one argument through one of them, so every caller
meets the same refusal, naming the argument, before any work.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyrff import (KernelSpec, RngStream, ShapeMatrix, build_rff, cf_check, evaluate,
                      expected_calibration_error, featurize, fit_krr_exact,
                      fit_logistic_features, fit_ridge_features, kernel_matrix, psi,
                      rel_error)
from heavyrff.features import FeatureMatrix
from heavyrff.harness import measure_approximation

ROOT = Path(__file__).resolve().parent.parent

SPEC = KernelSpec("laplacian", ShapeMatrix.identity(3))
_g = np.random.default_rng(0)
X = _g.standard_normal((5, 3))
Y = _g.standard_normal((5, 2))
LABELS = np.arange(5) % 2
PHI = _g.uniform(-0.5, 0.5, (5, 4))
K = np.eye(5)
PROBS = np.full((5, 2), 0.5)
LINEAR = fit_logistic_features(FeatureMatrix(PHI), LABELS, 1e-3)
EXACT = fit_krr_exact(SPEC, X, np.eye(2)[LABELS], 1e-3)

# (callable of the matrix, the name it is refused by, a valid matrix, whether
# a d-column rule applies, whether a 1-D array is made a one-column or one-row
# matrix rather than refused)
MATRICES = {
    "kernel_matrix-X": (lambda A: kernel_matrix(SPEC, A), "X", X, True, False),
    "kernel_matrix-Z": (lambda A: kernel_matrix(SPEC, X, A), "Z", X, True, False),
    "sweep-X": (lambda A: measure_approximation(SPEC, A, "rff", [2], RngStream(0),
                                                norms=("frobenius",)), "X", X, True, False),
    "fit_krr_exact-X": (lambda A: fit_krr_exact(SPEC, A, Y, 1e-3), "X", X, True, False),
    "fit_krr_exact-Y": (lambda A: fit_krr_exact(SPEC, X, A, 1e-3), "Y", Y, False, True),
    "fit_ridge_features-Phi": (lambda A: fit_ridge_features(FeatureMatrix(A), Y, 1e-3),
                               "Phi", PHI, False, False),
    "fit_ridge_features-Y": (lambda A: fit_ridge_features(FeatureMatrix(PHI), A, 1e-3),
                             "Y", Y, False, True),
    "fit_logistic_features-Phi": (
        lambda A: fit_logistic_features(FeatureMatrix(A), LABELS, 1e-3),
        "Phi", PHI, False, False),
    "evaluate-Phi": (lambda A: evaluate(LINEAR, FeatureMatrix(A), LABELS, "classification"),
                     "Phi", PHI, True, False),
    "evaluate-X": (lambda A: evaluate(EXACT, A, LABELS, "classification"), "X", X, True, False),
    "rel_error-K": (lambda A: rel_error(A, K), "K", K, False, False),
    "rel_error-G": (lambda A: rel_error(K, A), "G", K, False, False),
    "cf_check-probes": (lambda A: cf_check(SPEC, A, 4, RngStream(0)), "probes", X, True, True),
    "expected_calibration_error-probs": (lambda A: expected_calibration_error(A, LABELS),
                                         "probs", PROBS, False, False),
}


def malformed(kind, A, at):
    """``A`` broken in one way, and the rule's refusal text for it (up to the
    name); ``at`` places a non-finite entry."""
    if kind in ("nan", "+inf", "-inf"):
        A = A.copy()
        A[at[0] % A.shape[0], at[1] % A.shape[1]] = {"nan": np.nan, "+inf": np.inf,
                                                     "-inf": -np.inf}[kind]
        return A, "must be finite"
    if kind == "columns":
        A = np.hstack([A, A[:, :1]])
        return A, f"must have {A.shape[1] - 1} columns, got shape {A.shape}"
    if kind in ("complex", "string"):
        A = A.astype(complex if kind == "complex" else str)
        return A, f"must be real, got {A.dtype}"
    A = {"1-D": A[0], "3-D": A[:, None], "0 rows": A[:0], "0 columns": A[:, :0]}[kind]
    return A, f"must be a nonempty 2-D array, got shape {A.shape}"


KINDS = ["1-D", "3-D", "0 rows", "0 columns", "columns", "complex", "nan", "+inf", "-inf",
         "string"]


# every (argument, malformation) pair that applies: no column count where d
# does not apply, and no 1-D array where one is a valid matrix
PAIRS = [(case, kind) for case, (_, _, _, has_cols, takes_vector) in MATRICES.items()
         for kind in KINDS
         if not (kind == "columns" and not has_cols) and not (kind == "1-D" and takes_vector)]


@pytest.mark.parametrize("case, kind", PAIRS, ids=[f"{case}-{kind}" for case, kind in PAIRS])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(at=st.tuples(st.integers(0, 9), st.integers(0, 9)))
def test_every_matrix_goes_through_the_one_rule(case, kind, at):
    call, name, valid, _, _ = MATRICES[case]
    A, text = malformed(kind, valid, at)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {text}')}$"):
        call(A)


OP = build_rff(SPEC, 4, RngStream(0))

# (callable of the batch, the name it is refused by, the product each valid
# batch gave before the rule: the projection GEMM, psi of it, and the norm of
# the batch times sqrt(M))
VECTORS = {
    "project-X": (OP.project, "X", lambda A: np.matmul(A, OP.W.T)),
    "featurize-X": (lambda A: featurize(OP, A).phi, "X", lambda A: psi(np.matmul(A, OP.W.T))),
    "norm-u": (SPEC.shape.norm, "u",
               lambda A: np.linalg.norm(A @ SPEC.shape.sqrtM, axis=-1)),
}
VECTOR_KINDS = ["0-d", "last axis", "complex", "string", "nan", "+inf", "-inf"]


def malformed_batch(kind, at):
    """X broken in one way, and the vector rule's refusal text for it (up to
    the name); ``at`` places a non-finite entry."""
    if kind in ("0-d", "last axis"):
        A = X[0, 0] if kind == "0-d" else np.hstack([X, X[:, :1]])
        return A, f"must have shape (..., 3), got shape {np.shape(A)}"
    return malformed(kind, X, at)


VECTOR_PAIRS = [(case, kind) for case in VECTORS for kind in VECTOR_KINDS]


@pytest.mark.parametrize("case, kind", VECTOR_PAIRS,
                         ids=[f"{case}-{kind}" for case, kind in VECTOR_PAIRS])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(at=st.tuples(st.integers(0, 9), st.integers(0, 9)))
def test_every_batch_goes_through_the_one_rule(case, kind, at):
    call, name, _ = VECTORS[case]
    A, text = malformed_batch(kind, at)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {text}')}$"):
        call(A)


BATCHES = {"(d,)": X[0], "(n, d)": X, "(a, b, d)": X[:4].reshape(2, 2, 3), "(0, d)": X[:0]}


@pytest.mark.parametrize("case", VECTORS)
def test_valid_batches_keep_their_bits(case):
    call, _, before = VECTORS[case]
    for shape, A in BATCHES.items():
        assert np.array_equal(call(A), before(A)), shape


def test_batched_vectors_refuse_a_string_dtype_by_name():
    # psi's u has no fixed d and is normally a projection just written, so it
    # keeps its own checks outside the vector rule
    with pytest.raises(ValueError, match="^psi u must be real, got <U3$"):
        psi(np.array(["abc"] * 3))


def test_the_matrix_rule_is_written_once():
    # the two rules' texts, then texts they replaced
    ruled = ("must be a nonempty 2-D array", "must have shape (...,", "{name} must be finite")
    texts = ruled + ("inputs must be finite", "matrices must be finite",
                     "probes must be finite", "has no rows", "dimension mismatch")
    holders = {text: sorted(p.name for p in ROOT.glob("src/heavyrff/*.py")
                            if text in p.read_text(encoding="utf-8")) for text in texts}
    assert holders == {text: ["rng.py"] if text in ruled else [] for text in texts}
