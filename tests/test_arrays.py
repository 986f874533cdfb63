"""One rule for every data matrix the library takes: a real, finite, nonempty
2-D array, with d columns where the kernel's dimension applies.

``rng.matrix`` holds the rule and its refusal texts; each callable below sends
one matrix argument through it, so every caller meets the same refusal,
naming the argument, before any work.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyrff import (KernelSpec, RngStream, ShapeMatrix, build_rff, cf_check, evaluate,
                      expected_calibration_error, fit_krr_exact, fit_logistic_features,
                      fit_ridge_features, kernel_eval, kernel_matrix, psi, rel_error)
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


@pytest.mark.parametrize("name, call", [
    ("psi u", psi),
    ("X", lambda u: build_rff(SPEC, 4, RngStream(0)).project(u)),
    ("u", SPEC.shape.norm),
    ("x", lambda u: kernel_eval(SPEC, u, X[0])),
], ids=["psi", "project", "norm", "kernel_eval"])
def test_batched_vectors_refuse_a_string_dtype_by_name(name, call):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be real, got <U3$"):
        call(np.array(["abc"] * 3))


def test_the_matrix_rule_is_written_once():
    texts = ("must be a nonempty 2-D array", "inputs must be finite",
             "matrices must be finite", "probes must be finite", "has no rows")
    holders = {text: sorted(p.name for p in ROOT.glob("src/heavyrff/*.py")
                            if text in p.read_text(encoding="utf-8")) for text in texts}
    assert holders == {text: ["rng.py"] if text == texts[0] else [] for text in texts}
