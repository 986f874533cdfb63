"""One rule for every count the library takes: an integer >= 1.

``rng.count`` holds the rule and its one refusal text; each callable below
sends its count through it, so every caller meets the same refusal, naming
the argument (the CLI names its flag), and a numpy integer comes back as a
Python int.
"""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyrff import (KernelSpec, RngStream, ShapeMatrix, build_orf, build_rff, cf_check,
                      expected_calibration_error, fit_logistic_features)
from heavyrff.cli import _check_flags
from heavyrff.data import DataSet, make_classification, make_regression, subsample
from heavyrff.features import FeatureMatrix
from heavyrff.harness import measure_approximation

ROOT = Path(__file__).resolve().parent.parent

SPEC = KernelSpec("laplacian", ShapeMatrix.identity(2))
X = np.random.default_rng(0).standard_normal((5, 2))
PHI = FeatureMatrix(np.full((4, 2), 0.5))


def checked_flag(dest):
    """The CLI's check of one parsed integer flag, returning its converted value."""
    def call(value):
        cfg = argparse.Namespace(**{dest: value})
        _check_flags(cfg)
        return vars(cfg)[dest]
    return call


# (callable of the count, the name it is refused by, whether the call returns
# the count as it stores it)
COUNTS = {
    "build_rff-p": (lambda v: build_rff(SPEC, v, RngStream(0)).p, "feature count p", True),
    "build_orf-p": (lambda v: build_orf(SPEC, v, RngStream(0)).p, "feature count p", True),
    "sweep-p": (lambda v: measure_approximation(SPEC, X, "rff", [v], RngStream(0),
                                                norms=("frobenius",))[0]["p"],
                "feature count p", True),
    "sweep-repeats": (lambda v: measure_approximation(SPEC, X, "rff", [2], RngStream(0),
                                                      norms=("frobenius",), repeats=v),
                      "repeats", False),
    "make_classification-n": (lambda v: make_classification(v, 2, 2, RngStream(0)).n,
                              "n", True),
    "make_classification-d": (lambda v: make_classification(3, v, 2, RngStream(0)).d,
                              "d", True),
    "make_classification-n_classes": (lambda v: make_classification(3, 2, v, RngStream(0)),
                                      "n_classes", False),
    "make_regression-n": (lambda v: make_regression(v, 2, RngStream(0)).n, "n", True),
    "make_regression-d": (lambda v: make_regression(3, v, RngStream(0)).d, "d", True),
    "subsample-cap": (lambda v: subsample(DataSet(X, np.arange(5)), v, RngStream(0)).n,
                      "cap", True),
    "ShapeMatrix.identity-d": (lambda v: ShapeMatrix.identity(v).dim, "d", True),
    "expected_calibration_error-n_bins": (
        lambda v: expected_calibration_error(np.eye(2), np.arange(2), n_bins=v),
        "n_bins", False),
    "cf_check-n_samples": (lambda v: cf_check(SPEC, X, v, RngStream(0)), "n_samples", False),
    "fit_logistic_features-max_iter": (
        lambda v: fit_logistic_features(PHI, np.arange(4) % 2, 1e-3, max_iter=v),
        "max_iter", False),
    **{f"cli-{flag}": (checked_flag(dest), flag, True)
       for dest, flag in (("n", "--n"), ("d", "--d"), ("n_classes", "--classes"),
                          ("cap", "--cap"), ("repeats", "--repeats"), ("draws", "--draws"))},
}

NOT_COUNTS = [0, -1, 2.5, True, "3", np.float64(2), None]


@pytest.mark.parametrize("case", COUNTS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(value=st.sampled_from(NOT_COUNTS + [np.int64(2), np.int32(2)]))
def test_every_count_goes_through_the_one_rule(case, value):
    call, name, returns_count = COUNTS[case]
    if isinstance(value, np.signedinteger):
        result = call(value)
        if returns_count:
            assert type(result) is int and result == 2
        return
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer >= 1, "
                                         f"got {re.escape(repr(value))}$"):
        call(value)


def test_the_count_rule_is_written_once():
    holders = sorted(p.name for p in ROOT.glob("src/heavyrff/*.py")
                     if "must be an integer >= 1" in p.read_text(encoding="utf-8"))
    assert holders == ["rng.py"]
