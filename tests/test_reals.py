"""One rule for every real parameter the library takes: a real number, not a
bool, in the parameter's interval.

``rng.real`` holds the rule and its one refusal text, which names the
parameter and writes its interval as the code does; each callable below sends
one parameter through it, so every caller meets the same refusal, and a numpy
value comes back, or is stored, as a Python float.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavyrff import (GbpParams, KernelSpec, RngStream, ShapeMatrix, StableParams,
                      fit_krr_exact, fit_logistic_features, fit_ridge_features,
                      matern_profile, sample_chi, sample_mv_t)
from heavyrff.data import DataSet, make_classification, make_regression, train_test_split
from heavyrff.features import FeatureMatrix
from heavyrff.multivariate import sample_stable_mixing
from heavyrff.rng import real

ROOT = Path(__file__).resolve().parent.parent

SM = ShapeMatrix.identity(2)
SPEC = KernelSpec("laplacian", SM)
X = np.random.default_rng(0).standard_normal((4, 2))
PHI = FeatureMatrix(np.random.default_rng(1).uniform(-0.5, 0.5, (4, 6)))
LABELS = np.arange(4) % 2
NU = "[2.2250738585072014e-308, 10000.0]"

# (callable of the parameter, the name it is refused by, its interval, a value
# inside it, whether the call returns the parameter as it is stored)
REALS = {
    "StableParams-alpha": (lambda v: StableParams(v).alpha, "alpha", "(0, 2]", 1, True),
    "StableParams-beta": (lambda v: StableParams(1.5, v).beta, "beta", "[-1, 1]", 1, True),
    "StableParams-sigma": (lambda v: StableParams(1.5, 0.0, v).sigma, "sigma", "(0, inf)", 1,
                           True),
    **{f"GbpParams-{name}": (
        lambda v, at=at, name=name: getattr(GbpParams(*[1.0] * at, v, *[1.0] * (3 - at)), name),
        name, "(0, inf)", 2, True)
       for at, name in enumerate(("alpha", "beta", "p", "q"))},
    "sample_chi-k": (lambda v: sample_chi(v, RngStream(0), 3), "k", "(0, inf)", 2, False),
    "sample_mv_t-nu": (lambda v: sample_mv_t(v, SM, RngStream(0), 3), "nu", "(0, inf)", 2,
                       False),
    "sample_stable_mixing-alpha": (lambda v: sample_stable_mixing(v, RngStream(0), 3),
                                   "alpha", "(0, 2]", 1, False),
    "KernelSpec-alpha": (lambda v: KernelSpec("exp_power", SM, alpha=v).alpha, "alpha",
                         "(0, 2]", 1, True),
    "KernelSpec-nu": (lambda v: KernelSpec("matern", SM, nu=v).nu, "nu", NU, 2, True),
    "matern_profile-nu": (lambda v: matern_profile(v, np.array([0.0, 0.5, 2.0])), "nu", NU, 2,
                          False),
    "fit_krr_exact-lambda": (lambda v: fit_krr_exact(SPEC, X, LABELS, v).alphas, "lambda",
                             "[0, inf)", 1, False),
    "fit_ridge_features-lambda": (lambda v: fit_ridge_features(PHI, LABELS, v).theta,
                                  "lambda", "[0, inf)", 1, False),
    "fit_logistic_features-lambda": (lambda v: fit_logistic_features(PHI, LABELS, v).theta,
                                     "lambda", "[0, inf)", 1, False),
    "fit_logistic_features-tol": (
        lambda v: fit_logistic_features(PHI, LABELS, 1e-3, tol=v).theta, "tol", "(0, inf)", 1,
        False),
    "train_test_split-test_fraction": (
        lambda v: train_test_split(DataSet(X, LABELS), v, RngStream(0))[1].X,
        "test_fraction", "(0, 1)", 0.5, False),
    "make_classification-margin": (
        lambda v: make_classification(4, 2, 2, RngStream(0), margin=v).X, "margin", "[0, inf)",
        0, False),
    "make_regression-noise": (lambda v: make_regression(4, 2, RngStream(0), noise=v).y,
                              "noise", "[0, inf)", 1, False),
}

# malformations, and numpy values of the parameter's inside value
KINDS = ["bool", "str", "none", "nan", "inf", "-inf", "low end", "high end",
         "float32", "float64", "int64"]


def value_of(kind, interval, ok):
    """The value ``kind`` names for a parameter with ``interval`` and inside value ``ok``.
    An end is the end itself where the interval excludes it, and the float just
    past it where the interval includes it."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return {
        "bool": True, "str": "1", "none": None,
        "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
        "low end": lo if interval[0] == "(" else float(np.nextafter(lo, -np.inf)),
        "high end": hi if interval[-1] == ")" else float(np.nextafter(hi, np.inf)),
        "float32": np.float32(ok), "float64": np.float64(ok), "int64": np.int64(ok),
    }[kind]


@pytest.mark.parametrize("case", REALS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS))
def test_every_real_goes_through_the_one_rule(case, kind):
    call, name, interval, ok, returns_value = REALS[case]
    value = value_of(kind, interval, ok)
    if kind in ("float32", "float64", "int64"):
        if kind == "int64" and ok != int(ok):  # no integer lies inside
            return
        result = call(value)
        if returns_value:
            assert type(result) is float and result == ok
        else:  # the float the rule made gives the Python float's result, bit for bit
            np.testing.assert_array_equal(result, call(float(ok)))
        return
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number in "
                                         f"{re.escape(interval)}, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("interval, inside, outside", [
    ("(0, inf)", [5e-324, 1.0, 1e308], [0.0, -0.0, float("inf")]),
    ("[0, inf)", [0.0, -0.0, 1e308], [-5e-324, float("inf")]),
    ("(0, 2]", [5e-324, 2.0], [0.0, 2.0000000000000004]),
    ("[-1, 1]", [-1.0, 1.0, 0.0], [-1.0000000000000002, 1.0000000000000002]),
    ("(0, 1)", [0.5, 0.9999999999999999], [0.0, 1.0]),
    (NU, [2.2250738585072014e-308, 1e4], [2.225073858507201e-308, 10000.000000000002]),
])
def test_the_interval_text_reads_each_end(interval, inside, outside):
    for x in inside:
        assert real("x", x, interval) == x
    for x in outside:
        with pytest.raises(ValueError, match=re.escape(f"in {interval}, got {x!r}")):
            real("x", x, interval)


def test_an_integer_beyond_float_range_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^lambda must be a real number in \[0, inf\), "
                                         r"got 1000000000"):
        real("lambda", 10 ** 400, "[0, inf)")


GONE = ["must lie in", "must be positive", "must be >= 0 and finite", "must be > 0 and finite",
        "exp_power needs alpha in", "matern needs nu in", "_check_lambda", "_check_matern_nu"]


def test_the_real_rule_is_written_once():
    sources = {p.name: p.read_text(encoding="utf-8") for p in ROOT.glob("src/heavyrff/*.py")}
    assert sorted(name for name, text in sources.items()
                  if "must be a real number in" in text) == ["rng.py"]
    assert [(name, gone) for name, text in sources.items() for gone in GONE
            if gone in text] == []
