import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.spatial.distance import cdist

from heavyrff import (KernelSpec, RngStream, ShapeMatrix, kernel_eval,
                      kernel_matrix, matern_profile)
from heavyrff.kernels import kernel_profile

# frozen from the quadrature oracle below; equals sqrt(pi/2) * e^{-1}
K_HALF_AT_1 = 0.4610685044478946


def bessel_quadrature(nu, x):
    """Integral representation oracle: K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The integrand is evaluated in log space and cut off once the exponent is
    far below the double-precision floor, so the tails cannot overflow.
    """
    def integrand(t):
        y = abs(nu * t)
        logcosh = y + np.log1p(np.exp(-2 * y)) - np.log(2.0)
        return np.exp(logcosh - x * np.cosh(t))

    upper = np.arccosh(760.0 / x) + 2.0 if x < 700.0 else 1.0
    val, _ = integrate.quad(integrand, 0, upper, limit=400)
    return val


def bessel_k(nu, x):
    """K_nu(x) read off the Matern profile's independent kve path at t = x."""
    profile = matern_profile(nu, x / np.sqrt(2 * nu), method="bessel")
    return profile * special.gamma(nu) * 2 ** (nu - 1) / x ** nu


def matern_mpmath(nu, r):
    """(2^{1-nu}/Gamma(nu)) t^nu K_nu(t), t = sqrt(2 nu) r, at 50 digits."""
    with mpmath.workdps(50):
        nu = mpmath.mpf(nu)
        t = mpmath.sqrt(2 * nu) * mpmath.mpf(r)
        return float(2 ** (1 - nu) / mpmath.gamma(nu) * t ** nu * mpmath.besselk(nu, t))


# deterministic examples, no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_spd(d, seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


class TestKernelSpec:
    def test_family_validation(self):
        sm = ShapeMatrix.identity(2)
        with pytest.raises(ValueError):
            KernelSpec("rbf", sm)
        with pytest.raises(ValueError):
            KernelSpec("exp_power", sm)              # missing alpha
        with pytest.raises(ValueError):
            KernelSpec("exp_power", sm, alpha=2.5)
        with pytest.raises(ValueError):
            KernelSpec("matern", sm)                 # missing nu
        with pytest.raises(ValueError):
            KernelSpec("laplacian", sm, alpha=1.0)   # stray parameter
        with pytest.raises(ValueError):
            KernelSpec("gaussian", sm, nu=1.0)


class TestBesselK:
    def test_half_order_closed_form(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(K_HALF_AT_1, rel=1e-12)
        assert bessel_quadrature(0.5, 1.0) == pytest.approx(K_HALF_AT_1, rel=1e-9)

    def test_vs_quadrature_oracle(self):
        for nu, x in [(1.5, 2.0), (0.3, 0.5), (4.0, 3.0), (10.0, 8.0)]:
            assert bessel_k(nu, x) == pytest.approx(bessel_quadrature(nu, x), rel=1e-10)

    def test_large_argument_no_underflow_loss(self):
        # relative accuracy must survive down near the double-precision floor
        x = 650.0
        expected = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(expected, rel=1e-10)


class TestKernelEval:
    @pytest.mark.parametrize("spec_args", [
        ("gaussian", {}), ("l1_laplacian", {}), ("laplacian", {}),
        ("exp_power", {"alpha": 0.7}), ("matern", {"nu": 1.7}),
    ])
    def test_unit_at_coincident_points(self, spec_args):
        family, kw = spec_args
        spec = KernelSpec(family, ShapeMatrix.identity(3), **kw)
        x = np.array([0.3, -1.0, 2.0])
        assert kernel_eval(spec, x, x) == 1.0

    def test_matern_32_closed_form(self):
        spec = KernelSpec("matern", ShapeMatrix.identity(2), nu=1.5)
        x, z = np.array([1.0, 0.0]), np.array([0.0, 0.5])
        t = np.linalg.norm(x - z)
        assert kernel_eval(spec, x, z) == pytest.approx(
            (1 + np.sqrt(3) * t) * np.exp(-np.sqrt(3) * t), rel=1e-14)

    def test_matern_half_equals_laplacian(self):
        sm = ShapeMatrix(random_spd(4, 0))
        mat = KernelSpec("matern", sm, nu=0.5)
        lap = KernelSpec("laplacian", sm)
        g = np.random.default_rng(1)
        for _ in range(100):
            x, z = g.standard_normal(4), g.standard_normal(4)
            a, b = kernel_eval(mat, x, z), kernel_eval(lap, x, z)
            assert a == pytest.approx(b, rel=1e-10)

    def test_exp_power_one_equals_laplacian(self):
        sm = ShapeMatrix.identity(3)
        ep = KernelSpec("exp_power", sm, alpha=1.0)
        lap = KernelSpec("laplacian", sm)
        g = np.random.default_rng(2)
        x, z = g.standard_normal(3), g.standard_normal(3)
        assert kernel_eval(ep, x, z) == kernel_eval(lap, x, z)

    def test_rejects_nan(self):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        with pytest.raises(ValueError):
            kernel_eval(spec, np.array([np.nan, 0.0]), np.zeros(2))

    def test_shift_invariance(self):
        g = np.random.default_rng(3)
        sm = ShapeMatrix(random_spd(3, 3))
        specs = [KernelSpec("gaussian", sm), KernelSpec("laplacian", sm),
                 KernelSpec("l1_laplacian", sm),
                 KernelSpec("exp_power", sm, alpha=1.4),
                 KernelSpec("matern", sm, nu=2.2)]
        x, z, c = g.standard_normal(3), g.standard_normal(3), g.standard_normal(3)
        for spec in specs:
            assert kernel_eval(spec, x + c, z + c) == pytest.approx(
                kernel_eval(spec, x, z), abs=1e-12)

    def test_anisotropy_reduction(self):
        # K_M(x, z) = K_I(sqrt(M) x, sqrt(M) z) for the M-parameterized families
        g = np.random.default_rng(4)
        sm = ShapeMatrix(random_spd(3, 5))
        eye = ShapeMatrix.identity(3)
        for fam, kw in [("gaussian", {}), ("laplacian", {}),
                        ("exp_power", {"alpha": 0.9}), ("matern", {"nu": 3.0})]:
            spec_m = KernelSpec(fam, sm, **kw)
            spec_i = KernelSpec(fam, eye, **kw)
            x, z = g.standard_normal(3), g.standard_normal(3)
            assert kernel_eval(spec_m, x, z) == pytest.approx(
                kernel_eval(spec_i, sm.sqrtM @ x, sm.sqrtM @ z), rel=1e-10)

    def test_bounds(self):
        g = np.random.default_rng(5)
        sm = ShapeMatrix.identity(4)
        specs = [KernelSpec("gaussian", sm), KernelSpec("laplacian", sm),
                 KernelSpec("exp_power", sm, alpha=0.5),
                 KernelSpec("matern", sm, nu=1.1)]
        for spec in specs:
            for _ in range(20):
                x, z = g.standard_normal(4), g.standard_normal(4)
                v = kernel_eval(spec, x, z)
                assert 0.0 < v < 1.0


class TestMaternProfile:
    def test_closed_vs_bessel_paths(self):
        r = np.concatenate([np.geomspace(1e-6, 20, 500)])
        for nu in (0.5, 1.5, 2.5):
            closed = matern_profile(nu, r, method="closed")
            bessel = matern_profile(nu, r, method="bessel")
            np.testing.assert_allclose(bessel, closed, rtol=1e-8)

    def test_zero_distance_limit(self):
        assert matern_profile(3.7, 0.0) == 1.0
        assert matern_profile(3.7, np.array([0.0, 1.0]))[0] == 1.0

    def test_no_closed_form(self):
        with pytest.raises(ValueError):
            matern_profile(2.0, 1.0, method="closed")
        with pytest.raises(ValueError):
            matern_profile(3.7, 1.0, method="closed")

    def test_ladder_matches_bessel_path(self):
        # stricter than criterion 2's 1e-8
        r = np.geomspace(1e-6, 20.0, 10_000)
        for nu in (1, 2, 3, 3.5, 4, 6, 10, 20, 40):
            np.testing.assert_allclose(matern_profile(nu, r),
                                       matern_profile(nu, r, method="bessel"),
                                       rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("error")
    def test_against_mpmath(self):
        # covers the kve path's overflow at tiny r: it read nan at (4, 1e-100),
        # (60, 1e-5) and (3.7, 1e-120), and inf at (20, 1e-15); where e^{-t}
        # does not underflow, as at nu = 50 and t <= 1e-5, the ladder serves
        # these entries, not the far-tail zero
        r = np.concatenate([[1e-120, 1e-100, 1e-15, 1e-5],
                            np.geomspace(1e-3, 30.0, 12)])
        for nu in (1, 3.5, 4, 20, 3.7, 50, 60, 60.3, 200):
            ref = np.array([matern_mpmath(nu, x) for x in r])
            for method in ("auto", "bessel"):
                np.testing.assert_allclose(matern_profile(nu, r, method=method),
                                           ref, rtol=1e-12, atol=0,
                                           err_msg=f"nu={nu} {method}")

    def test_beyond_the_ladder_range(self):
        # at t = sqrt(400) * 40 = 800 the ladder's e^{-t} underflows to 0
        assert matern_profile(200, 40.0) == pytest.approx(
            matern_mpmath(200, 40.0), rel=1e-12)
        assert matern_profile(4, 1e6) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu", [0.5, 1.3, 2.5, 4.0, 50.0])
    def test_far_tail_is_zero(self, nu):
        # kve is nan from t ~ 1e9 and at t = inf; it read nan from r = 1e9 at
        # nu = 1.3, from r = 3.2e8 at nu = 50, and at r = inf for nu != 1/2
        r = np.array([3.2e8, 1e9, 1e10, 1e100, 1e200, 1e308, np.inf])
        for method in ("auto", "bessel"):
            np.testing.assert_array_equal(matern_profile(nu, r, method=method), 0.0)

    @pytest.mark.parametrize("nu, r", [(1500, 20.0), (1e4, 7.07), (1e4, 20.0),
                                       (1e4, np.array([0.0, 1.0, 20.0, 7.07, 1e6]))])
    @pytest.mark.parametrize("method", ["auto", "bessel"])
    def test_large_nu_overflow_is_named(self, nu, r, method):
        # between t ~ 709 and about nu^2 / 1418 both kve and the ladder's
        # v_nu overflow; the profile read nan there, not its value (9.5e-87
        # at nu = 1e4, r = 20)
        smallest = float(np.min(r[r > 1.0])) if np.ndim(r) else r
        with pytest.raises(ValueError, match=re.escape(f"nu={nu} ") + ".* "
                           + re.escape(f"r={smallest!r};")):
            matern_profile(nu, r, method=method)

    @pytest.mark.filterwarnings("error")
    def test_finite_up_to_nu_1000(self):
        r = np.concatenate([np.linspace(0.0, 60.0, 200_001), np.geomspace(1e-300, 1e12, 2000)])
        for method in ("auto", "bessel"):
            v = matern_profile(1000, r, method=method)
            # 1 + 1 ulp at tiny t, as in the half-integer property below
            assert np.all((v >= 0.0) & (v <= 1.0 + 4 * np.finfo(float).eps))

    def test_rejects_negative_or_nan_distance(self):
        for r in (-1.0, np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match="non-negative"):
                matern_profile(4, r)

    def test_half_integers_bit_equal_literal_forms(self):
        r = np.geomspace(1e-6, 20.0, 10_000)
        t3, t5 = np.sqrt(3.0) * r, np.sqrt(5.0) * r
        literal = {0.5: np.exp(-r), 1.5: (1.0 + t3) * np.exp(-t3),
                   2.5: (1.0 + t5 + t5 * t5 / 3.0) * np.exp(-t5)}
        for nu, expected in literal.items():
            for method in ("auto", "closed"):
                np.testing.assert_array_equal(matern_profile(nu, r, method=method),
                                              expected)

    def test_closed_form_at_seven_halves(self):
        # DLMF 10.49.12: (1 + t + 2t^2/5 + t^3/15) e^{-t}
        r = np.geomspace(1e-6, 20.0, 500)
        t = np.sqrt(7.0) * r
        closed = matern_profile(3.5, r, method="closed")
        np.testing.assert_array_equal(closed, matern_profile(3.5, r))
        np.testing.assert_allclose(closed, (1 + t + 2 * t**2 / 5 + t**3 / 15) * np.exp(-t),
                                   rtol=1e-14)

    def test_scalar_and_matrix_shapes(self):
        assert isinstance(matern_profile(4, 0.7), float)
        R = np.array([[0.0, 0.5], [0.5, 0.0]])
        K = matern_profile(4, R)
        assert K.shape == (2, 2) and K[0, 0] == 1.0 and K[0, 1] == K[1, 0]

    @PROPERTY
    @given(k=st.integers(1, 200),
           r=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=30))
    def test_half_integer_profile_property(self, k, r):
        # in [0, 1], 1 at r = 0, not increasing in r: up to rounding, since
        # t k1e(t) reads 1 + 2 ulp at tiny t
        r = np.sort(np.concatenate([[0.0], r]))
        v = matern_profile(k / 2, r)
        assert v[0] == 1.0
        assert np.all(v >= 0.0) and np.all(v <= 1.0 + 4 * np.finfo(float).eps)
        assert np.all(np.diff(v) <= 1e-14 * v[:-1])


TILED_FAMILIES = [("gaussian", {}), ("l1_laplacian", {}), ("laplacian", {}),
                  ("exp_power", {"alpha": 0.7}), ("matern", {"nu": 4.0}),
                  ("matern", {"nu": 2.5}), ("matern", {"nu": 1.3})]


class TestKernelMatrix:
    @pytest.mark.filterwarnings("error")
    def test_matern_at_the_largest_distances(self):
        # pairwise distances 1e308 and inf (cdist overflows): the kernel is 0
        X = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]])
        for nu in (4.0, 1.3, 50.0):
            K = kernel_matrix(KernelSpec("matern", ShapeMatrix.identity(2), nu=nu), X)
            np.testing.assert_array_equal(K, np.eye(3))

    def test_unit_diagonal_and_symmetric(self):
        g = np.random.default_rng(6)
        X = g.standard_normal((30, 3))
        for fam, kw in [("gaussian", {}), ("laplacian", {}), ("l1_laplacian", {}),
                        ("exp_power", {"alpha": 1.3}), ("matern", {"nu": 0.8})]:
            K = kernel_matrix(KernelSpec(fam, ShapeMatrix.identity(3), **kw), X)
            np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-12)
            np.testing.assert_allclose(K, K.T, atol=1e-12)

    def test_matches_scalar_eval(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, -0.7]])
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        K = kernel_matrix(spec, X)
        for i in range(3):
            for j in range(3):
                assert K[i, j] == pytest.approx(kernel_eval(spec, X[i], X[j]), abs=1e-12)

    def test_positive_semidefinite(self):
        g = np.random.default_rng(7)
        X = g.standard_normal((200, 5))
        K = kernel_matrix(KernelSpec("laplacian", ShapeMatrix.identity(5)), X)
        assert np.linalg.eigvalsh(K).min() >= -1e-8

    def test_rectangular(self):
        g = np.random.default_rng(8)
        X, Z = g.standard_normal((4, 3)), g.standard_normal((6, 3))
        spec = KernelSpec("matern", ShapeMatrix.identity(3), nu=2.5)
        K = kernel_matrix(spec, X, Z)
        assert K.shape == (4, 6)
        assert K[1, 2] == pytest.approx(kernel_eval(spec, X[1], Z[2]), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            kernel_matrix(KernelSpec("laplacian", ShapeMatrix.identity(3)),
                          np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["X", "Z", "X as Z"])
    def test_rejects_nonfinite_inputs(self, where, bad):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        X, Z = np.zeros((3, 2)), np.ones((4, 2))
        (Z if where == "Z" else X)[1, 0] = bad
        with pytest.raises(ValueError, match="inputs must be finite"):
            kernel_matrix(spec, X, None if where == "X as Z" else Z)

    @pytest.mark.parametrize("family, kw", TILED_FAMILIES)
    def test_tiles_equal_the_profile_of_all_distances(self, family, kw):
        # 600 rows: two full tiles of 256 rows and one of 88
        g = np.random.default_rng(9)
        d = 4
        A = g.standard_normal((d, d))
        spec = KernelSpec(family, ShapeMatrix(A @ A.T / d + 0.1 * np.eye(d)), **kw)
        X, Z = g.standard_normal((600, d)), g.standard_normal((300, d))
        if family == "l1_laplacian":
            Xs, Zs, metric = X, Z, "cityblock"
        else:
            Xs, Zs, metric = X @ spec.shape.sqrtM, Z @ spec.shape.sqrtM, "euclidean"
        K = kernel_matrix(spec, X)
        assert np.array_equal(K, kernel_profile(spec, cdist(Xs, Xs, metric=metric)))
        assert np.array_equal(K, K.T)
        KZ = kernel_matrix(spec, X, Z)
        assert np.array_equal(KZ, kernel_profile(spec, cdist(Xs, Zs, metric=metric)))

    @pytest.mark.parametrize("family, kw, bound", [
        ("laplacian", {}, 2.0), ("matern", {"nu": 4.0}, 2.0), ("matern", {"nu": 1.3}, 2.5)])
    def test_holds_k_plus_one_tile(self, family, kw, bound):
        # traced growth in units of n^2 doubles; one full distance matrix
        # and its profile temporaries would take 3 to 7
        n, d = 2048, 6
        g = np.random.default_rng(10)
        X = g.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        spec = KernelSpec(family, ShapeMatrix.identity(d), **kw)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            kernel_matrix(spec, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < bound * 8 * n * n

    @PROPERTY
    @given(family=st.sampled_from([("gaussian", {}), ("l1_laplacian", {}),
                                   ("laplacian", {}), ("exp_power", {"alpha": 0.6}),
                                   ("matern", {"nu": 3.5}), ("matern", {"nu": 4.0}),
                                   ("matern", {"nu": 1.3})]),
           d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_kernel_eval_property(self, family, d, seed):
        # random SPD M; kernel_eval(spec, x, z) is kernel_matrix(spec, X)[i, j]
        name, kw = family
        g = np.random.default_rng(seed)
        A = g.standard_normal((d, d))
        spec = KernelSpec(name, ShapeMatrix(A @ A.T / d + 0.1 * np.eye(d)), **kw)
        X = g.standard_normal((5, d))
        K = kernel_matrix(spec, X)
        for i in range(5):
            for j in range(5):
                assert kernel_eval(spec, X[i], X[j]) == pytest.approx(K[i, j], rel=1e-12)
