import functools
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.spatial.distance import cdist

from heavyrff import KernelSpec, ShapeMatrix, kernel_matrix, matern_profile
from heavyrff import kernels
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


def bessel_route(nu, r):
    """The Matern profile by the kve route alone, whatever nu: the independent
    cross-check of the ladder that matern_profile takes when 2 nu is an integer.
    It is NaN where kve overflows."""
    return kernels._matern_bessel(nu, np.asarray(r, dtype=float))


def bessel_k(nu, x):
    """K_nu(x) read off the Matern profile's independent kve path at t = x."""
    profile = float(bessel_route(nu, x / np.sqrt(2 * nu)))
    return profile * special.gamma(nu) * 2 ** (nu - 1) / x ** nu


@functools.cache
def matern_mpmath(nu, r):
    """(2^{1-nu}/Gamma(nu)) t^nu K_nu(t), t = sqrt(2 nu) r, at 50 digits; 1 at r = 0."""
    if r == 0:
        return 1.0
    with mpmath.workdps(50):
        nu = mpmath.mpf(nu)
        t = mpmath.sqrt(2 * nu) * mpmath.mpf(r)
        return float(2 ** (1 - nu) / mpmath.gamma(nu) * t ** nu * mpmath.besselk(nu, t))


def kve_overflows(nu, r):
    """Where kve(nu, t) is inf at t = sqrt(2 nu) r > 0."""
    t = np.sqrt(2 * nu) * r
    return (t > 0) & np.isinf(special.kve(nu, t))


def assert_kve_route(nu, r):
    """bessel_route is NaN exactly where kve overflows, and equals the mpmath
    profile (at 1e-12) at every other entry."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    overflow = kve_overflows(nu, r)
    out = bessel_route(nu, r)
    np.testing.assert_array_equal(np.isnan(out), overflow, err_msg=f"nu={nu}")
    ref = [matern_mpmath(nu, x) for x in r[~overflow]]
    np.testing.assert_allclose(out[~overflow], ref, rtol=1e-12, atol=0, err_msg=f"nu={nu}")
    return overflow


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

    @pytest.mark.parametrize("nu", [np.inf, -np.inf, np.nan, 0.0, -1.5, 1e4 + 1,
                                    5e-324, 1e-310])
    def test_matern_needs_finite_positive_nu(self, nu):
        with pytest.raises(ValueError, match=re.escape(
                f"nu must be a real number in [2.2250738585072014e-308, 10000.0], got {nu!r}")):
            KernelSpec("matern", ShapeMatrix.identity(2), nu=nu)

    def test_matern_takes_the_largest_nu_of_the_envelope(self):
        assert KernelSpec("matern", ShapeMatrix.identity(2), nu=1e4).nu == 1e4

    def test_matern_takes_the_smallest_normal_nu(self):
        # a subnormal nu overflowed the profile at every r > 0
        nu = np.finfo(float).tiny
        assert KernelSpec("matern", ShapeMatrix.identity(2), nu=nu).nu == nu
        r = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-8, 1e3, 50)])
        assert np.isfinite(matern_profile(nu, r)).all()


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
        assert kernel_matrix(spec, x[None], x[None])[0, 0] == 1.0

    def test_matern_32_closed_form(self):
        spec = KernelSpec("matern", ShapeMatrix.identity(2), nu=1.5)
        x, z = np.array([1.0, 0.0]), np.array([0.0, 0.5])
        t = np.linalg.norm(x - z)
        assert kernel_matrix(spec, x[None], z[None])[0, 0] == pytest.approx(
            (1 + np.sqrt(3) * t) * np.exp(-np.sqrt(3) * t), rel=1e-14)

    def test_matern_half_equals_laplacian(self):
        sm = ShapeMatrix(random_spd(4, 0))
        mat = KernelSpec("matern", sm, nu=0.5)
        lap = KernelSpec("laplacian", sm)
        g = np.random.default_rng(1)
        for _ in range(100):
            x, z = g.standard_normal(4), g.standard_normal(4)
            a = kernel_matrix(mat, x[None], z[None])[0, 0]
            b = kernel_matrix(lap, x[None], z[None])[0, 0]
            assert a == pytest.approx(b, rel=1e-10)

    def test_exp_power_one_equals_laplacian(self):
        sm = ShapeMatrix.identity(3)
        ep = KernelSpec("exp_power", sm, alpha=1.0)
        lap = KernelSpec("laplacian", sm)
        g = np.random.default_rng(2)
        x, z = g.standard_normal(3), g.standard_normal(3)
        assert (kernel_matrix(ep, x[None], z[None])[0, 0]
                == kernel_matrix(lap, x[None], z[None])[0, 0])

    def test_rejects_nan(self):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        with pytest.raises(ValueError):
            kernel_matrix(spec, np.array([np.nan, 0.0])[None], np.zeros(2)[None])

    def test_shift_invariance(self):
        g = np.random.default_rng(3)
        sm = ShapeMatrix(random_spd(3, 3))
        specs = [KernelSpec("gaussian", sm), KernelSpec("laplacian", sm),
                 KernelSpec("l1_laplacian", sm),
                 KernelSpec("exp_power", sm, alpha=1.4),
                 KernelSpec("matern", sm, nu=2.2)]
        x, z, c = g.standard_normal(3), g.standard_normal(3), g.standard_normal(3)
        for spec in specs:
            assert kernel_matrix(spec, (x + c)[None], (z + c)[None])[0, 0] == pytest.approx(
                kernel_matrix(spec, x[None], z[None])[0, 0], abs=1e-12)

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
            assert kernel_matrix(spec_m, x[None], z[None])[0, 0] == pytest.approx(
                kernel_matrix(spec_i, (sm.sqrtM @ x)[None], (sm.sqrtM @ z)[None])[0, 0],
                rel=1e-10)

    def test_bounds(self):
        g = np.random.default_rng(5)
        sm = ShapeMatrix.identity(4)
        specs = [KernelSpec("gaussian", sm), KernelSpec("laplacian", sm),
                 KernelSpec("exp_power", sm, alpha=0.5),
                 KernelSpec("matern", sm, nu=1.1)]
        for spec in specs:
            for _ in range(20):
                x, z = g.standard_normal(4), g.standard_normal(4)
                v = kernel_matrix(spec, x[None], z[None])[0, 0]
                assert 0.0 < v < 1.0


class TestMaternProfile:
    def test_closed_vs_bessel_paths(self):
        r = np.concatenate([np.geomspace(1e-6, 20, 500)])
        for nu in (0.5, 1.5, 2.5):
            closed = matern_profile(nu, r)   # half-integer nu: the closed form
            bessel = bessel_route(nu, r)
            np.testing.assert_allclose(bessel, closed, rtol=1e-8)

    def test_zero_distance_limit(self):
        assert matern_profile(3.7, 0.0) == 1.0
        assert matern_profile(3.7, np.array([0.0, 1.0]))[0] == 1.0

    def test_ladder_matches_bessel_path(self):
        # stricter than criterion 2's 1e-8
        r = np.geomspace(1e-6, 20.0, 10_000)
        for nu in (1, 2, 3, 3.5, 4, 6, 10, 20, 40):
            np.testing.assert_allclose(matern_profile(nu, r), bessel_route(nu, r),
                                       rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("error")
    def test_against_mpmath(self):
        # covers the kve route's overflow at tiny r: it read nan at (4, 1e-100),
        # (60, 1e-5) and (3.7, 1e-120), and inf at (20, 1e-15); where e^{-t}
        # does not underflow, as at nu = 50 and t <= 1e-5, the profile takes
        # these entries from the ladder, not the far-tail zero
        r = np.concatenate([[1e-120, 1e-100, 1e-15, 1e-5],
                            np.geomspace(1e-3, 30.0, 12)])
        overflows = 0
        for nu in (1, 3.5, 4, 20, 3.7, 50, 60, 60.3, 200):
            ref = np.array([matern_mpmath(nu, x) for x in r])
            np.testing.assert_allclose(matern_profile(nu, r), ref, rtol=1e-12, atol=0,
                                       err_msg=f"nu={nu} matern_profile")
            overflows += assert_kve_route(nu, r).sum()
        assert overflows > 0

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
        for route in (matern_profile, bessel_route):
            np.testing.assert_array_equal(route(nu, r), 0.0)

    @pytest.mark.parametrize("nu, r", [(1500, 20.0), (1e4, 7.07), (1e4, 20.0),
                                       (1e4, np.array([0.0, 1.0, 20.0, 7.07, 1e6])),
                                       (1500, np.array([13.5, 13.9, 14.3]))])
    @pytest.mark.parametrize("route", ["auto", "bessel"])
    def test_large_nu_overflow_is_named(self, nu, r, route):
        # between t ~ 708, where the ladder's e^{-t} is subnormal, and about
        # nu^2 / 1418 kve overflows; the profile read nan there, not its value
        # (9.5e-87 at nu = 1e4, r = 20), and at nu = 1500 it read 0.0 at
        # r = 13.9 and 14.3, and 3.288e-39 for 3.279e-39 at r = 13.5
        smallest = float(np.min(r[r > 1.0])) if np.ndim(r) else r
        if route == "bessel":
            r = np.atleast_1d(r)
            overflow = assert_kve_route(nu, r)
            assert float(np.min(r[overflow & (r > 1.0)])) == smallest
            return
        with pytest.raises(ValueError, match=re.escape(f"nu={nu} ") + ".* "
                           + re.escape(f"r={smallest!r};")):
            matern_profile(nu, r)

    @pytest.mark.parametrize("nu", [1e4 + 1, 1e5, 1e300, np.inf, np.nan, 0.0, -2.5, 5e-324])
    def test_nu_outside_the_envelope_is_refused_before_any_work(self, monkeypatch, nu):
        # nu = 1e300 looped forever (m + 1 == m), nu = inf raised an
        # UnboundLocalError, and nu = 1e5 spent seconds before overflowing;
        # the patched routes turn any of those into a quick failure
        def reached(*args):
            raise AssertionError(f"nu={nu} reached a profile route")

        monkeypatch.setattr(kernels, "_matern_ladder", reached)
        monkeypatch.setattr(kernels, "_matern_bessel", reached)
        with pytest.raises(ValueError, match=re.escape(
                f"nu must be a real number in [2.2250738585072014e-308, 10000.0], got {nu!r}")):
            matern_profile(nu, np.array([0.0, 1.0]))

    def test_each_route_leaves_what_it_cannot_give_nan(self, monkeypatch):
        # neither route calls the other; matern_profile alone hands over
        def reached(*args):
            raise AssertionError("one Matern route called the other")

        monkeypatch.setattr(kernels, "_matern_ladder", reached)
        assert np.isnan(bessel_route(60.3, 1e-120))
        monkeypatch.undo()
        monkeypatch.setattr(kernels, "_matern_bessel", reached)
        # at nu = 1500, t = 708 falls at r = 12.93: e^{-t} is subnormal beyond
        out = kernels._matern_ladder(1500, np.array([12.9, 13.0, 20.0]))
        np.testing.assert_array_equal(np.isnan(out), [False, True, True])

    @pytest.mark.filterwarnings("error")
    def test_finite_up_to_nu_1000(self):
        r = np.concatenate([np.linspace(0.0, 60.0, 200_001), np.geomspace(1e-300, 1e12, 2000)])
        v = matern_profile(1000, r)
        # 1 + 1 ulp at tiny t, as in the half-integer property below
        assert np.all((v >= 0.0) & (v <= 1.0 + 4 * np.finfo(float).eps))
        # the kve route alone: NaN where kve overflows, in [0, 1] elsewhere;
        # mpmath takes seconds per entry from t ~ nu on, so it checks r <= 10
        v = bessel_route(1000, r)
        np.testing.assert_array_equal(np.isnan(v), kve_overflows(1000, r))
        v = v[~np.isnan(v)]
        assert np.all((v >= 0.0) & (v <= 1.0 + 4 * np.finfo(float).eps))
        assert_kve_route(1000, [1e-300, 1e-3, 0.5, 1.0, 2.0, 5.0, 10.0, 1e12])

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
            np.testing.assert_array_equal(matern_profile(nu, r), expected)

    def test_closed_form_at_seven_halves(self):
        # DLMF 10.49.12: (1 + t + 2t^2/5 + t^3/15) e^{-t}
        r = np.geomspace(1e-6, 20.0, 500)
        t = np.sqrt(7.0) * r
        closed = matern_profile(3.5, r)
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


# 0, subnormal and tiny r; ordinary r; r whose square is near or past the
# largest double, and r past the largest r^2 at all
PROFILE_R = [0.0, 1e-320, 1e-160, 0.3, 7.5, 1.3e154, 2e154, 1e300]
PROFILE_FAMILIES = [("gaussian", {}), ("l1_laplacian", {}), ("laplacian", {}),
                    ("exp_power", {"alpha": 0.3}), ("exp_power", {"alpha": 1.3}),
                    ("exp_power", {"alpha": 2.0}), ("matern", {"nu": 4.0}),
                    ("matern", {"nu": 1.3})]


class TestKernelProfileOut:
    @pytest.mark.parametrize("family, kw", PROFILE_FAMILIES)
    def test_out_and_r_as_out_are_bit_equal_to_a_new_array(self, family, kw):
        spec = KernelSpec(family, ShapeMatrix.identity(2), **kw)
        r = np.array(PROFILE_R)
        fresh = kernel_profile(spec, r)
        out = np.full_like(r, np.nan)
        assert kernel_profile(spec, r, out=out) is out
        assert out.tobytes() == fresh.tobytes()
        assert kernel_profile(spec, r, out=r) is r
        assert r.tobytes() == fresh.tobytes()
        for x, entry in zip(PROFILE_R, fresh):
            value = kernel_profile(spec, x)
            assert type(value) is float
            assert np.float64(value).tobytes() == entry.tobytes()

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.3, 2.0])
    def test_closed_forms_keep_the_bits_of_their_literal_expressions(self, alpha):
        # the Gaussian's (r r)(-1/2) against -r/2 r, and the ufuncs that
        # write into out against the operators that allocate
        r = np.concatenate([PROFILE_R, np.random.default_rng(12).exponential(3.0, 10**5)])
        with np.errstate(over="ignore"):
            expected = {"gaussian": np.exp(-0.5 * r * r), "laplacian": np.exp(-r),
                        "exp_power": np.exp(-(r ** alpha))}
        for family, value in expected.items():
            spec = KernelSpec(family, ShapeMatrix.identity(2),
                              **({"alpha": alpha} if family == "exp_power" else {}))
            assert kernel_profile(spec, r).tobytes() == value.tobytes()

    @pytest.mark.parametrize("out", [np.empty(3), np.empty((2, 4)), np.empty((2, 3), np.float32),
                                     [[0.0] * 3] * 2], ids=["size", "shape", "dtype", "list"])
    def test_refuses_an_out_it_cannot_fill(self, out):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        with pytest.raises(ValueError, match=r"^kernel_profile out must be a float64 array "
                                             r"of shape \(2, 3\)$"):
            kernel_profile(spec, np.ones((2, 3)), out=out)

    @pytest.mark.parametrize("family, kw", [("gaussian", {}), ("l1_laplacian", {}),
                                            ("laplacian", {}), ("exp_power", {"alpha": 1.0}),
                                            ("matern", {"nu": 2.5}), ("matern", {"nu": 1.3})])
    @pytest.mark.parametrize("r", [-1.0, np.nan, [0.5, np.nan], [[0.5, 2.0], [-5e-324, 1.0]]],
                             ids=["negative", "nan", "nan-entry", "negative-entry"])
    def test_every_family_refuses_a_bad_distance(self, monkeypatch, family, kw, r):
        # all but Matern returned a value: e^1 = 2.718 for r = -1 (0.607 for the
        # Gaussian), and NaN for NaN; each call reads r once, Matern's included
        reads = []
        read = kernels._distances
        monkeypatch.setattr(kernels, "_distances", lambda r: reads.append(1) or read(r))
        spec = KernelSpec(family, ShapeMatrix.identity(2), **kw)
        out = np.zeros(np.shape(r))
        for given_out in (None, out):
            with pytest.raises(ValueError, match="^distance must be non-negative and not NaN$"):
                kernel_profile(spec, r, out=given_out)
        assert len(reads) == 2 and not out.any()
        assert kernel_profile(spec, np.zeros(0)).shape == (0,)


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

    def test_matches_scalar_eval(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, -0.7]])
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        K = kernel_matrix(spec, X)
        for i in range(3):
            for j in range(3):
                assert K[i, j] == pytest.approx(kernel_matrix(spec, X[i][None], X[j][None])[0, 0],
                                                abs=1e-12)

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
        assert K[1, 2] == pytest.approx(kernel_matrix(spec, X[1][None], Z[2][None])[0, 0],
                                        abs=1e-12)

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
        with pytest.raises(ValueError, match=f"^{'Z' if where == 'Z' else 'X'} must be finite$"):
            kernel_matrix(spec, X, None if where == "X as Z" else Z)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 3), ()])
    @pytest.mark.parametrize("where", ["X", "Z"])
    def test_rejects_inputs_not_2d_by_name(self, where, shape):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(3))
        X, Z = np.zeros((2, 3)), np.zeros((5, 3))
        if where == "X":
            X = np.zeros(shape)
        else:
            Z = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"^{where} must be a nonempty 2-D array, got shape "
                                             rf"{re.escape(str(shape))}$"):
            kernel_matrix(spec, X, Z)

    @pytest.mark.parametrize("M, row", [
        ([[4.0, 0.0], [0.0, 1.0]], [1e308, 0.0]),      # 2e308 overflows
        ([[10.0, 9.0], [9.0, 10.0]], [1e308, -1e308])],  # inf - inf is NaN
        ids=["overflow", "nan"])
    @pytest.mark.parametrize("where", ["X", "Z", "X as Z"])
    def test_rejects_rows_that_overflow_times_sqrt_m(self, where, M, row):
        # left unrefused, these rows would make K[0, 0] NaN
        spec = KernelSpec("gaussian", ShapeMatrix(np.array(M)))
        X, Z = np.zeros((2, 2)), np.zeros((3, 2))
        (Z if where == "Z" else X)[0] = row
        with pytest.raises(ValueError, match=r"^inputs times sqrt\(M\) must be finite$"):
            kernel_matrix(spec, X, None if where == "X as Z" else Z)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("shape", ["identity", "anisotropic"])
    @pytest.mark.parametrize("family, kw", TILED_FAMILIES + [("matern", {"nu": 0.8}),
                                                            ("exp_power", {"alpha": 1.3})])
    def test_exactly_symmetric_finite_with_unit_diagonal(self, family, kw, shape, n):
        # what the error sweep scores K on without checking it
        d = 5
        g = np.random.default_rng(n)
        if shape == "identity":
            M = np.eye(d)
        else:  # condition number 100 in a random basis
            basis = np.linalg.qr(g.standard_normal((d, d)))[0]
            M = (basis * np.geomspace(0.1, 10.0, d)) @ basis.T
        K = kernel_matrix(KernelSpec(family, ShapeMatrix(M), **kw),
                          2.0 * g.standard_normal((n, d)))
        assert np.array_equal(K, K.T)
        assert np.isfinite(K).all()
        assert np.array_equal(np.diag(K), np.ones(n))

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
        ("laplacian", {}, None), ("matern", {"nu": 4.0}, 2.0), ("matern", {"nu": 1.3}, 2.5)])
    def test_holds_k_plus_one_tile(self, family, kw, bound, traced_growth):
        # traced growth in units of n^2 doubles; one full distance matrix
        # and its profile temporaries would take 3 to 7. The Laplacian
        # profile writes each tile's distances into K, so it holds K, one
        # TILE x n distance buffer and 1 MiB of slack (bound None); its
        # profile temporaries would add two more buffers.
        n, d = 2048, 6
        g = np.random.default_rng(10)
        X = g.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        spec = KernelSpec(family, ShapeMatrix.identity(d), **kw)
        _, growth = traced_growth(kernel_matrix, spec, X)
        if bound is None:
            assert growth < 8 * n * (n + kernels.TILE) + 2**20
        else:
            assert growth < bound * 8 * n * n

    @pytest.mark.parametrize("family, kw", TILED_FAMILIES[:4])
    def test_against_z_holds_k_alone(self, family, kw, traced_growth):
        # cdist writes each tile into K's rows and the profile maps it there;
        # three tiles of 256 x 600 temporaries would take 3.5 MiB
        g = np.random.default_rng(11)
        d = 6
        X, Z = g.standard_normal((3400, d)), g.standard_normal((600, d))
        spec = KernelSpec(family, ShapeMatrix.identity(d), **kw)
        K, growth = traced_growth(kernel_matrix, spec, X, Z)
        assert growth <= K.nbytes + 2**20

    @PROPERTY
    @given(family=st.sampled_from([("gaussian", {}), ("l1_laplacian", {}),
                                   ("laplacian", {}), ("exp_power", {"alpha": 0.6}),
                                   ("matern", {"nu": 3.5}), ("matern", {"nu": 4.0}),
                                   ("matern", {"nu": 1.3})]),
           d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_kernel_eval_property(self, family, d, seed):
        # random SPD M; one point pair's entry is kernel_matrix(spec, X)[i, j]
        name, kw = family
        g = np.random.default_rng(seed)
        A = g.standard_normal((d, d))
        spec = KernelSpec(name, ShapeMatrix(A @ A.T / d + 0.1 * np.eye(d)), **kw)
        X = g.standard_normal((5, d))
        K = kernel_matrix(spec, X)
        for i in range(5):
            for j in range(5):
                assert kernel_matrix(spec, X[i][None], X[j][None])[0, 0] == pytest.approx(
                    K[i, j], rel=1e-12)
