import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from heavyrff import (GbpParams, RngStream, StableParams, gbp_cdf, gbp_pdf,
                      sample_chi, sample_gbp, sample_stable_cms, stable_charfn)
from heavyrff.distributions import finite_draws, redraw_once
from heavyrff.multivariate import ShapeMatrix, sample_mv_t

KS_LEVEL = 0.01
N_KS = 100_000


def chi_pdf(x, k):
    return x ** (k - 1) * np.exp(-x * x / 2) / (special.gamma(k / 2) * 2 ** (k / 2 - 1))


class TestSampleChi:
    def test_rejects_nonpositive_dof(self):
        with pytest.raises(ValueError):
            sample_chi(0.0, RngStream(0), size=1)
        with pytest.raises(ValueError):
            sample_chi(-1.5, RngStream(0), size=1)

    def test_k1_is_folded_normal(self):
        draws = sample_chi(1.0, RngStream(11), size=N_KS)
        _, pvalue = stats.kstest(draws, "foldnorm", args=(0.0,))
        assert pvalue > KS_LEVEL

    def test_squared_mean_matches_chisquare(self):
        draws = sample_chi(5.0, RngStream(12), size=1_000_000)
        assert np.mean(draws ** 2) == pytest.approx(5.0, abs=0.02)

    def test_ecdf_vs_quadrature_cdf(self):
        # oracle: numerically integrate the stated density
        draws = np.sort(sample_chi(3.0, RngStream(13), size=N_KS))
        grid = np.quantile(draws, np.linspace(0.02, 0.98, 25))
        cdf = np.array([integrate.quad(chi_pdf, 0, g, args=(3.0,))[0] for g in grid])
        ecdf = np.searchsorted(draws, grid, side="right") / draws.size
        assert np.abs(ecdf - cdf).max() < 0.005

    def test_squared_draws_pass_chi2_ks(self):
        for k in (1.0, 3.0, 7.5):
            draws = sample_chi(k, RngStream(int(14 + k)), size=N_KS)
            _, pvalue = stats.kstest(draws ** 2, "chi2", args=(k,))
            assert pvalue > KS_LEVEL, f"k={k}"


class TestSampleBetaprime:
    """BetaPrime(a, b) drawn as GBP(a, b, 1, 1)."""

    def test_rejects_nonpositive_shapes(self):
        with pytest.raises(ValueError):
            sample_gbp(GbpParams(0.0, 1.0, 1.0, 1.0), RngStream(0), size=1)
        with pytest.raises(ValueError):
            sample_gbp(GbpParams(1.0, -2.0, 1.0, 1.0), RngStream(0), size=1)

    def test_mean_matches_quadrature(self):
        # oracle: quadrature of x * density; for a=2, b=3 this is a/(b-1) = 1
        dens = lambda x: x ** 1 * (1 + x) ** -5 / special.beta(2.0, 3.0)
        mean, _ = integrate.quad(lambda x: x * dens(x), 0, np.inf)
        assert mean == pytest.approx(1.0, abs=1e-9)
        draws = sample_gbp(GbpParams(2.0, 3.0, 1.0, 1.0), RngStream(21), size=1_000_000)
        assert draws.mean() == pytest.approx(mean, abs=0.01)

    def test_uniform_odds_median(self):
        draws = sample_gbp(GbpParams(1.0, 1.0, 1.0, 1.0), RngStream(22), size=1_000_000)
        assert np.median(draws) == pytest.approx(1.0, abs=0.01)

    def test_heavy_tail_positivity(self):
        draws = sample_gbp(GbpParams(392.0, 0.5, 1.0, 1.0), RngStream(23), size=N_KS)
        assert (draws > 0).all()
        assert np.isfinite(np.quantile(draws, 0.99))

    def test_matches_direct_density(self):
        draws = sample_gbp(GbpParams(2.0, 3.0, 1.0, 1.0), RngStream(24), size=N_KS)
        _, pvalue = stats.kstest(draws, "betaprime", args=(2.0, 3.0))
        assert pvalue > KS_LEVEL


class TestSampleGbp:
    def test_p_q_one_is_betaprime(self):
        # BetaPrime(2, 3) is the ratio of a Gamma(2) and a Gamma(3) draw
        a = sample_gbp(GbpParams(2.0, 3.0, 1.0, 1.0), RngStream(31), size=N_KS)
        g = RngStream(31).generator
        np.testing.assert_array_equal(a, g.gamma(2.0, size=N_KS) / g.gamma(3.0, size=N_KS))

    def test_ks_vs_quadrature_cdf(self):
        params = GbpParams(8.0, 0.5, 2.0, 1.0)  # d=16 norm-of-Cauchy law
        draws = sample_gbp(params, RngStream(32), size=N_KS)
        grid = np.quantile(draws, np.linspace(0.05, 0.95, 15))
        for g in grid:
            quad_cdf, _ = integrate.quad(lambda x: gbp_pdf(params, x), 0, g, limit=200)
            assert gbp_cdf(params, g) == pytest.approx(quad_cdf, abs=1e-7)
        _, pvalue = stats.kstest(draws, lambda x: gbp_cdf(params, x))
        assert pvalue > KS_LEVEL

    def test_matches_norm_of_t_draws(self):
        d, nu = 8, 1.5
        params = GbpParams(d / 2.0, nu, 2.0, np.sqrt(2 * nu))
        gbp = sample_gbp(params, RngStream(33), size=N_KS)
        t_draws = sample_mv_t(nu, ShapeMatrix.identity(d), RngStream(34), size=N_KS)
        norms = np.linalg.norm(t_draws, axis=1)
        a, b = np.sort(gbp), np.sort(norms)
        grid = np.quantile(b, np.linspace(0.01, 0.99, 50))
        gap = np.abs(np.searchsorted(a, grid) / a.size
                     - np.searchsorted(b, grid) / b.size)
        assert gap.max() < 0.01

    def test_shares_stream_with_betaprime(self):
        params = GbpParams(3.0, 2.0, 2.0, 5.0)
        gbp = sample_gbp(params, RngStream(35), size=1000)
        bp = sample_gbp(GbpParams(3.0, 2.0, 1.0, 1.0), RngStream(35), size=1000)
        np.testing.assert_array_equal(gbp, 5.0 * bp ** 0.5)


class TestStableCms:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StableParams(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            StableParams(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            StableParams(1.0, 0.0, -1.0)

    def test_alpha1_is_cauchy(self):
        draws = sample_stable_cms(StableParams(1.0, 0.0, 1.5), RngStream(41), size=N_KS)
        _, pvalue = stats.kstest(draws, "cauchy", args=(0.0, 1.5))
        assert pvalue > KS_LEVEL

    def test_alpha1_skewed_unsupported(self):
        with pytest.raises(ValueError):
            sample_stable_cms(StableParams(1.0, 0.5, 1.0), RngStream(0), size=10)

    def test_alpha2_is_gaussian(self):
        sigma = 0.8
        draws = sample_stable_cms(StableParams(2.0, 0.0, sigma), RngStream(42), size=N_KS)
        _, pvalue = stats.kstest(draws, "norm", args=(0.0, np.sqrt(2) * sigma))
        assert pvalue > KS_LEVEL

    def test_one_sided_for_skewed_small_alpha(self):
        draws = sample_stable_cms(StableParams(0.5, 1.0, 1.0), RngStream(43), size=N_KS)
        assert draws.min() > 0

    def test_charfn_montecarlo(self):
        params = StableParams(0.7, 1.0, 1.0)
        draws = sample_stable_cms(params, RngStream(44), size=1_000_000)
        emp = np.mean(np.exp(1j * draws))
        assert abs(emp - stable_charfn(params, 1.0)) < 0.01

    def test_charfn_grid_symmetric(self):
        n = 1_000_000
        params = StableParams(1.3, 0.0, 1.0)
        draws = sample_stable_cms(params, RngStream(45), size=n)
        for t in np.linspace(-5, 5, 10):
            emp = np.mean(np.exp(1j * t * draws))
            assert abs(emp - stable_charfn(params, t)) < 3 / np.sqrt(n), f"t={t}"


class TestStableCharfn:
    def test_at_zero(self):
        assert stable_charfn(StableParams(0.7, 0.3, 2.0), 0.0) == 1.0 + 0.0j

    def test_cauchy_value(self):
        assert stable_charfn(StableParams(1.0, 0.0, 1.0), 2.0) == pytest.approx(np.exp(-2.0))

    def test_vectorized(self):
        ts = np.array([-1.0, 0.0, 1.0])
        vals = stable_charfn(StableParams(1.5, 0.5, 1.0), ts)
        assert vals.shape == (3,)
        assert vals[1] == 1.0 + 0.0j
        assert vals[0] == np.conj(vals[2])

    def test_overflowing_scale_gives_zero(self):
        # |sigma t|^alpha overflows to inf, and e^{-inf} is 0; pyproject turns
        # the overflow warning, if one escapes, into a failure
        vals = stable_charfn(StableParams(2.0, 1.0, 1e300), np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(vals, [0.0, 1.0, 0.0])


class TestGbpCdf:
    def test_bounds(self):
        params = GbpParams(2.0, 3.0, 1.0, 1.0)
        assert gbp_cdf(params, 0.0) == 0.0
        assert gbp_cdf(params, -1.0) == 0.0
        assert gbp_cdf(params, 1e12) == pytest.approx(1.0)

    def test_value_vs_quadrature(self):
        params = GbpParams(2.0, 3.0, 1.0, 1.0)
        quad_val, _ = integrate.quad(lambda x: gbp_pdf(params, x), 0, 1.0)
        assert gbp_cdf(params, 1.0) == pytest.approx(quad_val, abs=1e-8)

    def test_scale_below_float_range(self):
        # q^p underflows to 0, so x^p / (q^p + x^p) would be 0/0 at x = 0
        params = GbpParams(1.0, 1.0, 4.0, 5e-324)
        np.testing.assert_array_equal(gbp_cdf(params, np.array([-1.0, 0.0, 1e-100, 1.0])),
                                      [0.0, 0.0, 1.0, 1.0])


class TestRedrawOnce:
    def test_one_round_in_index_order_then_nan(self):
        # the bad entries of the first draw are redrawn by one call, in index
        # order; one still bad becomes NaN, and nothing is drawn a third time
        script = [np.array([0.0, 1.0, -1.0, 2.0]), np.array([0.0, 3.0])]
        calls = []

        def draw(k):
            calls.append(k)
            return script[len(calls) - 1].copy()

        out = redraw_once(draw, lambda x: x <= 0.0, 4)
        np.testing.assert_array_equal(out, [np.nan, 1.0, 3.0, 2.0])
        assert calls == [4, 2]

    def test_no_bad_entry_draws_once(self):
        calls = []

        def draw(k):
            calls.append(k)
            return np.arange(1.0, k + 1.0)

        np.testing.assert_array_equal(redraw_once(draw, lambda x: x <= 0.0, 3),
                                      [1.0, 2.0, 3.0])
        assert calls == [3]


class TestFiniteDraws:
    def test_returns_finite_draws(self):
        np.testing.assert_array_equal(finite_draws("x", np.arange, 3), [0, 1, 2])

    def test_names_what_is_not_finite_without_a_warning(self):
        # the draw overflows; the check refuses it by name, and no
        # RuntimeWarning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^huge draws are not finite$"):
                finite_draws("huge draws", lambda: np.array([1e300]) * 1e300)

    def test_stable_draws_still_bad_after_one_round_are_refused(self):
        # alpha = 0.001: most CMS draws overflow, and so do most redraws
        sp = StableParams(0.001, 1.0, 1.0)
        with pytest.raises(ValueError, match="stable draws are not finite"):
            finite_draws("stable draws", sample_stable_cms, sp, RngStream(0), 100)


class TestFiniteParameters:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_law_parameters_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            GbpParams(1.0, 1.0, 1.0, bad)
        with pytest.raises(ValueError, match="positive and finite"):
            StableParams(1.5, 0.0, bad)
        with pytest.raises(ValueError, match="positive and finite"):
            sample_chi(bad, RngStream(0), size=1)
        with pytest.raises(ValueError, match="positive and finite"):
            sample_gbp(GbpParams(1.0, bad, 1.0, 1.0), RngStream(0), size=1)


class TestReproducibility:
    def test_bitwise_equal_sequences(self):
        for fn in (lambda r: sample_chi(2.5, r, size=100),
                   lambda r: sample_gbp(GbpParams(1.5, 2.5, 1.0, 1.0), r, size=100),
                   lambda r: sample_gbp(GbpParams(2, 1, 2, 3), r, size=100),
                   lambda r: sample_stable_cms(StableParams(0.9, 1, 1), r, size=100)):
            a = fn(RngStream(7, 3))
            b = fn(RngStream(7, 3))
            np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_chi(2.0, RngStream(7, 0), size=10)
        b = sample_chi(2.0, RngStream(7, 1), size=10)
        assert not np.array_equal(a, b)

    # int() would read each of these as another integer's draws
    @pytest.mark.parametrize("seed, stream_id, field", [
        pytest.param(5.7, 0, "seed", id="float-seed"),
        pytest.param(True, 0, "seed", id="bool-seed"),
        pytest.param(np.float64(5.0), 0, "seed", id="numpy-float-seed"),
        pytest.param("5", 0, "seed", id="str-seed"),
        pytest.param(5, 2.9, "stream_id", id="float-stream-id"),
        pytest.param(5, False, "stream_id", id="bool-stream-id"),
    ])
    def test_non_integer_ids_are_refused_by_name(self, seed, stream_id, field):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize("seed, stream_id, field, value", [
        (2**64, 0, "seed", 2**64), (-1, 0, "seed", -1), (5, 2**64, "stream_id", 2**64)])
    def test_ids_beyond_64_bits_are_refused_by_name(self, seed, stream_id, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must fit in 64 bits, got {value}$"):
            RngStream(seed, stream_id)

    def test_numpy_integer_ids_are_python_ints(self):
        stream = RngStream(np.uint64(7), np.int32(3))
        assert (type(stream.seed), type(stream.stream_id)) == (int, int)
        np.testing.assert_array_equal(stream.generator.random(4),
                                      RngStream(7, 3).generator.random(4))
