import numpy as np
import pytest
from scipy import stats

from heavyrff import (GbpParams, NotPositiveDefiniteError, RngStream,
                      StableParams, sample_gbp, sample_stable_cms)
from heavyrff.multivariate import (ShapeMatrix, sample_ec_stable,
                                   sample_haar_blocks, sample_mv_cauchy,
                                   sample_mv_t, sample_mvn, sample_stable_mixing,
                                   sqrt_psd)

KS_LEVEL = 0.01


def random_spd(d, seed):
    g = np.random.default_rng(seed)
    a = g.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-14)

    def test_random_spd_roundtrip(self):
        M = random_spd(5, 0)
        R = sqrt_psd(M)
        assert np.linalg.norm(R @ R - M) / np.linalg.norm(M) < 1e-10
        np.testing.assert_allclose(R, R.T, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            sqrt_psd(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            sqrt_psd(np.diag([1.0, 0.0]))


class TestShapeMatrix:
    def test_caches_consistent(self):
        sm = ShapeMatrix(random_spd(6, 1))
        np.testing.assert_allclose(sm.sqrtM @ sm.sqrtM, sm.M,
                                   atol=1e-8 * np.linalg.norm(sm.M))
        np.testing.assert_allclose(sm.cholM @ sm.cholM.T, sm.M, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ShapeMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        # refused by name before the symmetry check, which would warn on
        # inf - inf and let a nan through
        M = np.eye(3)
        M[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ShapeMatrix(M)

    def test_norm_euclidean(self):
        sm = ShapeMatrix.identity(2)
        assert sm.norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
        assert ShapeMatrix.identity(3).norm(np.zeros(3)) == 0.0

    def test_norm_diagonal(self):
        sm = ShapeMatrix.diagonal([4.0, 1.0])
        assert sm.norm(np.array([1.0, 1.0])) == pytest.approx(np.sqrt(5.0))

    def test_norm_dim_mismatch(self):
        with pytest.raises(ValueError):
            ShapeMatrix.identity(3).norm(np.zeros(2))

    def test_norm_refuses_a_0d_u_by_name(self):
        with pytest.raises(ValueError, match=r"^u must have shape \(\.\.\., 2\), got shape \(\)$"):
            ShapeMatrix.identity(2).norm(np.float64(1))

    def test_immutable(self):
        sm = ShapeMatrix.identity(2)
        with pytest.raises(ValueError):
            sm.M[0, 0] = 2.0


class TestHaar:
    def test_orthogonal(self):
        q = sample_haar_blocks(7, 7, RngStream(51)).Q
        np.testing.assert_allclose(q.T @ q, np.eye(7), atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)

    def test_first_column_angle_uniform(self):
        # Haar marginal on the circle for d=2: angle uniform over 16 bins
        n = 100_000
        q = sample_haar_blocks(2 * n, 2, RngStream(52)).blocks
        angles = np.arctan2(q[:, 1, 0], q[:, 0, 0])
        counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
        chi2 = ((counts - n / 16) ** 2 / (n / 16)).sum()
        assert chi2 < stats.chi2.ppf(0.99, df=15)

    def test_left_invariance(self):
        # traces of R Q and Q should be identically distributed for fixed orthogonal R
        rng = RngStream(53)
        R = sample_haar_blocks(4, 4, RngStream(99)).Q
        tr_q = np.trace(sample_haar_blocks(4 * 20_000, 4, rng).blocks, axis1=1, axis2=2)
        tr_rq = np.trace(R @ sample_haar_blocks(4 * 20_000, 4, rng).blocks,
                         axis1=1, axis2=2)
        _, pvalue = stats.ks_2samp(tr_q, tr_rq)
        assert pvalue > KS_LEVEL

    def test_blocks_require_multiple(self):
        with pytest.raises(ValueError):
            sample_haar_blocks(10, 4, RngStream(0))

    @pytest.mark.parametrize("p, d", [(0, 3), (-3, 3), (0, 1), (4, 0)])
    def test_rejects_empty_or_negative_sizes(self, p, d):
        with pytest.raises(ValueError, match="must be a positive multiple"):
            sample_haar_blocks(p, d, RngStream(0))

    def test_blocks_orthogonal(self):
        hb = sample_haar_blocks(12, 4, RngStream(54))
        for block in hb.blocks:
            np.testing.assert_allclose(block.T @ block, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("p, d", [(65536, 16), (16384, 16), (4096, 16), (3072, 12),
                                      (1536, 12), (4096, 64), (12, 3), (8, 1)])
    def test_bit_equal_to_block_by_block_draws(self, p, d):
        # one (p/d, d, d) draw takes the same values as p/d draws of (d, d),
        # and the signs fixed after the loop are the ones fixed inside it
        for seed in (0, 7, 11):
            rng = RngStream(seed)
            expected = np.empty((p, d))
            for k in range(0, p, d):
                q, r = np.linalg.qr(rng.generator.standard_normal((d, d)))
                signs = np.sign(np.diag(r))
                signs[signs == 0.0] = 1.0
                expected[k:k + d] = q * signs
            np.testing.assert_array_equal(sample_haar_blocks(p, d, RngStream(seed)).Q,
                                          expected)

    @pytest.mark.parametrize("blocks", [1, 63, 64, 65, 1000, 4096])
    def test_qr_calls_are_capped_at_64(self, monkeypatch, blocks):
        # contiguous slices, one qr each, sizes within one block of each other
        sizes = []
        qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            sizes.append(a.shape[0] if a.ndim == 3 else 1)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        sample_haar_blocks(2 * blocks, 2, RngStream(56))
        assert len(sizes) == min(blocks, 64)
        assert sum(sizes) == blocks and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("blocks, d", [(65, 4), (1000, 5), (4097, 2), (127, 3)])
    def test_uneven_slices_equal_block_by_block_draws(self, blocks, d):
        for seed in (0, 3):
            rng = RngStream(seed)
            expected = np.empty((blocks, d, d))
            for k in range(blocks):
                q, r = np.linalg.qr(rng.generator.standard_normal((d, d)))
                signs = np.sign(np.diag(r))
                signs[signs == 0.0] = 1.0
                expected[k] = q * signs
            np.testing.assert_array_equal(
                sample_haar_blocks(blocks * d, d, RngStream(seed)).Q,
                expected.reshape(blocks * d, d))

    def test_peak_memory_is_about_one_q(self, traced_growth):
        # the blocks are factored into the drawn stack; a second (p, d)
        # array beside it would double the peak
        Q, peak = traced_growth(lambda: sample_haar_blocks(65536, 16, RngStream(55)).Q)
        assert peak <= 1.15 * Q.nbytes


class TestMvn:
    def test_identity_covariance(self):
        draws = sample_mvn(ShapeMatrix.identity(2), RngStream(61), size=1_000_000)
        np.testing.assert_allclose(np.cov(draws.T), np.eye(2), atol=0.01)

    def test_general_covariance(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        draws = sample_mvn(ShapeMatrix(M), RngStream(62), size=1_000_000)
        np.testing.assert_allclose(np.cov(draws.T), M, atol=0.02)

    def test_single_draw_shape(self):
        x = sample_mvn(ShapeMatrix.identity(3), RngStream(63), size=1)
        assert x.shape == (1, 3)


class TestScaledInPlace:
    @pytest.mark.parametrize("sample", [
        lambda shape, rng: sample_mv_cauchy(shape, rng, 50),
        lambda shape, rng: sample_mv_t(1.5, shape, rng, 50),
        lambda shape, rng: sample_ec_stable(0.7, shape, rng, 50),
        lambda shape, rng: sample_ec_stable(2.0, shape, rng, 50)],
        ids=["cauchy", "t", "stable", "stable-alpha2"])
    def test_returns_the_array_sample_mvn_returned(self, monkeypatch, sample):
        # the heavy-tailed scalars scale the Gaussian draw where it lies
        from heavyrff import multivariate
        drawn = []

        def capture(*args, **kwargs):
            drawn.append(sample_mvn(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(multivariate, "sample_mvn", capture)
        out = sample(ShapeMatrix(random_spd(3, 5)), RngStream(70))
        assert len(drawn) == 1 and np.shares_memory(out, drawn[0])

    def test_bit_equal_to_scaling_a_new_array(self):
        shape, size = ShapeMatrix(random_spd(3, 6)), 400

        def gaussian(rng):
            return rng.generator.standard_normal((size, 3)) @ shape.cholM.T

        rng = RngStream(71)
        expected = gaussian(rng) / rng.generator.standard_normal(size)[:, None]
        np.testing.assert_array_equal(sample_mv_cauchy(shape, RngStream(71), size), expected)
        rng = RngStream(72)
        u = gaussian(rng)
        expected = u * np.sqrt(3.0 / rng.generator.chisquare(3.0, size=size))[:, None]
        np.testing.assert_array_equal(sample_mv_t(1.5, shape, RngStream(72), size), expected)
        rng = RngStream(73)
        a = sample_stable_mixing(0.7, rng, size)
        expected = a[:, None] * gaussian(rng)
        np.testing.assert_array_equal(sample_ec_stable(0.7, shape, RngStream(73), size),
                                      expected)


class TestMvCauchy:
    def test_projections_cauchy(self):
        M = random_spd(3, 4)
        sm = ShapeMatrix(M)
        e = np.array([0.3, -1.0, 0.7])
        draws = sample_mv_cauchy(sm, RngStream(64), size=100_000)
        _, pvalue = stats.kstest(draws @ e, "cauchy", args=(0.0, sm.norm(e)))
        assert pvalue > KS_LEVEL

    def test_symmetric(self):
        draws = sample_mv_cauchy(ShapeMatrix.identity(2), RngStream(65), size=100_000)
        signs = np.sign(draws[:, 0])
        # sign of each coordinate is a fair coin
        assert abs(signs.mean()) < 0.02

    def test_matches_univariate_cms(self):
        d1 = sample_mv_cauchy(ShapeMatrix.identity(1), RngStream(66), size=100_000)[:, 0]
        d2 = sample_stable_cms(StableParams(1.0, 0.0, 1.0), RngStream(67), size=100_000)
        _, pvalue = stats.ks_2samp(d1, d2)
        assert pvalue > KS_LEVEL

    def test_norm_law_is_gbp(self):
        # norm of Cauchy(0, sigma^2 I_d) is GBP(d/2, 1/2, 2, sigma)
        d, sigma = 4, 1.3
        draws = sample_mv_cauchy(ShapeMatrix(sigma ** 2 * np.eye(d)), RngStream(68),
                                 size=100_000)
        gbp = sample_gbp(GbpParams(d / 2, 0.5, 2.0, sigma), RngStream(69), size=100_000)
        _, pvalue = stats.ks_2samp(np.linalg.norm(draws, axis=1), gbp)
        assert pvalue > KS_LEVEL


class TestMvT:
    def test_half_dof_is_cauchy(self):
        sm = ShapeMatrix.identity(3)
        t = sample_mv_t(0.5, sm, RngStream(71), size=100_000)
        c = sample_mv_cauchy(sm, RngStream(72), size=100_000)
        e = np.array([1.0, 0.5, -0.2])
        _, pvalue = stats.ks_2samp(t @ e, c @ e)
        assert pvalue > KS_LEVEL

    def test_large_dof_is_gaussian(self):
        sm = ShapeMatrix(random_spd(2, 5))
        t = sample_mv_t(1e4, sm, RngStream(73), size=100_000)
        e = np.array([0.7, -0.3])
        _, pvalue = stats.kstest(t @ e, "norm", args=(0.0, sm.norm(e)))
        assert pvalue > KS_LEVEL

    def test_norm_law_is_gbp(self):
        d, nu, sigma = 4, 2.5, 0.9
        t = sample_mv_t(nu, ShapeMatrix(sigma ** 2 * np.eye(d)), RngStream(74),
                        size=100_000)
        gbp = sample_gbp(GbpParams(d / 2, nu, 2.0, sigma * np.sqrt(2 * nu)),
                         RngStream(75), size=100_000)
        _, pvalue = stats.ks_2samp(np.linalg.norm(t, axis=1), gbp)
        assert pvalue > KS_LEVEL

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            sample_mv_t(0.0, ShapeMatrix.identity(2), RngStream(0), size=1)


class TestEcStable:
    def test_empirical_cf(self):
        alpha, n = 1.3, 1_000_000
        sm = ShapeMatrix(random_spd(3, 6))
        draws = sample_ec_stable(alpha, sm, RngStream(76), size=n)
        g = np.random.default_rng(0)
        for _ in range(5):
            u = g.standard_normal(3) * 0.5
            target = np.exp(-sm.norm(u) ** alpha)
            emp = np.cos(draws @ u).mean()
            assert abs(emp - target) < 0.005

    def test_alpha1_matches_cauchy(self):
        sm = ShapeMatrix.identity(2)
        s = sample_ec_stable(1.0, sm, RngStream(77), size=100_000)
        c = sample_mv_cauchy(sm, RngStream(78), size=100_000)
        e = np.array([0.8, -0.6])
        _, pvalue = stats.ks_2samp(s @ e, c @ e)
        assert pvalue > KS_LEVEL

    def test_sign_symmetric(self):
        draws = sample_ec_stable(0.8, ShapeMatrix.identity(2), RngStream(79),
                                 size=100_000)
        assert abs(np.sign(draws[:, 0]).mean()) < 0.02

    def test_rejects_alpha_out_of_range(self):
        for alpha in (0.0, 2.5):
            with pytest.raises(ValueError):
                sample_ec_stable(alpha, ShapeMatrix.identity(2), RngStream(0), size=1)

    def test_alpha2_is_sqrt2_gaussian(self):
        # at alpha = 2 the mixing variable is the constant 2: no draw is
        # spent on it, and the rows are sqrt(2) N(0, M) from the same stream
        sm = ShapeMatrix(random_spd(3, 7))
        s = sample_ec_stable(2.0, sm, RngStream(80), size=1000)
        g = np.sqrt(2.0) * sample_mvn(sm, RngStream(80), size=1000)
        assert s.tobytes() == g.tobytes()


class TestEmpiricalCfAllSamplers:
    def test_cf_within_mc_band(self):
        n = 1_000_000
        sm = ShapeMatrix.identity(3)
        u = np.array([0.6, -0.4, 0.2])
        r = np.linalg.norm(u)
        cases = [
            (sample_mvn(sm, RngStream(81), size=n), np.exp(-0.5 * r ** 2)),
            (sample_mv_cauchy(sm, RngStream(82), size=n), np.exp(-r)),
            (sample_mv_t(1.5, sm, RngStream(83), size=n), None),
            (sample_ec_stable(0.7, sm, RngStream(84), size=n), np.exp(-r ** 0.7)),
        ]
        from heavyrff.kernels import matern_profile
        cases[2] = (cases[2][0], matern_profile(1.5, r))
        for draws, target in cases:
            emp = np.cos(draws @ u).mean()
            assert abs(emp - target) < 5 / np.sqrt(n)

    def test_reproducible(self):
        sm = ShapeMatrix(random_spd(3, 7))
        for fn in (lambda r: sample_mvn(sm, r, size=50),
                   lambda r: sample_mv_cauchy(sm, r, size=50),
                   lambda r: sample_mv_t(2.0, sm, r, size=50),
                   lambda r: sample_ec_stable(1.2, sm, r, size=50)):
            np.testing.assert_array_equal(fn(RngStream(5, 9)), fn(RngStream(5, 9)))
