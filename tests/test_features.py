import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import heavyrff.features as features
from heavyrff import (KernelSpec, RngStream, ShapeMatrix, build_orf,
                      build_rff, featurize, gram_approx, kernel_matrix,
                      load_operator, psi, sample_mv_cauchy, save_operator)
from heavyrff.features import (build_operator, operator_from_record,
                               operator_record)
from heavyrff.harness import measure_approximation

KS_LEVEL = 0.01

# deterministic examples, no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

PIN_M = np.array([[2.0, 0.6, -0.3], [0.6, 1.5, 0.4], [-0.3, 0.4, 1.0]])
# (scheme, family, parameters, drawn values) at seed 2024, stream 7, p = 6,
# M = PIN_M: W[0, 0], W[3, 1], W[-1, -1] for RFF and S[0], S[-1], Q[0, 1],
# Q[-1, -1] for ORF. A change that moves them must bump RECORD_VERSION.
PINNED_DRAWS = [
    ("rff", "gaussian", {}, ("-0x1.64c0016fb6f6ap-2", "0x1.0864d151c083ep-1",
                             "0x1.5986b48be61b3p-1")),
    ("rff", "l1_laplacian", {}, ("0x1.4e2ce1e58fe67p-1", "0x1.fe6fc9e99f187p+0",
                                 "0x1.90ffbfd0ee83cp+0")),
    ("rff", "laplacian", {}, ("0x1.24be83d873c62p-2", "-0x1.67986ff814666p-1",
                              "-0x1.99bf11c1efdd8p-1")),
    ("rff", "matern", {"nu": 1.5}, ("-0x1.9a67eb33af254p-1", "0x1.d72dc7d72351ap-1",
                                    "0x1.0768096093196p-1")),
    ("rff", "exp_power", {"alpha": 1.3}, ("0x1.4bfb8d0356c94p-1", "-0x1.296c8e708b6c0p+1",
                                          "-0x1.480eedd087524p-1")),
    ("rff", "exp_power", {"alpha": 2.0}, ("-0x1.f8854ddd63da8p-2", "0x1.75e8c97ee674ap-1",
                                          "0x1.e8a5d80580af9p-1")),
    ("orf", "gaussian", {}, ("0x1.816f51d0e2d9fp-1", "0x1.22d216f618d97p+1",
                             "-0x1.a4f5b6bb03519p-3", "0x1.52f0c0b78f36fp-1")),
    ("orf", "laplacian", {}, ("0x1.22a6402abbac9p+2", "0x1.14737029d3762p+3",
                              "-0x1.a4f5b6bb03519p-3", "0x1.52f0c0b78f36fp-1")),
    ("orf", "matern", {"nu": 1.5}, ("0x1.8c8a73a204a8ap+0", "0x1.a2cf22817558dp+1",
                                    "-0x1.a4f5b6bb03519p-3", "0x1.52f0c0b78f36fp-1")),
    ("orf", "exp_power", {"alpha": 1.3}, ("0x1.aaf198dc6a496p-1", "0x1.ccf56eb42187ep+1",
                                          "-0x1.a4f5b6bb03519p-3", "0x1.52f0c0b78f36fp-1")),
    ("orf", "exp_power", {"alpha": 2.0}, ("0x1.108b28c0e3b25p+0", "0x1.9b485399a5d6ap+1",
                                          "-0x1.a4f5b6bb03519p-3", "0x1.52f0c0b78f36fp-1")),
    # one t redraw round, which redraws rows 2 and 5
    ("rff", "matern", {"nu": 0.003}, ("-0x1.82961742437f0p+45", "0x1.db5776aaafaedp+74",
                                      "0x1.2f0e6a8dc4e55p+17")),
    # one CMS resample, which redraws S[0], S[1], S[2] and S[4]
    ("orf", "exp_power", {"alpha": 0.002}, ("0x1.87dc6d8749c8ep-7", "0x1.0df07d2ba6d83p-131",
                                            "-0x1.a4f5b6bb03519p-3", "0x1.52f0c0b78f36fp-1")),
]


def spec_for(family, d=4, **kw):
    return KernelSpec(family, ShapeMatrix.identity(d), **kw)


class TestPsi:
    def test_p1_at_zero(self):
        np.testing.assert_array_equal(psi(np.array([0.0])), [1.0, 0.0])

    def test_unit_norm(self):
        g = np.random.default_rng(0)
        u = g.standard_normal((10, 7))
        out = psi(u)
        np.testing.assert_allclose((out ** 2).sum(axis=1), 1.0, atol=1e-12)

    def test_exact_trig_values(self):
        out = psi(np.array([0.0, np.pi / 2]))
        np.testing.assert_allclose(out, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2),
                                   atol=1e-15)

    def test_inner_product_identity(self):
        g = np.random.default_rng(1)
        u, v = g.standard_normal(9), g.standard_normal(9)
        assert psi(u) @ psi(v) == pytest.approx(np.cos(u - v).mean(), abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            psi(np.array([np.inf]))

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4), (2, 0, 5)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_empty_input_maps_to_empty_output(self, shape):
        out = psi(np.empty(shape))
        assert out.shape == shape[:-1] + (2 * shape[-1],)

    def test_refuses_a_0d_input_by_name(self):
        with pytest.raises(ValueError,
                           match="^psi u must have at least one axis, got a 0-d array$"):
            psi(np.float64(0.5))

    # (shape, pool size at 3 CPUs): a worker needs 2**16 entries
    @pytest.mark.parametrize("shape, workers", [
        ((7,), 1), ((1,), 1), ((5, 3), 1), ((200_000, 1), 3),
        ((2, 65_535), 1), ((2, 65_536), 2), ((2, 3, 40_000), 3), ((24, 65_536), 3),
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"w{v}")
    def test_equals_serial_map_bit_for_bit(self, monkeypatch, shape, workers):
        pools = []
        real_pool = features.ThreadPoolExecutor
        monkeypatch.setattr(features, "_cpu_count", lambda: 3)
        monkeypatch.setattr(features, "ThreadPoolExecutor",
                            lambda n: pools.append(n) or real_pool(n))
        g = np.random.default_rng(len(shape))
        # heavy-tailed projections exercise the large-argument reduction
        u = g.standard_cauchy(shape) * 10.0
        p = shape[-1]
        ref = np.empty(shape[:-1] + (2 * p,))
        ref[..., 0::2] = np.cos(u)
        ref[..., 1::2] = np.sin(u)
        ref = ref / np.sqrt(p)
        assert psi(u).tobytes() == ref.tobytes()
        assert pools == ([] if workers == 1 else [workers])

    def test_memory_is_output_plus_one_tile_per_worker(self, monkeypatch, traced_growth):
        # an n x p finiteness mask would add 2 MB, more than the allowance
        workers = 2
        monkeypatch.setattr(features, "_cpu_count", lambda: workers)
        u = np.random.default_rng(7).standard_normal((1000, 2000))
        out, growth = traced_growth(psi, u)
        assert growth <= out.nbytes + workers * 8 * features._TILE_ENTRIES + 2 ** 20

    # a tile spans whole rows (p <= 2**13), part of one row (p > 2**14) or
    # one row; the 3-CPU pool splits the larger inputs into row blocks
    @pytest.mark.parametrize("shape", [(1,), (7,), (5, 3), (3000, 1), (2, 3, 1536),
                                       (2, 65_536), (3, 40_000), (24, 16_384)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_maps_its_right_half_in_place(self, monkeypatch, shape):
        monkeypatch.setattr(features, "_cpu_count", lambda: 3)
        p = shape[-1]
        out = np.empty(shape[:-1] + (2 * p,))
        u = out[..., p:]
        u[...] = np.random.default_rng(p).standard_cauchy(shape) * 10.0
        ref = psi(u.copy())
        assert psi(u, out=out) is out
        assert out.tobytes() == ref.tobytes()

    # psi takes only a C-contiguous float64 out of shape (4, 10) whose right
    # half is u: the first six cases pass a u apart from out
    @pytest.mark.parametrize("make_out, take_u", [
        (lambda: np.empty((4, 9)), None),
        (lambda: np.empty((4, 10), dtype=np.float32), None),
        (lambda: [[0.0] * 10] * 4, None),
        (lambda: np.empty((10, 4)).T, None),
        (lambda: np.empty((4, 20))[:, ::2], None),
        (lambda: np.zeros((4, 10)), None),
        (lambda: np.zeros((4, 10)), lambda out: out[..., :5]),
        (lambda: np.zeros((4, 10)), lambda out: out[..., 1:6]),
        (lambda: np.zeros((4, 10)), lambda out: out[..., 0::2]),
        (lambda: np.zeros((4, 10)), lambda out: out[::-1, 5:]),
    ], ids=["shape", "dtype", "list", "transposed", "strided", "beside-u",
            "left-half", "shifted", "interleaved", "reversed-rows"])
    def test_refuses_an_out_whose_right_half_is_not_u(self, make_out, take_u):
        out = make_out()
        u = np.zeros((4, 5)) if take_u is None else take_u(out)
        with pytest.raises(ValueError, match=r"^psi out must be a C-contiguous float64 array "
                                             r"of shape \(4, 10\) whose right half "
                                             r"out\[\.\.\., p:\] is u$"):
            psi(u, out=out)

    def test_nonfinite_right_half_is_refused(self):
        out = np.zeros((3, 8))
        out[2, 6] = np.nan
        with pytest.raises(ValueError, match="projections must be finite"):
            psi(out[:, 4:], out=out)


class TestBuildRff:
    def test_gaussian_rows_standard_normal(self):
        op = build_rff(spec_for("gaussian"), 50_000, RngStream(101))
        _, pvalue = stats.kstest(op.W.ravel(), "norm")
        assert pvalue > KS_LEVEL

    def test_matern_half_matches_laplacian_row_law(self):
        p = 100_000
        lap = build_rff(spec_for("laplacian"), p, RngStream(102))
        mat = build_rff(spec_for("matern", nu=0.5), p, RngStream(103))
        e = np.array([0.5, -0.2, 0.8, 0.1])
        _, pvalue = stats.ks_2samp(lap.W @ e, mat.W @ e)
        assert pvalue > KS_LEVEL

    def test_l1_rows_iid_cauchy(self):
        op = build_rff(spec_for("l1_laplacian"), 50_000, RngStream(104))
        _, pvalue = stats.kstest(op.W[:, 0], "cauchy")
        assert pvalue > KS_LEVEL
        # entries across a row are independent for the separable kernel
        c = np.corrcoef(np.abs(np.clip(op.W[:, 0], -50, 50)),
                        np.abs(np.clip(op.W[:, 1], -50, 50)))[0, 1]
        assert abs(c) < 0.02

    def test_laplacian_rows_are_coupled(self):
        # one Cauchy divisor per row couples the entries
        op = build_rff(spec_for("laplacian"), 100_000, RngStream(105))
        a = np.abs(np.clip(op.W[:, 0], -50, 50))
        b = np.abs(np.clip(op.W[:, 1], -50, 50))
        assert np.corrcoef(a, b)[0, 1] > 0.1

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            build_rff(spec_for("laplacian"), 0, RngStream(0))

    def test_unknown_scheme_is_refused_by_name(self):
        with pytest.raises(ValueError, match="^unknown scheme 'srf'$"):
            build_operator("srf", spec_for("laplacian"), 4, RngStream(0))


class TestBuildOrf:
    def test_requires_p_multiple_of_d(self):
        with pytest.raises(ValueError):
            build_orf(spec_for("laplacian"), 10, RngStream(0))

    def test_l1_excluded(self):
        with pytest.raises(ValueError):
            build_orf(spec_for("l1_laplacian"), 8, RngStream(0))

    def test_laplacian_diag_matches_cauchy_norms(self):
        d, p = 16, 100_000 - (100_000 % 16)
        op = build_orf(spec_for("laplacian", d=d), p, RngStream(106))
        cauchy = sample_mv_cauchy(ShapeMatrix.identity(d), RngStream(107), size=50_000)
        _, pvalue = stats.ks_2samp(op.S, np.linalg.norm(cauchy, axis=1))
        assert pvalue > KS_LEVEL

    def test_matern_half_diag_matches_laplacian_diag(self):
        d, p = 8, 80_000
        a = build_orf(spec_for("matern", d=d, nu=0.5), p, RngStream(108))
        b = build_orf(spec_for("laplacian", d=d), p, RngStream(109))
        _, pvalue = stats.ks_2samp(a.S, b.S)
        assert pvalue > KS_LEVEL

    def test_gaussian_row_norms_chi(self):
        d, p = 6, 60_000
        op = build_orf(spec_for("gaussian", d=d), p, RngStream(110))
        rows = (op.Q.Q * op.S[:, None])  # sqrtM = I
        _, pvalue = stats.kstest(np.linalg.norm(rows, axis=1), "chi", args=(d,))
        assert pvalue > KS_LEVEL

    def test_diag_positive_blocks_orthogonal(self):
        op = build_orf(spec_for("matern", nu=2.0), 16, RngStream(111))
        assert (op.S > 0).all()
        for block in op.Q.blocks:
            np.testing.assert_allclose(block.T @ block, np.eye(4), atol=1e-10)


def project_then_psi(op, X):
    """The map as a separate projection U, then (cos U, sin U)/sqrt(p) interleaved."""
    if op.scheme == "rff":
        U = X @ op.W.T
    else:
        U = X @ op.sqrtM @ op.Q.Q.T
        U *= op.S
    p = U.shape[-1]
    ref = np.empty(U.shape[:-1] + (2 * p,))
    ref[..., 0::2] = np.cos(U)
    ref[..., 1::2] = np.sin(U)
    return ref / np.sqrt(p)


FAMILY_SCHEMES = [(family, kw, scheme)
                  for family, kw in [("gaussian", {}), ("l1_laplacian", {}), ("laplacian", {}),
                                     ("matern", {"nu": 1.5}), ("exp_power", {"alpha": 1.3})]
                  for scheme in ("rff", "orf") if (family, scheme) != ("l1_laplacian", "orf")]


class TestFeaturize:
    # 24 x 6 runs on one thread, 24 x 6144 (above 2 * 2**16 entries) on two
    @pytest.mark.parametrize("family, kw, scheme", FAMILY_SCHEMES,
                             ids=[f"{family}-{scheme}" for family, _, scheme in FAMILY_SCHEMES])
    @pytest.mark.parametrize("M", [np.eye(3), PIN_M], ids=["identity", "pin-M"])
    @pytest.mark.parametrize("p", [6, 6144])
    def test_equals_project_then_psi(self, monkeypatch, family, kw, scheme, M, p):
        monkeypatch.setattr(features, "_cpu_count", lambda: 3)
        spec = KernelSpec(family, ShapeMatrix(M), **kw)
        op = build_operator(scheme, spec, p, RngStream(122))
        X = np.random.default_rng(9).standard_normal((24, 3)) * 3.0
        assert featurize(op, X).phi.tobytes() == project_then_psi(op, X).tobytes()

    # every n x p up to 24 x 65536 entries; ORF in d = 1 takes every p
    @pytest.mark.parametrize("n, p", [(n, p) for n in (1, 2, 24, 1000)
                                      for p in (1, 3, 4096, 65_536) if n * p <= 24 * 65_536])
    @pytest.mark.parametrize("scheme, d", [("rff", 16), ("orf", 1)])
    def test_sizes_equal_project_then_psi(self, monkeypatch, n, p, scheme, d):
        monkeypatch.setattr(features, "_cpu_count", lambda: 3)
        op = build_operator(scheme, spec_for("laplacian", d=d), p, RngStream(123))
        X = np.random.default_rng(n).standard_normal((n, d))
        assert featurize(op, X).phi.tobytes() == project_then_psi(op, X).tobytes()

    def test_one_row_vector_maps_to_one_feature_row(self):
        op = build_rff(spec_for("laplacian"), 5, RngStream(124))
        x = np.random.default_rng(10).standard_normal(4)
        phi = featurize(op, x).phi
        assert phi.shape == (10,)
        assert phi.tobytes() == featurize(op, x[None, :]).phi[0].tobytes()

    def test_holds_phi_and_no_projection(self, traced_growth):
        op = build_rff(spec_for("laplacian", d=12), 2000, RngStream(125))
        X = np.random.default_rng(11).standard_normal((1000, 12))
        phi, growth = traced_growth(lambda: featurize(op, X).phi)
        # a separate 1000 x 2000 projection would add 16 MB
        assert growth <= phi.nbytes + 2 ** 20

    def test_zero_weights_row(self):
        op = build_rff(spec_for("laplacian"), 3, RngStream(112))
        op.W = np.zeros_like(op.W)
        phi = featurize(op, np.ones((1, 4)))
        np.testing.assert_allclose(phi.phi[0], np.array([1, 0, 1, 0, 1, 0]) / np.sqrt(3))

    def test_gram_diagonal_one(self):
        op = build_rff(spec_for("gaussian"), 16, RngStream(113))
        phi = featurize(op, np.random.default_rng(2).standard_normal((5, 4)))
        np.testing.assert_allclose(np.diag(gram_approx(phi)), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n, p", [(1, 6), (7, 513), (600, 6), (600, 513)])
    @pytest.mark.parametrize("scheme", ["rff", "orf"])
    def test_gram_exactly_symmetric_and_bounded_by_one(self, monkeypatch, scheme, n, p):
        # what the error sweep scores G on without checking it; (600, 513)
        # runs psi on 3 threads, the others on one. A row of Phi has unit
        # norm up to the rounding of its 2p-term dot product; 2 ulp above 1
        # was measured at p = 6, n = 600
        monkeypatch.setattr(features, "_cpu_count", lambda: 3)
        op = build_operator(scheme, KernelSpec("laplacian", ShapeMatrix(PIN_M)), p,
                            RngStream(117))
        G = gram_approx(featurize(op, 2.0 * np.random.default_rng(n).standard_normal((n, 3))))
        assert np.array_equal(G, G.T)
        assert np.abs(G).max() <= 1.0 + (2 * p + 4) * np.finfo(float).eps

    @pytest.mark.parametrize("X", [np.zeros((3, 5)), np.float64(0.5)], ids=["5-columns", "0-d"])
    def test_dim_mismatch(self, X):
        op = build_rff(spec_for("gaussian"), 8, RngStream(114))
        with pytest.raises(ValueError, match=rf"^X must have shape \(\.\.\., 4\), got shape "
                                             rf"{re.escape(str(np.shape(X)))}$"):
            featurize(op, X)

    def test_laplacian_gram_converges(self):
        g = np.random.default_rng(3)
        X = g.standard_normal((500, 8))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        spec = spec_for("laplacian", d=8)
        op = build_rff(spec, 2 ** 14, RngStream(115))
        G = gram_approx(featurize(op, X))
        K = kernel_matrix(spec, X)
        assert np.linalg.norm(G - K) / np.linalg.norm(K) < 0.05

    def test_gram_matches_cos_identity(self):
        g = np.random.default_rng(4)
        X = g.standard_normal((6, 4))
        op = build_rff(spec_for("matern", nu=1.5), 32, RngStream(116))
        G = gram_approx(featurize(op, X))
        proj = op.project(X)
        for i in range(6):
            for j in range(6):
                assert G[i, j] == pytest.approx(np.cos(proj[i] - proj[j]).mean(),
                                                abs=1e-12)


class TestConvergenceRate:
    @pytest.mark.parametrize("family,kw,schemes", [
        ("gaussian", {}, ("rff", "orf")),
        ("laplacian", {}, ("rff", "orf")),
        ("exp_power", {"alpha": 1.3}, ("rff", "orf")),
        ("matern", {"nu": 2.5}, ("rff", "orf")),
        ("l1_laplacian", {}, ("rff",)),
    ])
    def test_pointwise_error_halves_like_sqrt_p(self, family, kw, schemes):
        d = 4
        spec = spec_for(family, d=d, **kw)
        g = np.random.default_rng(5)
        pairs = [(g.standard_normal(d), g.standard_normal(d)) for _ in range(50)]
        exact = np.array([kernel_matrix(spec, x[None], z[None])[0, 0] for x, z in pairs])
        p_grid = [2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16]
        for scheme in schemes:
            med_errs = []
            for j, p in enumerate(p_grid):
                op = build_operator(scheme, spec, p, RngStream(117, j))
                X = np.array([x for x, _ in pairs])
                Z = np.array([z for _, z in pairs])
                approx = (featurize(op, X).phi * featurize(op, Z).phi).sum(axis=1)
                med_errs.append(np.median(np.abs(approx - exact)))
            slope = np.polyfit(np.log2(p_grid), np.log2(med_errs), 1)[0]
            assert -0.7 < slope < -0.3, f"{family}/{scheme}: slope {slope}"


class TestSerialization:
    def test_record_roundtrip_bitwise(self, tmp_path):
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        spec = KernelSpec("matern", ShapeMatrix(M), nu=1.8)
        for scheme in ("rff", "orf"):
            op = build_operator(scheme, spec, 8, RngStream(118, 5))
            clone = operator_from_record(operator_record(op))
            if scheme == "rff":
                np.testing.assert_array_equal(op.W, clone.W)
            else:
                np.testing.assert_array_equal(op.S, clone.S)
                np.testing.assert_array_equal(op.Q.Q, clone.Q.Q)

    def test_file_roundtrip(self, tmp_path):
        op = build_rff(spec_for("exp_power", alpha=0.7), 16, RngStream(119))
        path = tmp_path / "op.json"
        save_operator(op, path)
        clone = load_operator(path)
        np.testing.assert_array_equal(op.W, clone.W)

    @pytest.mark.parametrize("scheme, family, kw, pinned", PINNED_DRAWS)
    def test_drawn_values_are_pinned(self, scheme, family, kw, pinned):
        spec = KernelSpec(family, ShapeMatrix(PIN_M), **kw)
        op = build_operator(scheme, spec, 6, RngStream(2024, 7))
        if scheme == "rff":
            drawn = (op.W[0, 0], op.W[3, 1], op.W[-1, -1])
        else:
            drawn = (op.S[0], op.S[-1], op.Q.Q[0, 1], op.Q.Q[-1, -1])
        assert tuple(float(v).hex() for v in drawn) == pinned

    def test_second_t_redraw_round_is_refused_by_name(self):
        # at nu = 0.003 one chi-squared(0.006) draw in eight is below 1e-300;
        # seed 2 draws four such among 12, and one of their redraws is again
        # below it, so the build is refused, never drawn a third time
        spec = KernelSpec("matern", ShapeMatrix.identity(3), nu=0.003)
        assert np.isfinite(build_rff(spec, 12, RngStream(1)).W).all()  # one round
        with pytest.raises(ValueError, match="^rff weights for matern nu=0.003 are not finite$"):
            build_rff(spec, 12, RngStream(2))

    @PROPERTY
    @given(family=st.sampled_from(["gaussian", "l1_laplacian", "laplacian",
                                   "matern", "exp_power"]),
           alpha=st.one_of(st.just(2.0), st.floats(0.1, 2.0)),
           # below nu ~ 0.01 ORF's beta-prime norm draw overflows to inf
           nu=st.floats(0.05, 50.0),
           d=st.integers(1, 4), blocks=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1), stream_id=st.integers(0, 2**64 - 1))
    def test_record_roundtrip_and_unit_rows_property(self, family, alpha, nu, d,
                                                      blocks, seed, stream_id):
        g = np.random.default_rng(seed)
        A = g.standard_normal((d, d))
        kw = {"exp_power": {"alpha": alpha}, "matern": {"nu": nu}}.get(family, {})
        spec = KernelSpec(family, ShapeMatrix(A @ A.T / d + 0.1 * np.eye(d)), **kw)
        X = g.standard_normal((7, d))
        schemes = ("rff",) if family == "l1_laplacian" else ("rff", "orf")
        for scheme in schemes:
            op = build_operator(scheme, spec, d * blocks, RngStream(seed, stream_id))
            clone = operator_from_record(json.loads(json.dumps(operator_record(op))))
            if scheme == "rff":
                np.testing.assert_array_equal(op.W, clone.W)
            else:
                np.testing.assert_array_equal(op.S, clone.S)
                np.testing.assert_array_equal(op.Q.Q, clone.Q.Q)
            norms = np.linalg.norm(featurize(op, X).phi, axis=1)
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_rejects_foreign_record(self):
        with pytest.raises(ValueError):
            operator_from_record({"format": "something-else"})

    @pytest.mark.parametrize("record", [[], None, "heavyrff-operator"],
                             ids=["list", "null", "string"])
    def test_record_not_an_object_is_refused_by_name(self, record):
        with pytest.raises(ValueError, match="^not an operator record$"):
            operator_from_record(record)

    @pytest.mark.parametrize("M", [
        [[1, 0], [0]], [[1, "0"], [0, 1]], [[1, [0]], [0, 1]], [[1, True], [0, 1]],
        [[1, 0], [0, 1], [0, 0]], [1, 0]],
        ids=["ragged", "string-entry", "nested-entry", "bool-entry", "3x2", "flat"])
    def test_m_that_is_not_a_square_matrix_of_numbers_is_refused_by_name(self, M):
        # refused by ShapeMatrix, which reads M
        record = json.loads(json.dumps(
            operator_record(build_rff(spec_for("laplacian"), 4, RngStream(123)))))
        record["kernel"]["M"] = M
        with pytest.raises(ValueError, match=rf"^M must be a nonempty square matrix of real "
                                             rf"numbers, got {re.escape(repr(M))}$"):
            operator_from_record(record)

    @pytest.mark.parametrize("key, value, message", [
        ("version", 2, "unsupported record version 2"),
        ("version", True, "unsupported record version True"),
        ("version", 1.0, "unsupported record version 1.0"),
        ("layout", "cos-then-sin", "unsupported feature layout cos-then-sin")])
    def test_rejects_other_version_or_layout(self, key, value, message):
        record = operator_record(build_rff(spec_for("laplacian"), 4, RngStream(120)))
        record[key] = value
        with pytest.raises(ValueError, match=message):
            operator_from_record(record)

    @pytest.mark.parametrize("path", [
        ("kernel",), ("p",), ("seed",), ("stream_id",), ("scheme",),
        ("kernel", "family"), ("kernel", "alpha"), ("kernel", "nu"), ("kernel", "M"),
    ], ids="/".join)
    def test_missing_field_is_refused_by_name(self, path):
        record = operator_record(build_rff(spec_for("laplacian"), 4, RngStream(121)))
        owner = record["kernel"] if len(path) == 2 else record
        del owner[path[-1]]
        with pytest.raises(ValueError, match=rf"^operator record lacks '{path[-1]}'$"):
            operator_from_record(record)

    # each field is refused by the code that takes it: RngStream, build_operator,
    # the builders, KernelSpec, ShapeMatrix; only `kernel` by the record reader
    @pytest.mark.parametrize("path, value, message", [
        pytest.param(("seed",), 5.7, "seed must be an integer, got 5.7", id="float-seed"),
        pytest.param(("seed",), True, "seed must be an integer, got True", id="bool-seed"),
        pytest.param(("stream_id",), 2.9, "stream_id must be an integer, got 2.9",
                     id="float-stream-id"),
        pytest.param(("scheme",), 1, "unknown scheme 1", id="int-scheme"),
        pytest.param(("kernel",), None,
                     "operator record field 'kernel' must be an object, got None",
                     id="null-kernel"),
        pytest.param(("p",), "6", "feature count p must be an integer >= 1, got '6'",
                     id="str-p"),
        pytest.param(("p",), 6.0, "feature count p must be an integer >= 1, got 6.0",
                     id="float-p"),
        pytest.param(("p",), True, "feature count p must be an integer >= 1, got True",
                     id="bool-p"),
        pytest.param(("p",), 0, "feature count p must be an integer >= 1, got 0", id="zero-p"),
        pytest.param(("kernel", "family"), None, "unknown kernel family None",
                     id="null-family"),
        pytest.param(("kernel", "alpha"), "0.5", "alpha is only valid for exp_power, not laplacian",
                     id="str-alpha"),
        pytest.param(("kernel", "nu"), True, "nu is only valid for matern, not laplacian",
                     id="bool-nu"),
        pytest.param(("kernel", "M"), "identity",
                     "M must be a nonempty square matrix of real numbers, got 'identity'",
                     id="str-M"),
    ])
    def test_wrong_typed_field_is_refused_by_name(self, path, value, message):
        record = json.loads(json.dumps(
            operator_record(build_rff(spec_for("laplacian"), 4, RngStream(122)))))
        owner = record["kernel"] if len(path) == 2 else record
        owner[path[-1]] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            operator_from_record(record)

    # a library caller meets the refusal a record reader meets
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: spec_for("exp_power", alpha="1"),
                     "alpha must be a real number in (0, 2], got '1'", id="KernelSpec-str-alpha"),
        pytest.param(lambda: spec_for("exp_power", alpha=True),
                     "alpha must be a real number in (0, 2], got True", id="KernelSpec-bool-alpha"),
        pytest.param(lambda: spec_for("matern", nu="1"),
                     "nu must be a real number in [2.2250738585072014e-308, 10000.0], got '1'",
                     id="KernelSpec-str-nu"),
        pytest.param(lambda: spec_for("matern", nu=True),
                     "nu must be a real number in [2.2250738585072014e-308, 10000.0], got True",
                     id="KernelSpec-bool-nu"),
        *(pytest.param(lambda M=M: ShapeMatrix(M),
                       f"M must be a nonempty square matrix of real numbers, got {M!r}",
                       id=f"ShapeMatrix-{name}")
          for name, M in (("0x0", np.eye(0)), ("ragged", [[1.0, 0.0], [0.0]]),
                          ("str", [["1", "0"], ["0", "1"]]), ("bool", np.eye(2, dtype=bool)))),
        *(pytest.param(lambda call=call, p=p: call(p),
                       f"feature count p must be an integer >= 1, got {p!r}",
                       id=f"{name}-{type(p).__name__}-p")
          for name, call in (
              ("build_rff", lambda p: build_rff(spec_for("laplacian"), p, RngStream(0))),
              ("build_orf", lambda p: build_orf(spec_for("laplacian", d=2), p, RngStream(0))),
              ("measure_approximation", lambda p: measure_approximation(
                  spec_for("laplacian"), np.ones((3, 4)), "rff", [8, p], RngStream(0))))
          for p in (2.5, True, "6")),
    ])
    def test_library_callers_get_the_record_refusals(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @PROPERTY
    @given(family=st.sampled_from(["gaussian", "l1_laplacian", "laplacian",
                                   "matern", "exp_power"]),
           scheme=st.sampled_from(["rff", "orf"]),
           number=st.sampled_from([float, np.float64, np.float32, int, np.int64]),
           integer=st.sampled_from([int, np.int64, np.int32, np.uint16]),
           as_list=st.booleans(), d=st.integers(1, 3), blocks=st.integers(1, 3),
           seed=st.integers(0, 2**15))
    def test_accepted_parameters_round_trip_through_json(self, family, scheme, number,
                                                          integer, as_list, d, blocks, seed):
        if family == "l1_laplacian":
            scheme = "rff"
        # 1 and 2 are exact in every number type, integers included
        kw = {"exp_power": {"alpha": number(1)}, "matern": {"nu": number(2)}}.get(family, {})
        M = np.diag(np.arange(1.0, d + 1.0)).astype(integer)
        # a list of rows holds numpy scalars
        spec = KernelSpec(family, ShapeMatrix([list(row) for row in M] if as_list else M), **kw)
        for name in kw:
            assert type(getattr(spec, name)) is float
        op = build_operator(scheme, spec, integer(d * blocks), RngStream(integer(seed)))
        record = operator_record(op)
        assert type(record["p"]) is int
        clone = operator_from_record(json.loads(json.dumps(record, allow_nan=False)))
        arrays = ("W",) if scheme == "rff" else ("S", "sqrtM")
        for name in arrays:
            assert getattr(clone, name).tobytes() == getattr(op, name).tobytes()
        if scheme == "orf":
            assert clone.Q.Q.tobytes() == op.Q.Q.tobytes()
        (row,) = measure_approximation(spec, np.eye(2, d), scheme, [integer(d * blocks)],
                                       RngStream(integer(seed)))
        assert type(row["p"]) is int and row["p"] == d * blocks
