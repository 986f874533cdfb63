import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

import heavyrff.harness as harness
from heavyrff import (KernelSpec, RngStream, ShapeMatrix, cf_check, featurize,
                      gram_approx, kernel_matrix, rel_error)
from heavyrff.features import build_operator
from heavyrff.harness import measure_approximation

NORMS = ("frobenius", "operator", "nuclear")


def power_iteration_norm(A, iters=500, seed=0):
    g = np.random.default_rng(seed)
    v = g.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = A @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(A @ v))


class TestRelError:
    def test_zero_when_equal(self):
        K = np.array([[1.0, 0.2], [0.2, 1.0]])
        for norm in ("frobenius", "operator", "nuclear"):
            assert rel_error(K, K, norm) == 0.0

    def test_hand_computed(self):
        K = np.eye(2)
        G = np.diag([1.0, 2.0])
        assert rel_error(K, G, "frobenius") == pytest.approx(1 / np.sqrt(2))
        assert rel_error(K, G, "operator") == pytest.approx(1.0)
        assert rel_error(K, G, "nuclear") == pytest.approx(0.5)

    def test_operator_matches_power_iteration(self):
        g = np.random.default_rng(0)
        A = g.standard_normal((50, 50))
        K = (A + A.T) / 2 + 50 * np.eye(50)
        B = g.standard_normal((50, 50)) * 0.1
        G = K + (B + B.T) / 2
        expected = power_iteration_norm(G - K) / np.abs(np.linalg.eigvalsh(K)).max()
        assert rel_error(K, G, "operator") == pytest.approx(expected, abs=1e-8)

    def test_norm_inequalities(self):
        # for the raw error matrix: operator <= frobenius <= nuclear
        g = np.random.default_rng(1)
        A = g.standard_normal((20, 20))
        E = (A + A.T) / 2
        ev = np.abs(np.linalg.eigvalsh(E))
        assert ev.max() <= np.linalg.norm(E) + 1e-12
        assert np.linalg.norm(E) <= ev.sum() + 1e-12

    def test_rejects_asymmetric_and_zero(self):
        with pytest.raises(ValueError):
            rel_error(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
        with pytest.raises(ZeroDivisionError):
            rel_error(np.zeros((2, 2)), np.eye(2) * 0.0)
        with pytest.raises(ValueError):
            rel_error(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("norm", ["operator", "nuclear"])
    def test_spectral_norms_reject_zero_k(self, norm):
        with pytest.raises(ZeroDivisionError, match="is zero"):
            rel_error(np.zeros((2, 2)), np.eye(2), norm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["K", "G"])
    def test_rejects_nonfinite(self, side, bad):
        # a nan passes the symmetry test (nan > tol is False) and used to
        # come out as a nan or inf error
        mats = {"K": np.eye(3), "G": np.eye(3)}
        mats[side][1, 2] = mats[side][2, 1] = bad
        for norm in NORMS:
            with pytest.raises(ValueError, match="finite"):
                rel_error(mats["K"], mats["G"], norm)

    def test_leaves_callers_g_unchanged(self):
        g = np.random.default_rng(5)
        A = g.standard_normal((30, 30))
        K = A @ A.T + np.eye(30)
        G = K + 0.1 * (A + A.T)
        before = G.copy()
        for norm in NORMS:
            rel_error(K, G, norm)
        assert G.tobytes() == before.tobytes()


def anisotropic_shape(d, seed):
    """M with condition number 100 in a random basis."""
    basis = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]
    return ShapeMatrix((basis * np.geomspace(0.1, 10.0, d)) @ basis.T)


class TestExactSideDenominators:
    """||K||_2 is one Lanczos eigenvalue and ||K||_* the trace, not the spectrum."""

    @pytest.mark.parametrize("n", [1, 2, 3, 300])
    @pytest.mark.parametrize("shape", ["identity", "anisotropic"])
    @pytest.mark.parametrize("family, kw", [
        ("gaussian", {}), ("laplacian", {}), ("l1_laplacian", {}),
        ("exp_power", {"alpha": 0.7}), ("matern", {"nu": 4.0})])
    def test_equal_the_full_spectrum(self, family, kw, shape, n):
        d = 5
        M = ShapeMatrix.identity(d) if shape == "identity" else anisotropic_shape(d, 7)
        X = np.random.default_rng(n).standard_normal((n, d))
        K = kernel_matrix(KernelSpec(family, M, **kw), X)
        exact = harness._exact_side(K, NORMS)
        ev = np.abs(np.linalg.eigvalsh(K))
        assert exact.operator == pytest.approx(ev.max(), rel=1e-13, abs=0)
        assert exact.nuclear == pytest.approx(ev.sum(), rel=1e-13, abs=0)
        assert exact.frobenius == np.linalg.norm(K)

    def test_indefinite_k(self):
        g = np.random.default_rng(8)
        A = g.standard_normal((40, 40))
        K = (A + A.T) / 2
        K -= 3.0 * np.eye(40)  # the largest |eigenvalue| is a negative one
        ev = np.linalg.eigvalsh(K)
        assert -ev[0] > ev[-1] > 0
        assert harness._exact_side(K, ("operator",)).operator == pytest.approx(
            -ev[0], rel=1e-13, abs=0)
        E = g.standard_normal((40, 40)) * 1e-2
        G = K + (E + E.T)
        assert rel_error(K, G, "operator") == pytest.approx(
            np.abs(np.linalg.eigvalsh(G - K)).max() / -ev[0], rel=1e-12)
        with pytest.raises(ValueError, match="nuclear norm needs a positive semidefinite K"):
            rel_error(K, G, "nuclear")

    def test_top_eigenvector_orthogonal_to_ones(self):
        # an all-ones Lanczos start would never see the top eigenvalue
        n = 300
        v = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) / np.sqrt(n)
        K = np.eye(n) * 0.1 + 0.9 * np.ones((n, n)) / n + 1.9 * np.outer(v, v)
        assert abs(v @ np.ones(n)) < 1e-12
        ev = np.linalg.eigvalsh(K)
        assert ev[0] >= 0
        assert harness._exact_side(K, ("operator",)).operator == pytest.approx(
            ev[-1], rel=1e-13, abs=0)
        assert ev[-1] == pytest.approx(2.0)
        K2 = np.array([[1.0, -0.9], [-0.9, 1.0]])
        assert harness._exact_side(K2, ("operator",)).operator == pytest.approx(1.9)

    def test_two_calls_are_bit_equal(self):
        X = np.random.default_rng(9).standard_normal((300, 4))
        K = kernel_matrix(KernelSpec("matern", ShapeMatrix.identity(4), nu=4.0), X)
        a, b = (harness._exact_side(K, NORMS) for _ in range(2))
        assert (a.frobenius, a.operator, a.nuclear) == (b.frobenius, b.operator, b.nuclear)

    def test_zero_k_and_n_one_do_not_reach_arpack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigsh called")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
        with pytest.raises(ZeroDivisionError, match="is zero"):
            rel_error(np.zeros((5, 5)), np.eye(5), "operator")
        assert rel_error(np.array([[2.0]]), np.array([[3.0]]), "operator") == 0.5
        assert rel_error(np.array([[-2.0]]), np.array([[-3.0]]), "operator") == 0.5

    def test_lanczos_non_convergence_is_named(self, monkeypatch):
        def stall(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stall)
        with pytest.raises(np.linalg.LinAlgError, match="operator norm of K did not converge"):
            rel_error(np.eye(4), np.eye(4), "operator")


class TestInPlaceChecks:
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
    @pytest.mark.parametrize("kind", ["symmetric", "near_symmetric", "asymmetric"])
    def test_helpers_equal_numpy_bit_for_bit(self, n, kind):
        A = np.random.default_rng(n).standard_normal((n, n))
        if kind != "asymmetric":
            A = (A + A.T) / 2
        if kind == "near_symmetric":
            A[-1, 0] += 1e-3  # in the last tile pair, off the diagonal for n > 1
        assert harness._asym_max(A) == np.abs(A - A.T).max()
        assert harness._abs_max(A) == np.abs(A).max()
        assert harness._abs_max(-A) == np.abs(A).max()

    def test_gram_errors_holds_no_n_by_n_temporary(self):
        n = 1000
        g = np.random.default_rng(6)
        A = g.standard_normal((n, 40)) / np.sqrt(40)
        E = g.standard_normal((n, n)) * 1e-2
        K = A @ A.T + np.eye(n)
        G = K + (E + E.T)
        del E
        exact = harness._exact_side(K, ("frobenius",))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            harness._gram_errors(exact, G, ("frobenius",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < G.nbytes / 4


class TestCfCheck:
    def test_zero_probe_exact(self):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(3))
        dev = cf_check(spec, np.zeros((1, 3)), 1000, RngStream(130))
        assert dev[0] == 0.0

    def test_laplacian_deviation_small(self):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(4))
        probe = np.array([0.5, 0.5, 0.5, 0.5])  # unit norm
        dev = cf_check(spec, probe, 1_000_000, RngStream(131))
        assert dev.max() < 0.005

    def test_matern_probes(self):
        spec = KernelSpec("matern", ShapeMatrix.identity(8), nu=2.0)
        g = np.random.default_rng(2)
        probes = g.standard_normal((5, 8)) * 0.4
        dev = cf_check(spec, probes, 1_000_000, RngStream(132))
        assert dev.max() < 0.005

    @pytest.mark.parametrize("family, kw", [
        ("laplacian", {}), ("exp_power", {"alpha": 0.7}), ("matern", {"nu": 1.5})])
    def test_orf_rows_have_the_kernel_as_characteristic_function(self, family, kw):
        # ORF rows S_i (Q sqrt(M))_i share one law with the RFF rows only if
        # the orthogonal coupling leaves E cos(w^T D) = kappa(D) intact
        d = 16
        spec = KernelSpec(family, ShapeMatrix.identity(d), **kw)
        g = np.random.default_rng(141)
        probes = g.standard_normal((5, d)) * 0.25
        dev = cf_check(spec, probes, 1_000_000, RngStream(141), scheme="orf")
        assert dev.max() < 0.005

    @pytest.mark.parametrize("scheme, family, kw", [
        ("rff", "gaussian", {}), ("rff", "laplacian", {}), ("rff", "l1_laplacian", {}),
        ("rff", "exp_power", {"alpha": 0.7}), ("rff", "exp_power", {"alpha": 1.3}),
        ("rff", "matern", {"nu": 1.5}), ("rff", "matern", {"nu": 4.0}),
        ("orf", "laplacian", {}),
        # the envelope's edges: the stable mixture at small alpha, sqrt(2) N(0, M)
        # at alpha = 2, and the t law with 1 and with 100 degrees of freedom
        ("rff", "exp_power", {"alpha": 0.1}), ("rff", "exp_power", {"alpha": 2.0}),
        ("rff", "matern", {"nu": 0.5}), ("rff", "matern", {"nu": 50.0}),
        # ORF's sqrtM under the Matern and exp_power norm laws, after the
        # cases above so that their ids stay
        ("orf", "matern", {"nu": 4.0}), ("orf", "exp_power", {"alpha": 1.3}),
        # the chi norm law under an anisotropic M
        ("orf", "gaussian", {}),
        # ORF's exp_power norm law at the point-mass mixture alpha = 2 and
        # deep in the stable mixture
        ("orf", "exp_power", {"alpha": 2.0}), ("orf", "exp_power", {"alpha": 0.7}),
        # ORF's generalized beta-prime norm law for Matern at nu = 3/2
        ("orf", "matern", {"nu": 1.5})])
    def test_anisotropic_shape(self, scheme, family, kw):
        # M with condition number 100 in a random basis: the samplers' cholM
        # and ORF's sqrtM must carry M into the weight law, which an
        # identity M cannot tell from M's transpose, inverse or M itself
        d = 6
        g = np.random.default_rng(142)
        basis = np.linalg.qr(g.standard_normal((d, d)))[0]
        M = (basis * np.geomspace(0.1, 10.0, d)) @ basis.T
        spec = KernelSpec(family, ShapeMatrix(M), **kw)
        probes = g.standard_normal((5, d)) * 0.4
        dev = cf_check(spec, probes, 1_002_000, RngStream(142), scheme=scheme)
        assert dev.max() < 0.005

    def test_rejects_nonfinite_probe(self):
        spec = KernelSpec("gaussian", ShapeMatrix.identity(2))
        with pytest.raises(ValueError):
            cf_check(spec, np.array([np.nan, 0.0]), 10, RngStream(0))


def sweep_inputs():
    g = np.random.default_rng(3)
    X = g.standard_normal((80, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return KernelSpec("laplacian", ShapeMatrix.identity(4)), X


class TestMeasureApproximation:
    def test_report_fields_and_determinism(self):
        spec, X = sweep_inputs()
        (a,) = measure_approximation(spec, X, "rff", [256], RngStream(133))
        (b,) = measure_approximation(spec, X, "rff", [256], RngStream(133))
        for field in ("rel_frobenius", "rel_operator", "rel_nuclear"):
            va, vb = a[field], b[field]
            assert va == vb          # bit-identical modulo wall times
            assert np.isfinite(va) and va >= 0.0
        assert a["n"] == 80 and a["p"] == 256 and a["scheme"] == "rff"

    @pytest.mark.parametrize("norms", [NORMS, ("operator",)])
    def test_sweep_equals_independent_rel_error(self, norms):
        spec, X = sweep_inputs()
        rng = RngStream(135)
        p_grid = [32, 128, 512]
        reports = measure_approximation(spec, X, "orf", p_grid, rng, norms=norms)
        K = kernel_matrix(spec, X)
        assert [r["p"] for r in reports] == p_grid
        for j, (p, rep) in enumerate(zip(p_grid, reports)):
            op_rng = rng.substream(j)
            assert (rep["seed"], rep["stream_id"]) == (op_rng.seed, op_rng.stream_id)
            G = gram_approx(featurize(build_operator("orf", spec, p, op_rng), X))
            for norm in NORMS:
                value = rep[f"rel_{norm}"]
                if norm in norms:
                    assert value == rel_error(K, G, norm)   # bit for bit
                else:
                    assert value is None
        assert len({r["exact_ms"] for r in reports}) == 1   # one exact kernel per sweep

    # one eigvalsh of G - K per p; K's nuclear norm is its trace and its
    # operator norm one Lanczos eigenvalue
    @pytest.mark.parametrize("norms, eigh_calls", [
        (NORMS, 3), (("nuclear",), 3), (("frobenius",), 0), (("operator",), 3)])
    def test_exact_side_computed_once(self, monkeypatch, norms, eigh_calls):
        spec, X = sweep_inputs()
        eigsh_calls = int("operator" in norms)
        calls = {"kernel_matrix": 0, "eigvalsh": 0, "eigsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "kernel_matrix",
                            counted("kernel_matrix", harness.kernel_matrix))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            counted("eigsh", scipy.sparse.linalg.eigsh))
        measure_approximation(spec, X, "rff", [32, 128, 512], RngStream(136),
                              norms=norms)
        assert calls == {"kernel_matrix": 1, "eigvalsh": eigh_calls, "eigsh": eigsh_calls}

    def test_rejects_unknown_norm(self):
        spec, X = sweep_inputs()
        with pytest.raises(ValueError, match="unknown norm"):
            measure_approximation(spec, X, "rff", [32], RngStream(137),
                                  norms=("trace",))

    def test_rejects_unknown_norm_before_assembling_k(self, monkeypatch):
        spec, X = sweep_inputs()
        calls = []
        real = harness.kernel_matrix
        monkeypatch.setattr(harness, "kernel_matrix",
                            lambda *args: calls.append(1) or real(*args))
        with pytest.raises(ValueError, match="unknown norm 'trace'"):
            measure_approximation(spec, X, "rff", [32], RngStream(137),
                                  norms=("trace",), repeats=3)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("target", ["kernel_matrix", "gram_approx"])
    def test_rejects_nonfinite(self, monkeypatch, target, bad):
        spec, X = sweep_inputs()
        real = getattr(harness, target)

        def poisoned(*args):
            M = real(*args)
            M[0, 1] = M[1, 0] = bad
            return M

        monkeypatch.setattr(harness, target, poisoned)
        with pytest.raises(ValueError, match="matrices must be finite"):
            measure_approximation(spec, X, "rff", [32], RngStream(139))


class TestSweepMemory:
    def test_repeats_hold_one_result_of_each_stage(self):
        # K + Phi + G plus the n x p projection bound the sweep at any repeats:
        # each timed repeat's result is dropped before the next one runs
        n, d, p = 600, 8, 512
        X = np.random.default_rng(8).standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        spec = KernelSpec("laplacian", ShapeMatrix.identity(d))
        for scheme in ("rff", "orf"):  # first-use imports and caches stay out of the peak
            measure_approximation(spec, X[:50], scheme, [16], RngStream(1), repeats=2)
        K_bytes, phi_bytes, u_bytes = n * n * 8, n * 2 * p * 8, n * p * 8
        for scheme in ("rff", "orf"):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                measure_approximation(spec, X, scheme, [p], RngStream(9),
                                      norms=("frobenius",), repeats=3)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peak < 2 * K_bytes + phi_bytes + u_bytes, scheme


class TestBenchSpeedup:
    """The sweep as ``bench`` runs it: Frobenius only, timed over repeats."""

    def test_table_well_formed_and_error_decreases(self):
        g = np.random.default_rng(4)
        X = g.standard_normal((400, 6))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        spec = KernelSpec("matern", ShapeMatrix.identity(6), nu=4.0)
        rows1 = measure_approximation(spec, X, "rff", [64, 256, 1024], RngStream(134),
                                      norms=("frobenius",), repeats=1)
        rows5 = measure_approximation(spec, X, "rff", [64, 256, 1024], RngStream(134),
                                      norms=("frobenius",), repeats=3)
        assert [r["p"] for r in rows1] == [64, 256, 1024]
        for r1, r5 in zip(rows1, rows5):
            assert r1["rel_frobenius"] == r5["rel_frobenius"]
            feature_ms = r1["featurize_ms"] + r1["gram_ms"]
            assert feature_ms > 0 and r1["exact_ms"] > 0 and r1["build_ms"] > 0
            assert r1["speedup"] == r1["exact_ms"] / feature_ms
        errs = [r["rel_frobenius"] for r in rows5]
        assert errs[-1] < errs[0]

    def test_exact_side_once_and_errors_match_rel_error(self, monkeypatch):
        spec, X = sweep_inputs()
        calls = []
        real = harness._exact_side
        monkeypatch.setattr(harness, "_exact_side",
                            lambda *args: calls.append(1) or real(*args))
        rng = RngStream(138)
        p_grid = [32, 128, 512]
        rows = measure_approximation(spec, X, "orf", p_grid, rng,
                                     norms=("frobenius",), repeats=2)
        assert len(calls) == 1
        monkeypatch.undo()
        K = kernel_matrix(spec, X)
        for j, (p, row) in enumerate(zip(p_grid, rows)):
            op = build_operator("orf", spec, p, rng.substream(j))
            G = gram_approx(featurize(op, X))
            assert row["rel_frobenius"] == rel_error(K, G, "frobenius")  # bit for bit

    @pytest.mark.parametrize("repeats", [0, -3])
    def test_rejects_repeats_below_one(self, repeats):
        spec, X = sweep_inputs()
        with pytest.raises(ValueError, match="repeats"):
            measure_approximation(spec, X, "rff", [32], RngStream(140),
                                  repeats=repeats)
