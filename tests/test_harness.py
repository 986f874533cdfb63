import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg

import heavyrff.harness as harness
from heavyrff import (KernelSpec, RngStream, ShapeMatrix, cf_check, featurize,
                      gram_approx, kernel_matrix, psi, rel_error)
from heavyrff.features import FeatureMatrix, build_operator
from heavyrff.learners import fit_krr_exact, fit_ridge_features
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


class TestRelErrorRefusals:
    """What rel_error cannot score is refused by name before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a norm was computed")

        for owner, name in ((np.linalg, "eigvalsh"), (np.linalg, "norm"),
                            (scipy.sparse.linalg, "eigsh")):
            monkeypatch.setattr(owner, name, refuse)

    @pytest.mark.parametrize("K, G, message", [
        (np.ones(3), np.ones(3), r"^K must be a nonempty 2-D array, got shape \(3,\)$"),
        (np.ones((2, 3)), np.ones((2, 3)),
         r"^K must be square, got shape \(2, 3\)$"),
        (np.eye(2), np.ones((2, 2, 2)),
         r"^G must be a nonempty 2-D array, got shape \(2, 2, 2\)$"),
        (np.ones((0, 0)), np.ones((0, 0)),
         r"^K must be a nonempty 2-D array, got shape \(0, 0\)$"),
        (np.eye(2), np.eye(3), r"^shape mismatch \(2, 2\) vs \(3, 3\)$")],
        ids=["1-D", "2x3", "3-D G", "0x0", "mismatch"])
    @pytest.mark.parametrize("norm", NORMS)
    def test_shapes_it_cannot_score(self, no_work, K, G, norm, message):
        with pytest.raises(ValueError, match=message):
            rel_error(K, G, norm)

    @pytest.mark.parametrize("norm", NORMS)
    def test_asymmetric_k_is_refused_before_any_norm(self, no_work, norm):
        with pytest.raises(ValueError, match="^matrices must be symmetric$"):
            rel_error(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), norm)

    def test_indefinite_k_is_refused_before_g_minus_k_is_scored(self, monkeypatch):
        K = np.diag([2.0, -1.0])
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda A: calls.append(A.copy()) or real(A))
        with pytest.raises(ValueError, match="needs a positive semidefinite K"):
            rel_error(K, np.eye(2), "nuclear")
        assert len(calls) == 1 and np.array_equal(calls[0], K)

    def test_k_of_zero_trace_is_zero_for_the_nuclear_norm(self):
        with pytest.raises(ZeroDivisionError, match="is zero"):
            rel_error(np.diag([1.0, -1.0]), np.eye(2), "nuclear")


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
        assert exact["operator"] == pytest.approx(ev.max(), rel=1e-13, abs=0)
        assert exact["nuclear"] == pytest.approx(ev.sum(), rel=1e-13, abs=0)
        assert exact["frobenius"] == np.linalg.norm(K)

    def test_indefinite_k(self):
        g = np.random.default_rng(8)
        A = g.standard_normal((40, 40))
        K = (A + A.T) / 2
        K -= 3.0 * np.eye(40)  # the largest |eigenvalue| is a negative one
        ev = np.linalg.eigvalsh(K)
        assert -ev[0] > ev[-1] > 0
        assert harness._exact_side(K, ("operator",))["operator"] == pytest.approx(
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
        assert harness._exact_side(K, ("operator",))["operator"] == pytest.approx(
            ev[-1], rel=1e-13, abs=0)
        assert ev[-1] == pytest.approx(2.0)
        K2 = np.array([[1.0, -0.9], [-0.9, 1.0]])
        assert harness._exact_side(K2, ("operator",))["operator"] == pytest.approx(1.9)

    def test_two_calls_are_bit_equal(self):
        X = np.random.default_rng(9).standard_normal((300, 4))
        K = kernel_matrix(KernelSpec("matern", ShapeMatrix.identity(4), nu=4.0), X)
        a, b = (harness._exact_side(K, NORMS) for _ in range(2))
        assert a == b

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

    def test_gram_errors_holds_no_n_by_n_temporary(self, traced_growth):
        n = 1000
        g = np.random.default_rng(6)
        A = g.standard_normal((n, 40)) / np.sqrt(40)
        E = g.standard_normal((n, n)) * 1e-2
        K = A @ A.T + np.eye(n)
        G = K + (E + E.T)
        del E
        exact = harness._exact_side(K, ("frobenius",))
        _, growth = traced_growth(harness._gram_errors, K, exact, G)
        assert growth < G.nbytes / 4


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

    def test_sweep_runs_no_matrix_checks(self, monkeypatch):
        # K and G are finite and exactly symmetric by construction: the sweep
        # sends only its caller's X through the matrix rule, and rel_error,
        # which takes K and G from its caller, sends both
        spec, X = sweep_inputs()
        calls = []
        real_matrix = harness.matrix
        monkeypatch.setattr(harness, "matrix", lambda name, A, *cols:
                            calls.append(name) or real_matrix(name, A, *cols))
        for name in ("_abs_max", "_asym_max"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda A, name=name, real=real:
                                calls.append(name) or real(A))
        measure_approximation(spec, X, "rff", [32, 128, 512], RngStream(144))
        assert calls == ["X"]
        calls.clear()
        rel_error(np.eye(2), np.eye(2))
        assert calls[:2] == ["K", "G"]
        assert set(calls) == {"K", "G", "_abs_max", "_asym_max"}

    def test_x_overflowing_times_sqrt_m_is_refused_by_name(self):
        # X @ sqrt(M) overflows, which would make K[0, 0] NaN
        spec = KernelSpec("gaussian", ShapeMatrix.diagonal([4, 1]))
        X = np.array([[1e308, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^inputs times sqrt\(M\) must be finite$"):
            measure_approximation(spec, X, "rff", [1], RngStream(0))

    @pytest.mark.parametrize("scheme", ["rff", "orf"])
    def test_unsorted_grid_with_duplicate_equals_independent_grams(self, scheme):
        spec, X = sweep_inputs()
        rng = RngStream(141)
        p_grid = [128, 512, 32, 512]
        rows = measure_approximation(spec, X, scheme, p_grid, rng)
        K = kernel_matrix(spec, X)
        assert [r["p"] for r in rows] == p_grid
        assert len({r["exact_ms"] for r in rows}) == 1
        for j, (p, row) in enumerate(zip(p_grid, rows)):
            op_rng = rng.substream(j)
            assert (row["seed"], row["stream_id"]) == (op_rng.seed, op_rng.stream_id)
            G = gram_approx(featurize(build_operator(scheme, spec, p, op_rng), X))
            for norm in NORMS:
                assert row[f"rel_{norm}"] == rel_error(K, G, norm)   # bit for bit
        assert rows[1]["rel_frobenius"] != rows[3]["rel_frobenius"]  # two draws at p = 512

    def test_visits_largest_p_first_and_assembles_k_after_its_gram(self, monkeypatch):
        spec, X = sweep_inputs()
        events = []

        def logged(describe, fn):
            def wrapper(*args):
                result = fn(*args)
                events.append(describe(*args, result))
                return result
            return wrapper

        monkeypatch.setattr(harness, "build_operator", logged(
            lambda scheme, spec, p, rng, op: f"build {p}/{rng.stream_id}",
            harness.build_operator))
        monkeypatch.setattr(harness, "gram_approx", logged(
            lambda phi, G: "gram", harness.gram_approx))
        monkeypatch.setattr(harness, "kernel_matrix", logged(
            lambda spec, X, K: "K", harness.kernel_matrix))
        rng = RngStream(142)
        ids = [rng.substream(j).stream_id for j in range(4)]
        measure_approximation(spec, X, "rff", [128, 512, 32, 512], rng, repeats=2)
        assert events == [f"build 512/{ids[1]}", "gram", "gram", "K", "K",
                          f"build 512/{ids[3]}", "gram", "gram",
                          f"build 128/{ids[0]}", "gram", "gram",
                          f"build 32/{ids[2]}", "gram", "gram"]

    @pytest.mark.parametrize("bad, message", [
        ("nan", "^X must be finite$"),
        ("columns", r"^X must have 4 columns, got shape \(80, 5\)$"),
        ("1-D", r"^X must be a nonempty 2-D array, got shape \(4,\)$"),
        ("3-D", r"^X must be a nonempty 2-D array, got shape \(80, 1, 4\)$"),
        ("no rows", r"^X must be a nonempty 2-D array, got shape \(0, 4\)$")])
    def test_bad_x_is_refused_before_any_operator_is_built(self, monkeypatch, bad, message):
        spec, X = sweep_inputs()
        if bad == "nan":
            X[3, 1] = np.nan
        elif bad == "columns":
            X = np.hstack([X, X[:, :1]])
        else:
            X = {"1-D": X[0], "3-D": X[:, None], "no rows": X[:0]}[bad]
        builds = []
        real = harness.build_operator
        monkeypatch.setattr(harness, "build_operator",
                            lambda *args: builds.append(1) or real(*args))
        with pytest.raises(ValueError, match=message):
            measure_approximation(spec, X, "rff", [32, 128], RngStream(143))
        assert builds == []


class TestSweepMemory:
    @pytest.fixture(autouse=True)
    def warm(self):
        # first-use imports and caches stay out of the traced peaks
        spec, X = sweep_inputs()
        for scheme in ("rff", "orf"):
            measure_approximation(spec, X[:50], scheme, [16], RngStream(1), repeats=2)

    def test_repeats_hold_one_result_of_each_stage(self, traced_growth):
        # each timed repeat's result is dropped before the next one runs
        n, d, p = 600, 8, 512
        X = np.random.default_rng(8).standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        spec = KernelSpec("laplacian", ShapeMatrix.identity(d))
        K_bytes, phi_bytes, G_bytes = n * n * 8, n * 2 * p * 8, n * n * 8
        for scheme in ("rff", "orf"):
            _, peak = traced_growth(measure_approximation, spec, X, scheme, [p],
                                    RngStream(9), norms=("frobenius",), repeats=3)
            assert peak < K_bytes + phi_bytes + G_bytes + 2 ** 20, scheme

    @pytest.mark.parametrize("norms", [("frobenius",), NORMS], ids=["frobenius", "all"])
    @pytest.mark.parametrize("scheme", ["rff", "orf"])
    def test_largest_phi_is_never_beside_k(self, scheme, norms, traced_growth):
        # K is assembled after the largest point's Gram has dropped its Phi, so
        # Phi_max + G bounds the sweep; K beside Phi_max would add 2.9 MB
        n, d, p_grid = 600, 8, [64, 1024]
        X = np.random.default_rng(8).standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        spec = KernelSpec("laplacian", ShapeMatrix.identity(d))
        phi_bytes, G_bytes = n * 2 * max(p_grid) * 8, n * n * 8
        _, peak = traced_growth(measure_approximation, spec, X, scheme, p_grid,
                                RngStream(9), norms=norms)
        assert peak <= phi_bytes + G_bytes + 2 ** 20


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



C2, R2 = np.ones((2, 2)) + 1j, np.eye(2)
# (id, argument name, call on a context): each call hands a library entry
# point one complex array, which the float cast would take the real part of
COMPLEX_CASES = [
    ("kernel_matrix-X", "X", lambda c: kernel_matrix(c.spec, C2)),
    ("kernel_matrix-Z", "Z", lambda c: kernel_matrix(c.spec, R2, C2)),
    ("measure_approximation", "X",
     lambda c: measure_approximation(c.spec, C2, "rff", [4], RngStream(0))),
    ("fit_krr_exact-X", "X", lambda c: fit_krr_exact(c.spec, C2, np.zeros(2), 1e-3)),
    ("fit_krr_exact-Y", "Y", lambda c: fit_krr_exact(c.spec, R2, np.zeros(2) + 1j, 1e-3)),
    ("decision_function", "X",
     lambda c: fit_krr_exact(c.spec, R2, np.zeros(2), 1e-3).decision_function(C2)),
    ("fit_ridge_features-Y", "Y", lambda c: fit_ridge_features(FeatureMatrix(R2), C2, 1e-3)),
    ("featurize", "X", lambda c: featurize(c.op, C2)),
    ("project", "X", lambda c: c.op.project(C2)),
    ("psi", "psi u", lambda c: psi(C2)),
    ("rel_error-K", "K", lambda c: rel_error(C2, R2)),
    ("rel_error-G", "G", lambda c: rel_error(R2, C2)),
    ("cf_check", "probes", lambda c: cf_check(c.spec, C2, 4, RngStream(0))),
    ("norm", "u", lambda c: c.spec.shape.norm(C2[0])),
]


class TestComplexInput:
    @pytest.mark.parametrize("name, call", [case[1:] for case in COMPLEX_CASES],
                             ids=[case[0] for case in COMPLEX_CASES])
    def test_is_refused_by_name_before_the_float_cast(self, name, call):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        context = SimpleNamespace(spec=spec, op=build_operator("rff", spec, 4, RngStream(0)))
        with warnings.catch_warnings():
            # the cast warns before it drops the imaginary parts
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            with pytest.raises(ValueError, match=rf"^{name} must be real, got complex128$"):
                call(context)
