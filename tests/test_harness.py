import dataclasses

import numpy as np
import pytest

import heavyrff.harness as harness
from heavyrff import (KernelSpec, RngStream, ShapeMatrix, bench_speedup,
                      cf_check, featurize, gram_approx, kernel_matrix, rel_error)
from heavyrff.features import build_operator
from heavyrff.harness import fourier_sampler, measure_approximation

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


class TestCfCheck:
    def test_zero_probe_exact(self):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(3))
        dev = cf_check(fourier_sampler(spec), spec, np.zeros((1, 3)), 1000,
                       RngStream(130))
        assert dev[0] == 0.0

    def test_laplacian_deviation_small(self):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(4))
        probe = np.array([0.5, 0.5, 0.5, 0.5])  # unit norm
        dev = cf_check(fourier_sampler(spec), spec, probe, 1_000_000, RngStream(131))
        assert dev.max() < 0.005

    def test_matern_probes(self):
        spec = KernelSpec("matern", ShapeMatrix.identity(8), nu=2.0)
        g = np.random.default_rng(2)
        probes = g.standard_normal((5, 8)) * 0.4
        dev = cf_check(fourier_sampler(spec), spec, probes, 1_000_000, RngStream(132))
        assert dev.max() < 0.005

    def test_rejects_nonfinite_probe(self):
        spec = KernelSpec("gaussian", ShapeMatrix.identity(2))
        with pytest.raises(ValueError):
            cf_check(fourier_sampler(spec), spec, np.array([np.nan, 0.0]), 10,
                     RngStream(0))


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
            va, vb = getattr(a, field), getattr(b, field)
            assert va == vb          # bit-identical modulo wall times
            assert np.isfinite(va) and va >= 0.0
        assert a.n == 80 and a.p == 256 and a.scheme == "rff"

    @pytest.mark.parametrize("norms", [NORMS, ("operator",)])
    def test_sweep_equals_independent_rel_error(self, norms):
        spec, X = sweep_inputs()
        rng = RngStream(135)
        p_grid = [32, 128, 512]
        reports = measure_approximation(spec, X, "orf", p_grid, rng, norms=norms)
        K = kernel_matrix(spec, X)
        assert [r.p for r in reports] == p_grid
        for j, (p, rep) in enumerate(zip(p_grid, reports)):
            op_rng = rng.substream(j)
            assert (rep.seed, rep.stream_id) == (op_rng.seed, op_rng.stream_id)
            G = gram_approx(featurize(build_operator("orf", spec, p, op_rng), X))
            for norm in NORMS:
                value = getattr(rep, f"rel_{norm}")
                if norm in norms:
                    assert value == rel_error(K, G, norm)   # bit for bit
                else:
                    assert np.isnan(value)
        assert len({r.exact_ms for r in reports}) == 1   # one exact kernel per sweep

    @pytest.mark.parametrize("norms, eigh_calls", [
        (NORMS, 1 + 3), (("nuclear",), 1 + 3), (("frobenius",), 0)])
    def test_exact_side_computed_once(self, monkeypatch, norms, eigh_calls):
        spec, X = sweep_inputs()
        calls = {"kernel_matrix": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "kernel_matrix",
                            counted("kernel_matrix", harness.kernel_matrix))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted("eigvalsh", np.linalg.eigvalsh))
        measure_approximation(spec, X, "rff", [32, 128, 512], RngStream(136),
                              norms=norms)
        assert calls == {"kernel_matrix": 1, "eigvalsh": eigh_calls}

    def test_rejects_unknown_norm(self):
        spec, X = sweep_inputs()
        with pytest.raises(ValueError, match="unknown norm"):
            measure_approximation(spec, X, "rff", [32], RngStream(137),
                                  norms=("trace",))


class TestBenchSpeedup:
    def test_table_well_formed_and_error_decreases(self):
        g = np.random.default_rng(4)
        X = g.standard_normal((400, 6))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        spec = KernelSpec("matern", ShapeMatrix.identity(6), nu=4.0)
        rows1 = bench_speedup(spec, X, [64, 256, 1024], "rff", RngStream(134),
                              repeats=1)
        rows5 = bench_speedup(spec, X, [64, 256, 1024], "rff", RngStream(134),
                              repeats=3)
        assert [r.p for r in rows1] == [64, 256, 1024]
        for r1, r5 in zip(rows1, rows5):
            assert r1.rel_frobenius == r5.rel_frobenius
            assert r1.feature_ms > 0 and r1.exact_ms > 0
        errs = [r.rel_frobenius for r in rows5]
        assert errs[-1] < errs[0]

    def test_exact_side_once_and_errors_match_rel_error(self, monkeypatch):
        spec, X = sweep_inputs()
        calls = []
        real = harness._exact_side
        monkeypatch.setattr(harness, "_exact_side",
                            lambda *args: calls.append(1) or real(*args))
        rng = RngStream(138)
        p_grid = [32, 128, 512]
        rows = bench_speedup(spec, X, p_grid, "orf", rng, repeats=1)
        assert len(calls) == 1
        monkeypatch.undo()
        K = kernel_matrix(spec, X)
        for j, (p, row) in enumerate(zip(p_grid, rows)):
            op = build_operator("orf", spec, p, rng.substream(j))
            G = gram_approx(featurize(op, X))
            assert row.rel_frobenius == rel_error(K, G, "frobenius")  # bit for bit
