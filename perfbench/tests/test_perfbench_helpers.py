"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/tests
"""

import os
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import benchstats  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402


class TestSelfTimes:
    def test_nested_and_sequential(self):
        spans = [["root", 0.0, 10.0, None],
                 ["a", 1.0, 4.0, 0],
                 ["b", 2.0, 3.0, 1],
                 ["a", 5.0, 6.5, 0]]
        own = tracer.self_times(spans)
        assert own["root"] == pytest.approx(10.0 - 3.0 - 1.5)
        assert own["a"] == pytest.approx((3.0 - 1.0) + 1.5)
        assert own["b"] == pytest.approx(1.0)
        assert sum(own.values()) == pytest.approx(10.0)

    def test_layer_metrics_names_and_cli_self(self):
        spans = [["cli.main", 0.0, 2.0, None], ["features.psi", 0.5, 1.5, 0]]
        out = tracer.layer_metrics(spans, {"features.rows": 7})
        assert out["cli.self_s"] == pytest.approx(1.0)
        assert out["features.psi_s"] == pytest.approx(1.0)
        assert out["features.rows"] == 7.0
        assert out["learners.logistic_evals"] == 0.0


class TestTracer:
    def test_records_spans_and_counts_then_restores(self):
        from heavyrff import cli, harness, kernels
        from heavyrff.multivariate import ShapeMatrix
        original = (harness.kernel_matrix, kernels.kernel_profile, cli.main)
        spec = kernels.KernelSpec("laplacian", ShapeMatrix.identity(3))
        X = np.eye(3)
        with tracer.Tracer() as t:
            harness.kernel_matrix(spec, X)
        names = [s[0] for s in t.spans]
        assert names == ["kernels.distance", "kernels.profile"]
        assert t.spans[1][3] == 0
        assert t.counts["kernels.entries"] == 9
        assert (harness.kernel_matrix, kernels.kernel_profile, cli.main) == original

    def test_counts_qr_calls_inside_haar(self):
        from heavyrff import multivariate
        from heavyrff.rng import RngStream
        with tracer.Tracer() as t:
            multivariate.sample_haar_blocks(12, 3, RngStream(0))
            np.linalg.qr(np.eye(3))  # outside a Haar span: not counted
        assert t.counts["multivariate.haar_qr_calls"] == 4


class TestStats:
    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        q1, q2, q3 = benchstats.quartiles(values)
        assert [q1, q2, q3] == statistics.quantiles(values, n=4)
        assert q2 == statistics.median(values)
        assert benchstats.spread(values) == pytest.approx((q3 - q1) / q2)

    def test_pair_wins_and_worse_by(self):
        parent, change = [10.0, 10.0, 10.0, 10.0], [9.0, 11.0, 10.0, 8.0]
        assert benchstats.pair_wins(parent, change, "lower") == 0.5
        assert benchstats.pair_wins(parent, change, "higher") == 0.25
        assert benchstats.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
        assert benchstats.worse_by(0.8, 0.72, "higher") == pytest.approx(0.1)


class TestReference:
    r = np.array([0.0, 0.1, 0.7, 1.3, 2.0])

    def test_matern_closed_forms(self):
        r = self.r
        assert np.allclose(reference.matern(r, 0.5), np.exp(-r), rtol=1e-13)
        t = np.sqrt(3.0) * r
        assert np.allclose(reference.matern(r, 1.5), (1 + t) * np.exp(-t), rtol=1e-13)
        t = np.sqrt(5.0) * r
        assert np.allclose(reference.matern(r, 2.5), (1 + t + t * t / 3) * np.exp(-t),
                           rtol=1e-13)

    def test_profiles_at_known_points(self):
        assert reference.profile("gaussian", np.array(1.0)) == pytest.approx(np.exp(-0.5))
        assert reference.profile("exp_power", np.array(2.0), alpha=1.5) == \
            pytest.approx(np.exp(-2.0 ** 1.5))
        assert reference.profile("matern", np.array([0.0]), nu=4.0)[0] == 1.0

    def test_kernel_distances(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert reference.kernel("laplacian", X)[0, 1] == pytest.approx(np.exp(-5.0))
        assert reference.kernel("l1_laplacian", X)[0, 1] == pytest.approx(np.exp(-7.0))

    def test_rel_errors(self):
        K = np.array([[2.0, 0.0], [0.0, 1.0]])
        G = np.array([[2.0, 0.0], [0.0, 0.5]])
        errs = reference.rel_errors(K, G)
        assert errs["frobenius"] == pytest.approx(0.5 / np.sqrt(5.0))
        assert errs["operator"] == pytest.approx(0.25)
        assert errs["nuclear"] == pytest.approx(0.5 / 3.0)

    def test_loglog_slope_and_ece(self):
        p = [96, 384, 1536]
        assert reference.loglog_slope(p, [x ** -0.5 for x in p]) == pytest.approx(-0.5)
        probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.6, 0.4], [0.6, 0.4]])
        labels = np.array([0, 0, 0, 1])
        # bins: 0.9 -> hit rate 1.0, 0.6 -> hit rate 0.5
        assert reference.ece(probs, labels) == pytest.approx(0.5 * 0.1 + 0.5 * 0.1)
