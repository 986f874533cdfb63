import re
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

import heavyrff.learners as learners
from heavyrff import (KernelSpec, RngStream, ShapeMatrix, build_rff, evaluate,
                      expected_calibration_error, featurize, fit_krr_exact,
                      fit_logistic_features, fit_ridge_features, kernel_matrix,
                      r_squared)
from heavyrff.features import FeatureMatrix
from heavyrff.learners import (_logistic_hessp, _logistic_objective,
                               clip_renormalize, one_hot, softmax)


def unit_rows(g, n, d):
    X = g.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


class TestKrrExact:
    def test_interpolates_at_zero_lambda(self):
        g = np.random.default_rng(0)
        X = unit_rows(g, 40, 3)
        y = g.standard_normal(40)
        spec = KernelSpec("laplacian", ShapeMatrix.identity(3))
        model = fit_krr_exact(spec, X, y, 0.0)
        pred = model.decision_function(X)[:, 0]
        np.testing.assert_allclose(pred, y, atol=1e-6)

    def test_identity_kernel_hand_system(self):
        # (K + I) A = Y with K = I gives A = Y / 2; emulate with lambda = 1 and
        # inputs far apart so K is essentially the identity
        X = np.eye(3) * 100.0
        Y = np.array([2.0, 4.0, -6.0])
        spec = KernelSpec("gaussian", ShapeMatrix.identity(3))
        model = fit_krr_exact(spec, X, Y, 1.0)
        np.testing.assert_allclose(model.alphas[:, 0], Y / 2, atol=1e-10)

    def test_recovers_planted_coefficients(self):
        g = np.random.default_rng(1)
        X = unit_rows(g, 30, 4)
        spec = KernelSpec("matern", ShapeMatrix.identity(4), nu=1.5)
        K = kernel_matrix(spec, X)
        a_true = g.standard_normal(30)
        model = fit_krr_exact(spec, X, K @ a_true, 0.0)
        np.testing.assert_allclose(model.alphas[:, 0], a_true, atol=1e-6)

    def test_rejects_negative_lambda(self):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            fit_krr_exact(spec, np.eye(2), np.zeros(2), -1e-3)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_every_fit_rejects_a_nonfinite_or_negative_lambda(self, lam):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        phi = FeatureMatrix(np.eye(2))
        for fit, args in ((fit_krr_exact, (spec, np.eye(2), np.zeros(2))),
                          (fit_ridge_features, (phi, np.zeros(2))),
                          (fit_logistic_features, (phi, np.array([0, 1])))):
            with pytest.raises(ValueError, match="lambda must be >= 0 and finite"):
                fit(*args, lam)

    def test_duplicate_rows_at_zero_lambda_name_the_singular_system(self):
        # two equal rows make two equal rows of K, so K is singular
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        X = np.array([[0.6, 0.8], [0.6, 0.8], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError, match="use lambda > 0"):
            fit_krr_exact(spec, X, np.zeros(3), 0.0)

    def test_desk_scale_cap(self):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(2))
        with pytest.raises(ValueError):
            fit_krr_exact(spec, np.zeros((30_000, 2)), np.zeros(30_000), 1.0)

    def test_in_place_factor_equals_the_shifted_copy(self):
        # the fit factors K + lam I in place; the reference factors a copy
        g = np.random.default_rng(2)
        X = unit_rows(g, 600, 5)
        Y = g.standard_normal((600, 3))
        spec = KernelSpec("matern", ShapeMatrix.identity(5), nu=1.3)
        A = kernel_matrix(spec, X) + 1e-3 * np.eye(600)
        expected = cho_solve(cho_factor(A, lower=True), Y)
        assert np.array_equal(fit_krr_exact(spec, X, Y, 1e-3).alphas, expected)

    def test_holds_one_n_by_n_matrix(self, traced_growth):
        # traced growth in units of n^2 doubles: K plus one kernel tile, with
        # no shifted copy of K and no copy made for LAPACK
        n, d = 2048, 6
        g = np.random.default_rng(3)
        X = unit_rows(g, n, d)
        Y = g.standard_normal((n, 2))
        spec = KernelSpec("laplacian", ShapeMatrix.identity(d))
        _, growth = traced_growth(fit_krr_exact, spec, X, Y, 1e-3)
        assert growth < 2.0 * 8 * n * n

    def test_refuses_a_0d_x_by_name(self):
        spec = KernelSpec("laplacian", ShapeMatrix.identity(1))
        with pytest.raises(ValueError, match=r"^X must be a nonempty 2-D array, got shape \(\)$"):
            fit_krr_exact(spec, np.float64(1), np.zeros(1), 1e-3)

    def test_refuses_y_rows_before_building_k(self, monkeypatch):
        monkeypatch.setattr(learners, "kernel_matrix",
                            lambda *a: pytest.fail("K was built for mismatched Y"))
        spec = KernelSpec("laplacian", ShapeMatrix.identity(3))
        with pytest.raises(ValueError, match=r"^Y must have 6 rows, one per row of X; "
                                             r"got shape \(5, 1\)$"):
            fit_krr_exact(spec, np.zeros((6, 3)), np.zeros(5), 1e-3)


class TestRowCounts:
    @pytest.mark.parametrize("fit, targets, message", [
        (lambda phi, Y: fit_ridge_features(phi, Y, 1e-3), np.zeros((5, 2)),
         "Y must have 6 rows, one per row of Phi; got shape (5, 2)"),
        # a 0-d Y is no data matrix, so the matrix rule refuses it first
        (lambda phi, Y: fit_ridge_features(phi, Y, 1e-3), np.float64(1.0),
         "Y must be a nonempty 2-D array, got shape ()"),
        (lambda phi, y: fit_logistic_features(phi, y, 1e-3), np.zeros(7, int),
         "labels must have 6 rows, one per row of Phi; got shape (7,)"),
        (lambda phi, y: fit_logistic_features(phi, y, 1e-3), np.int64(0),
         "labels must have 6 rows, one per row of Phi; got shape ()"),
    ], ids=["ridge", "ridge-0d", "logistic", "logistic-0d"])
    def test_feature_fits_refuse_targets_with_other_rows(self, fit, targets, message):
        phi = FeatureMatrix(np.full((6, 4), 0.5))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit(phi, targets)

    @pytest.mark.parametrize("call, message", [
        (lambda: fit_krr_exact(KernelSpec("laplacian", ShapeMatrix.identity(3)),
                               np.zeros((0, 3)), np.zeros(0), 1e-3),
         "X must be a nonempty 2-D array, got shape (0, 3)"),
        (lambda: fit_ridge_features(FeatureMatrix(np.zeros((0, 4))), np.zeros(0), 1e-3),
         "Phi must be a nonempty 2-D array, got shape (0, 4)"),
        (lambda: fit_logistic_features(FeatureMatrix(np.zeros((0, 4))), np.zeros(0, int),
                                       1e-3), "Phi must be a nonempty 2-D array, got shape (0, 4)"),
        (lambda: one_hot(np.zeros(0, int)), "labels must not be empty"),
    ], ids=["krr_exact", "ridge", "logistic", "one_hot"])
    def test_zero_rows_are_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestRidgeFeatures:
    def test_identity_features(self):
        P = np.eye(5)
        Y = np.arange(5.0)
        model = fit_ridge_features(FeatureMatrix(P), Y, 0.0)
        np.testing.assert_allclose(model.theta[:, 0], Y, atol=1e-12)

    def test_large_lambda_shrinks_to_zero(self):
        g = np.random.default_rng(2)
        P = g.standard_normal((30, 8))
        model = fit_ridge_features(FeatureMatrix(P), g.standard_normal(30), 1e9)
        assert np.linalg.norm(model.theta) < 1e-6

    def test_normal_equation_residual(self):
        g = np.random.default_rng(3)
        for n, m in [(50, 10), (10, 50)]:   # primal and dual branches
            P = g.standard_normal((n, m))
            Y = g.standard_normal(n)
            lam = 0.3
            model = fit_ridge_features(FeatureMatrix(P), Y, lam)
            resid = P.T @ (P @ model.theta[:, 0] - Y) + lam * model.theta[:, 0]
            assert np.linalg.norm(resid) < 1e-8

    def test_singular_at_zero_lambda(self):
        # 2p > n at lambda = 0 takes the primal branch, whose 2p x 2p normal
        # matrix has rank at most n
        for P in (np.zeros((4, 6)), np.random.default_rng(7).standard_normal((20, 60))):
            with pytest.raises(np.linalg.LinAlgError, match="normal equations are singular"):
                fit_ridge_features(FeatureMatrix(P), np.ones(P.shape[0]), 0.0)

    @pytest.mark.parametrize("n, m", [(300, 80), (80, 300)])   # primal, dual
    def test_in_place_solve_equals_the_shifted_copy(self, n, m):
        g = np.random.default_rng(8)
        P = g.standard_normal((n, m)) / np.sqrt(m)
        Y = g.standard_normal((n, 3))
        lam = 1e-3
        theta = fit_ridge_features(FeatureMatrix(P), Y, lam).theta
        if m <= n:
            expected = cho_solve(cho_factor(P.T @ P + lam * np.eye(m), lower=True), P.T @ Y)
        else:
            expected = P.T @ cho_solve(cho_factor(P @ P.T + lam * np.eye(n), lower=True), Y)
        assert np.array_equal(theta, expected)

    @pytest.mark.parametrize("n, m", [(4096, 2048), (2048, 4096)])   # primal, dual
    def test_holds_one_k_by_k_matrix(self, n, m, traced_growth):
        # traced growth in units of k^2 doubles, k = min(n, m): the Gram
        # matrix, factored in place, with no shifted copy and no LAPACK copy
        k = min(n, m)
        g = np.random.default_rng(9)
        P = g.standard_normal((n, m)) / np.sqrt(m)
        Y = g.standard_normal((n, 2))
        _, growth = traced_growth(fit_ridge_features, FeatureMatrix(P), Y, 1e-3)
        assert growth < 1.5 * 8 * k * k


class TestLogisticFeatures:
    def test_separable_toy(self):
        g = np.random.default_rng(4)
        P = np.vstack([g.standard_normal((30, 4)) + 3.0,
                       g.standard_normal((30, 4)) - 3.0])
        labels = np.array([0] * 30 + [1] * 30)
        model = fit_logistic_features(FeatureMatrix(P), labels, 0.1)
        assert (model.decision_function(FeatureMatrix(P)).argmax(axis=1) == labels).mean() == 1.0

    def test_gradient_matches_finite_differences(self):
        g = np.random.default_rng(5)
        P = g.standard_normal((40, 6))
        labels = g.integers(0, 3, size=40)
        Yoh = one_hot(labels)
        theta = g.standard_normal((6, 3)) * 0.3
        _, grad = _logistic_objective(theta, P, Yoh, 0.05)
        step = 1e-6
        coords = [(g.integers(0, 6), g.integers(0, 3)) for _ in range(20)]
        for i, j in coords:
            tp, tm = theta.copy(), theta.copy()
            tp[i, j] += step
            tm[i, j] -= step
            fd = (_logistic_objective(tp, P, Yoh, 0.05)[0]
                  - _logistic_objective(tm, P, Yoh, 0.05)[0]) / (2 * step)
            assert fd == pytest.approx(grad[i, j], rel=1e-5, abs=1e-8)

    def test_hessp_matches_finite_differences(self):
        # central differences of the gradient along random directions
        g = np.random.default_rng(15)
        P = g.standard_normal((40, 6))
        labels = g.integers(0, 3, size=40)
        Yoh = one_hot(labels)
        theta = g.standard_normal((6, 3)) * 0.3
        step = 1e-6
        for _ in range(10):
            V = g.standard_normal((6, 3))
            hv = _logistic_hessp(theta, V, P, 0.05)
            fd = (_logistic_objective(theta + step * V, P, Yoh, 0.05)[1]
                  - _logistic_objective(theta - step * V, P, Yoh, 0.05)[1]) / (2 * step)
            np.testing.assert_allclose(hv, fd, rtol=1e-5, atol=1e-8)
            # flattened arguments give the flattened product
            flat = _logistic_hessp(theta.ravel(), V.ravel(), P, 0.05)
            np.testing.assert_array_equal(flat, hv.ravel())

    def test_hessp_reuses_the_objective_softmax(self, monkeypatch):
        g = np.random.default_rng(17)
        P = g.standard_normal((300, 24))
        labels = g.integers(0, 5, size=300)
        keep = {}
        theta = g.standard_normal((24, 5))
        _logistic_objective(theta, P, one_hot(labels), 1e-3, keep)
        np.testing.assert_array_equal(keep["S"], softmax(P @ theta))

        cached = fit_logistic_features(FeatureMatrix(P), labels, 1e-3)
        given = []
        real = learners._logistic_hessp

        def recomputing(t, v, P, lam, S=None):
            given.append(S is not None)
            return real(t, v, P, lam)

        monkeypatch.setattr(learners, "_logistic_hessp", recomputing)
        plain = fit_logistic_features(FeatureMatrix(P), labels, 1e-3)
        assert sum(given) > len(given) / 2
        np.testing.assert_array_equal(cached.theta, plain.theta)
        assert (cached.n_iter, cached.n_fev, cached.n_hessp, cached.grad_norm) == \
            (plain.n_iter, plain.n_fev, plain.n_hessp, plain.grad_norm)

    def test_reaches_the_minimiser(self):
        g = np.random.default_rng(16)
        P = g.standard_normal((80, 6))
        labels = g.integers(0, 3, size=80)
        Yoh = one_hot(labels)
        lam, tol, max_iter = 0.01, 1e-6, 5000
        model = fit_logistic_features(FeatureMatrix(P), labels, lam,
                                      tol=tol, max_iter=max_iter)
        assert model.converged and model.grad_norm < tol
        assert 1 <= model.n_iter <= max_iter
        assert model.n_fev >= 1 and model.n_hessp >= 1

        def flat_objective(t):
            obj, grad = _logistic_objective(t.reshape(6, 3), P, Yoh, lam)
            return obj, grad.ravel()

        ref = minimize(flat_objective, np.zeros(18), method="L-BFGS-B",
                       jac=True, options={"gtol": 1e-10, "ftol": 1e-15,
                                          "maxiter": 10_000})
        obj = _logistic_objective(model.theta, P, Yoh, lam)[0]
        assert obj <= ref.fun + 1e-10
        np.testing.assert_array_equal(model.decision_function(FeatureMatrix(P)).argmax(axis=1),
                                      (P @ ref.x.reshape(6, 3)).argmax(axis=1))

    def test_huge_lambda_gives_uniform_probs(self):
        g = np.random.default_rng(6)
        P = g.standard_normal((30, 4))
        labels = g.integers(0, 3, size=30)
        model = fit_logistic_features(FeatureMatrix(P), labels, 1e6)
        probs = softmax(model.decision_function(FeatureMatrix(P)))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-4)
        assert np.linalg.norm(model.theta) < 1e-4

    def test_objective_decreases(self):
        g = np.random.default_rng(7)
        P = g.standard_normal((50, 5))
        labels = g.integers(0, 2, size=50)
        Yoh = one_hot(labels)
        lam = 0.05
        theta = np.zeros((5, 2))
        obj, grad = _logistic_objective(theta, P, Yoh, lam)
        objs = [obj]
        # replay gradient descent manually and check monotone objective
        step = 1.0
        for _ in range(50):
            step = min(step * 2, 1e6)
            while True:
                cand = theta - step * grad
                cand_obj, cand_grad = _logistic_objective(cand, P, Yoh, lam)
                if cand_obj <= obj - 1e-4 * step * (grad ** 2).sum() or step < 1e-16:
                    break
                step *= 0.5
            theta, obj, grad = cand, cand_obj, cand_grad
            objs.append(obj)
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_regularizer_beyond_resolution_converges_at_zero(self):
        # lam = 1e300 puts the optimum within 1e-300 of theta = 0, which
        # trust-ncg cannot leave; the fit warned that it had not converged
        g = np.random.default_rng(8)
        P = g.standard_normal((40, 6))
        labels = g.integers(0, 2, size=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_logistic_features(FeatureMatrix(P), labels, 1e300)
        assert model.converged and model.grad_norm > 1e-6
        assert not model.theta.any()

    def test_decrease_beyond_the_objectives_resolution_converges(self):
        # at lam = 1e14 trust-ncg stops at theta = 0 with gradient norm
        # 0.059 > lam * eps, and the fit warned it had not converged: yet the
        # decrease left, at most ||grad||^2 / (2 lam) ~ 2e-17, is below eps * f
        d, lam = 16, 1e14
        X = unit_rows(np.random.default_rng(0), 200, d)
        labels = np.random.default_rng(1).integers(0, 3, size=200)
        op = build_rff(KernelSpec("laplacian", ShapeMatrix.identity(d)), 64, RngStream(1))
        phi = featurize(op, X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_logistic_features(phi, labels, lam)
        assert model.converged and model.grad_norm > lam * 2.0 ** -52
        f = _logistic_objective(model.theta, phi.phi, one_hot(labels), lam)[0]
        assert model.grad_norm ** 2 / (2 * lam) < 2.0 ** -52 * f

    def test_nonconvergence_warns(self):
        g = np.random.default_rng(8)
        P = g.standard_normal((40, 6))
        labels = g.integers(0, 2, size=40)
        with pytest.warns(RuntimeWarning):
            model = fit_logistic_features(FeatureMatrix(P), labels, 1e-8,
                                          tol=1e-14, max_iter=3)
        assert not model.converged
        assert model.grad_norm > 0


    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_refuses_a_tol_that_is_not_positive_and_finite(self, tol):
        phi = FeatureMatrix(np.full((4, 2), 0.5))
        with pytest.raises(ValueError, match=rf"^tol must be > 0 and finite, got {tol}$"):
            fit_logistic_features(phi, np.arange(4) % 2, 1e-3, tol=tol)


class TestMetrics:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 1])
        probs = one_hot(labels).astype(float)
        assert expected_calibration_error(probs, labels) == 0.0
        assert r_squared(np.arange(4.0), np.arange(4.0)) == 1.0

    def test_calibrated_coin(self):
        labels = np.array([0, 1] * 50)
        probs = np.full((100, 2), 0.5)
        assert expected_calibration_error(probs, labels) == pytest.approx(0.0)

    def test_hand_computed_ece(self):
        # 4 equal-width bins; confidences 0.9, 0.8 land in [0.75, 1) and
        # 0.6, 0.55 in [0.5, 0.75); predictions are all class 0
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.6, 0.4], [0.55, 0.45]])
        labels = np.array([0, 0, 1, 0])
        ece = expected_calibration_error(probs, labels, n_bins=4)
        expected = (2 / 4) * abs(1.0 - 0.85) + (2 / 4) * abs(0.5 - 0.575)
        assert ece == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("call, message", [
        (lambda: evaluate(fit_logistic_features(FeatureMatrix(np.full((4, 2), 0.5)),
                                                np.arange(4) % 2, 1e-3),
                          FeatureMatrix(np.zeros((0, 2))), np.zeros(0, int), "classification"),
         "Phi must be a nonempty 2-D array, got shape (0, 2)"),
        (lambda: expected_calibration_error(np.zeros((0, 2)), np.zeros(0, int)),
         "probs must be a nonempty 2-D array, got shape (0, 2)"),
        (lambda: expected_calibration_error(np.full(4, 0.5), np.zeros(4, int)),
         "probs must be a nonempty 2-D array, got shape (4,)"),
        (lambda: expected_calibration_error(np.full((4, 2), 0.5), np.zeros(3, int)),
         "labels must have 4 rows, one per row of probs; got shape (3,)"),
        (lambda: r_squared(np.arange(4.0), np.zeros(1)),
         "y_pred must have 4 rows, one per row of y_true; got shape (1,)"),
        (lambda: evaluate(learners.LinearModel(np.ones((2, 1))), FeatureMatrix(np.eye(4, 2)),
                          np.arange(3.0), "regression"),
         "y_pred must have 3 rows, one per row of y_true; got shape (4,)"),
        (lambda: one_hot(np.zeros((4, 1), int)), "labels must be 1-D, got shape (4, 1)"),
        (lambda: expected_calibration_error(np.full((4, 2), 0.5), np.zeros((4, 1), int)),
         "labels must be 1-D, got shape (4, 1)"),
        (lambda: fit_logistic_features(FeatureMatrix(np.eye(4, 2)), (np.arange(4) % 2)[:, None],
                                       1e-3),
         "labels must be 1-D, got shape (4, 1)"),
    ], ids=["evaluate-0-rows", "ece-0-rows", "ece-1-D", "ece-labels", "r2-lengths",
            "evaluate-regression-lengths", "one_hot-column", "ece-label-column",
            "logistic-label-column"])
    def test_metrics_refuse_what_they_cannot_score_by_name(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_evaluate_refuses_a_label_column_before_scoring(self):
        # an (n, 1) column against n predictions would be compared n x n
        class Unscored:
            link = "identity"

            def decision_function(self, inputs):
                raise AssertionError("scored before the labels were checked")

        with pytest.raises(ValueError, match=r"^labels must be 1-D, got shape \(4, 1\)$"):
            evaluate(Unscored(), None, np.zeros((4, 1), int), "classification")

    def test_one_hot_rejects_float_and_negative_labels(self):
        with pytest.raises(ValueError, match="integers"):
            one_hot(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="out of range"):
            one_hot(np.array([0, -1]))

    def test_r2_undefined_for_constant(self):
        with pytest.raises(ValueError):
            r_squared(np.ones(5), np.zeros(5))

    def test_clip_renormalize(self):
        scores = np.array([[1.2, -0.1, 0.3], [-1.0, -2.0, -3.0]])
        probs = clip_renormalize(scores)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        np.testing.assert_allclose(probs[1], 1 / 3)

    def test_softmax_rows_sum_to_one(self):
        g = np.random.default_rng(9)
        probs = softmax(g.standard_normal((10, 4)) * 30)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert np.isfinite(probs).all()


class TestEvaluate:
    def test_classification_and_regression_records(self):
        g = np.random.default_rng(10)
        X = unit_rows(g, 200, 4)
        y_class = (X[:, 0] > 0).astype(int)
        spec = KernelSpec("laplacian", ShapeMatrix.identity(4))
        model = fit_krr_exact(spec, X, one_hot(y_class), 1e-4)
        rec = evaluate(model, X, y_class, "classification")
        assert rec["accuracy"] > 0.95
        assert 0.0 <= rec["ece"] <= 1.0
        y_reg = np.sin(3 * X[:, 0])
        model_r = fit_krr_exact(spec, X, y_reg, 1e-6)
        rec_r = evaluate(model_r, X, y_reg, "regression")
        assert rec_r["r2"] > 0.99

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            evaluate(None, None, np.zeros(2), "ranking")

    def test_exact_model_builds_test_kernel_once(self, monkeypatch):
        g = np.random.default_rng(12)
        X = unit_rows(g, 60, 3)
        y = (X[:, 0] > 0).astype(int)
        spec = KernelSpec("laplacian", ShapeMatrix.identity(3))
        model = fit_krr_exact(spec, X, one_hot(y), 1e-4)
        calls = []
        real = learners.kernel_matrix
        monkeypatch.setattr(learners, "kernel_matrix",
                            lambda *args: calls.append(1) or real(*args))
        rec = evaluate(model, X, y, "classification")
        assert len(calls) == 1
        # the same figures as labels and probabilities taken apart
        probs = clip_renormalize(kernel_matrix(spec, X, X) @ model.alphas)
        assert rec["accuracy"] == float((probs.argmax(axis=1) == y).mean())
        assert rec["ece"] == expected_calibration_error(probs, y)


class TestParityProperty:
    def test_feature_ridge_tracks_exact_krr(self):
        # shared synthetic dataset: smooth labels, gap within 1.5 points
        from heavyrff.data import make_classification, train_test_split
        ds = make_classification(2000, 8, 2, RngStream(141), margin=0.05)
        train, test = train_test_split(ds, 0.25, RngStream(142))
        spec = KernelSpec("laplacian", ShapeMatrix.identity(8))
        lam = 1e-5
        exact = fit_krr_exact(spec, train.X, one_hot(train.y), lam)
        acc_exact = evaluate(exact, test.X, test.y, "classification")["accuracy"]
        op = build_rff(spec, 2 ** 13, RngStream(143))
        model = fit_ridge_features(featurize(op, train.X), one_hot(train.y), lam)
        acc_feat = evaluate(model, featurize(op, test.X), test.y,
                            "classification")["accuracy"]
        assert abs(acc_exact - acc_feat) <= 0.015
        assert acc_exact > 0.9
