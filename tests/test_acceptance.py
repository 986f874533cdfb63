"""Acceptance gate: nine end-to-end criteria at pinned tolerances.

Each test prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line (visible under
``pytest -s``) and asserts the same condition, including its runtime budget.
"""

import time
import warnings

import numpy as np
from scipy import stats

from heavyrff import (GbpParams, KernelSpec, RngStream, ShapeMatrix,
                      build_orf, cf_check, evaluate, featurize,
                      fit_krr_exact, fit_logistic_features,
                      fit_ridge_features, gbp_cdf, gram_approx,
                      kernel_matrix, matern_profile, rel_error,
                      sample_mv_cauchy, sample_mv_t)
from heavyrff.multivariate import sample_haar_blocks
from heavyrff.data import make_classification, train_test_split
from heavyrff.features import build_operator
from heavyrff.harness import measure_approximation
from heavyrff.kernels import _matern_bessel
from heavyrff.learners import _logistic_objective, one_hot

KS_LEVEL = 0.01


def verdict(number, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail} "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number}: over budget ({elapsed:.1f}s)"


class TestAcceptance:
    def test_criterion_1_matern_half_is_laplacian(self):
        t0 = time.perf_counter()
        g = np.random.default_rng(1001)
        worst = 0.0
        for d in (2, 16, 32):
            sm = ShapeMatrix.identity(d)
            mat = KernelSpec("matern", sm, nu=0.5)
            lap = KernelSpec("laplacian", sm)
            for _ in range(1000):
                x, z = g.standard_normal(d), g.standard_normal(d)
                a = kernel_matrix(mat, x[None], z[None])[0, 0]
                b = kernel_matrix(lap, x[None], z[None])[0, 0]
                worst = max(worst, abs(a - b) / b)
        verdict(1, worst < 1e-10,
                f"matern(1/2) vs laplacian, max rel dev {worst:.2e} (< 1e-10)",
                time.perf_counter() - t0, 1.0)

    def test_criterion_2_closed_form_cross_check(self):
        t0 = time.perf_counter()
        r = np.geomspace(1e-6, 20.0, 10_000)
        worst = 0.0
        for nu in (1.5, 2.5):
            closed = matern_profile(nu, r)   # half-integer nu: the ladder's closed form
            bessel = _matern_bessel(nu, r)
            worst = max(worst, float(np.max(np.abs(bessel - closed) / closed)))
        verdict(2, worst < 1e-8,
                f"bessel vs closed matern, max rel dev {worst:.2e} (< 1e-8)",
                time.perf_counter() - t0, 5.0)

    def test_criterion_3_fourier_pairs(self):
        t0 = time.perf_counter()
        d = 4
        sm = ShapeMatrix.identity(d)
        specs = [KernelSpec("laplacian", sm),
                 KernelSpec("exp_power", sm, alpha=0.7),
                 KernelSpec("exp_power", sm, alpha=1.3),
                 KernelSpec("matern", sm, nu=0.5),
                 KernelSpec("matern", sm, nu=1.5),
                 KernelSpec("matern", sm, nu=4.0),
                 KernelSpec("gaussian", sm)]
        g = np.random.default_rng(1003)
        probes = g.standard_normal((5, d)) * 0.5
        worst, worst_name = 0.0, ""
        for j, spec in enumerate(specs):
            dev = cf_check(spec, probes, 1_000_000, RngStream(1003, j)).max()
            if dev > worst:
                worst, worst_name = float(dev), spec.family
        verdict(3, worst < 0.005,
                f"empirical CF vs kernel, 7 settings, worst dev {worst:.4f} "
                f"({worst_name}) (< 0.005)",
                time.perf_counter() - t0, 120.0)

    def test_criterion_4_norm_laws(self):
        t0 = time.perf_counter()
        n = 100_000
        ok, details = True, []
        for j, d in enumerate((4, 16, 64)):
            sm = ShapeMatrix.identity(d)
            # analytic KS: Cauchy norms vs GBP(d/2, 1/2, 2, 1)
            cauchy = sample_mv_cauchy(sm, RngStream(2004, 3 * j), size=n)
            gp = GbpParams(d / 2, 0.5, 2.0, 1.0)
            _, p1 = stats.kstest(np.linalg.norm(cauchy, axis=1),
                                 lambda x, gp=gp: gbp_cdf(gp, x))
            # analytic KS: multivariate-t norms vs GBP(d/2, nu, 2, sqrt(2 nu))
            nu = 1.5
            tdraws = sample_mv_t(nu, sm, RngStream(2004, 3 * j + 1), size=n)
            gpt = GbpParams(d / 2, nu, 2.0, np.sqrt(2 * nu))
            _, p2 = stats.kstest(np.linalg.norm(tdraws, axis=1),
                                 lambda x, gpt=gpt: gbp_cdf(gpt, x))
            # two-sample KS: ORF laplacian diagonal vs Cauchy norms
            op = build_orf(KernelSpec("laplacian", sm), n - (n % d),
                           RngStream(2004, 3 * j + 2))
            _, p3 = stats.ks_2samp(op.S, np.linalg.norm(cauchy, axis=1))
            ok = ok and min(p1, p2, p3) > KS_LEVEL
            details.append(f"d={d}: p=({p1:.3f},{p2:.3f},{p3:.3f})")
        verdict(4, ok, "norm-law KS at level 0.01, " + "; ".join(details),
                time.perf_counter() - t0, 30.0)

    def test_criterion_5_convergence_rate(self):
        t0 = time.perf_counter()
        n, d = 1000, 16
        g = np.random.default_rng(1005)
        X = g.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        pairs = [("gaussian", {}, "rff"), ("gaussian", {}, "orf"),
                 ("laplacian", {}, "rff"), ("laplacian", {}, "orf"),
                 ("exp_power", {"alpha": 1.3}, "rff"),
                 ("exp_power", {"alpha": 1.3}, "orf"),
                 ("matern", {"nu": 2.5}, "rff"), ("matern", {"nu": 2.5}, "orf"),
                 ("l1_laplacian", {}, "rff")]
        p_grid = [2 ** k for k in range(7, 15)]
        ok, details = True, []
        for family, kw, scheme in pairs:
            spec = KernelSpec(family, ShapeMatrix.identity(d), **kw)
            # the separable l1 kernel needs a shorter length scale, otherwise
            # its Gram is nearly the identity and relative error saturates
            Xk = X / 4.0 if family == "l1_laplacian" else X
            K = kernel_matrix(spec, Xk)
            errs = []
            for j, p in enumerate(p_grid):
                op = build_operator(scheme, spec, p, RngStream(1005, j))
                errs.append(rel_error(K, gram_approx(featurize(op, Xk))))
            slope = np.polyfit(np.log2(p_grid), np.log2(errs), 1)[0]
            good = -0.7 < slope < -0.3 and errs[-1] < 0.05
            ok = ok and good
            details.append(f"{family}/{scheme}: slope {slope:.2f}, "
                           f"err@2^14 {errs[-1]:.3f}")
        verdict(5, ok, "; ".join(details), time.perf_counter() - t0, 300.0)

    def test_criterion_6_regression_parity(self):
        t0 = time.perf_counter()
        ds = make_classification(2000, 8, 2, RngStream(141), margin=0.05)
        train, test = train_test_split(ds, 0.25, RngStream(142))
        spec = KernelSpec("laplacian", ShapeMatrix.identity(8))
        lam = 1e-5
        exact = fit_krr_exact(spec, train.X, one_hot(train.y), lam)
        acc_exact = evaluate(exact, test.X, test.y, "classification")["accuracy"]
        gaps = {}
        for scheme in ("rff", "orf"):
            op = build_operator(scheme, spec, 2 ** 13, RngStream(143))
            model = fit_ridge_features(featurize(op, train.X),
                                       one_hot(train.y), lam)
            acc = evaluate(model, featurize(op, test.X), test.y,
                           "classification")["accuracy"]
            gaps[scheme] = abs(acc - acc_exact)
        ok = acc_exact > 0.9 and max(gaps.values()) <= 0.015
        verdict(6, ok,
                f"feature ridge vs exact KRR (synthetic substitute): "
                f"exact acc {acc_exact:.3f}, gaps rff {gaps['rff']:.3f} / "
                f"orf {gaps['orf']:.3f} (<= 0.015)",
                time.perf_counter() - t0, 600.0)

    def test_criterion_7_calibration_direction(self):
        t0 = time.perf_counter()
        ds = make_classification(12_000, 16, 10, RngStream(160))
        train, test = train_test_split(ds, 1 / 6, RngStream(161))
        spec = KernelSpec("laplacian", ShapeMatrix.identity(16))
        op = build_orf(spec, 512, RngStream(162))
        phi_tr, phi_te = featurize(op, train.X), featurize(op, test.X)
        lam = 1e-5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            logm = fit_logistic_features(phi_tr, train.y, lam)
        ece_log = evaluate(logm, phi_te, test.y, "classification")["ece"]
        lsm = fit_ridge_features(phi_tr, one_hot(train.y), lam)
        ece_ls = evaluate(lsm, phi_te, test.y, "classification")["ece"]
        ok = ece_log < 0.1 and ece_log < ece_ls / 3
        verdict(7, ok,
                f"logistic ECE {ece_log:.4f} (< 0.1) vs least-squares ECE "
                f"{ece_ls:.4f} (ratio {ece_ls / max(ece_log, 1e-12):.1f}x, "
                f"need > 3x)",
                time.perf_counter() - t0, 600.0)

    def test_criterion_8_speedup_tradeoff(self):
        t0 = time.perf_counter()
        g = np.random.default_rng(1008)
        X = g.standard_normal((10_000, 12))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        spec = KernelSpec("matern", ShapeMatrix.identity(12), nu=4.0)
        rows = measure_approximation(spec, X, "orf", [96, 384, 1536],
                                     RngStream(180), norms=("frobenius",))
        exists = any(r["speedup"] > 1.0 and r["rel_frobenius"] < 0.1 for r in rows)
        errs = [r["rel_frobenius"] for r in rows]
        times = [r["featurize_ms"] + r["gram_ms"] for r in rows]
        monotone = all(b < a for a, b in zip(errs, errs[1:])) and \
            all(b > a for a, b in zip(times, times[1:]))
        detail = "; ".join(f"p={r['p']}: speedup {r['speedup']:.1f}x, "
                           f"err {r['rel_frobenius']:.3f}" for r in rows)
        verdict(8, exists and monotone, detail, time.perf_counter() - t0, 300.0)

    def test_criterion_9_property_suite(self):
        t0 = time.perf_counter()
        g = np.random.default_rng(1009)
        checks = []
        # normal-equation residual of feature ridge
        from heavyrff.features import FeatureMatrix
        P = g.standard_normal((60, 12))
        Y = g.standard_normal(60)
        model = fit_ridge_features(FeatureMatrix(P), Y, 0.2)
        resid = P.T @ (P @ model.theta[:, 0] - Y) + 0.2 * model.theta[:, 0]
        checks.append(np.linalg.norm(resid) < 1e-8)
        # finite-difference gradient of the logistic objective
        labels = g.integers(0, 3, size=60)
        theta = g.standard_normal((12, 3)) * 0.2
        _, grad = _logistic_objective(theta, P, one_hot(labels), 0.1)
        e = np.zeros_like(theta)
        e[3, 1] = 1e-6
        fd = (_logistic_objective(theta + e, P, one_hot(labels), 0.1)[0]
              - _logistic_objective(theta - e, P, one_hot(labels), 0.1)[0]) / 2e-6
        checks.append(abs(fd - grad[3, 1]) < 1e-6)
        # Haar block orthogonality
        hb = sample_haar_blocks(20, 5, RngStream(1009))
        checks.append(all(np.allclose(b.T @ b, np.eye(5), atol=1e-10)
                          for b in hb.blocks))
        # norm inequalities on a symmetric error matrix
        A = g.standard_normal((30, 30))
        E = (A + A.T) / 2
        ev = np.abs(np.linalg.eigvalsh(E))
        checks.append(ev.max() <= np.linalg.norm(E) + 1e-12
                      <= ev.sum() + 2e-12)
        # bit-reproducibility of operators and streams
        spec = KernelSpec("matern", ShapeMatrix.identity(6), nu=1.8)
        a = build_operator("orf", spec, 24, RngStream(1010, 2))
        b = build_operator("orf", spec, 24, RngStream(1010, 2))
        checks.append(np.array_equal(a.S, b.S) and np.array_equal(a.Q.Q, b.Q.Q))
        checks.append(np.array_equal(RngStream(7, 3).generator.random(5),
                                     RngStream(7, 3).generator.random(5)))
        verdict(9, all(checks),
                f"property spot-checks {sum(checks)}/{len(checks)} "
                "(full suite runs in the module test files)",
                time.perf_counter() - t0, 300.0)
