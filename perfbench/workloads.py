"""The benchmark's four workloads: inputs, operations and output checks.

Every input comes from the benchmark seed. Data rows are unit-norm Gaussian
and labels come from a fixed teacher, so a seed varies the sample but not
the task. The program's operator seed (``--seed``) is one constant: the Gram
error of a single operator draw spreads by 20-90% from draw to draw, which
would swamp the bounds, while over a fixed draw it moves only with the
sample. A workload's round is a fixed list of
operations, each a call into heavyrff's public CLI (``heavyrff.cli.main``)
or, in ``operators``, a record reload; rounds repeat until the run's time is
up. Checks compare the last round's outputs with computations made apart
from the package (``reference``) or with properties the method must have.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference

N_CLASSES = 10
TEACHER_ANCHORS = 3
TEACHER_KAPPA = 6.0
OPERATOR_SEED = 7
POOL_TRAIN, POOL_EVAL = 2000, 2000  # rows that score the kernel-mean classifier
POOL_GRAM = 1000  # eval rows whose Gram error is scored
SLOPE_BAND = (-0.7, -0.3)  # Monte Carlo rate p^-1/2, with room for 3-point fits


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def teacher_labels(X: np.ndarray) -> np.ndarray:
    """Smooth fixed teacher: each class scores a sum of von Mises-Fisher bumps
    around anchors drawn once per dimension, independent of the seed."""
    d = X.shape[1]
    anchors = unit_rows(np.random.default_rng(1000 + d), N_CLASSES * TEACHER_ANCHORS, d)
    bumps = np.exp(TEACHER_KAPPA * (X @ anchors.T))
    return bumps.reshape(len(X), N_CLASSES, TEACHER_ANCHORS).sum(axis=2).argmax(axis=1)


def write_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    """CSV with a header and the label last; repr() floats round-trip exactly."""
    lines = [",".join([f"x{j}" for j in range(X.shape[1])] + ["y"])]
    lines += [",".join(map(repr, row.tolist())) + f",{label}" for row, label in zip(X, y)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report(out: str) -> dict:
    with open(out + ".json") as fh:
        report = json.load(fh)
    if report["status"] != "ok":
        raise ValueError(f"{out}.json: status {report['status']}")
    return report


class Context:
    """Inputs, outputs and results of one workload run."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.outputs: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def _pool(seed: int, d: int):
    """Labelled rows, apart from the program's inputs, for the quality metrics."""
    X = unit_rows(np.random.default_rng((seed, 1)), POOL_TRAIN + POOL_EVAL, d)
    y = teacher_labels(X)
    return X[:POOL_TRAIN], y[:POOL_TRAIN], X[POOL_TRAIN:], y[POOL_TRAIN:]


def pool_quality(op, family: str, seed: int, alpha=None, nu=None) -> dict:
    """Quality of a feature operator on the seed's pool rows: relative Gram
    error on the eval rows, and accuracy and ECE of a kernel-mean classifier
    trained on the train rows."""
    from heavyrff.features import featurize
    X_tr, y_tr, X_ev, y_ev = _pool(seed, op.dim)
    P_tr, P_ev = featurize(op, X_tr).phi, featurize(op, X_ev).phi
    G = P_ev[:POOL_GRAM] @ P_ev[:POOL_GRAM].T
    errs = reference.rel_errors(
        reference.kernel(family, X_ev[:POOL_GRAM], alpha=alpha, nu=nu), G)
    probs = reference.centroid_probs(P_tr, y_tr, P_ev, N_CLASSES)
    return {"gram_rel_frobenius": errs["frobenius"],
            "gram_rel_operator": errs["operator"],
            "gram_rel_nuclear": errs["nuclear"],
            "test_accuracy": float((probs.argmax(axis=1) == y_ev).mean()),
            "test_ece": reference.ece(probs, y_ev)}


def _cli_op(argv: list[str]):
    from heavyrff import cli

    def op() -> bool:
        return cli.main(argv) == 0
    return op


def _identity_spec(family: str, d: int, alpha=None, nu=None):
    from heavyrff.kernels import KernelSpec
    from heavyrff.multivariate import ShapeMatrix
    return KernelSpec(family, ShapeMatrix.identity(d), alpha=alpha, nu=nu)


class Workload:
    name = ""
    d = 0
    n = 0

    def make_inputs(self, ctx: Context) -> None:
        """Write the data CSV for ``ctx.seed`` into the work directory."""
        X = unit_rows(np.random.default_rng((ctx.seed, 0)), self.n, self.d)
        ctx.X, ctx.y = X, teacher_labels(X)
        ctx.data = ctx.path("data.csv")
        write_csv(ctx.data, ctx.X, ctx.y)

    def operations(self, ctx: Context) -> list:
        raise NotImplementedError

    def check(self, ctx: Context) -> tuple[list[str], dict]:
        """(failed checks, end-to-end quality metrics)."""
        raise NotImplementedError


class ApproxMatern(Workload):
    name, d, n = "approx_matern", 12, 1000
    nu = 4.0
    p_grid = (96, 384, 1536)
    tol = 1e-8

    def operations(self, ctx):
        ctx.out = ctx.path("approx")
        return [_cli_op(["approx", "--kernel", "matern", "--nu", str(self.nu),
                         "--scheme", "orf", "--p", ",".join(map(str, self.p_grid)),
                         "--norms", "frobenius,operator,nuclear",
                         "--seed", str(OPERATOR_SEED), "--data", ctx.data, "--out", ctx.out])]

    def check(self, ctx):
        from heavyrff.features import build_operator, featurize
        from heavyrff.rng import RngStream
        failures = []
        rows = read_report(ctx.out)["results"]
        if [r["p"] for r in rows] != list(self.p_grid):
            return [f"approx: p grid {[r['p'] for r in rows]}"], {}
        last = rows[-1]
        spec = _identity_spec("matern", self.d, nu=self.nu)
        op = build_operator("orf", spec, last["p"], RngStream(last["seed"], last["stream_id"]))
        phi = featurize(op, ctx.X).phi
        mine = reference.rel_errors(reference.kernel("matern", ctx.X, nu=self.nu),
                                    phi @ phi.T)
        for norm, value in mine.items():
            if abs(last[f"rel_{norm}"] - value) > self.tol * value:
                failures.append(f"approx: rel_{norm} {last[f'rel_{norm}']} != {value}")
        slope = reference.loglog_slope(self.p_grid, [r["rel_frobenius"] for r in rows])
        if not SLOPE_BAND[0] < slope < SLOPE_BAND[1]:
            failures.append(f"approx: frobenius slope {slope:.3f} outside {SLOPE_BAND}")
        quality = pool_quality(op, "matern", ctx.seed, nu=self.nu)
        quality.update({f"gram_rel_{norm}": last[f"rel_{norm}"] for norm in mine})
        return failures, quality


class BenchLaplacian(Workload):
    name, d, n = "bench_laplacian", 12, 3000
    p_grid = (192, 768, 3072)
    max_error = 0.1  # relative Frobenius error allowed at the largest p
    tol = 1e-8

    def operations(self, ctx):
        ctx.out = ctx.path("bench")
        return [_cli_op(["bench", "--kernel", "laplacian", "--scheme", "orf",
                         "--repeats", "1", "--p", ",".join(map(str, self.p_grid)),
                         "--seed", str(OPERATOR_SEED), "--data", ctx.data, "--out", ctx.out])]

    def check(self, ctx):
        from heavyrff.features import build_operator, featurize
        from heavyrff.rng import RngStream
        failures = []
        rows = read_report(ctx.out)["results"]
        if [r["p"] for r in rows] != list(self.p_grid):
            return [f"bench: p grid {[r['p'] for r in rows]}"], {}
        errs = [r["rel_frobenius"] for r in rows]
        slope = reference.loglog_slope(self.p_grid, errs)
        if not SLOPE_BAND[0] < slope < SLOPE_BAND[1]:
            failures.append(f"bench: frobenius slope {slope:.3f} outside {SLOPE_BAND}")
        if not errs[-1] < self.max_error:
            failures.append(f"bench: error {errs[-1]} at p={self.p_grid[-1]} "
                            f"is not below {self.max_error}")
        # bench_speedup draws the operator for grid point j from substream j
        # of the run's substream 0
        rng = RngStream(OPERATOR_SEED).substream(0).substream(len(rows) - 1)
        op = build_operator("orf", _identity_spec("laplacian", self.d), rows[-1]["p"], rng)
        phi = featurize(op, ctx.X).phi
        K = reference.kernel("laplacian", ctx.X)
        mine = float(np.linalg.norm(phi @ phi.T - K) / np.linalg.norm(K))
        if abs(errs[-1] - mine) > self.tol * mine:
            failures.append(f"bench: rel_frobenius {errs[-1]} != {mine}")
        quality = pool_quality(op, "laplacian", ctx.seed)
        quality["gram_rel_frobenius"] = errs[-1]
        return failures, quality


class KlrLaplacian(Workload):
    name, d, n = "klr_laplacian", 16, 4000
    p = 256
    lam = 1e-5
    # 600 training rows keep the solver's run short; the large test share
    # keeps accuracy and ECE steady from seed to seed
    test_fraction = 0.85
    accuracy_tol = 0.05  # |program - reference| test accuracy
    above_chance = 0.15  # required margin over the majority-class share

    def operations(self, ctx):
        ctx.out = ctx.path("klr")
        return [_cli_op(["klr", "--kernel", "laplacian", "--scheme", "orf",
                         "--p", str(self.p), "--classes", str(N_CLASSES),
                         "--lambda", repr(self.lam),
                         "--test-fraction", repr(self.test_fraction),
                         "--seed", str(OPERATOR_SEED), "--data", ctx.data, "--out", ctx.out])]

    def check(self, ctx):
        from heavyrff.features import featurize, operator_from_record
        from heavyrff.rng import RngStream
        failures = []
        exact, logistic = read_report(ctx.out)["results"]
        # the CLI's split: a permutation from substream 902, test rows first
        perm = RngStream(OPERATOR_SEED).substream(902).generator.permutation(self.n)
        n_test = max(1, int(round(self.test_fraction * self.n)))
        test, train = perm[:n_test], perm[n_test:]
        op = operator_from_record(logistic["operator"])
        P_train = featurize(op, ctx.X[train]).phi
        P_test = featurize(op, ctx.X[test]).phi
        theta = reference.fit_softmax(P_train, ctx.y[train], N_CLASSES, self.lam)
        ref_acc = float(((P_test @ theta).argmax(axis=1) == ctx.y[test]).mean())
        acc = logistic["metrics"]["accuracy"]
        if abs(acc - ref_acc) > self.accuracy_tol:
            failures.append(f"klr: accuracy {acc} vs reference {ref_acc}")
        chance = np.bincount(ctx.y[test], minlength=N_CLASSES).max() / n_test
        for model, value in (("logistic", acc), ("exact_krr", exact["metrics"]["accuracy"])):
            if not value > chance + self.above_chance:
                failures.append(f"klr: {model} accuracy {value} is near chance {chance:.3f}")
        quality = pool_quality(op, "laplacian", ctx.seed)
        quality.update(test_accuracy=acc, test_ece=logistic["metrics"]["ece"])
        return failures, quality


class Operators(Workload):
    name, d = "operators", 16
    p_grid = (4096, 16384, 65536)
    n_query = 24
    # (family, scheme, extra CLI arguments, reference parameters). ORF for the
    # four rotation-invariant families; RFF for l1_laplacian, and for the
    # laplacian and matern families so that the multivariate Cauchy, t and
    # Gaussian samplers run too.
    families = (
        ("gaussian", "orf", [], {}),
        ("laplacian", "orf", [], {}),
        ("exp_power", "orf", ["--alpha", "1.3"], {"alpha": 1.3}),
        ("matern", "orf", ["--nu", "4"], {"nu": 4.0}),
        ("l1_laplacian", "rff", [], {}),
        ("laplacian", "rff", [], {}),
        ("matern", "rff", ["--nu", "4"], {"nu": 4.0}),
    )
    mc_scale = 8.0  # max |Phi Phi^T - K| on query pairs must be below mc_scale / sqrt(p)

    def make_inputs(self, ctx):
        ctx.X = unit_rows(np.random.default_rng((ctx.seed, 0)), self.n_query, self.d)
        ctx.data = ctx.path("query.csv")
        write_csv(ctx.data, ctx.X, teacher_labels(ctx.X))

    def operations(self, ctx):
        from heavyrff import features
        ops = []
        for family, scheme, extra, _ in self.families:
            out = ctx.path(f"ops-{family}-{scheme}")
            ops.append(_cli_op(["features", "--kernel", family, *extra, "--scheme", scheme,
                                "--d", str(self.d), "--p", ",".join(map(str, self.p_grid)),
                                "--seed", str(OPERATOR_SEED), "--out", out]))
            for p in self.p_grid:
                ops.append(self._reload_op(ctx, features, f"{out}-operator-p{p}.json"))
        return ops

    def _reload_op(self, ctx, features, path):
        def op() -> bool:
            phi = features.featurize(features.load_operator(path), ctx.X).phi
            # keep a few columns to check this output against the reference operator's
            ctx.outputs[path] = np.concatenate([phi[:, :4], phi[:, -4:]], axis=1)
            return True
        return op

    def check(self, ctx):
        from heavyrff.features import build_operator, featurize, load_operator
        from heavyrff.rng import RngStream
        failures = []
        quality = {}
        for family, scheme, _, params in self.families:
            out = ctx.path(f"ops-{family}-{scheme}")
            rows = read_report(out)["results"]
            if [r["p"] for r in rows] != list(self.p_grid):
                failures.append(f"operators: {family}/{scheme} p grid {[r['p'] for r in rows]}")
                continue
            spec = _identity_spec(family, self.d, **params)
            for j, (p, row) in enumerate(zip(self.p_grid, rows)):
                label = f"operators: {family}/{scheme} p={p}"
                # the reference is drawn as the CLI draws grid point j, from
                # substream j of the operator seed, without reading the record
                ref = build_operator(scheme, spec, p, RngStream(OPERATOR_SEED).substream(j))
                loaded = load_operator(row["path"])
                arrays = ("W",) if scheme == "rff" else ("S", "sqrtM")
                same = (loaded.scheme == scheme and loaded.p == p
                        and loaded.kernel.family == family
                        and loaded.kernel.alpha == spec.alpha and loaded.kernel.nu == spec.nu
                        and np.array_equal(loaded.kernel.shape.M, spec.shape.M)
                        and all(np.array_equal(getattr(loaded, a), getattr(ref, a))
                                for a in arrays))
                if scheme == "orf":
                    same = same and np.array_equal(loaded.Q.Q, ref.Q.Q)
                    blocks = loaded.Q.blocks
                    gram = np.einsum("bij,bik->bjk", blocks, blocks)
                    if np.abs(gram - np.eye(self.d)).max() > 1e-12:
                        failures.append(f"{label}: Haar blocks are not orthonormal")
                if not same:
                    failures.append(f"{label}: reloaded operator differs from the reference")
                phi = featurize(ref, ctx.X).phi
                kept = ctx.outputs.get(row["path"])
                if kept is None or not np.array_equal(
                        kept, np.concatenate([phi[:, :4], phi[:, -4:]], axis=1)):
                    failures.append(f"{label}: reload features differ from the reference's")
                if np.abs(np.linalg.norm(phi, axis=1) - 1.0).max() > 1e-12:
                    failures.append(f"{label}: feature rows are not unit norm")
                K = reference.kernel(family, ctx.X, **params)
                dev = np.abs(phi @ phi.T - K).max()
                if dev > self.mc_scale / np.sqrt(p):
                    failures.append(f"{label}: |Phi Phi^T - K| = {dev:.3g} exceeds "
                                    f"{self.mc_scale}/sqrt(p)")
                if (family, scheme, p) == ("laplacian", "orf", self.p_grid[0]):
                    quality = pool_quality(ref, "laplacian", ctx.seed)
        return failures, quality


WORKLOADS = {w.name: w for w in (ApproxMatern(), BenchLaplacian(), KlrLaplacian(), Operators())}
