import csv
import json
import math

import numpy as np
import pytest

from heavyrff.cli import ExperimentConfig, main, run_experiment
from heavyrff.data import (DataError, load_csv, make_classification,
                           make_regression, preprocess, subsample,
                           train_test_split)
from heavyrff.learners import LogisticOptions
from heavyrff.rng import RngStream


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadCsv:
    def test_three_row_exact_recovery(self, tmp_path):
        path = write_csv(tmp_path / "tiny.csv", [
            "a,b,label",
            "1.5,-2.0,0",
            "0.25,4.0,1",
            "-3.0,0.5,0",
        ])
        ds = load_csv(path, label_col="label")
        np.testing.assert_array_equal(
            ds.X, np.array([[1.5, -2.0], [0.25, 4.0], [-3.0, 0.5]]))
        np.testing.assert_array_equal(ds.y, np.array([0, 1, 0]))
        assert ds.y.dtype.kind == "i"

    def test_negative_index_label(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["x,y,z", "1,2,3", "4,5,6"])
        ds = load_csv(path, label_col=-1, task="regression")
        np.testing.assert_array_equal(ds.y, [3.0, 6.0])
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [4.0, 5.0]])

    def test_bad_cell_names_line_and_column(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["a,b", "1,2", "1,oops"])
        with pytest.raises(DataError, match=r"line 3, column 1"):
            load_csv(path)

    def test_nonfinite_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "nan.csv", ["a,b", "nan,0"])
        with pytest.raises(DataError, match=r"line 2, column 0"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path / "ragged.csv", ["a,b", "1,2", "1,2,3"])
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a,b", "1,2"])
        with pytest.raises(DataError, match="label column"):
            load_csv(path, label_col="target")

    def test_non_integer_class_labels(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a,b", "1,0.5"])
        with pytest.raises(DataError, match="integers"):
            load_csv(path, task="classification")
        ds = load_csv(path, task="regression")
        assert ds.y[0] == 0.5

    def test_row_count_matches_file(self, tmp_path):
        # line-count oracle on a large generated file
        n = 100_000
        g = np.random.default_rng(0)
        body = [f"{a:.6f},{b:.6f},{c}"
                for a, b, c in zip(g.standard_normal(n), g.standard_normal(n),
                                   g.integers(0, 3, size=n))]
        path = write_csv(tmp_path / "big.csv", ["x0,x1,y"] + body)
        ds = load_csv(path)
        with open(path) as fh:
            n_lines = sum(1 for _ in fh)
        assert ds.n == n_lines - 1 == n


class TestPreprocess:
    def test_unit_norm_hand_values(self):
        from heavyrff.data import DataSet
        ds = DataSet(X=np.array([[3.0, 4.0]]), y=np.array([0]))
        out = preprocess(ds, "unit-norm")
        np.testing.assert_allclose(out.X, [[0.6, 0.8]])
        assert out.preprocessing == ("unit-norm",)

    def test_center_hand_values(self):
        from heavyrff.data import DataSet
        ds = DataSet(X=np.array([[1.0], [2.0], [3.0]]), y=np.zeros(3, int))
        out = preprocess(ds, "center")
        np.testing.assert_allclose(out.X[:, 0], [-1.0, 0.0, 1.0])

    def test_log_target(self):
        from heavyrff.data import DataSet
        ds = DataSet(X=np.zeros((2, 1)), y=np.array([1.0, np.e]),
                     task="regression")
        out = preprocess(ds, "log-target")
        np.testing.assert_allclose(out.y, [0.0, 1.0])
        np.testing.assert_array_equal(out.X, ds.X)

    def test_log_target_requires_positive_regression(self):
        from heavyrff.data import DataSet
        with pytest.raises(DataError):
            preprocess(DataSet(X=np.zeros((1, 1)), y=np.array([0])),
                       "log-target")
        with pytest.raises(DataError, match="positive"):
            preprocess(DataSet(X=np.zeros((2, 1)), y=np.array([1.0, -1.0]),
                               task="regression"), "log-target")

    def test_zero_row_cannot_unit_normalize(self):
        from heavyrff.data import DataSet
        ds = DataSet(X=np.array([[1.0, 1.0], [0.0, 0.0]]), y=np.zeros(2, int))
        with pytest.raises(DataError, match="zero rows"):
            preprocess(ds, "unit-norm")

    def test_unit_norm_idempotent(self):
        g = np.random.default_rng(1)
        from heavyrff.data import DataSet
        ds = DataSet(X=g.standard_normal((20, 5)), y=np.zeros(20, int))
        once = preprocess(ds, "unit-norm")
        twice = preprocess(once, "unit-norm")
        np.testing.assert_allclose(twice.X, once.X, atol=1e-15)

    def test_standard_scale_unit_norm(self):
        g = np.random.default_rng(2)
        from heavyrff.data import DataSet
        ds = DataSet(X=g.standard_normal((50, 4)) * 7 + 3, y=np.zeros(50, int))
        out = preprocess(ds, "standard-scale+unit-norm")
        np.testing.assert_allclose(np.linalg.norm(out.X, axis=1), 1.0)
        assert out.preprocessing == ("standard-scale", "unit-norm")

    def test_unknown_recipe(self):
        from heavyrff.data import DataSet
        with pytest.raises(DataError, match="unknown recipe"):
            preprocess(DataSet(X=np.ones((1, 1)), y=np.zeros(1, int)), "whiten")


class TestSplitAndSubsample:
    def test_split_partitions_and_is_seeded(self):
        ds = make_classification(200, 3, 2, RngStream(201))
        a_train, a_test = train_test_split(ds, 0.25, RngStream(202))
        b_train, b_test = train_test_split(ds, 0.25, RngStream(202))
        assert a_test.n == 50 and a_train.n == 150
        np.testing.assert_array_equal(a_test.X, b_test.X)
        # every original row appears exactly once across the two parts
        merged = np.vstack([a_train.X, a_test.X])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.X))

    def test_split_rejects_bad_fraction(self):
        ds = make_classification(10, 2, 2, RngStream(203))
        with pytest.raises(ValueError):
            train_test_split(ds, 1.0, RngStream(0))

    def test_subsample_cap_and_identity(self):
        ds = make_classification(100, 3, 2, RngStream(204))
        small = subsample(ds, 30, RngStream(205))
        assert small.n == 30
        same = subsample(ds, 100, RngStream(205))
        assert same is ds


class TestSynthetic:
    def test_classification_shapes_and_determinism(self):
        a = make_classification(150, 6, 3, RngStream(206))
        b = make_classification(150, 6, 3, RngStream(206))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.X.shape == (150, 6)
        assert set(np.unique(a.y)) <= {0, 1, 2}
        np.testing.assert_allclose(np.linalg.norm(a.X, axis=1), 1.0)

    def test_margin_filters_boundary_points(self):
        from heavyrff.data import _smooth_scores
        ds = make_classification(500, 5, 2, RngStream(207), margin=0.05)
        assert ds.n == 500

    def test_label_noise_flips_labels(self):
        clean = make_classification(400, 4, 2, RngStream(208))
        noisy = make_classification(400, 4, 2, RngStream(208), label_noise=0.3)
        np.testing.assert_array_equal(clean.X, noisy.X)
        assert (clean.y != noisy.y).mean() > 0.05

    def test_regression_targets_smooth(self):
        ds = make_regression(300, 4, RngStream(209), noise=0.0)
        assert ds.task == "regression"
        assert np.isfinite(ds.y).all()
        assert ds.y.std() > 0


def read_report(out_base):
    with open(str(out_base) + ".json") as fh:
        return json.load(fh)


class TestCliRuns:
    def test_approx_error_decreases(self, tmp_path):
        out = tmp_path / "approx"
        rc = main(["approx", "--kernel", "laplacian", "--p", "64,1024",
                   "--n", "150", "--d", "4", "--seed", "7", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["status"] == "ok"
        assert report["schema_version"] == 1
        errs = [r["rel_frobenius"] for r in report["results"]]
        assert errs[1] < errs[0]
        with open(str(out) + ".csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "dataset,kernel,scheme,p,norm,value,time_ms,seed"
        assert len(lines) == 1 + 2 * 3      # two p values x three norms

    def test_identical_config_identical_values(self, tmp_path):
        args = ["approx", "--kernel", "matern", "--nu", "1.5", "--p", "256",
                "--n", "100", "--d", "3", "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ra, rb = read_report(a), read_report(b)
        for res_a, res_b in zip(ra["results"], rb["results"]):
            for key in ("rel_frobenius", "rel_operator", "rel_nuclear"):
                assert res_a[key] == res_b[key]     # bit-identical modulo timing

    def test_orf_requires_round_p(self, tmp_path, capsys):
        out = tmp_path / "orf"
        args = ["approx", "--scheme", "orf", "--p", "100", "--n", "80",
                "--d", "16", "--out", str(out)]
        assert main(args) == 1
        assert "multiple of d" in capsys.readouterr().err
        assert read_report(out)["status"] == "failed"
        assert main(args + ["--round-p"]) == 0
        report = read_report(out)
        assert report["results"][0]["p"] == 112
        assert any("rounded" in note for note in report["notes"])

    def test_krr_smoke_with_csv_and_m_file(self, tmp_path):
        ds = make_classification(300, 3, 2, RngStream(210), margin=0.05)
        rows = ["x0,x1,x2,y"] + [
            ",".join(f"{v:.10f}" for v in x) + f",{y}"
            for x, y in zip(ds.X, ds.y)]
        data = write_csv(tmp_path / "data.csv", rows)
        m_file = write_csv(tmp_path / "m.csv", ["1.0,1.0,1.0"])
        out = tmp_path / "krr"
        rc = main(["krr", "--data", data, "--label-col", "y",
                   "--m-file", m_file, "--p", "2048", "--lambda", "1e-4",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        exact, feat = report["results"]
        assert exact["model"] == "exact_krr"
        assert feat["model"] == "ridge_features"
        assert exact["metrics"]["accuracy"] > 0.8
        assert abs(feat["gap_vs_exact"]) < 0.1
        assert feat["operator"]["format"] == "heavyrff-operator"

    def test_klr_smoke(self, tmp_path):
        out = tmp_path / "klr"
        rc = main(["klr", "--kernel", "laplacian", "--p", "512",
                   "--n", "400", "--d", "4", "--classes", "3",
                   "--lambda", "1e-3", "--seed", "5", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        feat = report["results"][1]
        assert feat["model"] == "logistic_features"
        assert 0.0 <= feat["metrics"]["ece"] <= 1.0

    def test_klr_reports_solver_state_and_fit_times(self, tmp_path):
        out = tmp_path / "klr"
        rc = main(["klr", "--kernel", "laplacian", "--p", "64",
                   "--n", "200", "--d", "4", "--classes", "3",
                   "--lambda", "1e-2", "--seed", "6", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["schema_version"] == 1
        exact, feat = report["results"]
        assert feat["converged"] is True
        assert 0.0 <= feat["grad_norm"] < 1e-6
        assert 1 <= feat["n_iter"] <= LogisticOptions().max_iter
        assert feat["n_fev"] >= 1 and feat["n_hessp"] >= 1
        for res in (exact, feat):
            assert isinstance(res["time_ms"], float) and res["time_ms"] > 0
        with open(str(out) + ".csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["time_ms"]) for row in rows] == [exact["time_ms"],
                                                           feat["time_ms"]]

    def test_features_writes_operator_files(self, tmp_path):
        out = tmp_path / "feat"
        rc = main(["features", "--kernel", "exp_power", "--alpha", "1.3",
                   "--scheme", "orf", "--p", "8,16", "--d", "4",
                   "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        for res in report["results"]:
            with open(res["path"]) as fh:
                record = json.load(fh)
            assert record["format"] == "heavyrff-operator"
            assert record["scheme"] == "orf"

    def test_sample_stable_check(self, tmp_path):
        out = tmp_path / "sample"
        rc = main(["sample", "--dist", "stable", "--params", "1.3,0,1",
                   "--draws", "20000", "--seed", "9", "--out", str(out)])
        assert rc == 0
        check = read_report(out)["results"][0]["check"]
        assert check["max_deviation"] < 5 * check["mc_tolerance"]

    def test_sample_gbp_ks(self, tmp_path):
        out = tmp_path / "gbp"
        rc = main(["sample", "--dist", "gbp", "--params", "2.0,0.5,2.0,1.0",
                   "--draws", "20000", "--seed", "10", "--out", str(out)])
        assert rc == 0
        assert read_report(out)["results"][0]["check"]["pvalue"] > 0.01

    def test_bench_smoke(self, tmp_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--kernel", "matern", "--nu", "2.5",
                   "--p", "64,256", "--n", "150", "--d", "4",
                   "--repeats", "1", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert [r["p"] for r in report["results"]] == [64, 256]
        for r in report["results"]:
            assert r["featurize_ms"] > 0 and r["exact_ms"] > 0
            assert r["speedup"] > 0

    def test_missing_data_file_exit_code(self, tmp_path, capsys):
        rc = main(["krr", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_report_embeds_config(self, tmp_path):
        out = tmp_path / "cfg"
        main(["approx", "--p", "64", "--n", "60", "--d", "3",
              "--seed", "42", "--out", str(out)])
        cfg = read_report(out)["config"]
        assert cfg["seed"] == 42 and cfg["kind"] == "approx"
        assert cfg["p_grid"] == [64]

    def test_run_experiment_unknown_kind(self, tmp_path):
        cfg = ExperimentConfig(kind="mystery", out=str(tmp_path / "r"))
        with pytest.raises(ValueError):
            run_experiment(cfg)
        assert read_report(tmp_path / "r")["status"] == "failed"
