import argparse
import csv
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import heavyrff
from heavyrff import kernels
from heavyrff.cli import _atomic_write, main, run_experiment
from heavyrff.data import (DataError, load_csv, make_classification,
                           make_regression, preprocess, subsample,
                           train_test_split)
from heavyrff.learners import fit_logistic_features
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

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            load_csv(str(path))

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

    def test_equals_per_cell_float_parse_bit_for_bit(self, tmp_path):
        g = np.random.default_rng(7)
        values = np.concatenate([
            g.standard_normal((40, 5)) * 10.0 ** g.integers(-300, 300, size=(40, 5)),
            [[5e-324, -0.0, 1.7976931348623157e308, 2.2250738585072014e-308, 0.1]],
        ])
        lines = ["a,b,c,d,e"] + [",".join(repr(float(v)) for v in row) for row in values]
        path = write_csv(tmp_path / "repr.csv", lines)
        ds = load_csv(path, task="regression")
        ref = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        assert ds.X.tobytes() == ref[:, :-1].tobytes()
        assert ds.y.tobytes() == ref[:, -1].tobytes()

    def test_first_bad_cell_in_file_order(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["a,b,c", "1,2,3", "4,inf,x", "y,5,6"])
        with pytest.raises(DataError, match=r"line 3, column 1: non-finite value"):
            load_csv(path)
        path = write_csv(tmp_path / "bad2.csv", ["a,b,c", "1,2,3", "4,x,inf"])
        with pytest.raises(DataError, match=r"line 3, column 1: cannot parse 'x'"):
            load_csv(path)

    @pytest.mark.parametrize("label_col", [-4, 3])
    def test_label_index_out_of_range(self, tmp_path, label_col):
        path = write_csv(tmp_path / "t.csv", ["a,b,c", "1,2,0", "4,5,1"])
        with pytest.raises(DataError, match=rf"label column {label_col} is out of "
                                            r"range -3\.\.2"):
            load_csv(path, label_col=label_col)

    def test_header_shorter_than_rows(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["x,label", "1,2,0", "3,4,1"])
        with pytest.raises(DataError, match="header has 2 fields, line 2 has 3"):
            load_csv(path, label_col="label")

    def test_trailing_blank_line_skipped(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a,b,c", "1,2,0", "4,5,1", ""])
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(ds.y, [0, 1])

    def test_blank_line_after_header_keeps_line_numbers(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a,b,c", "", "1,2,0", "4,5,1"])
        np.testing.assert_array_equal(load_csv(path).y, [0, 1])
        path = write_csv(tmp_path / "bad.csv", ["a,b,c", "", "1,2,0", "4,x,1"])
        with pytest.raises(DataError, match=r"line 4, column 1: cannot parse 'x'"):
            load_csv(path)

    def test_header_and_blank_lines_only(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a,b,c", "", ""])
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)


class TestPreprocess:
    def test_unit_norm_hand_values(self):
        from heavyrff.data import DataSet
        ds = DataSet(X=np.array([[3.0, 4.0]]), y=np.array([0]))
        out = preprocess(ds, "unit-norm")
        np.testing.assert_allclose(out.X, [[0.6, 0.8]])

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

    def test_split_rejects_fraction_leaving_no_training_rows(self):
        ds = make_classification(4, 2, 2, RngStream(206))
        with pytest.raises(ValueError,
                           match="test_fraction 0.9 leaves no training rows out of 4"):
            train_test_split(ds, 0.9, RngStream(0))

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
        top2 = np.partition(_smooth_scores(ds.X, 2, RngStream(207)), -2, axis=1)[:, -2:]
        assert (top2[:, 1] - top2[:, 0]).min() >= 0.05

    def test_regression_targets_smooth(self):
        ds = make_regression(300, 4, RngStream(209), noise=0.0)
        assert ds.task == "regression"
        assert np.isfinite(ds.y).all()
        assert ds.y.std() > 0


# the config keys (flag dests) of each group of flags in the CLI's table
FEATURE_FLAGS = {"seed", "out", "kernel", "alpha", "nu", "scheme", "p_grid",
                 "m_file", "d"}
DATA_FLAGS = {"data_path", "label_col", "task", "recipe", "n", "n_classes", "cap"}


def read_report(out_base):
    with open(str(out_base) + ".json") as fh:
        return json.load(fh)


CSV_HEADER = ["dataset", "kernel", "scheme", "p", "norm", "value", "time_ms", "seed"]
SWEEP_KEYS = ["n", "p", "kernel", "scheme", "rel_frobenius", "rel_operator",
              "rel_nuclear", "seed", "stream_id", "exact_ms", "featurize_ms",
              "gram_ms", "build_ms", "speedup"]
FULL_M = [[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.0]]


def expected_csv_rows(report):
    """The CSV rows a report's results imply, as (cells but time_ms, time_ms)."""
    cfg, results = report["config"], report["results"]
    if cfg["kind"] in ("features", "sample"):
        return []
    dataset = os.path.basename(cfg["data_path"]) if cfg["data_path"] else "synthetic"
    if cfg["kind"] in ("approx", "bench"):
        return [([dataset, cfg["kernel"], cfg["scheme"], str(res["p"]), norm,
                  str(res[f"rel_{norm}"]), str(cfg["seed"])],
                 res["featurize_ms"] + res["gram_ms"])
                for res in results for norm in cfg["norms"]]
    metric = "accuracy" if cfg["task"] == "classification" else "r2"
    return [([dataset, cfg["kernel"], "exact" if res["p"] is None else cfg["scheme"],
              "" if res["p"] is None else str(res["p"]), metric,
              str(res["metrics"][metric]), str(cfg["seed"])], res["time_ms"])
            for res in results]


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

    def test_orf_rounds_p_up_to_a_multiple_of_d(self, tmp_path, capsys):
        out = tmp_path / "orf"
        args = ["approx", "--scheme", "orf", "--p", "100,32", "--n", "80",
                "--d", "16", "--norms", "frobenius", "--out", str(out)]
        assert main(args) == 0
        report = read_report(out)
        assert [row["p"] for row in report["results"]] == [112, 32]
        assert report["config"]["p_grid"] == [100, 32]
        assert report["notes"] == ["synthetic classification data",
                                   "p rounded 100 -> 112 for ORF"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--round-p"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --round-p" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--p", "12,abc"), ("--p", ""), ("--p", "16,,32"), ("--p", "64,0"),
        ("--n", "0"), ("--d", "0"), ("--cap", "0"), ("--n", "-5"),
        ("--repeats", "0"), ("--repeats", "-3"), ("--classes", "0"), ("--classes", "-1"),
    ])
    def test_malformed_integer_flags(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        args = ["approx", "--p", "64", "--n", "60", "--d", "3",
                "--out", str(out), flag, value]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and flag in err[0]
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("dist, params, draws, message", [
        ("gbp", "2,0.5,2", "100", "--params for gbp takes 4 values (alpha,beta,p,q), got 3"),
        ("chi", "3,4", "100", "--params for chi takes 1 value (k), got 2"),
        ("chi", "abc", "100", "--params must be comma-separated numbers, got 'abc'"),
        ("stable", "1.3,0,1,2", "100",
         "--params for stable takes 1 to 3 values (alpha,beta,sigma), got 4"),
        ("chi", "3", "0", "--draws must be an integer >= 1, got 0"),
    ])
    def test_malformed_sample_flags(self, tmp_path, capsys, dist, params, draws, message):
        out = tmp_path / "bad"
        assert main(["sample", "--dist", dist, "--params", params, "--draws", draws,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("params", ["1.3", "1.3,0", "1.3,0,1"])
    def test_sample_stable_takes_one_to_three_params(self, tmp_path, params):
        out = tmp_path / "stable"
        assert main(["sample", "--dist", "stable", "--params", params,
                     "--draws", "100", "--out", str(out)]) == 0
        assert read_report(out)["config"]["params"] == [float(v) for v in params.split(",")]

    @pytest.mark.parametrize("argv, keys", [
        (["sample", "--dist", "chi", "--params", "3", "--draws", "100"],
         {"seed", "out", "dist", "params", "draws"}),
        (["features", "--p", "8", "--d", "2"], FEATURE_FLAGS),
        (["approx", "--p", "8", "--n", "20", "--d", "2"],
         FEATURE_FLAGS | DATA_FLAGS | {"norms", "repeats"}),
        (["bench", "--p", "8", "--n", "20", "--d", "2", "--repeats", "1"],
         FEATURE_FLAGS | DATA_FLAGS | {"norms", "repeats"}),
        (["krr", "--p", "8", "--n", "20", "--d", "2"],
         FEATURE_FLAGS | DATA_FLAGS | {"lam", "test_fraction"}),
        (["klr", "--p", "8", "--n", "20", "--d", "2"],
         FEATURE_FLAGS | DATA_FLAGS | {"lam", "test_fraction"}),
    ])
    def test_config_records_exactly_the_flags_taken(self, tmp_path, argv, keys):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 0
        assert set(read_report(out)["config"]) == keys | {"kind"}

    @pytest.mark.parametrize("argv", [
        ["features", "--lambda", "1"],
        ["approx", "--lambda", "1", "--n", "20", "--d", "2", "--p", "8"],
        ["sample", "--dist", "chi", "--params", "3", "--n", "0"],
    ])
    def test_flag_the_subcommand_does_not_take(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_parameter_of_another_family_is_refused(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["approx", "--kernel", "laplacian", "--alpha", "1.3",
                     "--n", "20", "--d", "2", "--p", "8", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: alpha is only valid for exp_power, not laplacian"]
        assert read_report(out)["status"] == "failed"

    @pytest.mark.parametrize("argv, message", [
        (["--kernel", "matern", "--nu", "0.003", "--scheme", "orf", "--seed", "0"],
         "orf weights for matern nu=0.003 are not finite"),
        (["--kernel", "exp_power", "--alpha", "0.005", "--seed", "2"],
         "rff weights for exp_power alpha=0.005 are not finite"),
    ])
    def test_nonfinite_operator_is_refused(self, tmp_path, capsys, argv, message):
        out = tmp_path / "feat"
        assert main(["features", *argv, "--p", "12", "--d", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert read_report(out)["status"] == "failed"
        assert not list(tmp_path.glob("feat-operator-*"))

    @pytest.mark.parametrize("rows, shape", [(["1,0,0", "0,1,0", "0,0,1"], "3x3"),
                                             (["1,2,3"], "1x3")])
    def test_m_file_must_match_d(self, tmp_path, capsys, rows, shape):
        m_file = write_csv(tmp_path / "m.csv", rows)
        out = tmp_path / "feat"
        assert main(["features", "--d", "16", "--m-file", m_file, "--p", "32",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --m-file holds a {shape} matrix; d=16 needs 16x16, or 1x16 for a diagonal"]
        assert read_report(out)["status"] == "failed"
        assert not list(tmp_path.glob("feat-operator-*"))

    @pytest.mark.parametrize("kernel, rows", [
        ("l1_laplacian", ["nan,1,1"]), ("laplacian", ["nan,1,1"]),
        ("laplacian", ["inf,0,0", "0,1,0", "0,0,1"])])
    def test_nonfinite_m_file_is_refused(self, tmp_path, capsys, kernel, rows):
        m_file = write_csv(tmp_path / "m.csv", rows)
        out = tmp_path / "feat"
        assert main(["features", "--kernel", kernel, "--d", "3", "--p", "6",
                     "--m-file", m_file, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: shape matrix has non-finite entries"]
        assert read_report(out)["status"] == "failed"
        assert not list(tmp_path.glob("feat-operator-*"))

    @pytest.mark.parametrize("nu, message", [
        ("inf", "matern needs finite nu > 0, got inf"),
        ("1e300", "Matern profile needs nu in (0, 10000], got nu=1e+300"),
        ("1e5", "Matern profile needs nu in (0, 10000], got nu=100000.0"),
    ])
    def test_matern_nu_outside_the_envelope_fails_by_name(self, tmp_path, capsys,
                                                          monkeypatch, nu, message):
        # the ladder never ended at nu = 1e300 and ran for seconds at 1e5;
        # patched, it fails any run that reaches it at once instead
        def reached(*args):
            raise AssertionError(f"nu={nu} reached the ladder")

        monkeypatch.setattr(kernels, "_matern_ladder", reached)
        out = tmp_path / "m"
        assert main(["approx", "--kernel", "matern", "--nu", nu, "--n", "20", "--d", "2",
                     "--p", "16", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert read_report(out)["status"] == "failed"

    def test_bench_rejects_unknown_norm(self, tmp_path, capsys):
        out = tmp_path / "bad"
        args = ["bench", "--p", "64", "--n", "60", "--d", "3", "--repeats", "1",
                "--norms", "trace", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == ["error: unknown norm 'trace'"]
        assert read_report(out)["status"] == "failed"

    @pytest.mark.parametrize("command, norms, repeats", [
        ("approx", ["frobenius", "operator", "nuclear"], 1),
        ("bench", ["frobenius"], 3),
    ])
    def test_config_records_the_sweep_that_ran(self, tmp_path, command, norms, repeats):
        out = tmp_path / command
        assert main([command, "--p", "32", "--n", "40", "--d", "3",
                     "--out", str(out)]) == 0
        report = read_report(out)
        assert report["config"]["norms"] == norms
        assert report["config"]["repeats"] == repeats
        (row,) = report["results"]
        for norm in ("frobenius", "operator", "nuclear"):
            assert (row[f"rel_{norm}"] is None) == (norm not in norms)

    @pytest.mark.parametrize("argv, norms", [
        (["approx"], ["frobenius", "operator", "nuclear"]),
        (["approx", "--norms", "operator"], ["operator"]),
        (["bench", "--repeats", "2"], ["frobenius"]),
    ])
    def test_sweep_rows_hold_exactly_the_report_keys(self, tmp_path, argv, norms):
        out = tmp_path / "sweep"
        assert main(argv + ["--p", "16,32", "--n", "40", "--d", "3",
                            "--out", str(out)]) == 0
        rows = read_report(out)["results"]
        assert len(rows) == 2
        for row in rows:
            assert list(row) == SWEEP_KEYS
            for norm in ("frobenius", "operator", "nuclear"):
                assert (row[f"rel_{norm}"] is None) == (norm not in norms)
            assert row["speedup"] == row["exact_ms"] / (row["featurize_ms"] + row["gram_ms"])

    @pytest.mark.parametrize("command", [["approx", "--norms", "frobenius"], ["bench"]])
    def test_reports_are_strict_json(self, tmp_path, command):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        out = tmp_path / "strict"
        assert main(command + ["--p", "32,64", "--n", "40", "--d", "3",
                               "--repeats", "1", "--out", str(out)]) == 0
        with open(str(out) + ".json") as fh:
            report = json.loads(fh.read(), parse_constant=reject)
        assert len(report["results"]) == 2

    def test_bench_draws_grid_point_j_from_substream_j_of_substream_0(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--p", "16,32,64", "--n", "40", "--d", "3",
                     "--repeats", "1", "--seed", "12", "--out", str(out)]) == 0
        root = RngStream(12).substream(0)
        for j, row in enumerate(read_report(out)["results"]):
            child = root.substream(j)
            assert (row["seed"], row["stream_id"]) == (child.seed, child.stream_id)

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
        max_iter = inspect.signature(fit_logistic_features).parameters["max_iter"].default
        assert 1 <= feat["n_iter"] <= max_iter
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

    def test_header_only_data_file(self, tmp_path, capsys):
        data = write_csv(tmp_path / "hdr.csv", ["a,b,label"])
        assert main(["approx", "--data", data, "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {data}: no data rows"]

    def test_data_run_notes_what_the_data_has(self, tmp_path):
        lines = ["a,b,c,label"] + [f"{i},{i % 3},{i * i},{i % 4}" for i in range(1, 41)]
        data = write_csv(tmp_path / "d.csv", lines)
        out = tmp_path / "n"
        assert main(["approx", "--data", data, "--p", "32", "--norms", "frobenius",
                     "--n", "5", "--d", "7", "--classes", "9", "--out", str(out)]) == 0
        report = read_report(out)
        assert (report["config"]["n"], report["config"]["d"],
                report["config"]["n_classes"]) == (5, 7, 9)
        assert report["notes"][0] == ("data has 40 rows, 3 feature columns, 4 labels; "
                                      "--n, --d and --classes are not read")

    @pytest.mark.parametrize("argv, note", [
        (["approx", "--kernel", "matern", "--nu", "2.5", "--p", "16,32", "--n", "60",
          "--d", "3", "--norms", "frobenius,nuclear", "--m-file", "{m}"],
         "synthetic classification data"),
        (["bench", "--scheme", "orf", "--p", "6,12", "--repeats", "2", "--data", "{data}",
          "--label-col", "y", "--recipe", "center+unit-norm", "--cap", "40"],
         "subsampled 60 -> 40"),
        (["krr", "--task", "regression", "--p", "32,64", "--n", "80", "--d", "3",
          "--lambda", "1e-3", "--cap", "70"], "subsampled 80 -> 70"),
        (["krr", "--data", "{data}", "--label-col", "y",
          "--recipe", "standard-scale+unit-norm", "--p", "32", "--lambda", "1e-3"],
         "data has 60 rows, 3 feature columns, 2 labels; "
         "--n, --d and --classes are not read"),
        (["klr", "--p", "32", "--n", "80", "--d", "3", "--classes", "3",
          "--lambda", "1e-2", "--m-file", "{m}"], "synthetic classification data"),
        (["features", "--scheme", "orf", "--p", "5", "--d", "3", "--m-file", "{m}"],
         "p rounded 5 -> 6 for ORF"),
        (["sample", "--dist", "betaprime", "--params", "2,3", "--draws", "2000"], None),
    ])
    def test_csv_rows_match_the_json_results(self, tmp_path, argv, note):
        ds = make_classification(60, 3, 2, RngStream(211), margin=0.05)
        data = write_csv(tmp_path / "data.csv", ["x0,x1,x2,y"] + [
            ",".join(repr(float(v)) for v in x) + f",{y}" for x, y in zip(ds.X, ds.y)])
        m_file = write_csv(tmp_path / "m.csv", [",".join(map(repr, row)) for row in FULL_M])
        out = tmp_path / "r"
        argv = [a.format(data=data, m=m_file) for a in argv]
        assert main(argv + ["--seed", "4", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["status"] == "ok" and report["results"]
        if note is not None:
            assert note in report["notes"]
        with open(str(out) + ".csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == CSV_HEADER
        expected = expected_csv_rows(report)
        assert [row[:6] + row[7:] for row in rows] == [cells for cells, _ in expected]
        assert [float(row[6]) for row in rows] == [time_ms for _, time_ms in expected]
        for res in report["results"]:
            if "operator" in res:    # every fitted or saved operator carries M
                assert res["operator"]["kernel"]["M"] == (
                    FULL_M if "--m-file" in argv else np.eye(3).tolist())
        if argv[0] == "sample":
            assert report["results"][0]["check"]["test"] == "ks_vs_betaprime"

    def test_report_embeds_config(self, tmp_path):
        out = tmp_path / "cfg"
        main(["approx", "--p", "64", "--n", "60", "--d", "3",
              "--seed", "42", "--out", str(out)])
        cfg = read_report(out)["config"]
        assert cfg["seed"] == 42 and cfg["kind"] == "approx"
        assert cfg["p_grid"] == [64]

    def test_atomic_write_leaves_no_temporary_when_replace_fails(self, tmp_path,
                                                                 monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        target = tmp_path / "r.json"
        with pytest.raises(OSError, match="replace refused"):
            _atomic_write(str(target), "{}")
        assert list(tmp_path.iterdir()) == []

    def test_run_experiment_unknown_kind(self, tmp_path):
        cfg = argparse.Namespace(kind="mystery", seed=0, out=str(tmp_path / "r"))
        with pytest.raises(ValueError):
            run_experiment(cfg)
        assert read_report(tmp_path / "r")["status"] == "failed"


def test_cli_import_leaves_stats_and_optimize_unloaded():
    # a fresh interpreter: this test module has loaded both modules already
    src = os.path.dirname(os.path.dirname(os.path.abspath(heavyrff.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, heavyrff.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(heavyrff.__path__):
        module = importlib.import_module(f"heavyrff.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"heavyrff.{info.name}.__all__ names {missing}"
    namespace = {}
    exec("from heavyrff import *", namespace)
    assert set(heavyrff.__all__) <= set(namespace)
