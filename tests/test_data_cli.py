import argparse
import contextlib
import csv
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import signal
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heavyrff
from heavyrff import cli, kernels
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

    LATIN1_FILES = [
        ([b"caf\xe9,b", b"1,2"], 1),
        ([b"a,b", b"1,2", b"", b"3,4", b"5,\xe96"], 5),
        ([b"a,b"] + [b"1,2"] * 5000 + [b"\xe9,0"], 5002),
    ]

    @pytest.mark.parametrize("lines, bad_line, sep", [
        *[case + (b"\r\n",) for case in LATIN1_FILES],
        *[case + (b"\r",) for case in LATIN1_FILES],
    ], ids=["header", "row", "later-chunk", "header-cr", "row-cr", "later-chunk-cr"])
    def test_latin1_byte_names_the_file_and_line(self, tmp_path, lines, bad_line, sep):
        # the bare codec error named neither; the line is counted at the
        # line breaks csv counts, bare \r included
        path = tmp_path / "latin1.csv"
        path.write_bytes(sep.join(lines) + sep)
        with pytest.raises(DataError) as info:
            load_csv(str(path))
        assert str(info.value).startswith(
            f"{path}: line {bad_line} is not UTF-8 text (byte 0xe9 at offset ")

    def test_non_utf8_file_is_opened_once(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr("heavyrff.data.open", counting_open, raising=False)
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xe9\n")
        with pytest.raises(DataError, match="line 3 is not UTF-8 text"):
            load_csv(str(path))
        assert opened == [str(path)]

    @pytest.mark.parametrize("raw, message", [
        # a sequence cut off by the line break reads as the bare line decodes
        (b"a,b\r\n1,\xe2\x82\r\n", "line 2 is not UTF-8 text (byte 0xe2 at offset 2: "
                                    "unexpected end of data)"),
        # the offset counts a byte-order mark on line 1
        (b"\xef\xbb\xbfa\xe9,b\n1,2\n", "line 1 is not UTF-8 text (byte 0xe9 at offset 4: "
                                       "invalid continuation byte)"),
        (b"\xef\xbb\xbf", "empty file"),
        # faults are named in file order: the row comes before the later bytes
        (b"a,b\nx,1\n1,\xe9\n", "line 2, column 0: cannot parse 'x'"),
    ], ids=["cut-sequence", "bom-offset", "bom-only", "row-first"])
    def test_decode_error_texts(self, tmp_path, raw, message):
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError) as info:
            load_csv(str(path))
        assert str(info.value) == f"{path}: {message}"

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

    @pytest.mark.parametrize("label", ["1000000.5", "1.000001"])
    def test_labels_within_allclose_tolerance_are_not_integers(self, tmp_path, label):
        # np.allclose's rtol of 1e-5 loaded these as 1000000 and 1
        path = write_csv(tmp_path / "t.csv", ["a,b", "1,0", f"2,{label}"])
        with pytest.raises(DataError, match="integers"):
            load_csv(path, task="classification")

    def test_label_beyond_int64_is_refused_without_a_warning(self, tmp_path):
        # the cast to int warned "invalid value encountered in cast" first
        path = write_csv(tmp_path / "t.csv", ["a,b", "1,0", "2,1e20"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="classification labels must be integers"):
                load_csv(path, task="classification")

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

    def test_utf8_bom_is_not_part_of_the_first_column_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffx0,x1,y\n1,2.5,3\n0,4.5,6\n", encoding="utf-8")
        ds = load_csv(str(path), label_col="x0")
        np.testing.assert_array_equal(ds.y, [1, 0])
        np.testing.assert_array_equal(ds.X, [[2.5, 3.0], [4.5, 6.0]])

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_parse_holds_no_python_object_per_cell(self, tmp_path, task):
        g = np.random.default_rng(3)
        body = [",".join(map(repr, row.tolist())) + f",{label}"
                for row, label in zip(g.standard_normal((5000, 40)),
                                      g.integers(0, 10, size=5000))]
        path = write_csv(tmp_path / "wide.csv", [",".join(f"x{j}" for j in range(41))] + body)
        tracemalloc.start()
        try:
            ds = load_csv(path, task=task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.X.shape == (5000, 40)
        # the table plus the X and y copied out of it; a list of floats per row is ~16x
        assert peak < 3 * (ds.X.nbytes + ds.y.nbytes)
        assert ds.y.base is None  # y does not keep the n x 41 table alive

    # corrupt tokens: float() refuses the first two and reads the rest as non-finite
    BAD_CELLS = ["x", "1.2.3", "nan", "inf", "-inf", "1e400"]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n_rows=st.integers(1, 6), n_cols=st.integers(1, 4))
    def test_line_numbers_survive_blank_lines_and_corrupt_cells(self, data, n_rows, n_cols):
        values = data.draw(st.lists(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=n_cols,
            max_size=n_cols), min_size=n_rows, max_size=n_rows))
        rows = [[repr(v) for v in row] for row in values]
        bad = data.draw(st.none() | st.tuples(st.integers(0, n_rows - 1),
                                              st.integers(0, n_cols - 1),
                                              st.sampled_from(self.BAD_CELLS)))
        if bad is not None:
            rows[bad[0]][bad[1]] = bad[2]
        # blanks[i] blank lines go before data row i, blanks[n_rows] after the last
        blanks = data.draw(st.lists(st.integers(0, 2), min_size=n_rows + 1,
                                    max_size=n_rows + 1))
        lines, file_line = [",".join(f"c{j}" for j in range(n_cols))], []
        for i, row in enumerate(rows):
            lines += [""] * blanks[i] + [",".join(row)]
            file_line.append(len(lines))
        lines += [""] * blanks[n_rows]
        label_col = data.draw(st.integers(-n_cols, n_cols - 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            if bad is None:
                ds = load_csv(path, label_col=label_col, task="regression")
                ref = np.array([[float(cell) for cell in row] for row in rows])
                assert ds.X.tobytes() == np.delete(ref, label_col, axis=1).tobytes()
                assert ds.y.tobytes() == ref[:, label_col].tobytes()
            else:
                with pytest.raises(DataError, match=rf": line {file_line[bad[0]]}, "
                                                    rf"column {bad[1]}: "):
                    load_csv(path, label_col=label_col, task="regression")


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

    def test_unreachable_margin_raises_instead_of_redrawing_forever(self):
        # each class score is a sum of three bumps in (0, 1], so no gap reaches 3
        with pytest.raises(ValueError, match=r"margin 5\.0 keeps none of 20 candidate points"):
            make_classification(10, 2, 3, RngStream(0), margin=5.0)

    def test_rare_margin_is_not_refused(self):
        # a round of 62 candidates keeps a point about half the time here;
        # refusing the first empty round ended 19 of these 20 seeds
        for seed in range(20):
            ds = make_classification(31, 8, 10, RngStream(seed), margin=0.5)
            assert ds.X.shape == (31, 8) and ds.y.shape == (31,)

    def test_margin_with_one_class_is_refused_by_name(self):
        with pytest.raises(ValueError, match="margin 0.1 needs at least 2 classes, got 1"):
            make_classification(10, 2, 1, RngStream(0), margin=0.1)
        assert make_classification(10, 2, 1, RngStream(0)).y.tolist() == [0] * 10

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
    metric = "r2" if cfg.get("task") == "regression" else "accuracy"  # only krr takes --task
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
        assert report["notes"] == ["synthetic regression data",
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
        command = "krr" if flag == "--classes" else "approx"  # the sweeps take no --classes
        args = [command, "--p", "64", "--n", "60", "--d", "3",
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
         FEATURE_FLAGS | DATA_FLAGS - {"n_classes", "task"} | {"norms", "repeats"}),
        (["bench", "--p", "8", "--n", "20", "--d", "2", "--repeats", "1"],
         FEATURE_FLAGS | DATA_FLAGS - {"n_classes", "task"} | {"norms", "repeats"}),
        (["krr", "--p", "8", "--n", "20", "--d", "2"],
         FEATURE_FLAGS | DATA_FLAGS | {"lam", "test_fraction"}),
        (["klr", "--p", "8", "--n", "20", "--d", "2"],
         FEATURE_FLAGS | DATA_FLAGS - {"task"} | {"lam", "test_fraction"}),
    ])
    def test_config_records_exactly_the_flags_taken(self, tmp_path, argv, keys):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 0
        assert set(read_report(out)["config"]) == keys | {"kind"}

    @pytest.mark.parametrize("argv", [
        ["features", "--lambda", "1"],
        ["approx", "--lambda", "1", "--n", "20", "--d", "2", "--p", "8"],
        ["sample", "--dist", "chi", "--params", "3", "--n", "0"],
        # flags that could not change a result: the sweeps read only X, and
        # klr fits classification labels only
        ["approx", "--classes", "7", "--n", "20", "--d", "2", "--p", "8"],
        ["bench", "--classes", "7", "--n", "20", "--d", "2", "--p", "8"],
        ["approx", "--task", "regression", "--n", "20", "--d", "2", "--p", "8"],
        ["bench", "--task", "classification", "--n", "20", "--d", "2", "--p", "8"],
        ["klr", "--task", "regression", "--n", "20", "--d", "2", "--p", "8"],
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

    @pytest.mark.parametrize("content, message", [
        (b"1,0,a\n0,1,0\n0,0,1\n", "could not convert string 'a' to float64 at row 0, column 3."),
        (b"1,0,0\n0,1,0\n0,0,\xe9\n", "'utf-8' codec can't decode byte 0xe9"),
    ], ids=["cell", "latin1"])
    def test_unreadable_m_file_names_the_flag_and_path(self, tmp_path, capsys,
                                                       content, message):
        # np.loadtxt's message alone named neither
        m_file = tmp_path / "bad.csv"
        m_file.write_bytes(content)
        out = tmp_path / "feat"
        assert main(["features", "--d", "3", "--p", "6", "--m-file", str(m_file),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --m-file {m_file}: {message}")
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
        ("inf", "--nu must be finite, got inf"),
        ("1e300", "matern needs nu in [2.2250738585072014e-308, 10000], got nu=1e+300"),
        ("1e5", "matern needs nu in [2.2250738585072014e-308, 10000], got nu=100000.0"),
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
        if nu == "inf":  # refused with the flags, before any report is written
            assert not (tmp_path / "m.json").exists()
        else:
            assert read_report(out)["status"] == "failed"

    @pytest.mark.parametrize("nu", ["1e300", "2e4"])
    def test_features_refuses_nu_outside_the_envelope(self, tmp_path, capsys, nu):
        # both wrote an operator record that approx then refused
        out = tmp_path / "f"
        assert main(["features", "--kernel", "matern", "--nu", nu, "--d", "2",
                     "--p", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: matern needs nu in [2.2250738585072014e-308, 10000], got nu={float(nu)}"]
        assert read_report(out)["status"] == "failed"
        assert not [name for name in os.listdir(tmp_path) if "operator" in name]

    def test_bench_rejects_unknown_norm(self, tmp_path, capsys):
        out = tmp_path / "bad"
        args = ["bench", "--p", "64", "--n", "60", "--d", "3", "--repeats", "1",
                "--norms", "trace", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --norms must list norms out of frobenius,operator,nuclear, got 'trace'"]
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("flag, code, message", [
        ("--recipe", 2, "argument --recipe: invalid choice: 'bogus'"),
        ("--norms", 1,
         "error: --norms must list norms out of frobenius,operator,nuclear, got 'bogus'"),
    ])
    def test_malformed_recipe_or_norms_writes_no_report(self, tmp_path, flag, code, message):
        # both once built the data and left a failed report
        code_seen, err = run_cli(["approx", "--n", "20", "--d", "2", "--p", "8", flag, "bogus"],
                                 str(tmp_path))
        assert code_seen == code and message in err[-1]
        assert os.listdir(tmp_path) == []

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
                     "--n", "5", "--d", "7", "--out", str(out)]) == 0
        report = read_report(out)
        assert (report["config"]["n"], report["config"]["d"]) == (5, 7)
        assert report["notes"][0] == ("data has 40 rows, 3 feature columns; "
                                      "--n and --d are not read")

    @pytest.mark.parametrize("argv, note", [
        (["approx", "--kernel", "matern", "--nu", "2.5", "--p", "16,32", "--n", "60",
          "--d", "3", "--norms", "frobenius,nuclear", "--m-file", "{m}"],
         "synthetic regression data"),
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
        (["sample", "--dist", "gbp", "--params", "2,3,1,1", "--draws", "2000"], None),
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
            assert report["results"][0]["check"]["test"] == "ks_vs_gbp_cdf"

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

    def test_features_creates_a_missing_out_directory(self, tmp_path):
        # operator records were written with a plain open(), which exited 1 here
        out = tmp_path / "new" / "ops"
        assert main(["features", "--p", "8", "--d", "2", "--out", str(out)]) == 0
        assert sorted(os.listdir(tmp_path / "new")) == [
            "ops-operator-p8.json", "ops.csv", "ops.json"]

    def test_every_file_a_run_writes_has_the_mode_open_gives(self, tmp_path):
        # reports were written 0600 through mkstemp, operator records 0644
        previous = os.umask(0o027)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            assert main(["features", "--p", "8", "--d", "2",
                         "--out", str(tmp_path / "f")]) == 0
        finally:
            os.umask(previous)
        modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in os.listdir(tmp_path)}
        assert modes == dict.fromkeys(["plain", "f-operator-p8.json", "f.json", "f.csv"],
                                      0o640)

    def test_run_experiment_unknown_kind(self, tmp_path):
        cfg = argparse.Namespace(kind="mystery", seed=0, out=str(tmp_path / "r"))
        with pytest.raises(ValueError):
            run_experiment(cfg)
        assert read_report(tmp_path / "r")["status"] == "failed"


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def assert_strict_reports(directory):
    """Every JSON file under ``directory`` is strict JSON."""
    for name in os.listdir(directory):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                json.loads(fh.read(), parse_constant=reject_constant)


class TestSweepsReadOnlyX:
    """approx and bench read only X: a label column is dropped unread."""

    # the rows of `approx --n 50 --d 3` before the sweeps dropped --task, but for
    # rel_nuclear, whose denominator is K's trace, not the sum of |eigvalsh(K)|
    PINNED = {"rel_frobenius": 0.06365126184526489, "rel_operator": 0.04360894893298836,
              "rel_nuclear": 0.10014801536298482}

    @pytest.mark.parametrize("command", ["approx", "bench"])
    def test_real_valued_labels_give_the_integer_labels_rows(self, tmp_path, command):
        X = make_classification(40, 3, 2, RngStream(5)).X
        rows = [",".join(repr(float(v)) for v in x) for x in X]
        reals = write_csv(tmp_path / "reg.csv", ["a,b,c,y"] + [
            f"{row},{3.7 * math.sin(i)!r}" for i, row in enumerate(rows)])
        ints = write_csv(tmp_path / "cls.csv", ["a,b,c,y"] + [
            f"{row},{i % 3}" for i, row in enumerate(rows)])
        results = []
        for data in (reals, ints):
            out = tmp_path / "r"
            assert main([command, "--data", data, "--p", "4,8", "--norms",
                         "frobenius,operator,nuclear", "--repeats", "1",
                         "--out", str(out)]) == 0
            results.append([{k: v for k, v in row.items() if k.startswith("rel_")}
                            for row in read_report(out)["results"]])
        assert results[0] == results[1]

    def test_synthetic_rows_are_unchanged(self, tmp_path):
        out = tmp_path / "a"
        assert main(["approx", "--n", "50", "--d", "3", "--out", str(out)]) == 0
        (row,) = read_report(out)["results"]
        assert {key: row[key] for key in self.PINNED} == self.PINNED

    @pytest.mark.parametrize("n, d", [(1000, 16), (7, 3), (16, 2)])
    def test_regression_data_draws_the_classification_x(self, n, d):
        for classes in (1, 2, 10):
            np.testing.assert_array_equal(make_regression(n, d, RngStream(3)).X,
                                          make_classification(n, d, classes, RngStream(3)).X)

    @pytest.mark.parametrize("command", ["approx", "bench", "klr"])
    def test_log_target_is_refused_where_y_is_no_real_target(self, tmp_path, capsys,
                                                              command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--recipe", "log-target", "--n", "20", "--d", "2", "--p", "8",
                  "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "argument --recipe: invalid choice: 'log-target'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_log_target_with_classification_is_refused_before_any_work(self, tmp_path):
        code, err = run_cli(["krr", "--task", "classification", "--recipe", "log-target",
                             "--n", "20", "--d", "2", "--p", "8"], str(tmp_path))
        assert code == 1
        assert err[-1] == "error: --recipe log-target needs --task regression"
        assert os.listdir(tmp_path) == []

    def test_log_target_fits_krr_regression(self, tmp_path):
        ds = make_regression(60, 2, RngStream(8))
        data = write_csv(tmp_path / "pos.csv", ["a,b,y"] + [
            f"{float(x[0])!r},{float(x[1])!r},{math.exp(y)!r}" for x, y in zip(ds.X, ds.y)])
        out = tmp_path / "k"
        assert main(["krr", "--task", "regression", "--recipe", "log-target",
                     "--data", data, "--p", "16", "--lambda", "1e-3",
                     "--out", str(out)]) == 0
        report = read_report(out)
        assert [res["model"] for res in report["results"]] == ["exact_krr", "ridge_features"]
        assert report["results"][0]["metrics"]["r2"] > 0.5


def test_readme_cli_table_counts_the_flags_each_subcommand_takes():
    subparsers = argparse.ArgumentParser().add_subparsers()
    taken = {}
    for kind in cli._RUNNERS:
        sub = subparsers.add_parser(kind)
        cli._add_flags(sub, kind)
        taken[kind] = sum(1 for action in sub._actions
                          if action.option_strings and action.dest != "help")
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    table = text.split("| subcommand | flags | count |\n|---|---|---|\n")[1].split("\n\n")[0]
    listed = {}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        for name in cells[0].replace("`", "").split(", "):
            listed[name] = int(cells[-1])
    assert listed == taken
    assert f"That makes {sum(taken.values())} settable flags." in text


def run_cli(argv, out_dir, seconds=10):
    """``main(argv)`` under an alarm: exit code, stderr lines."""
    def timeout(signum, frame):
        raise TimeoutError(f"{argv} ran past {seconds} s")

    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv + ["--out", os.path.join(out_dir, "r")])
            except SystemExit as exc:  # argparse's exit 2
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue().splitlines()


def assert_ends_cleanly(argv):
    """Exit 0 with strict JSON, or exit 1 or 2 with one ``error:`` line."""
    with tempfile.TemporaryDirectory() as out_dir:
        code, err = run_cli(argv, out_dir)
        assert code in (0, 1, 2), (argv, code)
        assert not any("Traceback" in line for line in err), (argv, err)
        if code == 1:
            assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        elif code == 2:  # argparse: usage lines, then one error line
            assert sum("error:" in line for line in err) == 1, (argv, err)
        assert_strict_reports(out_dir)


class TestCliEdges:
    """Edge inputs end by name or with strict JSON, never in a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--dist", "stable", "--params", "0.001,1,1"],
         "stable draws at --params 0.001,1.0,1.0 are not finite"),
        (["sample", "--dist", "stable", "--params", "1.5,0,inf"],
         "--params must be finite, got '1.5,0,inf'"),
        (["sample", "--dist", "gbp", "--params", "1,1,1,inf"],
         "--params must be finite, got '1,1,1,inf'"),
        (["sample", "--dist", "gbp", "--params", "1e-300,1e-300,1,1"],
         "gbp draws at --params 1e-300,1e-300,1.0,1.0 are not finite"),
        (["sample", "--dist", "chi", "--params", "inf"], "--params must be finite, got 'inf'"),
        (["krr", "--lambda", "nan"], "--lambda must be finite, got nan"),
        (["krr", "--lambda", "inf"], "--lambda must be finite, got inf"),
        (["klr", "--lambda", "nan"], "--lambda must be finite, got nan"),
        (["klr", "--lambda", "inf"], "--lambda must be finite, got inf"),
        (["features", "--kernel", "exp_power", "--alpha", "nan"],
         "--alpha must be finite, got nan"),
        (["krr", "--test-fraction", "inf"], "--test-fraction must be finite, got inf"),
        # finite draws whose mean overflows
        (["sample", "--dist", "stable", "--params", "2,0,2e307", "--draws", "1000"],
         "stable draws at --params 2.0,0.0,2e+307: mean is not finite"),
    ])
    def test_fails_by_name(self, tmp_path, argv, message):
        small = ["--n", "30", "--d", "2", "--p", "8"] if argv[0] in ("krr", "klr") else []
        code, err = run_cli(argv + small, str(tmp_path))
        assert (code, err) == (1, [f"error: {message}"])
        assert_strict_reports(tmp_path)

    def test_directory_as_data_or_m_file(self, tmp_path):
        for argv in (["approx", "--data", str(tmp_path), "--p", "8"],
                     ["features", "--m-file", str(tmp_path), "--d", "2", "--p", "4"]):
            code, err = run_cli(argv, str(tmp_path))
            assert code == 1 and len(err) == 1
            assert err[0].startswith("error: [Errno") and "Is a directory" in err[0]
            assert read_report(tmp_path / "r")["status"] == "failed"

    def test_out_under_a_regular_file(self, tmp_path):
        (tmp_path / "file").write_text("x")
        code, err = run_cli(["features", "--d", "2", "--p", "4"], str(tmp_path / "file"))
        assert code == 1 and len(err) == 1
        assert err[0].startswith("error: [Errno")

    def test_tiny_nu_ends_by_name(self):
        # the t law's redraws once ran without bound here; one round is left
        src = os.path.dirname(os.path.dirname(os.path.abspath(heavyrff.__file__)))
        with tempfile.TemporaryDirectory() as out_dir:
            proc = subprocess.run(
                [sys.executable, "-m", "heavyrff.cli", "features", "--kernel", "matern",
                 "--nu", "1e-300", "--d", "3", "--p", "8",
                 "--out", os.path.join(out_dir, "r")],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                timeout=60)
            assert proc.returncode == 1
            assert proc.stderr.splitlines() == [
                "error: rff weights for matern nu=1e-300 are not finite"]
            assert_strict_reports(out_dir)

    # examples are drawn deterministically, with no example database on disk;
    # half the values are edges, half lie inside the laws' ranges
    VALUES = st.one_of(st.sampled_from(["0", "5e-324", "1e-300", "1e300", "inf", "nan",
                                        "-1", "-inf"]),
                       st.sampled_from(["0.001", "0.5", "1", "1.3", "2", "4"]))
    # each law with as many parameters as it takes (stable: 1 to 3)
    # and BetaPrime, which is gbp with p = q = 1
    LAWS = st.sampled_from([("chi", 1, []), ("gbp", 2, ["1", "1"]), ("gbp", 4, []),
                            ("stable", 1, []), ("stable", 2, []), ("stable", 3, [])]).flatmap(
        lambda law: st.tuples(st.just(law[0]), st.lists(
            TestCliEdges.VALUES, min_size=law[1], max_size=law[1]).map(lambda v: v + law[2])))

    # "--flag=value", so that argparse reads a leading "-" as part of the value
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(law=LAWS, draws=st.sampled_from(["1", "7", "50"]), seed=st.sampled_from(["0", "1"]))
    def test_sample_flag_space(self, law, draws, seed):
        dist, params = law
        assert_ends_cleanly(["sample", "--dist", dist, f"--params={','.join(params)}",
                             "--draws", draws, "--seed", seed])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(flag=st.sampled_from(["--nu", "--alpha"]), value=VALUES,
           scheme=st.sampled_from(["rff", "orf"]), p=st.sampled_from(["1", "6", "12,5"]),
           d=st.sampled_from(["1", "3"]), seed=st.sampled_from(["0", "2"]))
    def test_features_flag_space(self, flag, value, scheme, p, d, seed):
        kernel = "matern" if flag == "--nu" else "exp_power"
        assert_ends_cleanly(["features", "--kernel", kernel, f"{flag}={value}",
                             "--scheme", scheme, "--p", p, "--d", d, "--seed", seed])

    # 12 rows, 2 feature columns and a positive integer label column "y"
    DATA = "a,b,y\n" + "".join(f"{np.sin(i):.3f},{np.cos(3 * i):.3f},{1 + i % 3}\n"
                                for i in range(12))
    # each data subcommand with a float flag it takes; the kernel follows the flag
    FLOAT_FLAGS = {"approx": ("--alpha", "--nu"), "bench": ("--alpha", "--nu"),
                   "krr": ("--alpha", "--nu", "--lambda", "--test-fraction"),
                   "klr": ("--alpha", "--nu", "--lambda", "--test-fraction")}
    KERNEL = {"--alpha": "exp_power", "--nu": "matern"}

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(command=st.sampled_from(sorted(FLOAT_FLAGS)).flatmap(
               lambda c: st.tuples(st.just(c), st.sampled_from(TestCliEdges.FLOAT_FLAGS[c]))),
           value=VALUES, scheme=st.sampled_from(["rff", "orf"]),
           p=st.sampled_from(["1", "8", "6,3"]), data=st.booleans(),
           # half the examples take the default recipe and label column
           recipe=st.one_of(st.just("none"), st.sampled_from(
               ["center", "standard-scale+unit-norm", "log-target", "bogus"])),
           label_col=st.one_of(st.just("-1"), st.sampled_from(["0", "y", "q", "7"])),
           task=st.sampled_from(["classification", "regression"]),
           seed=st.sampled_from(["0", "3"]))
    def test_data_flag_space(self, command, value, scheme, p, data, recipe, label_col,
                             task, seed):
        command, flag = command
        argv = [command, "--kernel", self.KERNEL.get(flag, "laplacian"), f"{flag}={value}",
                "--scheme", scheme, "--p", p, "--d", "2", "--n", "16", "--recipe", recipe,
                "--label-col", label_col, "--seed", seed]
        if command == "krr":  # klr fits classification labels only, the sweeps none
            argv += ["--task", task]
        if command in ("approx", "bench"):
            argv += ["--repeats", "1"]
        with tempfile.TemporaryDirectory() as data_dir:
            if data:
                path = os.path.join(data_dir, "tiny.csv")
                with open(path, "w") as fh:
                    fh.write(self.DATA)
                argv += ["--data", path]
            assert_ends_cleanly(argv)


def test_cli_import_loads_no_scipy_module():
    # a fresh interpreter: this test module has loaded scipy already; each
    # scipy module is imported where it is first used
    src = os.path.dirname(os.path.dirname(os.path.abspath(heavyrff.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, heavyrff.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
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
