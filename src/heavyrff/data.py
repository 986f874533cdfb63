"""Dataset ingestion, preprocessing recipes and synthetic data generation."""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .rng import RngStream, count

__all__ = [
    "DataError",
    "DataSet",
    "load_csv",
    "preprocess",
    "train_test_split",
    "subsample",
    "make_classification",
    "make_regression",
    "RECIPES",
]

X_RECIPES = ("none", "center", "unit-norm", "center+unit-norm", "standard-scale+unit-norm")
RECIPES = X_RECIPES + ("log-target",)  # log-target rewrites y only
_EMPTY_ROUNDS = 64  # make_classification's rounds in a row that keep no point


class DataError(ValueError):
    """Raised for malformed input files or invalid preprocessing."""


@dataclass
class DataSet:
    X: np.ndarray
    y: np.ndarray
    task: str = "classification"     # "classification" | "regression"

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _reject_row(path, line: int, row: list[str]) -> None:
    """Raise a DataError naming the first cell of ``row`` that is not a finite number."""
    for j, cell in enumerate(row):
        try:
            val = float(cell)
        except ValueError as exc:
            raise DataError(f"{path}: line {line}, column {j}: cannot parse {cell!r}") from exc
        if not math.isfinite(val):
            raise DataError(f"{path}: line {line}, column {j}: non-finite value")


def _text_lines(path, fh):
    """Yield binary ``fh``'s lines as text, split at the breaks csv counts (``\\n``,
    ``\\r``, ``\\r\\n``) and decoded one by one, so bad bytes name their line."""
    pieces = (piece for raw in fh for piece in raw.splitlines(keepends=True))
    for line, piece in enumerate(pieces, start=1):
        try:  # utf-8-sig drops a byte-order mark before line 1
            text = piece.decode("utf-8-sig" if line == 1 else "utf-8")
        except UnicodeDecodeError:
            try:  # name the byte as the bare line decodes: BOM kept, break cut
                piece.rstrip(b"\r\n").decode("utf-8")
            except UnicodeDecodeError as bad:
                raise DataError(f"{path}: line {line} is not UTF-8 text (byte 0x"
                                f"{bad.object[bad.start]:02x} at offset {bad.start}: "
                                f"{bad.reason})") from None
        if text:  # a file of just a byte-order mark has no lines
            yield text


def load_csv(path, label_col: int | str = -1, task: str = "classification") -> DataSet:
    """Parse a numeric CSV with a header line and a designated label column.

    The file is read once, line by line, each line decoded as UTF-8 on its
    own (a leading byte-order mark is dropped); rows stream into one float
    buffer, so the parse holds about two copies of the numeric table, not a
    Python object per cell. Row order is kept and blank lines are skipped.
    Malformed or non-finite cells raise :class:`DataError` naming the line
    and column, as do a row whose field count differs from the header's, a
    file with no data rows, a label column outside ``-n_cols .. n_cols - 1``
    and bytes that are not UTF-8. Every line named is a file line: a row's
    is the one its record starts on, though a quoted cell may span breaks.
    """
    with open(path, "rb") as fh:
        reader = csv.reader(_text_lines(path, fh))
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        label_idx = label_col
        if isinstance(label_col, str):
            if label_col not in header:
                raise DataError(f"{path}: label column {label_col!r} not in header")
            label_idx = header.index(label_col)
        n_cols, table = len(header), array("d")
        end = reader.line_num  # file line on which the last record ended
        for row in reader:
            line, end = end + 1, reader.line_num  # a record may span line breaks
            if not row:  # csv.reader yields [] for a blank line
                continue
            if not table and not -n_cols <= label_idx < n_cols:  # first row; 'no data rows' wins
                raise DataError(f"{path}: label column {label_idx} is out of range "
                                f"{-n_cols}..{n_cols - 1} for {n_cols} columns")
            if len(row) != n_cols:
                raise DataError(f"{path}: header has {n_cols} fields, "
                                f"line {line} has {len(row)}")
            try:
                vals = [float(cell) for cell in row]
            except ValueError:
                vals = None
            if vals is None or not all(map(math.isfinite, vals)):
                _reject_row(path, line, row)
            table.extend(vals)
    if not table:
        raise DataError(f"{path}: no data rows")
    data = np.frombuffer(table).reshape(-1, n_cols)
    X = np.delete(data, label_idx, axis=1)
    y = data[:, label_idx].copy()  # a view would keep the whole table alive
    if task == "classification":
        with np.errstate(invalid="ignore"):  # a label beyond int64 casts to garbage
            yi = y.astype(int)
        if not np.array_equal(y, yi):
            raise DataError(f"{path}: classification labels must be integers")
        y = yi
    return DataSet(X=X, y=y, task=task)


def preprocess(ds: DataSet, recipe: str) -> DataSet:
    """Apply one of the fixed preprocessing recipes, in the stated order.

    center -> standard scale -> unit row norm; log-target transforms y only.
    """
    if recipe not in RECIPES:
        raise DataError(f"unknown recipe {recipe!r}; expected one of {RECIPES}")
    X = ds.X.copy()
    y = ds.y.copy()
    if recipe == "log-target":
        if ds.task != "regression":
            raise DataError("log-target only applies to regression targets")
        if np.any(y <= 0.0):
            bad = np.flatnonzero(y <= 0.0)[:5].tolist()
            raise DataError(f"log-target requires positive targets (rows {bad})")
        return replace(ds, X=X, y=np.log(y))
    if recipe in ("center", "center+unit-norm", "standard-scale+unit-norm"):
        X = X - X.mean(axis=0)
    if recipe == "standard-scale+unit-norm":
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        X = X / std
    if recipe.endswith("unit-norm"):
        norms = np.linalg.norm(X, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DataError(f"cannot unit-normalize zero rows {zero[:5].tolist()}")
        X = X / norms[:, None]
    return replace(ds, X=X, y=y)


def subsample(ds: DataSet, cap: int, rng: RngStream) -> DataSet:
    """Seeded shuffle, then the first ``cap`` rows (a count); ``ds`` itself when n <= cap."""
    cap = count("cap", cap)
    if ds.n <= cap:
        return ds
    idx = rng.generator.permutation(ds.n)[:cap]
    return replace(ds, X=ds.X[idx], y=ds.y[idx])


def train_test_split(ds: DataSet, test_fraction: float,
                     rng: RngStream) -> tuple[DataSet, DataSet]:
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie in (0, 1)")
    n_test = max(1, int(round(test_fraction * ds.n)))
    if n_test >= ds.n:
        raise ValueError(f"test_fraction {test_fraction} leaves no training rows "
                         f"out of {ds.n}")
    idx = rng.generator.permutation(ds.n)
    test, train = idx[:n_test], idx[n_test:]
    return (replace(ds, X=ds.X[train], y=ds.y[train]),
            replace(ds, X=ds.X[test], y=ds.y[test]))


def _smooth_scores(X: np.ndarray, n_classes: int, rng: RngStream) -> np.ndarray:
    """Smooth class scores: distances to random anchor points through RBF bumps."""
    g = rng.generator
    d = X.shape[1]
    centers = g.standard_normal((n_classes, 3, d)) / np.sqrt(d)
    scores = np.zeros((X.shape[0], n_classes))
    for c in range(n_classes):
        diffs = X[:, None, :] - centers[c][None, :, :]
        scores[:, c] = np.exp(-2.0 * (diffs ** 2).sum(axis=2)).sum(axis=1)
    return scores


def make_classification(n: int, d: int, n_classes: int, rng: RngStream,
                        margin: float = 0.0) -> DataSet:
    """Synthetic classification data with labels from a smooth target.

    A positive ``margin`` rejects points whose top-two class scores are closer
    than it, which controls how hard the decision boundary is. ValueError ends
    a margin that is not >= 0 and finite, 64 rounds of ``2 * n`` candidates in
    a row that keep no point, and a margin with one class, which has no second
    score.
    """
    n, d, n_classes = count("n", n), count("d", d), count("n_classes", n_classes)
    if not 0 <= margin < np.inf:
        raise ValueError(f"margin must be >= 0 and finite, got {margin}")
    if margin > 0.0 and n_classes < 2:
        raise ValueError(f"margin {margin} needs at least 2 classes, got {n_classes}")
    g = rng.generator
    chunks, empty = [], 0
    while sum(len(y) for _, y in chunks) < n:
        X = g.standard_normal((2 * n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        scores = _smooth_scores(X, n_classes, rng.fresh())
        y = scores.argmax(axis=1)
        if margin > 0.0:
            top2 = np.partition(scores, -2, axis=1)[:, -2:]
            keep = top2[:, 1] - top2[:, 0] >= margin
            empty = 0 if keep.any() else empty + 1
            if empty == _EMPTY_ROUNDS:  # a margin no point reaches would redraw forever
                raise ValueError(f"margin {margin} keeps none of {2 * n} candidate points in "
                                 f"{_EMPTY_ROUNDS} rounds in a row; the top-two gap stays below it")
            X, y = X[keep], y[keep]
        chunks.append((X, y))
    X, y = (np.concatenate(parts)[:n] for parts in zip(*chunks))
    return DataSet(X=X, y=y, task="classification")


def make_regression(n: int, d: int, rng: RngStream,
                    noise: float = 0.05) -> DataSet:
    """Synthetic regression data from a smooth target plus Gaussian noise of
    standard deviation ``noise`` (>= 0 and finite); ``n`` and ``d`` are counts."""
    n, d = count("n", n), count("d", d)
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise must be >= 0 and finite, got {noise}")
    g = rng.generator
    X = g.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    scores = _smooth_scores(X, 3, rng)
    y = scores @ np.array([1.0, -0.7, 0.4])[:scores.shape[1]]
    y = y + noise * g.standard_normal(n)
    return DataSet(X=X, y=y, task="regression")
