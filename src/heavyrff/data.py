"""Dataset ingestion, preprocessing recipes and synthetic data generation."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .rng import RngStream

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

RECIPES = ("none", "center", "unit-norm", "center+unit-norm",
           "standard-scale+unit-norm", "log-target")


class DataError(ValueError):
    """Raised for malformed input files or invalid preprocessing."""


@dataclass
class DataSet:
    X: np.ndarray
    y: np.ndarray
    task: str = "classification"     # "classification" | "regression"
    preprocessing: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def load_csv(path, label_col: int | str = -1, task: str = "classification",
             has_header: bool = True) -> DataSet:
    """Parse a numeric CSV with a designated label column.

    Row order is preserved. Malformed or non-finite cells raise
    :class:`DataError` naming the offending row and column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = None
    if has_header:
        header, rows = rows[0], rows[1:]
    if isinstance(label_col, str):
        if header is None or label_col not in header:
            raise DataError(f"{path}: label column {label_col!r} not in header")
        label_idx = header.index(label_col)
    else:
        label_idx = label_col
    n_cols = len(rows[0]) if rows else 0
    label_idx = label_idx % n_cols if n_cols else label_idx
    data = np.empty((len(rows), n_cols))
    start_line = 2 if has_header else 1
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise DataError(f"{path}: line {start_line + i} has {len(row)} fields, expected {n_cols}")
        for j, cell in enumerate(row):
            try:
                val = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"{path}: line {start_line + i}, column {j}: cannot parse {cell!r}") from exc
            if not np.isfinite(val):
                raise DataError(f"{path}: line {start_line + i}, column {j}: non-finite value")
            data[i, j] = val
    X = np.delete(data, label_idx, axis=1)
    y = data[:, label_idx]
    if task == "classification":
        yi = y.astype(int)
        if not np.allclose(y, yi):
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
    applied = list(ds.preprocessing)
    if recipe == "log-target":
        if ds.task != "regression":
            raise DataError("log-target only applies to regression targets")
        if np.any(y <= 0.0):
            bad = np.flatnonzero(y <= 0.0)[:5].tolist()
            raise DataError(f"log-target requires positive targets (rows {bad})")
        y = np.log(y)
        applied.append("log-target")
        return replace(ds, X=X, y=y, preprocessing=tuple(applied))
    if recipe in ("center", "center+unit-norm"):
        X = X - X.mean(axis=0)
        applied.append("center")
    if recipe == "standard-scale+unit-norm":
        X = X - X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        X = X / std
        applied.append("standard-scale")
    if recipe.endswith("unit-norm"):
        norms = np.linalg.norm(X, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DataError(f"cannot unit-normalize zero rows {zero[:5].tolist()}")
        X = X / norms[:, None]
        applied.append("unit-norm")
    return replace(ds, X=X, y=y, preprocessing=tuple(applied))


def subsample(ds: DataSet, cap: int, rng: RngStream) -> DataSet:
    """Seeded shuffle followed by prefix selection; identity when n <= cap."""
    if ds.n <= cap:
        return ds
    idx = rng.generator.permutation(ds.n)[:cap]
    return replace(ds, X=ds.X[idx], y=ds.y[idx])


def train_test_split(ds: DataSet, test_fraction: float,
                     rng: RngStream) -> tuple[DataSet, DataSet]:
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie in (0, 1)")
    idx = rng.generator.permutation(ds.n)
    n_test = max(1, int(round(test_fraction * ds.n)))
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
                        label_noise: float = 0.0,
                        margin: float = 0.0) -> DataSet:
    """Synthetic classification data with labels from a smooth target.

    ``margin`` > 0 rejects points whose top-two class scores are closer than
    the margin, which controls how hard the decision boundary is.
    """
    g = rng.generator
    chunks_x, chunks_y, collected = [], [], 0
    while collected < n:
        X = g.standard_normal((2 * n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        scores = _smooth_scores(X, n_classes, rng.fresh())
        y = scores.argmax(axis=1)
        if margin > 0.0:
            top2 = np.partition(scores, -2, axis=1)[:, -2:]
            keep = top2[:, 1] - top2[:, 0] >= margin
            X, y = X[keep], y[keep]
        chunks_x.append(X)
        chunks_y.append(y)
        collected += X.shape[0]
    X = np.concatenate(chunks_x)[:n]
    y = np.concatenate(chunks_y)[:n]
    if label_noise > 0.0:
        flip = g.random(n) < label_noise
        y[flip] = g.integers(0, n_classes, size=int(flip.sum()))
    return DataSet(X=X, y=y, task="classification",
                   preprocessing=("unit-norm",))


def make_regression(n: int, d: int, rng: RngStream,
                    noise: float = 0.05) -> DataSet:
    """Synthetic regression data from a smooth target plus Gaussian noise."""
    g = rng.generator
    X = g.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    scores = _smooth_scores(X, 3, rng)
    y = scores @ np.array([1.0, -0.7, 0.4])[:scores.shape[1]]
    y = y + noise * g.standard_normal(n)
    return DataSet(X=X, y=y, task="regression", preprocessing=("unit-norm",))
