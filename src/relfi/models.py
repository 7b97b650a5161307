"""Built-in ordinary least squares regressor.

Implements the PredictiveModel interface consumed by the engine. The
solve uses a pivoted QR factorization of the design matrix rather than
the normal equations, which keeps the fit stable at the sample sizes the
experiments use and lets rank deficiency be reported per column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import yaml

from .core import TRAIN, Dataset, is_name, is_number, load_yaml

_INTERCEPT = "(intercept)"


class FitError(RuntimeError):
    """Least-squares fit rejected, e.g. for a rank-deficient design."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Affine predictor: intercept + coefficients . x."""

    feature_order: tuple[str, ...]
    coefficients: np.ndarray
    intercept: float

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.feature_order)
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        coef = np.asarray(self.coefficients, dtype=float).reshape(len(names))
        if not np.isfinite(coef).all() or not np.isfinite(self.intercept):
            raise ValueError("coefficients and intercept must be finite")
        coef.setflags(write=False)
        object.__setattr__(self, "feature_order", names)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "intercept", float(self.intercept))

    def predict(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.feature_order):
            raise ValueError(
                f"expected (m, {len(self.feature_order)}) input, got {rows.shape}"
            )
        return self.intercept + rows @ self.coefficients


def fit_ols(rows: np.ndarray, targets: np.ndarray, feature_names) -> LinearModel:
    """Least-squares fit of targets on rows plus an intercept column.

    The design matrix (ones, then ``rows``) is built once, in the Fortran
    order LAPACK works in, and factored in place with column pivoting; any
    pivot that collapses relative to the largest one marks its column as
    collinear and the fit is refused with those columns named.
    """
    rows = np.asarray(rows, dtype=float)
    targets = np.asarray(targets, dtype=float)
    names = tuple(str(n) for n in feature_names)
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise ValueError("rows must be a matrix with one column per feature name")
    n, p = rows.shape
    if targets.shape != (n,):
        raise ValueError("targets must be a vector matching the row count")
    design = np.empty((n, p + 1), order="F")
    design[:, 1:] = rows
    return _fit_design(design, targets, names)


def _fit_design(design: np.ndarray, targets: np.ndarray, names: tuple[str, ...]) -> LinearModel:
    """``fit_ols`` on a Fortran-ordered design; sets its column 0 to ones, then overwrites it."""
    n, p = design.shape[0], len(names)
    if n <= p + 1:
        raise FitError(f"need more than {p + 1} rows to fit {p} features")
    design[:, 0] = 1.0
    q, r, piv = scipy.linalg.qr(design, overwrite_a=True, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag[0] * max(n, p + 1) * np.finfo(float).eps
    rank = int((diag > tol).sum())
    if rank < p + 1:
        labels = [_INTERCEPT] + list(names)
        bad = sorted(labels[k] for k in piv[rank:])
        raise FitError(f"design is rank deficient; collinear column(s): {', '.join(bad)}")
    coef_pivoted = scipy.linalg.solve_triangular(r, q.T @ targets)
    coef = np.empty(p + 1)
    coef[piv] = coef_pivoted
    return LinearModel(names, coef[1:], float(coef[0]))


def fit_from_dataset(data: Dataset, features=None, split: str = TRAIN) -> LinearModel:
    """Fit on the dataset's rows; features default to all non-target columns.
    The rows are taken once, straight into ``fit_ols``'s design (same bits)."""
    if features is None:
        features = [n for n in data.variable_names if n != data.target_name]
    features = tuple(str(f) for f in features)
    if data.target_name in features:
        raise ValueError("the target cannot be used as a feature")
    rows = data._row_index(split)
    design = np.empty((rows.size, len(features) + 1), order="F")
    for j, name in enumerate(features, start=1):  # rows are in range; "raise" would buffer out
        np.take(data.column(name), rows, out=design[:, j], mode="clip")
    return _fit_design(design, data.target_values().take(rows), features)


def save_model(model: LinearModel, path) -> None:
    record = {
        "features": list(model.feature_order),
        "coefficients": [float(c) for c in model.coefficients],
        "intercept": float(model.intercept),
    }
    with open(path, "w") as fp:
        yaml.safe_dump(record, fp, sort_keys=False)


def load_model(path) -> LinearModel:
    with open(path) as fp:
        try:
            record = load_yaml(fp)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not valid YAML ({exc})") from None
    if not isinstance(record, dict) or set(record) != {
        "features",
        "coefficients",
        "intercept",
    }:
        raise ValueError(
            f"{path}: model file needs exactly the keys features, coefficients, intercept"
        )
    features, coefficients = record["features"], record["coefficients"]
    if not (isinstance(features, list) and all(map(is_name, features))):
        raise ValueError(f"{path}: features must be a list of names")
    if not (isinstance(coefficients, list) and len(coefficients) == len(features)
            and all(map(is_number, coefficients))):
        raise ValueError(f"{path}: coefficients must be a list of numbers, one per feature")
    if not is_number(record["intercept"]):
        raise ValueError(f"{path}: intercept must be a number")
    return LinearModel(tuple(map(str, features)), np.array(coefficients, dtype=float),
                       float(record["intercept"]))
