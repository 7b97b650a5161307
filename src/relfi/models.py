"""Built-in ordinary least squares regressor.

Implements the PredictiveModel interface consumed by the engine. The fit
solves the normal equations from the training moments, read from the
gather the dataset's samplers read (``samplers.training_joint``), and
refuses a singular or nearly singular design, naming its collinear columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .core import Dataset, is_name, is_number, load_yaml
from .samplers import _moments, training_joint, training_moments

COLLINEAR_SHARE = 1e-10  # see _solve


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
        predictions = rows @ self.coefficients
        predictions += self.intercept
        return predictions


def fit_ols(rows: np.ndarray, targets: np.ndarray, feature_names) -> LinearModel:
    """Least-squares fit of targets on rows plus an intercept column. Rows of
    every column of a dataset, in its order, give ``fit_from_dataset``'s bits."""
    rows = np.asarray(rows, dtype=float)
    targets = np.asarray(targets, dtype=float)
    names = tuple(str(n) for n in feature_names)
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise ValueError("rows must be a matrix with one column per feature name")
    n, p = rows.shape
    if targets.shape != (n,):
        raise ValueError("targets must be a vector matching the row count")
    _check_rows(n, p)
    mean, cov = _moments(np.vstack((rows.T, targets)))
    return _solve(names, mean, cov)


def fit_from_dataset(data: Dataset, features=None, *, moments: tuple | None = None) -> LinearModel:
    """Fit on the dataset's training rows; features default to all non-target
    columns. The moments are ``moments`` if they cover features and target,
    else ``training_joint(data)`` or, past its cap, those columns' own."""
    if features is None:
        features = [n for n in data.variable_names if n != data.target_name]
    features = tuple(str(f) for f in features)
    if data.target_name in features:
        raise ValueError("the target cannot be used as a feature")
    _check_rows(data.n_train, len(features))
    names = features + (data.target_name,)
    if not (moments and set(names) <= set(moments[0])):
        moments = training_joint(data) or training_moments(data, names)
    idx = [moments[0].index(name) for name in names]
    return _solve(features, moments[1][idx], moments[2][np.ix_(idx, idx)])


def training_risk(model: LinearModel, data: Dataset, moments: tuple) -> float:
    """Squared-error risk of the least-squares ``model`` on the training rows, read
    from the ``moments`` it was fitted from: ((n - 1) / n) (S_yy - S_yF . slopes)."""
    idx = [moments[0].index(name) for name in (data.target_name,) + model.feature_order]
    cov, n = moments[2][np.ix_(idx, idx)], data.n_train
    return (n - 1) / n * float(cov[0, 0] - cov[0, 1:] @ model.coefficients)


def _check_rows(n: int, p: int) -> None:
    if n <= p + 1:
        raise FitError(f"need more than {p + 1} rows to fit {p} features")


def _solve(names: tuple[str, ...], mean: np.ndarray, cov: np.ndarray) -> LinearModel:
    """The least-squares model from the mean and centred covariance of the
    features ``names`` and then the response: slopes Sigma_FF^-1 Sigma_Fy,
    intercept mean(y) - mean(F) . slopes.

    The design is refused, its culprits named, where a pivoted Cholesky of
    its Gram matrix on the correlation scale, intercept first, leaves a
    column less than the share ``COLLINEAR_SHARE`` of itself: a column of
    variance at most that share of variance + mean^2 is constant, and the
    rest pivot on the largest share left (1 - R^2 on those taken before).
    Normal equations square the condition number (Golub & Van Loan,
    *Matrix Computations*, 5.3): the slopes' relative rounding error is
    about epsilon over the least share, under 1e-6 at the bound. The bound
    lies 3 * 10^4 above the share rounding leaves an affine copy of a column
    (at most 3e-15 in 60 random copies) and 10^7 below the 5.5e-3 left to
    sin(x) beside x on [0, 1], the nearest design the tests accept.
    """
    p = len(names)
    var = cov.diagonal()[:p]
    bad = [names[j] for j in np.flatnonzero(var <= COLLINEAR_SHARE * (var + mean[:p] ** 2))]
    sd = np.sqrt(var)
    if not bad:  # a constant column would put 0 / 0 in the correlations
        corr = cov[:p, :p] / np.outer(sd, sd)
        share, left = corr.copy(), list(range(p))
        while left:
            k = max(left, key=lambda j: share[j, j])
            if share[k, k] < COLLINEAR_SHARE:
                bad = [names[j] for j in left]
                break
            left.remove(k)
            share[np.ix_(left, left)] -= np.outer(share[left, k], share[k, left]) / share[k, k]
    if bad:
        raise FitError(f"design is rank deficient; collinear column(s): {', '.join(sorted(bad))}")
    slopes = np.linalg.solve(corr, cov[:p, p] / sd) / sd
    return LinearModel(names, slopes, float(mean[p] - mean[:p] @ slopes))


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
