"""Named numeric datasets, the partition rules, and the model/loss contracts.

Everything downstream (samplers, the importance engine, the experiment
runner) addresses columns by name rather than by position, so a
conditioning set may refer to variables that are not model features
without any index arithmetic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

TRAIN = "train"
TEST = "test"

# Fixed tweak mixed into the seed so the split stream never collides with
# noise streams derived from the same user seed.
_SPLIT_STREAM = 0x5B1D


class SchemaError(ValueError):
    """A referenced column is missing, duplicated, or malformed."""


class InvalidPartitionError(SchemaError):
    """Index sets violate the partition rules."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Column-named numeric data with a train/test row split.

    ``values`` holds one row per observation, one column per variable in
    ``variable_names`` order. ``test_mask`` marks evaluation rows; the two
    row sets are disjoint and exhaustive by construction. Arrays are locked
    read-only so instances can be shared across concurrent workers.
    """

    variable_names: tuple[str, ...]
    values: np.ndarray
    target_name: str
    test_mask: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.variable_names)
        if len(set(names)) != len(names):
            raise SchemaError("variable names must be unique")
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if values.ndim != 2:
            raise SchemaError("values must be a 2-d matrix (rows x variables)")
        if values.shape[1] != len(names):
            raise SchemaError(
                f"{len(names)} variable names but {values.shape[1]} columns"
            )
        finite = np.isfinite(values)
        if not finite.all():
            bad = [names[k] for k in np.nonzero(~finite.all(axis=0))[0]]
            raise SchemaError(f"non-finite entries in column(s): {', '.join(bad)}")
        if self.target_name not in names:
            raise SchemaError(f"target {self.target_name!r} is not a variable")
        mask = np.asarray(self.test_mask, dtype=bool)
        if mask.shape != (values.shape[0],):
            raise SchemaError("test_mask length must equal the number of rows")
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "test_mask", mask)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_test(self) -> int:
        return int(self.test_mask.sum())

    @property
    def n_train(self) -> int:
        return self.n - self.n_test

    def column_index(self, name: str) -> int:
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise SchemaError(f"no column named {name!r}") from None

    def _row_selector(self, split: str | None) -> slice | np.ndarray:
        if split is None:
            return slice(None)
        if split == TRAIN:
            return ~self.test_mask
        if split == TEST:
            return self.test_mask
        raise ValueError(f"split must be {TRAIN!r}, {TEST!r} or None, got {split!r}")

    def matrix(self, names: Iterable[str], split: str | None = None) -> np.ndarray:
        """Copy of the requested columns, in the requested order.

        Only the requested cells of the selected rows are gathered; the
        other columns are never copied.
        """
        idx = np.array([self.column_index(n) for n in names], dtype=np.intp)
        rows = self._row_selector(split)
        rows = np.arange(self.n) if isinstance(rows, slice) else np.flatnonzero(rows)
        return np.ascontiguousarray(self.values[np.ix_(rows, idx)])

    def column(self, name: str, split: str | None = None) -> np.ndarray:
        return self.values[self._row_selector(split), self.column_index(name)]

    def target_values(self, split: str | None = None) -> np.ndarray:
        return self.column(self.target_name, split)


def holdout_mask_from_seed(n: int, test_fraction: float, seed: int) -> np.ndarray:
    """Deterministic random row split: True marks test rows."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    n_test = min(max(int(round(n * test_fraction)), 1), n - 1)
    rng = np.random.default_rng([int(seed), _SPLIT_STREAM])
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[:n_test]] = True
    return mask


def csv_header(path) -> list[str]:
    """The variable names in the first row of a CSV file, stripped."""
    with open(path, newline="") as fp:
        header = next(csv.reader(fp), None)
    if not header:
        raise SchemaError(f"{path}: empty file")
    return [h.strip() for h in header]


def load_csv(
    path,
    target: str,
    split_column: str | None = None,
    test_fraction: float = 0.10,
    seed: int = 0,
) -> Dataset:
    """Ingest a dataset from CSV.

    The header row names the variables. The split is read from
    ``split_column`` (values ``train``/``test``) when given, otherwise
    generated from ``seed`` and ``test_fraction``. Non-numeric or
    non-finite data cells are rejected.
    """
    header = csv_header(path)
    split_idx = None
    if split_column is not None:
        if split_column not in header:
            raise SchemaError(f"{path}: no split column named {split_column!r}")
        split_idx = header.index(split_column)
    names = [h for k, h in enumerate(header) if k != split_idx]
    data_idx = [k for k in range(len(header)) if k != split_idx]
    rows: list[list[float]] = []
    tags: list[bool] = []
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        next(reader)  # the header row
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise SchemaError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(record[k]) for k in data_idx])
            except ValueError:
                raise SchemaError(
                    f"{path}:{lineno}: non-numeric value in data column"
                ) from None
            if split_idx is not None:
                tag = record[split_idx].strip().lower()
                if tag not in (TRAIN, TEST):
                    raise SchemaError(
                        f"{path}:{lineno}: split must be {TRAIN!r} or {TEST!r}, "
                        f"got {tag!r}"
                    )
                tags.append(tag == TEST)
    values = np.asarray(rows, dtype=float)
    if values.size == 0:
        raise SchemaError(f"{path}: no data rows")
    if split_idx is not None:
        mask = np.asarray(tags, dtype=bool)
    else:
        mask = holdout_mask_from_seed(values.shape[0], test_fraction, seed)
    return Dataset(tuple(names), values, target, mask)


def save_csv(data: Dataset, path) -> None:
    """Write a dataset back to CSV, with the split as a final column."""
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(list(data.variable_names) + ["split"])
        tags = np.where(data.test_mask, TEST, TRAIN)
        for row, tag in zip(data.values, tags):
            writer.writerow([repr(float(v)) for v in row] + [str(tag)])


def canonical_names(names) -> tuple[str, ...]:
    """A conditioning set in its one canonical form: distinct names, sorted."""
    return tuple(sorted(str(n) for n in set(names)))


def check_partition(
    target: str, feature: str, conditioning: Iterable[str], extension: Iterable[str] = ()
) -> None:
    """Raise InvalidPartitionError naming every partition rule the sets break.

    The response ``target`` may be neither the feature of interest nor a
    member of the conditioning set or of the extension; the extension may
    share no variable with the conditioning set and may not hold the
    feature. The feature may lie in its own conditioning set: that cell
    is the identity replacement.
    """
    conditioning, extension = set(conditioning), set(extension)
    response = f"(the response {target!r})"
    problems = []
    if feature == target:
        problems.append(f"target may not be the feature of interest {response}")
    if target in conditioning:
        problems.append(f"target may not appear in the conditioning set {response}")
    if target in extension:
        problems.append(f"target may not appear in the extension set {response}")
    if extension & conditioning:
        problems.append(
            "extension overlaps the conditioning set: "
            + ", ".join(sorted(extension & conditioning))
        )
    if feature in extension:
        problems.append(f"feature may not appear in the extension set ({feature!r})")
    if problems:
        raise InvalidPartitionError("; ".join(problems))


@runtime_checkable
class PredictiveModel(Protocol):
    """A fixed prediction function over a named, ordered feature set."""

    @property
    def feature_order(self) -> Sequence[str]: ...

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Predict for an (m, len(feature_order)) matrix; pure and deterministic."""
        ...


@runtime_checkable
class LossFunction(Protocol):
    """Pointwise nonnegative loss."""

    @property
    def name(self) -> str: ...

    def pointwise(self, y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray: ...


class SquaredError:
    """Squared error, the built-in loss."""

    name = "squared"

    def pointwise(self, y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
        y_true = np.asarray(y_true, dtype=float)
        y_pred = np.asarray(y_pred, dtype=float)
        return (y_true - y_pred) ** 2

    def __repr__(self) -> str:  # pragma: no cover
        return "SquaredError()"


LOSSES = {"squared": SquaredError}


def get_loss(name: str) -> LossFunction:
    try:
        return LOSSES[name]()
    except KeyError:
        raise ValueError(
            f"unknown loss {name!r}; available: {', '.join(sorted(LOSSES))}"
        ) from None


def empirical_risk(
    model: PredictiveModel,
    data: Dataset,
    loss: LossFunction,
    split: str | None = TEST,
) -> float:
    """Average pointwise loss of the model over the given rows."""
    X = data.matrix(model.feature_order, split)
    if X.shape[0] == 0:
        raise ValueError("empirical risk needs at least one row")
    y = data.target_values(split)
    return float(np.mean(loss.pointwise(y, model.predict(X))))
