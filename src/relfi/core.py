"""Named numeric datasets, the partition rules, and the model/loss contracts.

Everything downstream (samplers, the importance engine, the experiment
runner) addresses columns by name rather than by position, so a
conditioning set may refer to variables that are not model features
without any index arithmetic.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from sys import float_info
from typing import Iterable, Protocol, Sequence

import numpy as np
import yaml

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
    ``variable_names`` order, column-major: every column is contiguous, and a
    C-order array passed in costs one copy. ``test_mask`` marks evaluation
    rows; the two row sets are disjoint and exhaustive by construction. Arrays
    are locked read-only so instances can be shared across concurrent workers.
    """

    variable_names: tuple[str, ...]
    values: np.ndarray
    target_name: str
    test_mask: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.variable_names)
        if len(set(names)) != len(names):
            raise SchemaError("variable names must be unique")
        values = np.asarray(self.values, dtype=float, order="F")
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
        """Column-major copy of the requested columns, in the requested order.

        Each requested column is gathered in one pass over its selected
        rows; the other columns are never read.
        """
        idx, rows = [self.column_index(n) for n in names], self._row_index(split)
        out = np.empty((rows.size, len(idx)), order="F")
        for j, k in enumerate(idx):
            np.take(self.values[:, k], rows, out=out[:, j], mode="clip")  # "raise" buffers out
        return out

    def _row_index(self, split: str | None) -> np.ndarray:
        rows = self._row_selector(split)
        return np.arange(self.n) if isinstance(rows, slice) else np.flatnonzero(rows)

    def column(self, name: str, split: str | None = None) -> np.ndarray:
        return self.values[:, self.column_index(name)][self._row_selector(split)]

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


def _records(fp, path):
    """The records of the CSV file object ``fp``, with a csv module error
    (such as a field longer than ``csv.field_size_limit()``) raised as a
    SchemaError naming its line."""
    reader = csv.reader(fp)
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None


def csv_header(path) -> list[str]:
    """The variable names in the first row of a CSV file, stripped."""
    with open(path, newline="", encoding="utf-8-sig") as fp:
        header = next(_records(fp, path), None)
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

    The rows are read in one ``np.loadtxt`` pass; a file that pass cannot
    read exactly as the line parser would (quoted cells, ``1_000``, padded
    or upper-case tags, any malformed row) is read again by the line
    parser, which gives every lenient reading and every error message.
    """
    header = csv_header(path)
    split_idx = None
    if split_column is not None:
        if split_column not in header:
            raise SchemaError(f"{path}: no split column named {split_column!r}")
        split_idx = header.index(split_column)
    names = [h for k, h in enumerate(header) if k != split_idx]
    values, tags = _rows_by_loadtxt(path, header, split_idx) or _rows_by_line(
        path, header, split_idx
    )
    if values.size == 0:
        raise SchemaError(f"{path}: no data rows")
    if tags is None:
        tags = holdout_mask_from_seed(values.shape[0], test_fraction, seed)
    return Dataset(tuple(names), values, target, tags)


def _rows_by_loadtxt(path, header, split_idx):
    """(values, test mask or None) from one ``np.loadtxt`` pass, or None
    when the file holds anything the pass might read differently from
    ``_rows_by_line``.

    Each cell is read into a field of a structured dtype, which makes numpy
    refuse a row with more fields than the header, and the data fields are
    copied into a column-major array. The split tags are read as ``S6``, one
    byte wider than ``train``, so a longer tag cannot be cut down to a match;
    numpy encodes a tag as Latin-1 and refuses one it cannot encode. numpy
    drops trailing NULs from a string cell and reads cells of any length,
    so a file with a NUL byte or a line longer than the csv module's field
    limit is left to the line parser.
    """
    if not _plain_bytes(path):
        return None
    dtype = np.dtype([(f"c{k}", "S6" if k == split_idx else float) for k in range(len(header))])
    try:
        with open(path, newline="", encoding="utf-8-sig") as fp, warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            rows = np.loadtxt(fp, dtype=dtype, delimiter=",", skiprows=1,
                              comments=None, ndmin=1)
    except (ValueError, UserWarning):
        return None
    tags = None if split_idx is None else rows[f"c{split_idx}"]
    test = None if tags is None else tags == TEST.encode()
    if tags is not None and not (test | (tags == TRAIN.encode())).all():
        return None
    data_idx = [k for k in range(len(header)) if k != split_idx]
    values = np.empty((rows.shape[0], len(data_idx)), order="F")
    for j, k in enumerate(data_idx):
        values[:, j] = rows[f"c{k}"]
    return values, test


def _plain_bytes(path) -> bool:
    """True when the file has no NUL byte and no line longer, in bytes,
    than ``csv.field_size_limit()``."""
    limit = csv.field_size_limit()
    carried = 0  # bytes since the last newline of the chunks before
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            if b"\0" in chunk:
                return False
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            lengths = np.diff(ends, prepend=-1 - carried) - 1
            carried = len(chunk) - 1 - ends[-1] if ends.size else carried + len(chunk)
            if carried > limit or lengths.max(initial=0) > limit:
                return False
    return True


def _rows_by_line(path, header, split_idx):
    """(values, test mask or None) from a ``csv.reader`` loop over the data
    rows; every malformed row raises a SchemaError naming its line."""
    data_idx = [k for k in range(len(header)) if k != split_idx]
    rows: list[list[float]] = []
    tags: list[bool] = []
    with open(path, newline="", encoding="utf-8-sig") as fp:
        records = _records(fp, path)
        next(records)  # the header row
        for lineno, record in enumerate(records, start=2):
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
    values = np.array(rows, dtype=float, order="F")
    return values, (np.asarray(tags, dtype=bool) if split_idx is not None else None)


# Rows formatted per write: large enough that the per-chunk overhead
# vanishes, small enough that the chunk's strings stay a few MB.
_SAVE_CHUNK_ROWS = 1 << 14


def save_csv(data: Dataset, path) -> None:
    """Write a dataset back to CSV, with the split as a final column.

    Each value is written as its ``repr``, the shortest string that reads
    back to the same float. A variable named ``split`` is refused before
    the file is opened: its column could not be told from the split's.
    """
    if "split" in data.variable_names:
        raise SchemaError(f"{path}: a variable named 'split' would clash with the split column")
    with open(path, "w", newline="") as fp:
        csv.writer(fp, lineterminator="\n").writerow(list(data.variable_names) + ["split"])
        for start in range(0, data.n, _SAVE_CHUNK_ROWS):
            chunk = slice(start, start + _SAVE_CHUNK_ROWS)
            columns = [map(repr, column) for column in data.values[chunk].T.tolist()]
            tags = np.where(data.test_mask[chunk], TEST + "\n", TRAIN + "\n").tolist()
            fp.write("".join(map(",".join, zip(*columns, tags))))


def canonical_names(names) -> tuple[str, ...]:
    """A conditioning set in its one canonical form: distinct names, sorted; never a string."""
    if isinstance(names, str):
        raise SchemaError(f"a set of names must be a list of names, not the string {names!r}")
    return tuple(sorted(str(n) for n in set(names)))


def load_yaml(stream):
    """``yaml.safe_load`` through libyaml's loader when PyYAML was built with it."""
    return yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def is_number(value, kind=(int, float)) -> bool:
    """Whether a parsed YAML value is a number of ``kind`` in float range; booleans are not."""
    return not isinstance(value, bool) and isinstance(value, kind) and abs(value) <= float_info.max


def is_int(value, low: int) -> bool:
    """Whether ``value`` is a Python or numpy integer, not a boolean, of at least ``low``."""
    return is_number(value, (int, np.integer)) and value >= low


def is_name(value) -> bool:
    """Whether a parsed YAML value can name a variable: a non-empty string or an integer."""
    return isinstance(value, str) and value != "" or is_number(value, int)


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


class PredictiveModel(Protocol):
    """A fixed prediction function over a named, ordered feature set."""

    @property
    def feature_order(self) -> Sequence[str]: ...

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Predict for an (m, len(feature_order)) matrix; pure and deterministic."""
        ...


class LossFunction(Protocol):
    """Pointwise nonnegative loss."""

    def pointwise(self, y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray: ...


class SquaredError:
    """Squared error, the built-in loss."""

    def pointwise(self, y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
        y_true = np.asarray(y_true, dtype=float)
        y_pred = np.asarray(y_pred, dtype=float)
        return (y_true - y_pred) ** 2

    def __repr__(self) -> str:  # pragma: no cover
        return "SquaredError()"


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
