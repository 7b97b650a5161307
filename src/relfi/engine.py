"""Relative feature importance over seeded replications.

The importance of a feature relative to a conditioning set is the rise
in empirical risk when the feature's observed column is swapped for a
replacement drawn from its conditional law given that set:

    estimate = mean L(y_i, f(xtilde_j^(i), x_R^(i)))
             - mean L(y_i, f(x_j^(i),      x_R^(i)))

with R the other model features, both means over the test rows. The
perturbed term is averaged over seeded replications, each drawing a
fresh replacement column.

Replication r of every computation uses the standard-normal noise drawn
from the seed pair (base seed, r), which couples the underlying noise
across conditioning sets and makes importance-change comparisons a
matched-noise contrast. Everything that does not depend on the cell is
therefore per-run work: an ``EvaluationContext`` holds the test matrix,
the response, the baseline predictions, losses and risk, one block of
noise rows (one per replication) that every cell shares, and each test
column a sampler reads, gathered once. ``relfi run`` draws the noise rows
on its worker pool; a row's bits depend on its seed pair alone.

A model that is exactly a ``LinearModel`` is scored without predicting
again: replacing x_j moves each prediction by beta_j (xtilde_j - x_j), so
replication r adds that shift to the baseline predictions. Its risks can
differ from predicting on the replaced matrix in the last bits. Any other
model, a subclass of ``LinearModel`` included, predicts on a copy of the
test matrix whose column j each replication overwrites.

``compute_rfi`` without ``context=``, ``rfi_profile`` and
``compute_delta_rfi`` reuse the last context they built when given the
same model, loss and data objects and equal replications and seed. That
one context (its test columns, baseline and replications x test rows of
noise) stays alive until a call with other inputs; as with ``context=``,
an object changed in place between calls is not read again. ``relfi run``
builds its own context and does not keep it.

Two boundary cases are exact. A feature inside its own conditioning set
is replaced by itself (the conditional law is a point mass at the
observed value), so every replication reproduces the baseline losses
bit for bit and the estimate is exactly 0.0. Likewise a model whose
prediction ignores the feature yields identical predictions under any
replacement, so the estimate is exactly 0.0 rather than merely small.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import Executor
from dataclasses import InitVar, dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import (
    TEST, Dataset, LossFunction, PredictiveModel, SchemaError, canonical_names, check_partition,
    is_int,
)
from .inference import TestResult
from .models import LinearModel
from .samplers import _AffineSampler

CSV_HEADER = ("feature", "G", "estimate", "se", "t", "p", "replications", "seed")

SamplerFactory = Callable[[str, tuple[str, ...]], _AffineSampler]


@dataclass(frozen=True, eq=False)
class RfiEstimate:
    """Replication-level record of one importance computation.

    ``perturbed_risks`` holds the per-replication risk under replacement;
    ``baseline_risk`` is shared by all replications. ``first_differences``
    keeps the per-observation loss differences of replication 0, the
    input to the significance tests. The estimate is ``point``, the mean
    risk under replacement minus the baseline risk, with standard error
    ``se``.
    """

    feature: str
    conditioning: tuple[str, ...]
    baseline_risk: float
    perturbed_risks: tuple[float, ...]
    first_differences: np.ndarray
    base_seed: int

    def __post_init__(self) -> None:
        if len(self.perturbed_risks) < 1:
            raise ValueError("need at least one replication")
        d = np.asarray(self.first_differences, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "first_differences", d)

    @property
    def replications(self) -> int:
        return len(self.perturbed_risks)

    @property
    def point(self) -> float:
        """Mean risk under replacement minus the baseline risk."""
        risks, b = self.perturbed_risks, self.baseline_risk
        # The mean of equal floats need not equal them; when every
        # replication reproduced the baseline, the mean is the baseline.
        mean = b if all(r == b for r in risks) else np.mean(risks)
        return float(mean - b)

    @property
    def se(self) -> float:
        """Standard error of ``point``: the spread of the per-replication
        differences. A single replication carries no spread; its error is NaN."""
        values = np.asarray(self.perturbed_risks) - self.baseline_risk
        if values.size < 2:
            return math.nan
        return float(values.std(ddof=1) / math.sqrt(values.size))


@dataclass(frozen=True, eq=False)
class DeltaRfi:
    """Importance change when the conditioning set grows by an extension.

    ``value`` is base minus extended importance; a nonzero value
    witnesses dependence between the feature and the extension variables
    given the original conditioning set. The standard error combines the
    two arms' replication spreads in quadrature, so it covers only the
    Monte-Carlo error of the replacement draws, and overstates that, as
    the arms share replication seeds. It leaves out the error of the
    fitted samplers. On ``experiment_b`` at 10^4 rows, X1 from {} to {C}
    (a null delta) was within 1.96 se of 0 in 200 of 200 seeds, but within
    the paired per-row interval of replication 0 in only 20.
    """

    feature: str
    conditioning: tuple[str, ...]
    extension: tuple[str, ...]
    base: RfiEstimate
    extended: RfiEstimate

    @property
    def value(self) -> float:
        return self.base.point - self.extended.point

    @property
    def se(self) -> float:
        return math.hypot(self.base.se, self.extended.se)


def _check_counts(replications, base_seed) -> None:
    for name, value, low in (("replications", replications, 1), ("base_seed", base_seed, 0)):
        if not is_int(value, low):
            raise ValueError(f"{name} must be an integer >= {low}")


@dataclass(frozen=True, eq=False)
class EvaluationContext:
    """Per-run state shared by every cell scored on one model and test set.

    Built from the model, loss, data, replication count and base seed, it
    holds the test matrix ``X``, the response ``y``, the baseline
    predictions ``base_pred``, losses and risk, and ``noise``: row r is the
    standard-normal vector drawn from the seed pair (base seed, r), one
    entry per test row. Given ``pool``, an executor, the rows are drawn on
    it; each row's bits depend on its seed pair alone, not on the thread.
    All arrays are locked read-only, so one context can serve concurrent cells.
    Test losses whose sum or sum of squares is not finite are refused (ValueError).
    """

    model: PredictiveModel
    loss: LossFunction
    data: Dataset
    replications: int = 30
    base_seed: int = 0
    pool: InitVar[Executor | None] = None
    X: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    base_pred: np.ndarray = field(init=False)
    base_losses: np.ndarray = field(init=False)
    baseline_risk: float = field(init=False)
    noise: np.ndarray = field(init=False)
    _columns: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self, pool: Executor | None) -> None:
        _check_counts(self.replications, self.base_seed)
        X = self.data.matrix(self.model.feature_order, TEST)
        if X.shape[0] < 1:
            raise SchemaError("no test rows to evaluate on")
        y = self.data.target_values(TEST)
        with np.errstate(over="ignore", invalid="ignore"):
            base_pred = np.asarray(self.model.predict(X), dtype=float)
            base_losses = self.loss.pointwise(y, base_pred)
            baseline_risk = float(base_losses.mean())
            squares = float(base_losses @ base_losses)
        if not math.isfinite(baseline_risk):
            raise ValueError(f"baseline risk {baseline_risk!r}: the test losses are not finite")
        if not math.isfinite(squares):
            raise ValueError(f"baseline risk {baseline_risk!r}: the squares of the test losses "
                             "do not sum to a finite number")
        noise = np.empty((self.replications, X.shape[0]))

        def draw(r: int) -> None:
            np.random.default_rng([self.base_seed, r]).standard_normal(out=noise[r])

        for _ in (pool.map if pool else map)(draw, range(self.replications)):
            pass
        for arr in (X, y, base_pred, base_losses, noise):
            arr.setflags(write=False)
        derived = dict(
            replications=int(self.replications), base_seed=int(self.base_seed), X=X, y=y,
            base_pred=base_pred, base_losses=base_losses, baseline_risk=baseline_risk,
            noise=noise,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        self._columns.update(zip(self.model.feature_order, X.T))

    def _test_matrix(self, names: Sequence[str]) -> np.ndarray:
        """``data.matrix(names, TEST)`` from test columns gathered once each (features read
        ``X``); two cells may gather one column at once, and either copy serves."""
        matrix = np.empty((self.X.shape[0], len(names)), order="F")
        for j, name in enumerate(names):
            column = self._columns.get(name)
            if column is None:
                column = self._columns[name] = self.data.column(name, TEST)
                column.setflags(write=False)
            matrix[:, j] = column
        return matrix


_last_context: EvaluationContext | None = None  # kept by _library_context; see the module docstring


def _built_from(context, model, loss, data, replications, base_seed) -> bool:
    return (context.model is model and context.loss is loss and context.data is data
            and (context.replications, context.base_seed) == (replications, base_seed))


def _library_context(model, loss, data, replications, base_seed) -> EvaluationContext:
    """The last context built here if built from these inputs, else a new one in its place."""
    global _last_context
    _check_counts(replications, base_seed)  # so True never matches a context with 1
    context = _last_context
    if context is None or not _built_from(context, model, loss, data, replications, base_seed):
        context = _last_context = EvaluationContext(model, loss, data, replications, base_seed)
    return context


def compute_rfi(
    model: PredictiveModel,
    loss: LossFunction,
    data: Dataset,
    feature: str,
    conditioning,
    sampler: _AffineSampler | None = None,
    replications: int = 30,
    base_seed: int = 0,
    *,
    context: EvaluationContext | None = None,
) -> RfiEstimate:
    """Estimate the importance of ``feature`` relative to ``conditioning``.

    ``sampler`` must be fitted for exactly this (feature, conditioning)
    pair; it is ignored (and may be None) when the feature belongs to its
    own conditioning set, where the replacement is the identity.
    ``context`` is the per-run state built from the same model, loss,
    data, replications and seed; when not given, the last library call's
    context is reused if built from these inputs, else one is built.
    """
    conditioning = canonical_names(conditioning)
    check_partition(data.target_name, feature, conditioning)
    order = tuple(model.feature_order)
    if feature not in order:
        raise SchemaError(f"feature {feature!r} is not a model feature")
    for name in order + conditioning:
        data.column_index(name)  # raises SchemaError when absent
    if context is None:
        context = _library_context(model, loss, data, replications, base_seed)
    elif not _built_from(context, model, loss, data, replications, base_seed):
        raise ValueError("context was built for another model, loss, data or seed")
    if feature in conditioning:
        # the replacement is the observed column: every replication is the baseline
        perturbed = [context.baseline_risk] * context.replications
        first_diff = np.zeros(context.X.shape[0])
    else:
        if sampler is None:
            raise SchemaError("a fitted sampler is required when feature not in G")
        if sampler.target != feature or set(sampler.conditioning) != set(conditioning):
            raise SchemaError(
                f"sampler fitted for {sampler.target!r} given "
                f"{sampler.conditioning} does not match ({feature!r}, {conditioning})"
            )
        required = context._test_matrix(sampler.required_columns)
        j = order.index(feature)
        linear = type(model) is LinearModel  # a subclass may override predict
        if linear:  # replacing x_j moves each prediction by beta_j (xtilde - x_j) alone
            x_j, beta = context.X[:, j], model.coefficients[j]
            pred = np.empty_like(x_j)
        else:
            Xp = context.X.copy(order="F")  # so each replacement writes one contiguous column
        perturbed = []
        for r, z in enumerate(context.noise):
            if linear:
                sampler.sample(required, z, out=pred)
                pred -= x_j
                pred *= beta
                pred += context.base_pred
            else:
                sampler.sample(required, z, out=Xp[:, j])
                pred = model.predict(Xp)
            losses = loss.pointwise(context.y, pred)
            perturbed.append(float(losses.mean()))
            if r == 0:
                first_diff = losses - context.base_losses
    return RfiEstimate(
        feature, conditioning, context.baseline_risk, tuple(perturbed), first_diff,
        context.base_seed,
    )


def compute_delta_rfi(
    model: PredictiveModel,
    loss: LossFunction,
    data: Dataset,
    feature: str,
    conditioning,
    extension,
    sampler_factory: SamplerFactory,
    replications: int = 30,
    base_seed: int = 0,
) -> DeltaRfi:
    """Importance with ``conditioning`` minus importance with it extended.

    The two arms are the cells (G, G + E) of one ``rfi_profile``, so their
    replacement draws share underlying noise.
    """
    conditioning, extension = canonical_names(conditioning), canonical_names(extension)
    check_partition(data.target_name, feature, conditioning, extension)
    base, extended = rfi_profile(
        model, loss, data, [feature], [conditioning, conditioning + extension],
        sampler_factory, replications, base_seed,
    )
    return DeltaRfi(feature, conditioning, extension, base, extended)


def rfi_profile(
    model: PredictiveModel,
    loss: LossFunction,
    data: Dataset,
    features: Sequence[str],
    conditioning_sets: Sequence,
    sampler_factory: SamplerFactory,
    replications: int = 30,
    base_seed: int = 0,
) -> tuple[RfiEstimate, ...]:
    """Importance for every (feature, conditioning set) pair.

    Cells are evaluated in row-major order (features outer). The output
    order, and every estimate in it, is deterministic given the inputs.
    A ``sampler_factory`` reads every cell with a nonempty G from one joint
    fitted on the dataset alone, so no cell's bits depend on the others.
    """
    for name, value in (("features", features), ("conditioning_sets", conditioning_sets)):
        if isinstance(value, str):
            raise SchemaError(f"{name} must be a list, not the string {value!r}")
    context = _library_context(model, loss, data, replications, base_seed)
    return tuple(
        score_cell(context, feature, cond, sampler_factory)
        for feature, cond in product(features, conditioning_sets)
    )


def score_cell(
    context: EvaluationContext, feature: str, conditioning, sampler_factory: SamplerFactory
) -> RfiEstimate:
    """Importance of one cell on a shared context: the sampler comes from
    ``sampler_factory``, which is not called for a feature inside G."""
    conditioning = canonical_names(conditioning)
    sampler = None if feature in conditioning else sampler_factory(feature, conditioning)
    return compute_rfi(
        context.model, context.loss, context.data, feature, conditioning, sampler,
        context.replications, context.base_seed, context=context,
    )


def format_conditioning(conditioning) -> str:
    return ";".join(canonical_names(conditioning))


def result_row(estimate: RfiEstimate, test: TestResult) -> list[str]:
    """One CSV record: feature, G, estimate, se, t, p, replications, seed.

    Floats are rendered with repr so equal results serialize to equal
    bytes and round-trip without precision loss.
    """
    return [
        estimate.feature,
        format_conditioning(estimate.conditioning),
        repr(estimate.point),
        repr(estimate.se),
        repr(float(test.statistic)),
        repr(float(test.p_value)),
        str(estimate.replications),
        str(estimate.base_seed),
    ]


def write_results_csv(path, rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
