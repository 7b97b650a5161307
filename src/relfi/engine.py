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
the response, the baseline losses and risk, one block of noise rows (one
per replication) that every cell shares, and each test column a sampler
reads, gathered once. ``compute_rfi`` without ``context=``, ``rfi_profile``
and ``compute_delta_rfi`` reuse the last context they built when given the
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
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import (
    TEST, Dataset, LossFunction, PredictiveModel, SchemaError, canonical_names, check_partition,
    is_int,
)
from .inference import TestResult
from .samplers import _AffineSampler

DIFFERENCE = "difference"
RATIO = "ratio"
FORMS = (DIFFERENCE, RATIO)

CSV_HEADER = ("feature", "G", "estimate", "se", "t", "p", "replications", "seed")

SamplerFactory = Callable[[str, tuple[str, ...]], _AffineSampler]


@dataclass(frozen=True, eq=False)
class RfiEstimate:
    """Replication-level record of one importance computation.

    ``perturbed_risks`` holds the per-replication risk under replacement;
    ``baseline_risk`` is shared by all replications. ``first_differences``
    keeps the per-observation loss differences of replication 0, the
    input to the significance tests. The estimate has two statistics,
    ``value(form)`` and its standard error ``value_se(form)``; ``point``,
    ``se``, ``ratio`` and ``ratio_se`` are shorthands for them.
    """

    feature: str
    conditioning: tuple[str, ...]
    baseline_risk: float
    perturbed_risks: tuple[float, ...]
    first_differences: np.ndarray
    base_seed: int
    ratio_floor: float = 0.0

    def __post_init__(self) -> None:
        if len(self.perturbed_risks) < 1:
            raise ValueError("need at least one replication")
        d = np.asarray(self.first_differences, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "first_differences", d)

    @property
    def replications(self) -> int:
        return len(self.perturbed_risks)

    def value(self, form: str = DIFFERENCE) -> float:
        """Mean risk under replacement minus the baseline, or divided by it in ratio form."""
        risks, b = self.perturbed_risks, self.baseline_risk
        # The mean of equal floats need not equal them; when every
        # replication reproduced the baseline, the mean is the baseline.
        mean = b if all(r == b for r in risks) else np.mean(risks)
        return float(self._against_baseline(mean, form))

    def value_se(self, form: str = DIFFERENCE) -> float:
        """Standard error of ``value(form)``: the spread of the per-replication
        values. A single replication carries no spread; its error is NaN."""
        values = self._against_baseline(np.asarray(self.perturbed_risks), form)
        if values.size < 2:
            return math.nan
        return float(values.std(ddof=1) / math.sqrt(values.size))

    def _against_baseline(self, risks, form: str):
        """``risks`` minus the baseline, or divided by it once the ratio form is checked."""
        if form == DIFFERENCE:
            return risks - self.baseline_risk
        if form != RATIO:
            raise ValueError(f"form must be one of {', '.join(FORMS)}; got {form!r}")
        check_ratio_baseline(self.baseline_risk, self.ratio_floor)
        return risks / self.baseline_risk

    point = property(lambda self: self.value(DIFFERENCE), doc="``value`` in difference form.")
    se = property(lambda self: self.value_se(DIFFERENCE), doc="``value_se`` in difference form.")
    ratio = property(lambda self: self.value(RATIO), doc="``value`` in ratio form.")
    ratio_se = property(lambda self: self.value_se(RATIO), doc="``value_se`` in ratio form.")


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


def check_ratio_baseline(baseline_risk: float, floor: float) -> None:
    """Refuse the ratio form (ValueError) on a baseline risk at or below ``floor``:
    a perfect fit, where the ratio would divide rounding noise by rounding noise."""
    if baseline_risk <= floor:
        raise ValueError(
            f"the ratio form is undefined: the baseline risk {baseline_risk!r} is negligible "
            "next to the variance of the test response (a perfect fit); use the difference form"
        )


def _check_counts(replications, base_seed) -> None:
    for name, value, low in (("replications", replications, 1), ("base_seed", base_seed, 0)):
        if not is_int(value, low):
            raise ValueError(f"{name} must be an integer >= {low}")


@dataclass(frozen=True, eq=False)
class EvaluationContext:
    """Per-run state shared by every cell scored on one model and test set.

    Built from the model, loss, data, replication count and base seed, it
    holds the test matrix ``X``, the response ``y``, the baseline losses
    and risk, ``ratio_floor`` (machine epsilon times var(y), see
    ``check_ratio_baseline``) and ``noise``: row r is the standard-normal
    vector drawn from the seed pair (base seed, r), one entry per test row.
    All arrays are locked read-only, so one context can serve concurrent cells.
    Test losses whose sum or sum of squares is not finite are refused (ValueError).
    """

    model: PredictiveModel
    loss: LossFunction
    data: Dataset
    replications: int = 30
    base_seed: int = 0
    X: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    base_losses: np.ndarray = field(init=False)
    baseline_risk: float = field(init=False)
    ratio_floor: float = field(init=False)
    noise: np.ndarray = field(init=False)
    _columns: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        _check_counts(self.replications, self.base_seed)
        X = self.data.matrix(self.model.feature_order, TEST)
        if X.shape[0] < 1:
            raise SchemaError("no test rows to evaluate on")
        y = self.data.target_values(TEST)
        with np.errstate(over="ignore", invalid="ignore"):
            base_losses = self.loss.pointwise(y, self.model.predict(X))
            baseline_risk = float(base_losses.mean())
            squares = float(base_losses @ base_losses)
        if not math.isfinite(baseline_risk):
            raise ValueError(f"baseline risk {baseline_risk!r}: the test losses are not finite")
        if not math.isfinite(squares):
            raise ValueError(f"baseline risk {baseline_risk!r}: the squares of the test losses "
                             "do not sum to a finite number")
        noise = np.empty((self.replications, X.shape[0]))
        for r, row in enumerate(noise):
            np.random.default_rng([self.base_seed, r]).standard_normal(out=row)
        for arr in (X, y, base_losses, noise):
            arr.setflags(write=False)
        derived = dict(
            replications=int(self.replications), base_seed=int(self.base_seed), X=X, y=y,
            base_losses=base_losses, baseline_risk=baseline_risk,
            ratio_floor=float(np.finfo(float).eps * np.var(y)), noise=noise,
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
        Xp = context.X.copy(order="F")  # so each replacement writes one contiguous column
        perturbed = []
        for r, z in enumerate(context.noise):
            Xp[:, j] = sampler.sample(required, z)
            losses = loss.pointwise(context.y, model.predict(Xp))
            perturbed.append(float(losses.mean()))
            if r == 0:
                first_diff = losses - context.base_losses
    return RfiEstimate(
        feature, conditioning, context.baseline_risk, tuple(perturbed), first_diff,
        context.base_seed, context.ratio_floor,
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


def result_row(estimate: RfiEstimate, test: TestResult, form: str = DIFFERENCE) -> list[str]:
    """One CSV record: feature, G, estimate, se, t, p, replications, seed.

    Floats are rendered with repr so equal results serialize to equal
    bytes and round-trip without precision loss.
    """
    return [
        estimate.feature,
        format_conditioning(estimate.conditioning),
        repr(estimate.value(form)),
        repr(estimate.value_se(form)),
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
