"""Conditional replacement samplers.

The importance engine needs draws of a feature from its conditional law
given the conditioning set, independent of everything else given that
set. Two interchangeable constructions are provided on top of a fitted
Gaussian joint: direct conditional-Gaussian sampling (the default, exact
under the Gaussian fit) and equicorrelated Gaussian model-X knockoffs.

Independence from the unconditioned variables and the response holds
structurally: a sampler declares ``required_columns`` and is handed only
those columns, so its output is a function of the conditioning values
and the noise alone. Samplers are fit on training rows and applied to
test rows.

The sampling contract is ``sample(rows, z)``: ``z`` is a standard-normal
vector with one entry per row, drawn by the caller, and the sampler is a
deterministic affine map of ``rows`` and ``z`` with every weight fixed at
fit time. Equal ``z`` therefore give equal underlying noise across
conditioning sets, which is what lets the importance engine draw one
noise block per run and share it between cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from .core import TEST, TRAIN, Dataset, SchemaError

# Cap the equicorrelated diagonal at the correlation-scale value 1.0,
# the marginal-variance bound from the construction.
_S_CAP = 1.0
_PSD_TOL = 1e-8


class CovarianceError(RuntimeError):
    """Joint covariance fit failed (not positive definite)."""


class KnockoffError(RuntimeError):
    """Knockoff construction could not produce a valid joint."""


class SamplerStateError(RuntimeError):
    """Sampler used before fitting or with mismatched columns."""


@dataclass(frozen=True, eq=False)
class GaussianJoint:
    """Fitted mean and covariance over a named variable set.

    Parameters
    ----------
    names : tuple of str
        Variable names, fixing coordinate order.
    mean : ndarray, shape (k,)
        Sample mean.
    covariance : ndarray, shape (k, k)
        Sample covariance (denominator n - 1) plus ``ridge`` times the
        identity. Positive definite by construction.
    ridge : float
        The diagonal inflation that was applied at fit time.
    """

    names: tuple[str, ...]
    mean: np.ndarray
    covariance: np.ndarray
    ridge: float

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.names)
        if len(set(names)) != len(names):
            raise SchemaError("joint variable names must be unique")
        mean = np.asarray(self.mean, dtype=float).reshape(len(names))
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (len(names), len(names)):
            raise SchemaError("covariance shape does not match names")
        if not np.allclose(cov, cov.T, atol=1e-10, rtol=0):
            raise CovarianceError("covariance must be symmetric")
        cov = (cov + cov.T) / 2.0
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise CovarianceError(
                "covariance is not positive definite; refit with a larger ridge"
            ) from None
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "ridge", float(self.ridge))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(f"joint has no variable named {name!r}") from None


def default_ridge(covariance: np.ndarray) -> float:
    """Trace-scaled diagonal inflation: 1e-8 * tr(S) / k."""
    k = covariance.shape[0]
    return 1e-8 * float(np.trace(covariance)) / k


def fit_gaussian(rows: np.ndarray, names, ridge: float | None = None) -> GaussianJoint:
    """Fit mean and covariance of the columns in ``rows``.

    ``ridge`` is added to the covariance diagonal; None picks the
    trace-scaled default, 0.0 disables inflation entirely. The result
    must be positive definite or the fit is rejected.
    """
    rows = np.asarray(rows, dtype=float)
    names = tuple(str(n) for n in names)
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise SchemaError("rows must be a matrix with one column per name")
    if rows.shape[0] < 2:
        raise CovarianceError("need at least 2 rows to fit a covariance")
    if ridge is not None and ridge < 0:
        raise ValueError("ridge must be >= 0")
    mean = rows.mean(axis=0)
    cov = np.atleast_2d(np.cov(rows, rowvar=False, ddof=1))
    if ridge is None:
        ridge = default_ridge(cov)
    cov = cov + ridge * np.eye(len(names))
    return GaussianJoint(names, mean, cov, float(ridge))


def conditional_gaussian_params(
    joint: GaussianJoint, target: str, conditioning
) -> tuple[np.ndarray, float, float]:
    """Parameters of target | conditioning under the fitted joint.

    Returns
    -------
    slope : ndarray, shape (len(conditioning),)
        Regression weights on the conditioning values, in their order.
    intercept : float
    variance : float
        Conditional variance (the Schur complement), clamped at 0.0 when
        rounding drives it infinitesimally negative.
    """
    conditioning = tuple(str(g) for g in conditioning)
    if target in conditioning:
        raise SchemaError(f"target {target!r} cannot appear in the conditioning set")
    t = joint.index(target)
    if not conditioning:
        return np.empty(0), float(joint.mean[t]), float(joint.covariance[t, t])
    g_idx = [joint.index(g) for g in conditioning]
    cov_gg = joint.covariance[np.ix_(g_idx, g_idx)]
    cov_gt = joint.covariance[g_idx, t]
    slope = np.linalg.solve(cov_gg, cov_gt)
    intercept = float(joint.mean[t] - slope @ joint.mean[g_idx])
    variance = float(joint.covariance[t, t] - slope @ cov_gt)
    return slope, intercept, max(variance, 0.0)


@runtime_checkable
class ConditionalSampler(Protocol):
    """Draws replacement columns for one feature given its conditioning set.

    ``required_columns`` names exactly the inputs ``sample`` consumes; the
    caller passes a matrix with those columns in that order, plus a
    standard-normal vector ``z`` with one entry per row. Independence
    of the replacement from everything outside the conditioning set is
    enforced by this interface shape, not by convention inside
    implementations.
    """

    @property
    def target(self) -> str: ...

    @property
    def conditioning(self) -> tuple[str, ...]: ...

    @property
    def required_columns(self) -> tuple[str, ...]: ...

    def sample(self, rows: np.ndarray, z: np.ndarray) -> np.ndarray: ...


def _check_rows(rows: np.ndarray, expected: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != expected:
        raise SamplerStateError(
            f"sampler expects {expected} conditioning column(s), got shape {rows.shape}"
        )
    return rows


@dataclass(frozen=True, eq=False)
class GaussianConditionalSampler:
    """Direct conditional-Gaussian replacement draws."""

    target: str
    conditioning: tuple[str, ...]
    slope: np.ndarray
    intercept: float
    scale: float

    @property
    def required_columns(self) -> tuple[str, ...]:
        return self.conditioning

    def sample(self, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        rows = _check_rows(rows, len(self.conditioning))
        return self.intercept + rows @ self.slope + self.scale * z


@dataclass(frozen=True, eq=False)
class PointMassSampler:
    """Degenerate replacement: the feature was constant in training data."""

    target: str
    conditioning: tuple[str, ...]
    constant: float

    @property
    def required_columns(self) -> tuple[str, ...]:
        return ()

    def sample(self, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        rows = _check_rows(rows, 0)
        return np.full(rows.shape[0], self.constant)


@dataclass(frozen=True, eq=False)
class KnockoffSpec:
    """Equicorrelated knockoff parameterization of a fitted joint.

    ``s`` is the knockoff diagonal in covariance units. The implied
    2k x 2k joint over (X, knockoff X) is [[S_, S_ - S], [S_ - S, S_]]
    with S_ the fitted covariance and S = diag(s).
    """

    joint: GaussianJoint
    s: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float).reshape(len(self.joint.names))
        if (s < -_PSD_TOL).any():
            raise KnockoffError("knockoff diagonal must be nonnegative")
        s.setflags(write=False)
        object.__setattr__(self, "s", s)

    def knockoff_covariance(self) -> np.ndarray:
        cov = self.joint.covariance
        off = cov - np.diag(self.s)
        return np.block([[cov, off], [off, cov]])


def equicorrelated_knockoff_s(joint: GaussianJoint) -> KnockoffSpec:
    """Equicorrelated construction: one shared diagonal value.

    On the correlation scale s = min(2 * lambda_min, 1), rescaled per
    coordinate by the fitted variances. The implied joint must be PSD
    within tolerance; a failed repair raises.
    """
    cov = joint.covariance
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    lam_min = float(np.linalg.eigvalsh(corr)[0])
    if lam_min <= 0:
        raise KnockoffError("correlation matrix is not positive definite")
    s_corr = min(2.0 * lam_min, _S_CAP)
    s = s_corr * np.diag(cov)
    # eigenvalues of the 2k x 2k joint are those of 2*cov - S and of S
    for _ in range(2):
        if float(np.linalg.eigvalsh(2.0 * cov - np.diag(s))[0]) >= -_PSD_TOL:
            return KnockoffSpec(joint, s)
        s = s * (1.0 - 1e-6)
    raise KnockoffError("knockoff joint is not PSD even after shrinking s")


def _knockoff_column_params(spec: KnockoffSpec, target: str) -> tuple[np.ndarray, float]:
    """Mean weights and scale of the knockoff coordinate of ``target``.

    The knockoff vector given X = x is Gaussian with mean
    mu + (S_ - S) S_^-1 (x - mu) and covariance 2S - S S_^-1 S. The
    target coordinate is mu_t + (x - mu) @ weights + scale * z.
    """
    joint = spec.joint
    t = joint.index(target)
    cov = joint.covariance
    # ((S_ - S) S_^-1 (x - mu))_t = (x - mu) @ S_^-1 (S_ - S) e_t
    rhs = cov[:, t].copy()
    rhs[t] -= spec.s[t]
    weights = np.linalg.solve(cov, rhs)
    prec_tt = float(np.linalg.solve(cov, np.eye(len(joint.names))[:, t])[t])
    variance = max(2.0 * spec.s[t] - spec.s[t] ** 2 * prec_tt, 0.0)
    return weights, np.sqrt(variance)


def sample_knockoff_column(
    spec: KnockoffSpec, rows: np.ndarray, target: str, z: np.ndarray
) -> np.ndarray:
    """The knockoff coordinate of ``target`` given observed rows and noise ``z``.

    ``rows`` holds columns for all of ``spec.joint.names`` in order.
    """
    rows = _check_rows(rows, len(spec.joint.names))
    weights, scale = _knockoff_column_params(spec, target)
    mu = spec.joint.mean
    return mu[spec.joint.index(target)] + (rows - mu) @ weights + scale * z


@dataclass(frozen=True, eq=False)
class KnockoffSampler:
    """ConditionalSampler facade over the knockoff construction.

    Needs the observed target column itself (knockoffs condition on the
    full fitted variable set), so ``required_columns`` is the target
    followed by the conditioning set. That is still free of the
    unconditioned variables and the response. The mean weights and the
    scale are solved once, when the sampler is built.
    """

    spec: KnockoffSpec
    weights: np.ndarray = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self) -> None:
        weights, scale = _knockoff_column_params(self.spec, self.target)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "scale", scale)

    @property
    def target(self) -> str:
        return self.spec.joint.names[0]

    @property
    def conditioning(self) -> tuple[str, ...]:
        return self.spec.joint.names[1:]

    @property
    def required_columns(self) -> tuple[str, ...]:
        return self.spec.joint.names

    def sample(self, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        rows = _check_rows(rows, len(self.spec.joint.names))
        mu = self.spec.joint.mean
        return mu[0] + (rows - mu) @ self.weights + self.scale * z


SAMPLER_KINDS = ("gaussian", "knockoff")


def fit_sampler(
    data: Dataset,
    feature: str,
    conditioning,
    kind: str = "gaussian",
    ridge: float | None = None,
) -> ConditionalSampler:
    """Fit a replacement sampler on the training rows.

    The joint is fit over the feature plus the conditioning set, which may
    include variables outside the model's feature list. A feature that is
    constant in training data yields a point-mass sampler.
    """
    if kind not in SAMPLER_KINDS:
        raise ValueError(
            f"unknown sampler kind {kind!r}; available: {', '.join(SAMPLER_KINDS)}"
        )
    conditioning = tuple(sorted(str(g) for g in set(conditioning)))
    if feature in conditioning:
        raise SchemaError(
            f"feature {feature!r} cannot appear in its own conditioning set"
        )
    if data.target_name in conditioning or data.target_name == feature:
        raise SchemaError("the response cannot be sampled or conditioned on")
    names = (feature,) + conditioning
    rows = data.matrix(names, TRAIN)
    xj = rows[:, 0]
    if np.ptp(xj) == 0.0:
        return PointMassSampler(feature, conditioning, float(xj[0]))
    joint = fit_gaussian(rows, names, ridge)
    if kind == "knockoff":
        return KnockoffSampler(equicorrelated_knockoff_s(joint))
    slope, intercept, variance = conditional_gaussian_params(joint, feature, conditioning)
    return GaussianConditionalSampler(
        feature, conditioning, slope, intercept, float(np.sqrt(variance))
    )


def sampler_factory(data: Dataset, kind: str = "gaussian", ridge: float | None = None):
    """Bind dataset and options into a (feature, conditioning) -> sampler callable."""

    def factory(feature: str, conditioning) -> ConditionalSampler:
        return fit_sampler(data, feature, conditioning, kind=kind, ridge=ridge)

    return factory


def sample_replacement(sampler: ConditionalSampler, data: Dataset, seed, split: str = TEST) -> np.ndarray:
    """One replacement column for the given rows, with noise drawn from ``seed``.

    Extracts exactly the sampler's required columns, so no implementation
    ever sees the response or the unconditioned features.
    """
    rows = data.matrix(sampler.required_columns, split)
    z = np.random.default_rng(seed).standard_normal(rows.shape[0])
    return sampler.sample(rows, z)
