"""Conditional replacement samplers.

The importance engine needs draws of a feature from its conditional law
given the conditioning set G. Every sampler is built on a Gaussian joint
of the feature and G fitted to the training rows, and applied to test
rows. A factory (``sampler_factory``, for the library loops and ``relfi
run`` alike) fits one training joint over every column but the response
when it is created and reads each sampler with a nonempty G as its block,
so a cell's bits depend on the dataset, not on the other cells of a call.
The joint records every column's training bounds, so a feature constant in
training reads as a point mass from it. For an empty G, or a joint over more
than 4 columns past ``JOINT_MAX_FLOPS``, a cell fits its own columns. A block
of a joint over more than about 5 columns can move a subset fit's last bits
(at most 1.0e-12 relative per parameter over 600 sets on a 13-variable graph).
Two kinds are provided:

- direct conditional-Gaussian sampling (the default): exact under the
  Gaussian fit, and a function of the values of G and the noise alone,
  so the draw is independent of everything else given G;
- equicorrelated Gaussian model-X knockoffs (Candes et al. 2018, "Panning
  for Gold"): the knockoff coordinate of the feature given the whole
  fitted joint. It reads the observed feature column itself
  (``required_columns`` is the feature followed by G), so it is not a
  draw from the law of the feature given G alone. For an empty G the two
  kinds estimate the same importance; for a nonempty G the knockoff keeps
  part of the feature's own value and measures something other than
  importance relative to G.

Every scale decision of a fit (the ridge, the knockoff diagonal, the
symmetry check) is relative to each variable's own variance, so no draw
depends on the units a column is recorded in.

A sampler declares ``required_columns`` and is handed only those columns,
so it never sees the response or the features outside its joint.

The sampling contract is ``sample(rows, z)``: ``z`` is a standard-normal
vector with one entry per row, drawn by the caller, and every sampler is
the affine map ``intercept + rows @ slope + scale * z`` with every weight
fixed at fit time. Equal ``z`` therefore give equal underlying noise
across conditioning sets, which is what lets the importance engine draw
one noise block per run and share it between cells.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .core import TRAIN, Dataset, SchemaError, canonical_names, check_partition


class CovarianceError(RuntimeError):
    """Joint covariance fit failed (not positive definite)."""


class KnockoffError(RuntimeError):
    """Knockoff construction could not produce a valid joint."""


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
        Sample covariance (denominator n - 1) with each variance inflated
        by the share ``ridge``. Must be positive definite.
    ridge : float
        The share of each variance added to it at fit time (``fit_gaussian``).
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
        sd = np.sqrt(np.abs(np.diag(cov)))
        if not np.all(np.abs(cov - cov.T) <= 1e-10 * np.outer(sd, sd)):
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


def fit_gaussian(rows: np.ndarray, names, ridge: float | None = None) -> GaussianJoint:
    """Fit mean and covariance of the columns in ``rows``.

    Each variance is inflated by the share ``ridge`` of itself (None means
    1e-8, 0.0 none), a zero variance by that share of the mean variance,
    so the fit does not depend on the units of any column. The result
    must be positive definite or the fit is rejected.
    """
    rows = np.asarray(rows, dtype=float)
    names = tuple(str(n) for n in names)
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise SchemaError("rows must be a matrix with one column per name")
    if rows.shape[0] < 2:
        raise CovarianceError("need at least 2 rows to fit a covariance")
    return _ridged_joint(names, *_moments(np.array(rows).T), ridge)


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ``np.cov`` of the variables in the rows of ``x``, centring ``x``
    in place. One variable is summed pairwise by numpy, not by BLAS, which
    splits a long dot product across threads, so its bits would vary."""
    mean = x.mean(axis=1)
    x -= mean[:, None]
    cov = np.dot(x, x.T) if x.shape[0] > 1 else np.sum(x * x, keepdims=True)
    cov *= np.true_divide(1, x.shape[1] - 1)
    return mean, cov


def _ridge_share(ridge: float | None) -> float:
    """``ridge``, None read as 1e-8, once checked to be a finite number >= 0."""
    ridge = 1e-8 if ridge is None else ridge
    if not (np.isfinite(ridge) and ridge >= 0):
        raise ValueError("ridge must be a finite number >= 0")
    return float(ridge)


def _ridged_joint(names, mean, cov, ridge: float | None) -> GaussianJoint:
    """The joint with each variance of ``cov`` inflated by the share ``ridge``
    (None: 1e-8) of itself, or of the mean variance where it is zero."""
    ridge = _ridge_share(ridge)
    var = np.diag(cov)
    var = np.where(var > 0, var, var.mean())
    return GaussianJoint(names, mean, cov + np.diag(ridge * var), ridge)


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


@dataclass(frozen=True, eq=False)
class _AffineSampler:
    """Replacement draws ``intercept + rows @ slope + scale * z``.

    ``required_columns`` names exactly the inputs ``sample`` consumes, in
    order (the conditioning set unless given); the caller passes a matrix
    with those columns plus a standard-normal vector ``z`` with one entry
    per row. Every weight is fixed at fit time.
    """

    target: str
    conditioning: tuple[str, ...]
    slope: np.ndarray
    intercept: float
    scale: float
    required_columns: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.required_columns is None:
            object.__setattr__(self, "required_columns", self.conditioning)

    def sample(self, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        rows, expected = np.asarray(rows, dtype=float), len(self.required_columns)
        if rows.ndim != 2 or rows.shape[1] != expected:
            raise SchemaError(
                f"sampler expects {expected} conditioning column(s), got shape {rows.shape}"
            )
        return self.intercept + rows @ self.slope + self.scale * z


# Siblings, not aliases or subclasses of one another: callers tell the
# kinds apart by type, and a tracer may patch ``sample`` on each one.
class GaussianConditionalSampler(_AffineSampler):
    """Direct conditional-Gaussian replacement draws."""


class KnockoffSampler(_AffineSampler):
    """The equicorrelated knockoff coordinate of the target.

    Reads the observed target column as well as the conditioning set:
    ``required_columns`` is the target followed by the conditioning set.
    """


class PointMassSampler(_AffineSampler):
    """Degenerate replacement: the feature was constant in training data."""


def equicorrelated_knockoff_s(joint: GaussianJoint) -> np.ndarray:
    """Equicorrelated knockoff diagonal ``s``, in covariance units.

    With S_ the fitted covariance, C its correlation and D its diagonal,
    S = diag(s) = s_c D for s_c = min(2 * lambda_min(C), 1), 1 being the
    marginal-variance cap. The implied 2k x 2k joint over (X, knockoff X),
    [[S_, S_ - S], [S_ - S, S_]], has the eigenvalues of S and of
    2 S_ - S = D^1/2 (2 C - s_c I) D^1/2, so it is PSD by construction.
    """
    var = joint.covariance.diagonal()
    sd = np.sqrt(var)
    lam_min = float(np.linalg.eigvalsh(joint.covariance / np.outer(sd, sd))[0])
    if lam_min <= 0:
        raise KnockoffError("correlation matrix is not positive definite")
    return min(2.0 * lam_min, 1.0) * var


def knockoff_sampler(joint: GaussianJoint) -> KnockoffSampler:
    """Knockoff of the joint's first variable given all of its variables.

    The knockoff vector given X = x is Gaussian with mean
    mu + (S_ - S) S_^-1 (x - mu) and covariance 2S - S S_^-1 S. Its first
    coordinate is mu_t + (x - mu) @ w + scale * z with
    w = S_^-1 (S_ - S) e_t, so the intercept is mu_t - mu @ w.
    """
    s = equicorrelated_knockoff_s(joint)
    cov, mu = joint.covariance, joint.mean
    rhs = cov[:, 0].copy()
    rhs[0] -= s[0]
    w = np.linalg.solve(cov, rhs)
    prec_tt = float(np.linalg.solve(cov, np.eye(len(joint.names))[:, 0])[0])
    scale = np.sqrt(max(2.0 * s[0] - s[0] ** 2 * prec_tt, 0.0))
    return KnockoffSampler(
        joint.names[0], joint.names[1:], w, float(mu[0] - mu @ w), float(scale),
        joint.names,
    )


SAMPLER_KINDS = ("gaussian", "knockoff")


def _check_options(kind: str, ridge: float | None) -> None:
    if kind not in SAMPLER_KINDS:
        raise ValueError(f"unknown sampler kind {kind!r}; available: {', '.join(SAMPLER_KINDS)}")
    _ridge_share(ridge)


# cap on a joint over k > 4 columns: (n_train + k) * k * k multiply-adds, its
# covariance plus a k x k solve; it keeps block and covariance under 2**28 / k bytes
JOINT_MAX_FLOPS = 2**25


def training_moments(data: Dataset, names) -> tuple:
    """(names, mean, unridged covariance, {name: (min, max)}) of the named
    columns on the training rows. The covariance repeats ``np.cov`` step for
    step (same bits for two or more columns) but centres the gathered block in
    place; below 2 rows it is None."""
    names = tuple(names)
    if data.n_train == 0:
        raise SchemaError("no training rows to fit a sampler on")
    x = data.matrix(names, TRAIN).T  # np.cov's layout: one row per variable
    bounds = {name: (row.min(), row.max()) for name, row in zip(names, x)}
    mean, cov = _moments(x) if x.shape[1] > 1 else (x.mean(axis=1), None)
    return names, mean, cov, bounds


def fit_sampler(
    data: Dataset,
    feature: str,
    conditioning,
    kind: str = "gaussian",
    ridge: float | None = None,
    *,
    moments: tuple | None = None,
) -> _AffineSampler:
    """Fit a replacement sampler on the training rows.

    The joint is fit over the feature plus the conditioning set, which may
    include variables outside the model's feature list. A feature that is
    constant in training data yields a point-mass sampler. ``ridge`` is the
    share of each variance added to it, as in ``fit_gaussian``. ``moments``,
    a ``training_moments`` of ``data``, supplies the joint as its block when
    the conditioning set is nonempty and it covers the feature and the set.
    """
    _check_options(kind, ridge)
    conditioning = canonical_names(conditioning)
    if feature in conditioning:
        raise SchemaError(
            f"feature {feature!r} cannot appear in its own conditioning set"
        )
    check_partition(data.target_name, feature, conditioning)
    names = (feature,) + conditioning
    # an empty G keeps its own column: one contiguous column is summed
    # pairwise, so a block of a wider joint would not reproduce its bits
    if not (conditioning and moments and set(names) <= set(moments[0])):
        moments = training_moments(data, names)
    columns, mean, cov, bounds = moments
    idx, (low, high) = [columns.index(name) for name in names], bounds[feature]
    if low == high:
        return PointMassSampler(feature, conditioning, np.empty(0), float(low), 0.0, ())
    joint = _ridged_joint(names, mean[idx], cov[np.ix_(idx, idx)], ridge)
    if kind == "knockoff":
        return knockoff_sampler(joint)
    slope, intercept, variance = conditional_gaussian_params(joint, feature, conditioning)
    return GaussianConditionalSampler(
        feature, conditioning, slope, intercept, float(np.sqrt(variance))
    )


def sampler_factory(data: Dataset, kind: str = "gaussian", ridge: float | None = None):
    """Bind dataset and options into a (feature, conditioning) -> sampler callable.

    Fits the joint of every column but the response now, on the caller's thread, when
    k <= 4 (at most twice any cell's block) or within ``JOINT_MAX_FLOPS``; fits run one
    at a time. An unknown ``kind`` or a bad ``ridge`` is refused before any of that.
    """
    _check_options(kind, ridge)
    columns = [n for n in data.variable_names if n != data.target_name]
    k = len(columns)
    cheap = k <= 4 or (data.n_train + k) * k * k <= JOINT_MAX_FLOPS
    joint = training_moments(data, columns) if cheap else None
    lock = threading.Lock()  # so two workers never gather two cells' own blocks at once

    def factory(feature: str, conditioning) -> _AffineSampler:
        with lock:
            return fit_sampler(data, feature, conditioning, kind=kind, ridge=ridge, moments=joint)

    return factory
