"""Closed-form population values that the benchmark checks relfi against.

Nothing here calls relfi. The joint covariance of a linear-Gaussian SCM
is rebuilt from its edges and noise scales as (I - A)^-1 D (I - A)^-T,
and the risk rise of a replacement is derived from that covariance and
the fitted linear model.

For a linear model f(x) = a + beta . x and squared loss, replacing x_j by
xtilde_j changes the loss of one row by

    d = beta_j^2 u^2 - 2 beta_j e u,   u = xtilde_j - x_j,  e = y - f(x).

Both samplers draw xtilde_j = c + m . x_S + sigma z over a variable set S,
so u = alpha . x_S + sigma z is Gaussian and jointly Gaussian with e. Its
mean E[d] is the population risk rise, and Isserlis' theorem gives the
standard deviation of d, which sets the test-set error of one
replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Scm:
    """A linear-Gaussian SCM as plain data: nodes, noise scales, edges."""

    nodes: tuple[str, ...]
    noise_scales: tuple[float, ...]
    edges: tuple[tuple[str, str, float], ...]  # (parent, child, coefficient)

    def covariance(self) -> np.ndarray:
        """(I - A)^-1 D (I - A)^-T with A[child, parent] = coefficient."""
        k = len(self.nodes)
        index = {name: i for i, name in enumerate(self.nodes)}
        a = np.zeros((k, k))
        for parent, child, coefficient in self.edges:
            a[index[child], index[parent]] = coefficient
        m = np.linalg.inv(np.eye(k) - a)
        return m @ np.diag(np.square(self.noise_scales)) @ m.T

    def as_mapping(self) -> dict:
        """The graph-file mapping relfi parses."""
        return {
            "nodes": [
                {"name": n, "noise_scale": s} for n, s in zip(self.nodes, self.noise_scales)
            ],
            "edges": [
                {"parent": p, "child": c, "coefficient": w} for p, c, w in self.edges
            ],
        }


@dataclass(frozen=True)
class Cell:
    """Population risk rise of one cell and the sd of one row's loss change."""

    mean: float
    row_sd: float

    def tolerance(self, n_test: int, k: float) -> float:
        """k standard errors of a one-replication estimate on n_test rows."""
        return k * self.row_sd / math.sqrt(n_test)


def gaussian_law(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """u = alpha . x_S + sigma z for the conditional Gaussian of x_S[0] given x_S[1:]."""
    alpha = np.zeros(cov.shape[0])
    alpha[0] = -1.0
    if cov.shape[0] == 1:
        return alpha, float(cov[0, 0])
    w = np.linalg.solve(cov[1:, 1:], cov[1:, 0])
    alpha[1:] = w
    return alpha, float(cov[0, 0] - cov[1:, 0] @ w)


def knockoff_law(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """u for the equicorrelated Gaussian knockoff of x_S[0] built over all of S.

    s = min(2 lambda_min(corr), 1) var(x_S[0]); the knockoff mean is
    x_S @ cov^-1 (cov e_0 - s e_0) and its variance 2s - s^2 (cov^-1)_00.
    """
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    s = min(2.0 * float(np.linalg.eigvalsh(corr)[0]), 1.0) * float(cov[0, 0])
    rhs = cov[:, 0].copy()
    rhs[0] -= s
    alpha = np.linalg.solve(cov, rhs)
    alpha[0] -= 1.0
    precision_00 = float(np.linalg.inv(cov)[0, 0])
    return alpha, max(2.0 * s - s * s * precision_00, 0.0)


LAWS = {"gaussian": gaussian_law, "knockoff": knockoff_law}


class RiskOracle:
    """Population risk rises for one SCM, target and fitted linear model."""

    def __init__(self, scm: Scm, target: str, features, coefficients):
        self.index = {name: i for i, name in enumerate(scm.nodes)}
        self.cov = scm.covariance()
        self.features = tuple(features)
        self.beta = dict(zip(self.features, np.asarray(coefficients, dtype=float)))
        f = [self.index[n] for n in self.features]
        t = self.index[target]
        b = np.asarray(coefficients, dtype=float)
        # Cov(x_k, e) for every variable k, and Var(e), with e = y - beta . x_F
        self.cov_xe = self.cov[:, t] - self.cov[:, f] @ b
        self.var_e = float(self.cov[t, t] - 2.0 * b @ self.cov[f, t] + b @ self.cov[np.ix_(f, f)] @ b)

    def cell(self, feature: str, conditioning, kind: str) -> Cell:
        """Risk rise when ``feature`` is redrawn given ``conditioning``."""
        conditioning = sorted(conditioning)
        if feature in conditioning:
            return Cell(0.0, 0.0)
        s = [self.index[n] for n in [feature, *conditioning]]
        sub = self.cov[np.ix_(s, s)]
        alpha, noise_var = LAWS[kind](sub)
        var_u = float(alpha @ sub @ alpha) + noise_var
        c = float(alpha @ self.cov_xe[s])
        b = float(self.beta[feature])
        mean = b * b * var_u - 2.0 * b * c
        second = 3.0 * b**4 * var_u**2 - 12.0 * b**3 * var_u * c + 4.0 * b * b * (self.var_e * var_u + 2.0 * c * c)
        return Cell(mean, math.sqrt(max(second - mean * mean, 0.0)))


def ols(values: np.ndarray, train: np.ndarray, columns, target_column: int):
    """Least-squares coefficients (without intercept) of the target on ``columns``."""
    rows = values[train]
    design = np.column_stack([np.ones(rows.shape[0]), rows[:, list(columns)]])
    coef, *_ = np.linalg.lstsq(design, rows[:, target_column], rcond=None)
    return coef[1:]


def sign_flip_normal_p(differences: np.ndarray) -> tuple[float, float]:
    """Normal approximation of the sign-flip p-value, and its leading error.

    Under random signs S = sum(s_i d_i) has mean 0, variance sum(d_i^2)
    and fourth cumulant -2 sum(d_i^4). The second value is the size of the
    Edgeworth term that the plain normal tail leaves out.
    """
    d = np.asarray(differences, dtype=float)
    var = float(d @ d)
    if var == 0.0:
        return 1.0, 0.0
    z = float(d.sum()) / math.sqrt(var)
    kappa4 = -2.0 * float(np.sum(d**4)) / var**2
    density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return p, abs(kappa4 / 24.0 * (z**3 - 3.0 * z) * density)
