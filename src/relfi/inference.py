"""Significance tests for nonzero importance.

Both tests consume per-observation loss differences d_i (perturbed minus
baseline) and ask whether their mean is positive: the paired one-sided t
test for ordinary sample sizes, and a sign-flip permutation test as the
exact small-sample analogue. Each returns evidence, not a decision: its
statistic and its one-sided p-value, which ``relfi run`` writes as the
``t`` and ``p`` columns. The t distribution's tail and its inverse are
computed here with math and numpy, by quadrature (see ``_t_upper``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import is_int

# Bounds a block of the sign-flip test, so its memory is bounded whatever
# the number of permutations. A block holds whole rows, at most
# 32 * _SIGN_BLOCK signs in all and _SIGN_BLOCK // min(n, 512) rows, so the
# index buffer of its 64-byte slices takes at most _SIGN_BLOCK bytes: rows
# of enumerated assignments, or Monte-Carlo ones each drawn as ceil(n / 64)
# full-range uint64 words; such draws are not buffered, so the blocks
# concatenate to one draw of the whole matrix.
_SIGN_BLOCK = 2**20


class InsufficientDataError(ValueError):
    """Too few observations for the requested test."""


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value must lie in [0, 1]")


def _as_differences(differences, minimum: int) -> np.ndarray:
    d = np.asarray(differences, dtype=float).ravel()
    if d.size < minimum:
        raise InsufficientDataError(
            f"need at least {minimum} loss differences, got {d.size}"
        )
    if not np.isfinite(d).all():
        raise ValueError("loss differences must be finite")
    with np.errstate(over="ignore"):
        squares = float(d @ d)
    if not math.isfinite(squares):
        raise ValueError("the sum of squared loss differences must be finite")
    return d


def paired_t_one_sided(differences) -> TestResult:
    """Upper-tail paired t test of mean(d) > 0.

    A zero-variance sample is degenerate: all-zero differences carry no
    evidence (p = 1), a constant positive difference is conclusive
    (p = 0), a constant negative one is conclusive the other way.
    """
    d = _as_differences(differences, 2)
    n = d.size
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return TestResult(0.0, 1.0)
        return TestResult(math.inf, 0.0) if mean > 0 else TestResult(-math.inf, 1.0)
    t = mean / (sd / math.sqrt(n))
    return TestResult(t, _t_sf(t, n - 1))


@cache
def _quadrature():
    """Gauss-Legendre on [0, 1] (20 squared nodes, weights) and Gauss-Laguerre
    (80 nodes, weights), each by Golub-Welsch from its Jacobi matrix."""
    i, k = np.arange(1.0, 20.0), np.arange(80.0)
    b = i / np.sqrt(4.0 * i * i - 1.0)
    x, v = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    y, u = np.linalg.eigh(np.diag(2.0 * k + 1.0) + np.diag(k[1:], 1) + np.diag(k[1:], -1))
    return ((x + 1.0) / 2.0) ** 2, v[0] ** 2, y, u[0] ** 2


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a), by its asymptotic series from a = 50
    on, where a difference of two lgamma values would lose digits."""
    if a < 50.0:
        return math.log(math.gamma(a + 0.5) / math.gamma(a))
    return (0.5 * math.log(a) - 1 / (8 * a) + 1 / (192 * a**3) - 1 / (640 * a**5)
            + 17 / (14336 * a**7))


def _t_upper(u: float, nu: float, g: float) -> float:
    """P(T > u) for u >= 0 and nu > 1 degrees of freedom, g = _log_gamma_ratio(nu / 2).

    Below u = 3, 1/2 less the density's integral over [0, u] (at most 3 digits cancel).
    Beyond, u = sqrt(nu) tan(theta) and v = (nu - 1) log(cos(theta_u) / cos(theta)) make the
    tail cos(theta_u)^(nu - 1) / (nu - 1) times a Laguerre integral of 1 / tan(theta)."""
    x2, wl, xg, wg = _quadrature()
    if u < 3.0:
        density = np.exp(np.log1p(x2 * (u * u / nu)) * (-0.5 * (nu + 1.0)))
        return 0.5 - math.exp(g) * u / math.sqrt(nu * math.pi) * float(wl @ density)
    m, log1p_q = nu - 1.0, math.log1p(u * u / nu)
    with np.errstate(over="ignore"):  # expm1 overflows at huge u, where 1 / tan(theta) is 0
        integral = float(wg @ np.expm1(xg * (2.0 / m) + log1p_q) ** -0.5)
    return math.exp(g - 0.5 * m * log1p_q) / (m * math.sqrt(math.pi)) * integral


def _t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with df >= 1 degrees of freedom."""
    if df == 1:  # Cauchy
        return math.atan2(1.0, t) / math.pi
    p = _t_upper(abs(t), float(df), _log_gamma_ratio(df / 2.0))
    return p if t >= 0 else 1.0 - p


def _t_isf(p: float, df: float) -> float:
    """The t with P(T > t) = p for df degrees of freedom, NaN for df < 1.

    Newton steps on log P, which is concave in log t, from sqrt(df expm1(z^2 (df - 1.5) /
    (df - 1)^2)), z the normal quantile (A&S 26.2.23); the last step leaves about its square."""
    if not (df >= 1 and 0.0 <= p <= 1.0):
        return math.nan
    if p > 0.5:
        return -_t_isf(1.0 - p, df)
    if p in (0.0, 0.5):
        return math.inf if p == 0.0 else 0.0
    if df == 1:
        return 1.0 / math.tan(math.pi * p)
    nu, g = float(df), _log_gamma_ratio(df / 2.0)
    r = math.sqrt(-2.0 * math.log(p))
    z = max(r - (2.515517 + 0.802853 * r + 0.010328 * r * r)
            / (1.0 + 1.432788 * r + 0.189269 * r * r + 0.001308 * r**3), 2.5066 * (0.5 - p))
    t = math.sqrt(nu * math.expm1(z * z * (nu - 1.5) / (nu - 1.0) ** 2))
    for _ in range(50):
        sf = _t_upper(t, nu, g)
        density = math.exp(g - 0.5 * (nu + 1.0) * math.log1p(t * t / nu)) / math.sqrt(nu * math.pi)
        step = math.log(sf / p) * sf / (t * density)
        t *= math.exp(step)
        if abs(step) < 3e-7:
            break
    return t


def _hits(blocks, rows: int, d: np.ndarray) -> int:
    """Rows of the word ``blocks`` whose set bits (bit k flips d[k]) pick a sum <= 0 of d.

    ``table[b, v]`` sums d[8b + k] over the set bits k of byte v, so a row's
    sum gathers ``table[b, byte b]`` over its first len(table) little-endian
    bytes, 64 of them (128 KB of table) at a time, through one index buffer
    for ``rows`` rows (a fresh index array per block costs page faults). In
    any addition order that sum lies within ``tol`` of the exact one, so rows
    that close to 0 are summed again by math.fsum, whose sign is exact (if
    ``tol`` underflows to 0, every sum is exact).
    """
    table = np.zeros(((d.size + 7) // 8, 256))
    padded = np.concatenate([d, np.zeros(8 * len(table) - d.size)])
    for k in range(8):
        np.add(table[:, : 1 << k], padded[k::8, None], out=table[:, 1 << k : 2 << k])
    tol = 2.0 * d.size * np.finfo(float).eps * float(np.abs(d).sum())
    index, offsets = np.empty(rows * min(len(table), 64), np.intp), np.arange(0, 256 * 64, 256)
    hits = 0
    for words in blocks:
        data = words.astype("<u8", copy=False).view(np.uint8)[:, : len(table)]
        sums = np.zeros(len(data))
        for b in range(0, len(table), 64):
            part = data[:, b : b + 64]
            at = np.add(part, offsets[: part.shape[1]], out=index[: part.size].reshape(part.shape))
            sums += table[b : b + 64].ravel().take(at).sum(axis=1)
        near = np.abs(sums) <= tol
        hits += int(np.count_nonzero(sums < -tol))
        flips = np.unpackbits(data[near], axis=1, count=d.size, bitorder="little").view(bool)
        hits += sum(math.fsum(d[f]) <= 0.0 for f in flips)
    return hits


def sign_flip_exact(differences, max_permutations: int = 2**14, seed: int = 0) -> TestResult:
    """Sign-flip permutation test of mean(d) > 0.

    Every assignment of signs to the differences is equally likely under
    the null of a symmetric zero-centered law; the p-value is the share
    of assignments whose mean reaches the observed one: flipping the set F
    moves the sum from S to S - 2 * sum(d[F]), so those with sum(d[F]) <= 0.
    Enumeration is exhaustive while 2^n fits in ``max_permutations``;
    beyond that it is Monte-Carlo with add-one smoothing over rows of
    ceil(n / 64) random 64-bit words, one bit per sign. Either way the
    assignments are taken in blocks (see ``_SIGN_BLOCK``).

    Each sum(d[F]) adds entries of per-byte subset-sum tables, built once
    per call at 256 B per difference, with no BLAS call. Its sign, so the
    count, is exact in the arithmetic of the given doubles: exact ties
    count as reaching the observed mean. The differences are sorted
    (descending) first, so the bits map to the same differences whatever
    the input order.
    """
    if not is_int(max_permutations, 1):
        raise ValueError("max_permutations must be an integer >= 1")
    if not is_int(seed, 0):
        raise ValueError("seed must be an integer >= 0")
    d = _as_differences(differences, 1)
    n = d.size
    d = np.sort(d)[::-1]
    exhaustive = 2**n <= max_permutations
    total = 2**n if exhaustive else max_permutations
    rng = np.random.default_rng(seed)
    block = max(1, min(32 * _SIGN_BLOCK // n, _SIGN_BLOCK // min(n, 512)))
    blocks = (np.arange(start, min(start + block, total), dtype=np.uint64)[:, None] if exhaustive
              else rng.integers(0, 2**64, size=(min(block, total - start), (n + 63) // 64),
                                dtype=np.uint64)
              for start in range(0, total, block))
    hits = _hits(blocks, block, d) if d.any() else total  # all zero: every sum ties at 0
    p = hits / total if exhaustive else (1.0 + hits) / (total + 1.0)
    return TestResult(float(d.mean()), p)


def confidence_interval(differences, level: float = 0.95) -> tuple[float, float]:
    """Symmetric t interval for the mean loss difference."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    d = _as_differences(differences, 2)
    n = d.size
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return (mean, mean)
    half = _t_isf((1.0 - level) / 2.0, n - 1) * sd / math.sqrt(n)
    return (mean - half, mean + half)


# the config names of the tests (the first is the default) and the module
# attributes get_test reads per call, so a patched-in wrapper is returned
_TESTS = {"paired-t": "paired_t_one_sided", "sign-flip": "sign_flip_exact"}
TEST_KINDS = tuple(_TESTS)


def get_test(kind: str):
    if kind not in _TESTS:
        raise ValueError(f"unknown test kind {kind!r}; available: {', '.join(TEST_KINDS)}")
    return globals()[_TESTS[kind]]
