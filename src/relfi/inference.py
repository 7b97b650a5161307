"""Significance tests for nonzero importance.

Both tests consume per-observation loss differences d_i (perturbed minus
baseline) and ask whether their mean is positive: the paired one-sided t
test for ordinary sample sizes, and a sign-flip permutation test as the
exact small-sample analogue, which reads each assignment of signs as one
bit per difference, packed in 64-bit words. It adds up each assignment
from per-byte tables of subset sums (256 B per difference) rather than a
BLAS product, and its count is exact in the arithmetic of the given doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr, stdtrit

from .core import is_int

PAIRED_T = "paired-t-one-sided"
SIGN_FLIP = "sign-flip-exact"

DEFAULT_ALPHA = 0.01

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
    n: int
    kind: str
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value must lie in [0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")

    @property
    def rejects(self) -> bool:
        return self.p_value < self.alpha


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


def paired_t_one_sided(differences, alpha: float = DEFAULT_ALPHA) -> TestResult:
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
            return TestResult(0.0, 1.0, n, PAIRED_T, alpha)
        stat = math.inf if mean > 0 else -math.inf
        return TestResult(stat, 0.0 if mean > 0 else 1.0, n, PAIRED_T, alpha)
    t = mean / (sd / math.sqrt(n))
    p = float(stdtr(n - 1, -t))  # the upper tail of t with n - 1 degrees of freedom
    return TestResult(t, p, n, PAIRED_T, alpha)


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


def sign_flip_exact(
    differences,
    max_permutations: int = 2**14,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
) -> TestResult:
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
    return TestResult(float(d.mean()), p, n, SIGN_FLIP, alpha)


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
    half = float(stdtrit(n - 1, 0.5 + level / 2.0)) * sd / math.sqrt(n)
    return (mean - half, mean + half)


# the config names of the tests (the first is the default) and the module
# attributes get_test reads per call, so a patched-in wrapper is returned
_TESTS = {"paired-t": "paired_t_one_sided", "sign-flip": "sign_flip_exact"}
TEST_KINDS = tuple(_TESTS)


def get_test(kind: str):
    if kind not in _TESTS:
        raise ValueError(f"unknown test kind {kind!r}; available: {', '.join(TEST_KINDS)}")
    return globals()[_TESTS[kind]]
