"""Significance tests for nonzero importance.

Both tests consume per-observation loss differences d_i (perturbed minus
baseline) and ask whether their mean is positive: the paired one-sided t
test for ordinary sample sizes, and a sign-flip permutation test as the
exact small-sample analogue, which reads each assignment of signs as one
bit per difference, packed in 64-bit words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr, stdtrit

PAIRED_T = "paired-t-one-sided"
SIGN_FLIP = "sign-flip-exact"

DEFAULT_ALPHA = 0.01

# Signs per block of the sign-flip test, so its memory is bounded whatever
# the number of permutations. A block holds whole rows: enumerated
# assignments, or Monte-Carlo ones each drawn as ceil(n / 64) full-range
# uint64 words; such draws are not buffered, so the blocks concatenate to
# one draw of the whole matrix.
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


def _hits(words: np.ndarray, d: np.ndarray) -> int:
    """Rows of ``words`` whose set bits (bit k flips d[k]) pick a sum <= 0 of d."""
    flips = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1,
                          count=d.size, bitorder="little")
    return int(np.count_nonzero(flips @ d <= 0.0))


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
    assignments are taken in blocks of about ``_SIGN_BLOCK`` signs.

    The differences are sorted (descending) first, so the result depends
    exactly on their multiset alone, whatever the float addition order.
    """
    if max_permutations < 1:
        raise ValueError("max_permutations must be >= 1")
    d = _as_differences(differences, 1)
    n = d.size
    d = np.sort(d)[::-1]
    exhaustive = 2**n <= max_permutations
    total = 2**n if exhaustive else max_permutations
    rng = np.random.default_rng(seed)
    block = max(1, _SIGN_BLOCK // n)
    hits = 0
    for start in range(0, total, block):
        stop = min(start + block, total)
        words = (np.arange(start, stop, dtype=np.uint64)[:, None] if exhaustive else
                 rng.integers(0, 2**64, size=(stop - start, (n + 63) // 64), dtype=np.uint64))
        hits += _hits(words, d)
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
