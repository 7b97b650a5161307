import dataclasses
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import stdtr, stdtrit

from relfi import inference
from relfi.cli import load_config, run_experiment
from relfi.inference import (
    InsufficientDataError,
    _t_isf,
    _t_sf,
    confidence_interval,
    get_test,
    paired_t_one_sided,
    sign_flip_exact,
)
from relfi.inference import TestResult as Result

PROFILE = settings(derandomize=True, database=None, deadline=None)
# tenths and signed zeros: exact ties are common, and float sums of tenths
# land on either side of them
TIED = st.sampled_from([k / 10 for k in range(-9, 10)] + [-0.0])


def exact_hits(d, flips) -> int:
    """Rows of the 0/1 ``flips`` (bit k flips the k-th largest of d) with sum(d[F]) <= 0, in Fractions."""
    ordered = [Fraction(x) for x in sorted(d, reverse=True)]
    return sum(sum((x for x, f in zip(ordered, row) if f), Fraction(0)) <= 0 for row in flips.tolist())


# Hand-worked oracle for d = (1, 2, 3): mean 2, sd 1, t = 2 * sqrt(3).
# With 2 degrees of freedom the upper tail has the closed form
# 1/2 - t / (2 * sqrt(2 + t^2)), which evaluates to 0.5 * (1 - sqrt(6/7)).
T_123 = 2.0 * math.sqrt(3.0)
P_123 = 0.5 * (1.0 - math.sqrt(6.0 / 7.0))


class TestPairedT:
    def test_hand_worked_example(self):
        res = paired_t_one_sided([1.0, 2.0, 3.0])
        assert res.statistic == pytest.approx(T_123, abs=1e-12)
        assert res.p_value == pytest.approx(P_123, abs=1e-12)

    def test_all_zero_carries_no_evidence(self):
        res = paired_t_one_sided(np.zeros(10))
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_constant_nonzero_is_conclusive(self):
        res = paired_t_one_sided([0.3, 0.3, 0.3])
        assert res.statistic == math.inf
        assert res.p_value == 0.0
        res = paired_t_one_sided([-0.3, -0.3, -0.3])
        assert res.statistic == -math.inf
        assert res.p_value == 1.0

    def test_sign_antisymmetry(self):
        d = np.array([0.4, -0.1, 0.9, 0.2])
        plus = paired_t_one_sided(d)
        minus = paired_t_one_sided(-d)
        assert plus.statistic == pytest.approx(-minus.statistic, abs=1e-12)
        assert plus.p_value + minus.p_value == pytest.approx(1.0, abs=1e-12)

    def test_p_decreases_with_signal(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(size=50)
        ps = [paired_t_one_sided(noise + shift).p_value for shift in (0.0, 0.2, 0.5)]
        assert ps[0] > ps[1] > ps[2]

    def test_needs_two_observations(self):
        with pytest.raises(InsufficientDataError):
            paired_t_one_sided([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            paired_t_one_sided([1.0, np.nan])


class TestSignFlip:
    def test_single_positive_difference(self):
        # two assignments, one (the observed all-plus) reaches the mean
        res = sign_flip_exact([1.0])
        assert res.p_value == 0.5

    def test_all_zero(self):
        res = sign_flip_exact(np.zeros(5))
        assert res.p_value == 1.0

    def test_twelve_positive_differences(self):
        # only the all-plus assignment among 2^12 reaches the observed sum
        d = np.linspace(0.5, 1.5, 12)
        res = sign_flip_exact(d)
        assert res.p_value == 0.000244140625
        assert res.p_value == 1.0 / 4096.0

    def test_exhaustive_permutation_invariance(self):
        d = np.array([0.7, -0.2, 1.1, 0.05, -0.6])
        base = sign_flip_exact(d).p_value
        for perm in itertools.permutations(range(5)):
            assert sign_flip_exact(d[list(perm)]).p_value == base

    def test_matches_brute_force(self):
        d = np.array([0.9, -0.4, 0.3, 0.8])
        total = d.sum()
        hits = sum(
            1
            for signs in itertools.product((-1.0, 1.0), repeat=4)
            if np.dot(signs, sorted(d, reverse=True)) >= total
        )
        assert sign_flip_exact(d).p_value == hits / 16.0

    def test_statistic_is_mean(self):
        res = sign_flip_exact([1.0, 3.0])
        assert res.statistic == 2.0

    def test_monte_carlo_branch(self):
        rng = np.random.default_rng(1)
        d = rng.normal(loc=0.1, size=20)
        r1 = sign_flip_exact(d, max_permutations=999, seed=5)
        r2 = sign_flip_exact(d, max_permutations=999, seed=5)
        assert r1.p_value == r2.p_value
        # add-one smoothing keeps the estimate inside (0, 1)
        assert 0.0 < r1.p_value < 1.0
        assert r1.p_value >= 1.0 / 1000.0

    def test_monte_carlo_close_to_exhaustive(self):
        rng = np.random.default_rng(2)
        d = rng.normal(loc=0.4, size=10)
        exact = sign_flip_exact(d).p_value
        mc = sign_flip_exact(d, max_permutations=1023, seed=3).p_value
        assert abs(mc - exact) < 0.05

    @pytest.mark.parametrize("n", [13, 14])
    def test_monte_carlo_within_four_standard_errors_of_exhaustive(self, n):
        d = np.random.default_rng(n).normal(loc=0.2, size=n)
        exact = sign_flip_exact(d, max_permutations=2**n).p_value
        perms = 2**n - 1  # one short of exhaustive: the Monte-Carlo branch
        se = math.sqrt(exact * (1.0 - exact) / perms)
        assert 0.05 < exact < 0.95
        for seed in range(5):
            mc = sign_flip_exact(d, max_permutations=perms, seed=seed).p_value
            assert abs(mc - exact) <= 4.0 * se

    def test_monte_carlo_all_zero_is_exactly_one(self):
        # an identity cell: every flip leaves the sum at zero, so every
        # assignment reaches it
        d = np.zeros(500)
        d[::3] = -0.0
        assert sign_flip_exact(d).p_value == 1.0

    def test_monte_carlo_permutation_invariance(self):
        rng = np.random.default_rng(4)
        d = np.round(rng.normal(loc=0.01, scale=0.1, size=300), 2)
        base = sign_flip_exact(d, seed=9).p_value
        for _ in range(5):
            assert sign_flip_exact(rng.permutation(d), seed=9).p_value == base

    @pytest.mark.parametrize("block", [None, 1000, 1])
    def test_monte_carlo_blocks_match_one_shot_draw(self, monkeypatch, block):
        # blocked draws must reproduce the p-value of drawing every row's
        # packed sign bits at once, ties and zeros included: row r flips
        # d[k] when bit k % 64 of its word k // 64 is set; each row's sum is
        # judged by math.fsum, so exact ties count as hits
        if block is not None:
            monkeypatch.setattr(inference, "_SIGN_BLOCK", block)
        rng = np.random.default_rng(11)
        cases = ((15, 2**14), (40, 2**14), (257, 3001), (1000, 1001), (64, 3001), (65, 3001))
        for n, perms in cases:
            d = np.round(rng.normal(loc=0.02, scale=0.1, size=n), 2)
            d[: n // 4] = 0.0
            words = np.random.default_rng(n).integers(
                0, 2**64, size=(perms, (n + 63) // 64), dtype=np.uint64
            )
            k = np.arange(n)
            flips = (words[:, k // 64] >> (k % 64).astype(np.uint64)) & np.uint64(1)
            ordered = np.sort(d)[::-1]
            hits = sum(math.fsum(ordered[row == 1]) <= 0.0 for row in flips)
            expected = (1.0 + hits) / (perms + 1.0)
            assert sign_flip_exact(d, max_permutations=perms, seed=n).p_value == expected
        # exhaustive: row r of the enumeration flips d[k] when bit k of r is set
        for n in (1, 5, 13, 14):
            d = np.round(rng.normal(loc=0.02, scale=0.1, size=n), 2)
            d[: n // 3] = 0.0
            k = np.arange(n)
            flips = (np.arange(2**n)[:, None] >> k) & 1
            ordered = np.sort(d)[::-1]
            expected = sum(math.fsum(ordered[row == 1]) <= 0.0 for row in flips) / 2**n
            assert sign_flip_exact(d, max_permutations=2**14).p_value == expected

    def test_exhaustive_memory_is_bounded(self):
        d = np.random.default_rng(4).normal(size=20)
        tracemalloc.start()
        try:
            sign_flip_exact(d, max_permutations=2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_needs_one_observation(self):
        with pytest.raises(InsufficientDataError):
            sign_flip_exact([])
        with pytest.raises(ValueError):
            sign_flip_exact([1.0], max_permutations=0)

    @pytest.mark.parametrize("perms", [1e4, True, "16", 0, -3])
    def test_max_permutations_must_be_a_positive_integer(self, perms):
        with pytest.raises(ValueError, match="max_permutations must be an integer >= 1"):
            sign_flip_exact([1.0, 2.0], max_permutations=perms)
        assert sign_flip_exact([1.0, 2.0], max_permutations=np.int64(4)).p_value == 0.25

    @pytest.mark.parametrize("seed", [None, True, 1.5, -1, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # None would seed from OS entropy and make a Monte-Carlo p-value unrepeatable
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            sign_flip_exact(np.arange(1.0, 30.0), max_permutations=64, seed=seed)
        a = sign_flip_exact(np.arange(-3.0, 30.0), max_permutations=64, seed=np.uint8(5))
        assert a == sign_flip_exact(np.arange(-3.0, 30.0), max_permutations=64, seed=5)

    @settings(PROFILE, max_examples=60)
    @given(d=st.lists(TIED, min_size=1, max_size=12))
    @example(d=[5e-324, -5e-324, 5e-324, 1e-310, -3e-310])  # tol underflows to 0
    def test_exhaustive_p_value_is_exact(self, d):
        n = len(d)
        flips = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        assert sign_flip_exact(d, max_permutations=2**12).p_value == exact_hits(d, flips) / 2**n

    @settings(PROFILE, max_examples=40)
    @given(d=st.lists(TIED, min_size=13, max_size=80), perms=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_monte_carlo_p_value_is_exact(self, d, perms, seed):
        # the words are rebuilt as in test_monte_carlo_blocks_match_one_shot_draw
        n = len(d)
        words = np.random.default_rng(seed).integers(
            0, 2**64, size=(perms, (n + 63) // 64), dtype=np.uint64
        )
        k = np.arange(n)
        flips = (words[:, k // 64] >> (k % 64).astype(np.uint64)) & np.uint64(1)
        expected = (1.0 + exact_hits(d, flips)) / (perms + 1.0)
        assert sign_flip_exact(d, max_permutations=perms, seed=seed).p_value == expected

    def test_large_n_memory_is_bounded(self):
        # the subset-sum tables take 256 B per difference, 25.6 MB here
        d = np.random.default_rng(6).normal(size=100_000)
        tracemalloc.start()
        try:
            sign_flip_exact(d, max_permutations=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6


@pytest.mark.parametrize("test", [paired_t_one_sided, sign_flip_exact, confidence_interval])
def test_overflowing_differences_are_refused(test):
    # each difference is finite, but their squares sum past the largest double
    with pytest.raises(ValueError, match="sum of squared loss differences must be finite"):
        test([1e308, 1e308, -1e308, 5.0])


class TestConfidenceInterval:
    def test_constant_sample_collapses(self):
        assert confidence_interval([2.0, 2.0, 2.0]) == (2.0, 2.0)

    def test_symmetric_about_mean(self):
        d = np.array([0.1, 0.5, -0.2, 0.9])
        lo, hi = confidence_interval(d)
        assert (lo + hi) / 2.0 == pytest.approx(d.mean(), abs=1e-12)
        assert lo < d.mean() < hi

    def test_wider_at_higher_level(self):
        d = np.array([0.1, 0.5, -0.2, 0.9])
        lo95, hi95 = confidence_interval(d, level=0.95)
        lo99, hi99 = confidence_interval(d, level=0.99)
        assert lo99 < lo95 and hi99 > hi95

    def test_coverage_near_nominal(self):
        # 2000 draws of n = 20 from N(0, 1): the 95% interval should cover
        # zero about 95% of the time
        rng = np.random.default_rng(9)
        covered = 0
        for _ in range(2000):
            lo, hi = confidence_interval(rng.normal(size=20))
            covered += lo <= 0.0 <= hi
        assert 0.93 < covered / 2000.0 < 0.97

    def test_input_validation(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], level=1.0)
        with pytest.raises(InsufficientDataError):
            confidence_interval([1.0])


class TestTDistribution:
    DFS = (1, 2, 3, 4, 5, 9, 10, 15, 16, 17, 29, 30, 99, 499, 1999, 9999, 19999, 99999,
           199999, 10**6, 10**7)

    @pytest.mark.parametrize("df", DFS)
    def test_tail_matches_scipy(self, df):
        t = np.arange(-800, 801) / 20.0
        ref = stdtr(df, -t)
        # below |t| = 1e-3 scipy's Cauchy tail is off by 3e-9; the closed form covers it
        keep = (ref >= 1e-300) & ((df > 1) | (np.abs(t) >= 1e-3))
        got = np.array([_t_sf(x, df) for x in t[keep]])
        np.testing.assert_allclose(got, ref[keep], rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("t", [0.0, 1e-9, 1e-4, 0.5, 2.999, 3.0, 7.5, 40.0, 1e6])
    def test_closed_forms(self, t):
        assert _t_sf(t, 1) == pytest.approx(math.atan2(1.0, t) / math.pi, rel=1e-15)
        assert _t_sf(-t, 1) == pytest.approx(math.atan2(1.0, -t) / math.pi, rel=1e-15)
        root = math.sqrt(t * t + 2.0)
        assert _t_sf(t, 2) == pytest.approx(1.0 / ((root + t) * root), rel=1e-12)
        assert _t_sf(-t, 2) == pytest.approx(1.0 - 1.0 / ((root + t) * root), rel=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 10**7])
    def test_infinite_zero_and_huge_t(self, df):
        assert (_t_sf(math.inf, df), _t_sf(-math.inf, df), _t_sf(0.0, df)) == (0.0, 1.0, 0.5)
        for t in (50.0, 1e20, 1e154, 1e308):
            assert 0.0 <= _t_sf(t, df) <= _t_sf(40.0, df)  # never NaN: NaN compares false
            assert _t_sf(-t, df) == 1.0 - _t_sf(t, df)
        assert _t_sf(1e308, df) < sys.float_info.min

    @pytest.mark.parametrize("df", DFS)
    def test_quantile_matches_scipy(self, df):
        for p in (0.75, 0.9, 0.95, 0.975, 0.995, 0.9995):
            # the t with upper tail p is minus the t with lower tail p
            assert -_t_isf(p, df) == pytest.approx(stdtrit(df, p), rel=1e-11)

    @pytest.mark.parametrize("df", [1, 2, 3, 7, 29, 1000, 10**7])
    def test_quantile_round_trips(self, df):
        for p in (1e-12, 1e-6, 0.0005, 0.025, 0.3, 0.4999999, 0.5, 0.6, 0.975, 0.999):
            assert _t_sf(_t_isf(p, df), df) == pytest.approx(p, rel=1e-12)
        assert (_t_isf(0.0, df), _t_isf(1.0, df)) == (math.inf, -math.inf)

    def test_no_degrees_of_freedom_is_nan(self):
        assert math.isnan(_t_isf(0.025, 0))


class TestResultAndRegistry:
    def test_result_validation(self):
        with pytest.raises(ValueError, match="p-value"):
            Result(0.0, 1.5)

    def test_get_test(self):
        assert get_test("paired-t") is paired_t_one_sided
        assert get_test("sign-flip") is sign_flip_exact
        with pytest.raises(ValueError, match="unknown test"):
            get_test("bootstrap")

    def test_run_calls_the_test_the_module_binds(self, tmp_path, monkeypatch):
        # a tracer rebinds module attributes; a run must reach its wrapper
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return paired_t_one_sided(*args, **kwargs)

        monkeypatch.setattr(inference, "paired_t_one_sided", counting)
        config = dataclasses.replace(
            load_config("experiment_b"), data_n=2_000, replications=2, output=str(tmp_path)
        )
        rows = run_experiment(config, workers=2).rows
        assert len(calls) == rows == 6
