import math
import os
import signal
import sys
import threading
import time
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from scipy.special import ndtri

from rareflow import mc
from rareflow.errors import BoundViolated, InsufficientData, MismatchedLadders, NonFiniteInput


def constant_sampler(value):
    def sampler(ss, size):
        return np.full(size, value)

    return sampler


def bernoulli_indicator(p):
    def sampler(ss, size):
        rng = np.random.default_rng(ss)
        return (rng.random(size) < p).astype(float)

    return sampler


class TestRunReplications:
    def test_constant_sampler(self):
        res = mc.run_replications(constant_sampler(3.25), 1000, seed=1)
        assert res.mean == 3.25
        assert res.variance == 0.0
        assert res.std_error == 0.0
        assert res.second_moment == pytest.approx(3.25**2, rel=1e-12)

    def test_bernoulli_within_exact_se(self):
        n = 1_000_000
        res = mc.run_replications(bernoulli_indicator(0.5), n, seed=7)
        exact_se = math.sqrt(0.25 / n)
        assert abs(res.mean - 0.5) < 4.0 * exact_se
        assert res.std_error == pytest.approx(exact_se, rel=1e-2)

    def test_deterministic_repeat(self):
        a = mc.run_replications(bernoulli_indicator(0.3), 100_000, seed=42)
        b = mc.run_replications(bernoulli_indicator(0.3), 100_000, seed=42)
        assert a == b

    def test_thread_count_invariance(self):
        a = mc.run_replications(bernoulli_indicator(0.3), 200_000, seed=9, threads=1)
        b = mc.run_replications(bernoulli_indicator(0.3), 200_000, seed=9, threads=4)
        assert a == b

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            mc.run_replications(constant_sampler(1.0), 1, seed=0)

    def test_rejects_misshapen_sampler(self):
        def bad(ss, size):
            return np.zeros(size + 1)

        with pytest.raises(ValueError):
            mc.run_replications(bad, 100, seed=0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_row_sampler_matches_single_row_runs(self, threads):
        # three estimators of the same replications, over three batches
        def rows(ss, size):
            u = np.random.default_rng(ss).random(size)
            return np.stack([u < 0.3, u * u, np.exp(-u) * 1e-9])

        def row(j):
            return lambda ss, size: rows(ss, size)[j]

        n = 2 * mc.BATCH_SIZE + 17
        together = mc.run_replications(rows, n, seed=4, threads=threads)
        assert isinstance(together, tuple) and len(together) == 3
        for j, res in enumerate(together):
            alone = mc.run_replications(row(j), n, seed=4, threads=threads)
            assert res == alone
            assert res.n == n

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_row_names_its_batch(self):
        def sampler(ss, size):
            values = np.ones((2, size))
            if ss.entropy[1] == 1:  # the second batch, second row only
                values[1, 3] = math.nan
            return values

        with pytest.raises(NonFiniteInput, match="batch 1"):
            mc.run_replications(sampler, 2 * mc.BATCH_SIZE + 5, seed=0, threads=2)

    @pytest.mark.parametrize("shape", [lambda size: (size, 2), lambda size: (2, size + 1),
                                       lambda size: (2, 1, size)], ids=["transposed", "long-rows", "3-D"])
    def test_rejects_misshapen_row_sampler(self, shape):
        def bad(ss, size):
            return np.zeros(shape(size))

        with pytest.raises(ValueError):
            mc.run_replications(bad, 100, seed=0)

    def test_rejects_row_count_changing_between_batches(self):
        def shifting(ss, size):
            return np.zeros(size) if ss.entropy[1] == 0 else np.zeros((2, size))

        with pytest.raises(ValueError, match="layout"):
            mc.run_replications(shifting, mc.BATCH_SIZE + 10, seed=0)

    # a RuntimeWarning from the batch statistics becomes the raised error
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_names_its_batch(self, bad):
        def sampler(ss, size):
            values = np.ones(size)
            if ss.entropy[1] == 1:  # the second batch
                values[7] = bad
            return values

        with pytest.raises(NonFiniteInput, match="batch 1"):
            mc.run_replications(sampler, 2 * mc.BATCH_SIZE + 5, seed=0, threads=2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opposite_infinities_raise_without_warning(self):
        def sampler(ss, size):
            values = np.ones(size)
            values[:2] = (math.inf, -math.inf)
            return values

        with pytest.raises(NonFiniteInput, match="batch 0"):
            mc.run_replications(sampler, 100, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_lowest_failing_batch_raises_at_every_thread_count(self, threads):
        # on 2 and 3 threads batch 1 fails late, after batch 3 has failed on another worker
        def sampler(ss, size):
            values = np.ones(size)
            if ss.entropy[1] == 1:
                time.sleep(0.05)
            if ss.entropy[1] in (1, 3):
                values[0] = math.nan
            return values

        with pytest.raises(NonFiniteInput, match="batch 1"):
            mc.run_replications(sampler, 5 * mc.BATCH_SIZE, seed=0, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_sampler_error_raises_at_every_thread_count(self, threads):
        def sampler(ss, size):
            if ss.entropy[1] == 2:
                raise BoundViolated("batch 2")
            return np.ones(size)

        with pytest.raises(BoundViolated, match="batch 2"):
            mc.run_replications(sampler, 5 * mc.BATCH_SIZE, seed=0, threads=threads)

    def test_every_batch_runs_once_under_contention(self):
        # more workers than cores and a short switch interval: a batch index
        # handed out twice, or never, would show in the list of batches run
        seen = []

        def sampler(ss, size):
            seen.append(int(ss.entropy[1]))
            return np.random.default_rng(ss).random(size)

        n = 40 * mc.BATCH_SIZE + 3
        serial = mc.run_replications(sampler, n, seed=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                seen.clear()
                assert mc.run_replications(sampler, n, seed=2, threads=8) == serial
                assert sorted(seen) == list(range(41))
        finally:
            sys.setswitchinterval(interval)

    def test_sampler_may_call_the_engine_from_a_worker(self):
        # an inner parallel run from inside a pool worker runs serially there,
        # so the pool never waits on itself
        def nested(ss, size):
            inner = mc.run_replications(bernoulli_indicator(0.3), 2 * mc.BATCH_SIZE + 5,
                                        seed=int(ss.entropy[1]), threads=2)
            return np.random.default_rng(ss).random(size) + inner.mean

        results = {}

        def run():
            for threads in (1, 2):
                results[threads] = mc.run_replications(nested, 3 * mc.BATCH_SIZE, seed=5, threads=threads)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert results[1] == results[2]

    def test_forked_child_runs_in_parallel(self):
        # the parent's workers do not survive a fork: the child makes its own pool
        n = 3 * mc.BATCH_SIZE
        expected = mc.run_replications(bernoulli_indicator(0.3), n, seed=8, threads=2)
        with warnings.catch_warnings():  # fork of a process with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                status = 0 if mc.run_replications(bernoulli_indicator(0.3), n, seed=8, threads=2) == expected else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    def test_log_mean_sentinel_for_zero_hits(self):
        res = mc.run_replications(constant_sampler(0.0), 100, seed=0)
        assert res.log_mean == mc.LOG_ZERO

    def test_merge_matches_one_pass(self):
        # batched statistics agree with a single numpy pass to 1e-12 relative
        rng = np.random.default_rng(3)
        values = rng.lognormal(size=50_000) * 1e-9

        # deterministic slicing sampler: the batch index is the second entry
        # of the engine-provided SeedSequence
        def sampler_from_seed(ss, size):
            batch_index = ss.entropy[1]
            start = batch_index * mc.BATCH_SIZE
            return values[start : start + size]

        res = mc.run_replications(sampler_from_seed, values.size, seed=0)
        assert res.mean == pytest.approx(values.mean(), rel=1e-12)
        assert res.variance == pytest.approx(values.var(ddof=1), rel=1e-12)
        assert res.second_moment == pytest.approx(np.mean(values**2), rel=1e-12)

    def test_merge_any_grouping_same_result(self):
        # ((a+b)+c) vs (a+(b+c)) on awkward scales, 1e-12 relative
        rng = np.random.default_rng(11)
        chunks = [rng.lognormal(size=s) * 1e-8 for s in (1000, 3000, 500)]
        stats = [mc._batch_stats(c) for c in chunks]
        left = mc._merge(mc._merge(stats[0], stats[1]), stats[2])
        right = mc._merge(stats[0], mc._merge(stats[1], stats[2]))
        assert left[0] == right[0]
        assert left[1] == pytest.approx(right[1], rel=1e-12)
        assert left[2] == pytest.approx(right[2], rel=1e-12)
        everything = mc._batch_stats(np.concatenate(chunks))
        assert left[1] == pytest.approx(everything[1], rel=1e-12)
        assert left[2] == pytest.approx(everything[2], rel=1e-12)

    def test_tiny_samples_keep_their_standard_error(self):
        # squares of samples near 1e-250 underflow to 0: the error bar of a run
        # must still scale with its samples, not read 0
        values = np.random.default_rng(13).lognormal(size=3 * mc.BATCH_SIZE + 100)

        def scaled(factor):
            return lambda ss, size: values[ss.entropy[1] * mc.BATCH_SIZE:][:size] * factor

        unit, tiny = (mc.run_replications(scaled(factor), values.size, seed=0) for factor in (1.0, 1e-250))
        assert tiny.std_error > 0.0
        assert tiny.mean == pytest.approx(unit.mean * 1e-250, rel=1e-12)
        assert tiny.std_error == pytest.approx(unit.std_error * 1e-250, rel=1e-12)
        assert tiny.relative_error == pytest.approx(unit.relative_error, rel=1e-12)

    def test_huge_samples_keep_their_standard_error(self):
        # squares of samples near 1e200 overflow to inf: the run must still
        # report its mean and an error bar that scales with its samples
        values = np.random.default_rng(13).lognormal(size=3 * mc.BATCH_SIZE + 100)

        def scaled(factor):
            return lambda ss, size: values[ss.entropy[1] * mc.BATCH_SIZE:][:size] * factor

        unit, huge = (mc.run_replications(scaled(factor), values.size, seed=0) for factor in (1.0, 1e200))
        assert huge.mean == pytest.approx(unit.mean * 1e200, rel=1e-12)
        assert huge.std_error == pytest.approx(unit.std_error * 1e200, rel=1e-12)
        assert huge.relative_error == pytest.approx(unit.relative_error, rel=1e-12)

    def test_unbiasedness_harness(self):
        # |mean - oracle| <= 4 SE in at least 95 of 100 independent seeds
        p, n = 0.3, 40_000
        hits = 0
        for seed in range(100):
            res = mc.run_replications(bernoulli_indicator(p), n, seed=seed)
            if abs(res.mean - p) <= 4.0 * res.std_error:
                hits += 1
        assert hits >= 95


class TestStratifiedBatches:
    @pytest.mark.parametrize("size", [1, 2, 3, 31, 32, 37, 16_384, 16_384 + 37])
    def test_strata_cover_the_batch(self, size):
        counts = mc.strata(size, 16)
        assert counts.sum() == size
        assert counts.max() - counts.min() <= 1
        assert counts.size == max(1, size // 16)
        if counts.size > 1:
            assert counts.min() >= 16

    def test_a_stratum_needs_two_draws(self):
        with pytest.raises(ValueError):
            mc.strata(100, 1)

    def test_one_batch_reports_the_stratified_variance(self):
        # the mean is the equally weighted mean of the stratum means; the
        # squared SE is n/(n-1) times sum_h s_h^2 / (n_h S^2)
        size = 1_000
        counts = mc.strata(size, 16)
        values = np.random.default_rng(5).lognormal(size=size) + np.repeat(np.arange(counts.size), counts)
        res = mc.run_replications(lambda ss, n: values[:n], size, seed=0, per_stratum=16)
        groups = np.split(values, np.cumsum(counts)[:-1])
        strata = len(groups)
        assert res.mean == pytest.approx(np.mean([g.mean() for g in groups]), rel=1e-12)
        variance_of_mean = sum(g.var(ddof=1) / (g.size * strata**2) for g in groups)
        assert res.std_error**2 == pytest.approx(size / (size - 1) * variance_of_mean, rel=1e-12)
        assert res.std_error < 0.2 * np.std(values) / math.sqrt(size)

    def test_one_stratum_is_an_iid_batch(self):
        values = np.random.default_rng(6).lognormal(size=20)
        iid, one = (mc.run_replications(lambda ss, n: values[:n], 20, seed=0, per_stratum=k) for k in (None, 16))
        assert iid == one

    @pytest.mark.parametrize("size, per_stratum", [(2, 2), (3, 2), (37, 2), (16_384 + 37, 2), (1_001, 16)])
    def test_stratified_normal_fills_each_quantile_band(self, size, per_stratum):
        rng = np.random.default_rng(7)
        xi = mc.stratified_normal(rng, size, per_stratum)
        counts = mc.strata(size, per_stratum)
        strata = counts.size
        h = np.repeat(np.arange(strata), counts)
        mirror = np.minimum(h, strata - 1 - h)
        assert xi.shape == (size,) and np.all(np.isfinite(xi))
        # stratum h holds the normals between its quantiles h/S and (h+1)/S;
        # the upper half is the lower half mirrored through 0
        folded = np.where(h > mirror, -xi, xi)
        assert np.all(ndtri(mirror / strata) <= folded) and np.all(folded <= ndtri((mirror + 1) / strata))
        # the helper drew its size uniforms and nothing else
        rng_again = np.random.default_rng(7)
        rng_again.random(size)
        assert rng.random() == rng_again.random()

    def test_stratified_normal_layout_is_symmetric(self):
        class FixedUniforms:
            def random(self, size):
                return np.full(size, 0.3)

        xi = mc.stratified_normal(FixedUniforms(), 64, 2)
        assert np.all(xi[:16] < 0.0)
        assert np.array_equal(xi, -xi[::-1])

    @pytest.mark.parametrize("threads", [2, 3])
    def test_thread_count_invariance(self, threads):
        def sampler(ss, size):
            counts = mc.strata(size, 8)
            return np.random.default_rng(ss).random(size) + np.repeat(np.arange(counts.size), counts)

        n = 2 * mc.BATCH_SIZE + 37
        serial = mc.run_replications(sampler, n, seed=4, per_stratum=8)
        assert mc.run_replications(sampler, n, seed=4, threads=threads, per_stratum=8) == serial


HIT = np.array([True, True, False])


class TestCheckBound:
    @pytest.mark.parametrize("log_weight, log_bound, raises", [
        pytest.param([-4.0, -3.0 + 1e-15, -5.0], -3.0, True, id="above"),
        pytest.param([-4.0, -3.0, -5.0], -3.0, False, id="equal"),
        pytest.param([-np.inf, -np.inf, -5.0], [-3.0, -np.inf, -np.inf], False, id="minus-inf"),
        pytest.param([np.nan, -3.0, -5.0], -3.0, False, id="nan"),
        pytest.param([-4.0, -3.0, -1.0], -3.0, False, id="miss"),
        pytest.param([-3.0, -1.0, 0.0], [-3.0, -1.0, -5.0], False, id="per-lane"),
        pytest.param([-3.0, -1.0 + 1e-15, 0.0], [-3.0, -1.0, -5.0], True, id="per-lane-above"),
    ])
    def test_check_bound(self, log_weight, log_bound, raises):
        # exact, with no tolerance; a miss is exempt whatever its weight
        with pytest.raises(BoundViolated) if raises else nullcontext():
            mc.check_bound(np.array(log_weight), np.asarray(log_bound), HIT)


class TestFitDecay:
    def test_exact_line(self):
        points = [(float(s), -2.0 * s) for s in (1, 2, 3, 4)]
        fit = mc.fit_decay(points)
        assert fit.slope == pytest.approx(-2.0, abs=1e-14)

    def test_tiny_noise(self):
        rng = np.random.default_rng(0)
        scales = np.arange(1.0, 9.0)
        noise = rng.uniform(-1e-9, 1e-9, scales.size)
        points = list(zip(scales, -0.5 * scales + noise))
        fit = mc.fit_decay(points)
        assert fit.slope == pytest.approx(-0.5, abs=1e-6)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientData):
            mc.fit_decay([(1.0, -1.0), (2.0, -2.0)])

    def test_duplicate_scales(self):
        with pytest.raises(InsufficientData):
            mc.fit_decay([(1.0, -1.0), (1.0, -1.1), (2.0, -2.0)])
        # distinct subnormal scales whose squared spread underflows to 0
        with pytest.raises(InsufficientData):
            mc.fit_decay([(0.0, -1.0), (5e-324, -2.0), (1e-320, -3.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            mc.fit_decay([(1.0, -1.0), (2.0, -math.inf), (3.0, -3.0)])

    def test_decay_points_filters_and_counts(self):
        results = [
            mc.run_replications(constant_sampler(0.5), 100, seed=0),
            mc.run_replications(constant_sampler(0.0), 100, seed=0),
            mc.run_replications(constant_sampler(0.25), 100, seed=0),
        ]
        points, dropped = mc.decay_points([1.0, 2.0, 3.0], results)
        assert dropped == 1
        assert [s for s, _ in points] == [1.0, 3.0]


class TestLadderDriver:
    def test_rung_i_runs_at_seed_plus_i(self):
        calls = mc.run_ladder(lambda rung, seed: (rung, seed), ["a", "b", "c"], 10)
        assert calls == [("a", 10), ("b", 11), ("c", 12)]

    def test_zero_hit_rung_dropped_from_fit_with_warning(self):
        means = {1.0: 0.5, 2.0: 0.0, 3.0: 0.125, 4.0: 0.0625}
        results = mc.run_ladder(
            lambda scale, seed: mc.run_replications(constant_sampler(means[scale]), 100, seed), list(means), 0
        )
        with pytest.warns(UserWarning, match="dropped 1 zero-hit"):
            fit = mc.fit_ladder(list(means), results)
        assert [res.mean for res in fit.results] == [0.5, 0.0, 0.125, 0.0625]
        assert all(a is b for a, b in zip(fit.results, results))
        assert mc.zero_hit_rungs(list(means), fit.results) == [2.0]
        assert [s for s, _ in fit.points] == [1.0, 3.0, 4.0]
        assert fit.slope == pytest.approx(-math.log(2.0), rel=1e-12)
        assert mc.zero_hit_rungs(list(means), results) == [2.0]

    def test_fewer_than_three_hit_rungs_keep_their_results(self):
        means = {1.0: 0.5, 2.0: 0.25, 3.0: 0.0}
        results = mc.run_ladder(
            lambda scale, seed: mc.run_replications(constant_sampler(means[scale]), 100, seed), list(means), 0
        )
        with pytest.warns(UserWarning, match="dropped 1 zero-hit"):
            fit = mc.fit_ladder(list(means), results)
        assert all(a is b for a, b in zip(fit.results, results))
        assert mc.zero_hit_rungs(list(means), fit.results) == [3.0]
        assert [s for s, _ in fit.points] == [1.0, 2.0]
        assert math.isnan(fit.slope)

    def test_full_ladder_fits_silently(self, recwarn):
        results = mc.run_ladder(
            lambda scale, seed: mc.run_replications(bernoulli_indicator(0.5**scale), 4_000, seed), [1, 2, 3], 7
        )
        fit = mc.fit_ladder([1, 2, 3], results)
        assert not recwarn.list
        assert mc.zero_hit_rungs([1, 2, 3], fit.results) == []
        assert [res.n for res in fit.results] == [4_000, 4_000, 4_000]

    def test_plain_fit_carries_no_ladder(self):
        fit = mc.fit_decay([(1.0, -1.0), (2.0, -2.0), (3.0, -3.0)])
        assert fit.results == ()


class TestOptimalityGap:
    def _fit(self, slope, scales=(1.0, 2.0, 3.0)):
        return mc.fit_decay([(s, slope * s) for s in scales])

    def test_matched_slopes_gap_zero(self):
        gamma = 0.7
        gap = mc.optimality_gap(self._fit(-2.0 * gamma), self._fit(-gamma))
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_suboptimal_gap(self):
        gamma = 0.7
        gap = mc.optimality_gap(self._fit(-1.8 * gamma), self._fit(-gamma))
        assert gap == pytest.approx(0.2 * gamma, abs=1e-12)

    def test_mismatched_ladders(self):
        with pytest.raises(MismatchedLadders):
            mc.optimality_gap(self._fit(-1.0), self._fit(-1.0, scales=(1.0, 2.0, 4.0)))
