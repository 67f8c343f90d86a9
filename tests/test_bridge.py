import math

import numpy as np
import pytest

from rareflow import bridge, mc
from rareflow.bridge import BarrierSpec, EulerModel
from rareflow.errors import InvalidBarrier

from oracles import (
    drifted_bm_max_crossing,
    fortet_survival,
    min_action_to_barrier,
    up_out_call_reflection_quad,
)


class TestCrossingProbSingle:
    def test_already_crossed(self):
        # U = 1: the endpoint at 1.2, or at 1.0, has gap 0
        assert math.exp(bridge.kill_exponent_single(0.0, 1.0 - 0.5, 1.0, 0.1)) == 1.0
        assert math.exp(bridge.kill_exponent_single(1.0 - 0.5, 0.0, 1.0, 0.1)) == 1.0

    def test_reference_value(self):
        value = math.exp(bridge.kill_exponent_single(1.0 - 0.0, 1.0 - 0.0, 1.0, 1.0))
        assert value == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_symmetry(self):
        a = math.exp(bridge.kill_exponent_single(1.0 - 0.2, 1.0 - 0.7, 0.8, 0.3))
        b = math.exp(bridge.kill_exponent_single(1.0 - 0.7, 1.0 - 0.2, 0.8, 0.3))
        assert a == b

    def test_identity_with_bridge_maximum_law(self):
        # the exact law of the Brownian bridge maximum on 1e4 random tuples
        rng = np.random.default_rng(123)
        for _ in range(100):
            x_i = rng.uniform(-2.0, 2.0, 100)
            x_next = rng.uniform(-2.0, 2.0, 100)
            upper = np.maximum(x_i, x_next) + rng.uniform(0.01, 3.0, 100)
            sigma = rng.uniform(0.1, 2.0)
            eps = rng.uniform(0.01, 1.0)
            values = np.exp(bridge.kill_exponent_single(upper - x_i, upper - x_next, sigma, eps))
            exact = np.exp(-2.0 * (upper - x_i) * (upper - x_next) / (sigma**2 * eps))
            assert np.all(np.abs(values - exact) <= 1e-14)

    def test_monotone_in_barrier_distance(self):
        levels = np.linspace(0.5, 4.0, 30)
        probs = [math.exp(bridge.kill_exponent_single(u - 0.0, u - 0.0, 1.0, 0.5)) for u in levels]
        assert all(b < a for a, b in zip(probs, probs[1:]))
        assert all(0.0 < p < 1.0 for p in probs)


class TestKillKernel:
    @staticmethod
    def grid():
        """Endpoint pairs on both sides of two levels, over sigma and eps."""
        xs = np.linspace(-1.0, 2.0, 13)
        for upper in (1.0, 1.7):
            for sigma in (0.2, 0.7, 1.5):
                for eps in (0.01, 0.1, 0.5):
                    x_i, x_next = (a.ravel() for a in np.meshgrid(xs, xs))
                    yield x_i, x_next, upper, sigma, eps

    def test_exp_of_exponent_is_the_crossing_probability(self):
        for x_i, x_next, upper, sigma, eps in self.grid():
            gap_i = np.maximum(upper - x_i, 0.0)
            gap_next = np.maximum(upper - x_next, 0.0)
            expo = bridge.kill_exponent_single(gap_i, gap_next, sigma, eps)
            assert np.all(expo <= 0.0)
            # the dominant-action code rounds the same exponent in another
            # order; exp turns an exponent error of |e| ulp into a relative
            # error of the same size, so the agreement is 1e-15 on the
            # exponent scale and on probabilities where |e| <= 1
            double_expo = -bridge._double_terms(x_i, x_next, bridge.NO_LOWER, upper, 0.0, 0.0, sigma)[0] / eps
            assert np.all(np.abs(double_expo - expo) <= 1e-15 * np.maximum(np.abs(expo), 1.0))
            double = np.exp(bridge.kill_exponent_double(x_i, x_next, bridge.NO_LOWER, upper, 0.0, 0.0, sigma, eps))
            near = expo >= -1.0
            assert np.all(np.abs(np.exp(expo[near]) - double[near]) <= 1e-15 * double[near])

    def test_floor_changes_no_decision_on_a_positive_uniform(self):
        assert math.exp(bridge.KILL_FLOOR) < 2.0**-53
        expo = np.concatenate([np.linspace(-800.0, 0.0, 8001), [-745.2, -708.4, -40.0, -37.4, -36.7, 0.0]])
        ulp = 2.0**-53
        uniforms = np.unique(np.concatenate([
            ulp * np.arange(1, 2001), np.geomspace(ulp, 1.0 - ulp, 3000), 1.0 - ulp * np.arange(1, 2001),
        ]))
        for u in uniforms:
            floored = u < bridge.kill_prob(expo)
            exact = u < np.exp(expo)
            assert np.array_equal(floored, exact)

    @pytest.mark.parametrize("lower", [bridge.NO_LOWER, 70.0])
    def test_constant_barrier_knockout_matches_dominant_action_loop(self, lower):
        # the corrected pricer before the exact kernel: every spec went
        # through the double-barrier action and slope term, unfloored; a
        # single level now takes the kernel, a corridor still the action
        model = EulerModel(drift=lambda x: 0.05 * x, vol=lambda x: 0.5 * x,
                           maturity=1.0, steps=16, x0=100.0, rate=0.05)
        payoff = lambda x: np.maximum(x - 90.0, 0.0)
        level = 150.0
        eps, sqrt_eps = model.eps, math.sqrt(model.eps)
        discount = math.exp(-model.rate * model.maturity)

        def dominant_action_sampler(ss, size):
            path_ss, kill_ss = ss.spawn(2)
            rng = np.random.default_rng(path_ss)
            kill_rng = np.random.default_rng(kill_ss)
            x = np.full(size, model.x0)
            alive = np.full(size, lower < model.x0 < level)
            for _ in range(model.steps):
                gauss = rng.normal(size=size)
                sigma_i = model.vol(x)
                x_next = x + model.drift(x) * eps + sigma_i * sqrt_eps * gauss
                uniforms = kill_rng.random(size)
                rate, w = bridge._double_terms(x, x_next, lower, level, 0.0, 0.0, sigma_i)
                alive &= uniforms >= np.exp(np.minimum(-rate / eps - w, 0.0))
                x = x_next
            return discount * payoff(x) * alive

        expected = mc.run_replications(dominant_action_sampler, 20_000, seed=9)
        spec = BarrierSpec(level, lower=lower)
        got = bridge.price_knockout(model, payoff, spec, 20_000, seed=9)
        assert got == expected


class TestCrossingRateDouble:
    def test_branch_tie_agreement(self):
        # x_i + x_next = L + U: both branches coincide algebraically
        lower, upper, sigma = 0.0, 2.0, 1.0
        x_i, x_next = 0.5, 1.5
        up = 2.0 / sigma**2 * (upper - x_i) * (upper - x_next)
        down = 2.0 / sigma**2 * (x_i - lower) * (x_next - lower)
        assert up == down == 1.5
        assert bridge._double_terms(x_i, x_next, lower, upper, 0.0, 0.0, sigma)[0] == 1.5

    def test_boundary_point_rate_zero(self):
        assert bridge._double_terms(0.0, 0.5, 0.0, 2.0, 0.0, 0.0, 1.0)[0] == 0.0

    def test_upper_branch_value(self):
        rate = bridge._double_terms(0.5, 0.5, -1.0, 1.0, 0.0, 0.0, 1.0)[0]
        assert rate == pytest.approx(0.5, abs=1e-15)

    def test_action_minimization_oracle(self):
        # piecewise-linear minimization of the bridge action functional:
        # the optimal touching path is piecewise linear, so the numeric
        # minimum over the touch time reproduces the closed form
        x_i, x_next, sigma = 0.5, 0.5, 1.0
        upper_cost = min_action_to_barrier(x_i, x_next, 1.0, sigma)
        lower_cost = min_action_to_barrier(x_i, x_next, -1.0, sigma)
        assert upper_cost == pytest.approx(0.5, abs=1e-6)
        assert lower_cost == pytest.approx(4.5, abs=1e-5)
        assert bridge._double_terms(x_i, x_next, -1.0, 1.0, 0.0, 0.0, sigma)[0] == pytest.approx(
            min(upper_cost, lower_cost), abs=1e-6
        )

    def test_invalid_barrier(self):
        with pytest.raises(InvalidBarrier):
            bridge._double_terms(0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 1.0)


class TestSharpCorrection:
    def test_constant_barriers(self):
        assert bridge._double_terms(0.3, 0.4, -1.0, 1.0, 0.0, 0.0, 1.0)[1] == 0.0

    def test_sloped_upper_barrier(self):
        # U(t) = 1 + t at t=0, x_i = 0: w = 2 * 1 * 1 = 2
        w = bridge._double_terms(0.0, 0.5, bridge.NO_LOWER, 1.0, 0.0, 1.0, 1.0)[1]
        assert w == pytest.approx(2.0, abs=1e-12)

    def test_rising_barrier_depresses_crossing(self):
        w = bridge._double_terms(0.2, 0.3, bridge.NO_LOWER, 1.0, 0.0, 0.7, 1.0)[1]
        assert w > 0.0
        flat = math.exp(bridge.kill_exponent_double(0.2, 0.3, bridge.NO_LOWER, 1.0, 0.0, 0.0, 1.0, 0.1))
        rising = math.exp(bridge.kill_exponent_double(0.2, 0.3, bridge.NO_LOWER, 1.0, 0.0, 0.7, 1.0, 0.1))
        assert rising < flat


class TestCrossingProbDouble:
    def test_outside_corridor(self):
        assert math.exp(bridge.kill_exponent_double(1.5, 0.0, -1.0, 1.0, 0.0, 0.0, 1.0, 0.1)) == 1.0
        assert math.exp(bridge.kill_exponent_double(0.0, -1.2, -1.0, 1.0, 0.0, 0.0, 1.0, 0.1)) == 1.0

    def test_reference_value(self):
        value = math.exp(bridge.kill_exponent_double(0.5, 0.5, -1.0, 1.0, 0.0, 0.0, 1.0, 0.1))
        assert value == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_degenerate_double_matches_single(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x_i, x_next = rng.uniform(-1.0, 0.9, 2)
            sigma = rng.uniform(0.2, 2.0)
            eps = rng.uniform(0.05, 0.5)
            double = math.exp(bridge.kill_exponent_double(x_i, x_next, bridge.NO_LOWER, 1.0, 0.0, 0.0, sigma, eps))
            single = math.exp(bridge.kill_exponent_single(1.0 - x_i, 1.0 - x_next, sigma, eps))
            assert double == pytest.approx(single, abs=1e-12)

    def test_probabilities_clamped(self):
        grid = np.linspace(-0.99, 0.99, 41)
        for x_i in grid:
            p = math.exp(bridge.kill_exponent_double(float(x_i), 0.0, -1.0, 1.0, 0.0, 0.0, 1.0, 0.2))
            assert 0.0 <= p <= 1.0

    def test_small_step_limit(self):
        interior = [math.exp(bridge.kill_exponent_double(0.2, 0.1, -1.0, 1.0, 0.0, 0.0, 1.0, eps))
                    for eps in (0.1, 0.01, 0.001)]
        assert interior[0] > interior[1] > interior[2]
        assert interior[2] < 1e-200 or interior[2] == 0.0
        # rate-zero configurations stay at 1 as eps -> 0
        assert math.exp(bridge.kill_exponent_double(1.5, 1.5, -1.0, 1.0, 0.0, 0.0, 1.0, 1e-6)) == 1.0


class TestPriceKnockout:
    def test_sentinel_matches_vanilla_exactly(self):
        model = EulerModel(drift=lambda x: 0.02 * x, vol=lambda x: 0.3 * x,
                           maturity=1.0, steps=16, x0=100.0, rate=0.02)
        payoff = lambda x: np.maximum(x - 95.0, 0.0)
        spec = BarrierSpec(bridge.NO_UPPER)
        vanilla, corrected = bridge.price_knockout(model, payoff, spec, 40_000, seed=3, method="both")
        assert vanilla == corrected

    def test_corrected_below_naive_for_nonnegative_payoff(self):
        # more killing can only lower a nonnegative payoff; paired seeds
        model = EulerModel(drift=lambda x: 0.0 * x, vol=lambda x: 0.3 * x,
                           maturity=1.0, steps=32, x0=100.0, rate=0.0)
        payoff = lambda x: np.maximum(x - 90.0, 0.0)
        spec = BarrierSpec(120.0)
        naive, corrected = bridge.price_knockout(model, payoff, spec, 100_000, seed=4, method="both")
        joint = math.hypot(naive.std_error, corrected.std_error)
        assert corrected.mean < naive.mean + 2.0 * joint

    def test_log_space_up_out_call_matches_reflection_price(self):
        # constant-coefficient log dynamics: the Euler step is exact and the
        # single-barrier bridge kill is the exact crossing law, so the
        # corrected estimator is unbiased for the continuous-time price
        s0, strike, barrier_level, rate, sigma, maturity = 100.0, 90.0, 130.0, 0.05, 0.25, 1.0
        exact = up_out_call_reflection_quad(s0, strike, barrier_level, rate, sigma, maturity)
        model = EulerModel(
            drift=lambda x: rate - 0.5 * sigma**2, vol=lambda x: sigma,
            maturity=maturity, steps=64, x0=math.log(s0), rate=rate,
        )
        payoff = lambda x: np.maximum(np.exp(x) - strike, 0.0)
        spec = BarrierSpec(math.log(barrier_level))
        naive, est = bridge.price_knockout(model, payoff, spec, 200_000, seed=5, method="both")
        assert abs(est.mean - exact) < 4.0 * est.std_error
        # the naive estimator misses within-step crossings and over-prices
        assert naive.mean - exact > 6.0 * naive.std_error

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("spec", [BarrierSpec(130.0), BarrierSpec(130.0, lower=80.0)], ids=["single", "corridor"])
    def test_both_is_the_two_single_method_runs(self, spec, threads):
        # one path pass, two rows: each equals its own method's run bit for bit
        model = EulerModel(drift=lambda x: 0.05 * x, vol=lambda x: 0.3 * x,
                           maturity=1.0, steps=12, x0=100.0, rate=0.05)
        payoff = lambda x: np.maximum(x - 95.0, 0.0)
        n = 2 * mc.BATCH_SIZE + 9
        both = bridge.price_knockout(model, payoff, spec, n, seed=8, method="both", threads=threads)
        naive = bridge.price_knockout(model, payoff, spec, n, seed=8, method="naive", threads=threads)
        corrected = bridge.price_knockout(model, payoff, spec, n, seed=8, method="corrected", threads=threads)
        assert both == (naive, corrected)

    @pytest.mark.parametrize("method", ["naive", "corrected", "both"])
    @pytest.mark.parametrize("spec", [BarrierSpec(0.5, lower=1.0),
                                      BarrierSpec(0.5, upper_slope=-1.0, lower=-0.2, lower_slope=0.5)],
                             ids=["inverted", "crossing"])
    def test_inverted_corridor_raises_for_every_method(self, spec, method):
        # L >= U at t = 0, or only at t = T: no method prices it
        model = EulerModel(drift=lambda x: 0.0 * x, vol=lambda x: np.ones_like(x),
                           maturity=1.0, steps=4, x0=0.0, rate=0.0)
        with pytest.raises(InvalidBarrier):
            bridge.price_knockout(model, lambda x: np.ones_like(x), spec, 1_000, seed=1, method=method)

    def test_fortet_oracle_agrees_with_linear_boundary_closed_form(self):
        a, b = 0.8, 0.5
        exact = 1.0 - drifted_bm_max_crossing(a, -b, 1.0, 1.0)
        numeric = fortet_survival(lambda t: a + b * t, 1.0, 4000)
        assert numeric == pytest.approx(exact, abs=1e-7)

    @pytest.mark.parametrize("spec", [BarrierSpec(0.8, upper_slope=0.5), BarrierSpec(0.8, lower=-0.6, lower_slope=0.3)],
                             ids=["upper", "lower"])
    def test_sloped_barrier_knockout_matches_corridor_loop(self, spec):
        # the corridor loop as written before kill_exponent_double, with the
        # action and slope term spelled out: same draws, same kills, same bits
        model = EulerModel(drift=lambda x: 0.0 * x, vol=lambda x: np.ones_like(x),
                           maturity=1.0, steps=8, x0=0.0, rate=0.0)
        payoff = lambda x: np.ones_like(x)
        eps, sqrt_eps = model.eps, math.sqrt(model.eps)
        times = [i * eps for i in range(model.steps + 1)]

        def corridor_sampler(ss, size):
            path_ss, kill_ss = ss.spawn(2)
            rng = np.random.default_rng(path_ss)
            kill_rng = np.random.default_rng(kill_ss)
            x = np.full(size, model.x0)
            alive = np.full(size, spec.lower < model.x0 < spec.upper)
            for t in times[:-1]:
                gauss = rng.standard_normal(size)
                sigma_i = model.vol(x)
                x_next = x + model.drift(x) * eps + sigma_i * sqrt_eps * gauss
                uniforms = kill_rng.random(size)
                lower, upper = spec.lower + spec.lower_slope * t, spec.upper + spec.upper_slope * t
                outside = (x <= lower) | (x >= upper) | (x_next <= lower) | (x_next >= upper)
                upper_branch = x + x_next >= lower + upper
                two_over_s2 = 2.0 / sigma_i**2
                rate = np.where(outside, 0.0, np.where(
                    upper_branch, two_over_s2 * (upper - x) * (upper - x_next),
                    two_over_s2 * (x - lower) * (x_next - lower)))
                w = np.where(outside, 0.0, np.where(
                    upper_branch, two_over_s2 * (upper - x) * spec.upper_slope,
                    two_over_s2 * (x - lower) * spec.lower_slope))
                alive &= uniforms >= np.exp(np.minimum(-rate / eps - w, 0.0))
                x = x_next
            return payoff(x) * alive

        expected = mc.run_replications(corridor_sampler, 20_000, seed=6)
        assert bridge.price_knockout(model, payoff, spec, 20_000, seed=6) == expected

    def test_sloped_barrier_corrected_unbiased(self):
        # linear barrier + constant vol: exp(-I/eps - w) is the exact bridge
        # crossing probability, so corrected is unbiased even at 8 steps
        a, slope = 0.8, 0.5
        exact = 1.0 - drifted_bm_max_crossing(a, -slope, 1.0, 1.0)
        spec = BarrierSpec(a, upper_slope=slope)
        model = EulerModel(drift=lambda x: 0.0 * x, vol=lambda x: np.ones_like(x),
                           maturity=1.0, steps=8, x0=0.0, rate=0.0)
        payoff = lambda x: np.ones_like(x)
        est = bridge.price_knockout(model, payoff, spec, 200_000, seed=6, method="corrected")
        assert abs(est.mean - exact) < 4.0 * est.std_error
