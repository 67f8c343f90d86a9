import functools
import json
import math
import os
from dataclasses import replace

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

    def test_survival_factor_limits(self):
        expo = np.array([-np.inf, -800.0, -40.0, -1.0, -1e-20, -0.0, 0.0, np.nan])
        factor = bridge.survival_factor(expo)
        # 1 - exp(e) would round -1e-20 to 0; expm1 keeps it, and a 0/0
        # exponent (no volatility, on the barrier) is a certain crossing
        assert factor.tolist() == [1.0, 1.0, -math.expm1(-40.0), -math.expm1(-1.0), 1e-20, 0.0, 0.0, 0.0]
        # exp(-40) < 2**-54, so every factor below -40 rounds to 1 exactly: the
        # up-in sampler skips the factors of a step whose exponents all lie there
        assert np.all(bridge.survival_factor(np.linspace(-800.0, -40.0, 100_001)) == 1.0)

    @pytest.mark.parametrize("lower", [bridge.NO_LOWER, 70.0])
    def test_constant_barrier_knockout_matches_dominant_action_loop(self, lower):
        # the corrected pricer before the exact kernel: every spec went
        # through the double-barrier action and slope term; a single level
        # now takes the kernel, a corridor still the action.  Each path
        # carries its bridge survival probability, prod(-expm1(e))
        model = EulerModel(drift=lambda x: 0.05 * x, vol=lambda x: 0.5 * x,
                           maturity=1.0, steps=16, x0=100.0, rate=0.05)
        payoff = lambda x: np.maximum(x - 90.0, 0.0)
        level = 150.0
        eps, sqrt_eps = model.eps, math.sqrt(model.eps)
        discount = math.exp(-model.rate * model.maturity)

        def dominant_action_sampler(ss, size):
            rng = np.random.default_rng(ss.spawn(1)[0])
            x = np.full(size, model.x0)
            survival = np.full(size, float(lower < model.x0 < level))
            for _ in range(model.steps):
                gauss = rng.normal(size=size)
                sigma_i = model.vol(x)
                x_next = x + model.drift(x) * eps + sigma_i * sqrt_eps * gauss
                rate, w = bridge._double_terms(x, x_next, lower, level, 0.0, 0.0, sigma_i)
                survival *= -np.expm1(np.minimum(-rate / eps - w, 0.0))
                x = x_next
            return discount * payoff(x) * survival

        expected = mc.run_replications(dominant_action_sampler, 20_000, seed=9)
        spec = BarrierSpec(level, lower=lower)
        got = bridge.price_knockout_ladder(model, payoff, spec, [model.steps], 20_000, seed=9)[0][1]
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
        vanilla, corrected = bridge.price_knockout_ladder(model, payoff, spec, [model.steps], 40_000, seed=3)[0]
        assert vanilla == corrected

    def test_corrected_below_naive_for_nonnegative_payoff(self):
        # more killing can only lower a nonnegative payoff; paired seeds
        model = EulerModel(drift=lambda x: 0.0 * x, vol=lambda x: 0.3 * x,
                           maturity=1.0, steps=32, x0=100.0, rate=0.0)
        payoff = lambda x: np.maximum(x - 90.0, 0.0)
        spec = BarrierSpec(120.0)
        naive, corrected = bridge.price_knockout_ladder(model, payoff, spec, [model.steps], 100_000, seed=4)[0]
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
        naive, est = bridge.price_knockout_ladder(model, payoff, spec, [model.steps], 200_000, seed=5)[0]
        assert abs(est.mean - exact) < 4.0 * est.std_error
        # the naive estimator misses within-step crossings and over-prices
        assert naive.mean - exact > 6.0 * naive.std_error

    @pytest.mark.parametrize("method", [pytest.param(0, id="naive"), pytest.param(1, id="corrected"),
                                        pytest.param(slice(None), id="both")])
    @pytest.mark.parametrize("spec", [BarrierSpec(0.5, lower=1.0),
                                      BarrierSpec(0.5, upper_slope=-1.0, lower=-0.2, lower_slope=0.5)],
                             ids=["inverted", "crossing"])
    def test_inverted_corridor_raises_for_every_method(self, spec, method):
        # L >= U at t = 0, or only at t = T: no row is priced, whichever
        # of the naive row, the corrected row or the pair a caller takes
        model = EulerModel(drift=lambda x: 0.0 * x, vol=lambda x: np.ones_like(x),
                           maturity=1.0, steps=4, x0=0.0, rate=0.0)
        with pytest.raises(InvalidBarrier):
            bridge.price_knockout_ladder(model, lambda x: np.ones_like(x), spec, [model.steps], 1_000,
                                         seed=1)[0][method]

    @pytest.mark.parametrize("level, price", [(0.6, 0.0), (2.0, 1.0)], ids=["crosses", "stays-below"])
    def test_zero_volatility_takes_the_limits_quietly(self, level, price):
        # with no noise the bridge exponent is -inf below the level (no
        # crossing) and 0/0 where the step ends on or past it (a crossing)
        model = EulerModel(drift=lambda x: np.ones_like(x), vol=lambda x: np.zeros_like(x),
                           maturity=1.0, steps=4, x0=0.0, rate=0.0)
        naive, corrected = bridge.price_knockout_ladder(model, lambda x: np.ones_like(x), BarrierSpec(level),
                                                        [model.steps], 1_000, seed=1)[0]
        assert naive.mean == corrected.mean == price
        assert corrected.std_error == 0.0

    def test_corridor_with_an_underflowed_variance_survives_quietly(self, recwarn):
        # sigma^2 = 1e-340 underflows to 0: the action is inf inside the
        # corridor, and a flat side adds no slope term (inf * 0 read as a
        # certain crossing)
        model = EulerModel(drift=lambda x: 0.0 * x, vol=lambda x: np.full_like(x, 1e-170),
                           maturity=1.0, steps=4, x0=0.0, rate=0.0)
        res = bridge.price_knockout_ladder(model, lambda x: np.ones_like(x), BarrierSpec(1.0, lower=-1.0),
                                           [model.steps], 1_000, seed=1)[0][1]
        assert res.mean == 1.0
        assert len(recwarn) == 0

    def test_fortet_oracle_agrees_with_linear_boundary_closed_form(self):
        a, b = 0.8, 0.5
        exact = 1.0 - drifted_bm_max_crossing(a, -b, 1.0, 1.0)
        numeric = fortet_survival(lambda t: a + b * t, 1.0, 4000)
        assert numeric == pytest.approx(exact, abs=1e-7)

    @pytest.mark.parametrize("spec", [BarrierSpec(0.8, upper_slope=0.5), BarrierSpec(0.8, lower=-0.6, lower_slope=0.3)],
                             ids=["upper", "lower"])
    def test_sloped_barrier_knockout_matches_corridor_loop(self, spec):
        # the corridor loop as written before kill_exponent_double, with the
        # action and slope term spelled out and each step's survival
        # probability -expm1(e) multiplied in: same draws, same bits
        model = EulerModel(drift=lambda x: 0.0 * x, vol=lambda x: np.ones_like(x),
                           maturity=1.0, steps=8, x0=0.0, rate=0.0)
        payoff = lambda x: np.ones_like(x)
        eps, sqrt_eps = model.eps, math.sqrt(model.eps)
        times = [i * eps for i in range(model.steps + 1)]

        def corridor_sampler(ss, size):
            rng = np.random.default_rng(ss.spawn(1)[0])
            x = np.full(size, model.x0)
            survival = np.full(size, float(spec.lower < model.x0 < spec.upper))
            for t in times[:-1]:
                gauss = rng.standard_normal(size)
                sigma_i = model.vol(x)
                x_next = x + model.drift(x) * eps + sigma_i * sqrt_eps * gauss
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
                survival *= -np.expm1(np.minimum(-rate / eps - w, 0.0))
                x = x_next
            return payoff(x) * survival

        expected = mc.run_replications(corridor_sampler, 20_000, seed=6)
        assert bridge.price_knockout_ladder(model, payoff, spec, [model.steps], 20_000, seed=6)[0][1] == expected

    def test_sloped_barrier_corrected_unbiased(self):
        # linear barrier + constant vol: exp(-I/eps - w) is the exact bridge
        # crossing probability, so corrected is unbiased even at 8 steps
        a, slope = 0.8, 0.5
        exact = 1.0 - drifted_bm_max_crossing(a, -slope, 1.0, 1.0)
        spec = BarrierSpec(a, upper_slope=slope)
        model = EulerModel(drift=lambda x: 0.0 * x, vol=lambda x: np.ones_like(x),
                           maturity=1.0, steps=8, x0=0.0, rate=0.0)
        payoff = lambda x: np.ones_like(x)
        est = bridge.price_knockout_ladder(model, payoff, spec, [model.steps], 200_000, seed=6)[0][1]
        assert abs(est.mean - exact) < 4.0 * est.std_error


def _block_sum_sampler(model, payoff, level, chain, steps):
    """Rows (naive, corrected) of the ``steps`` grid of a coupled pass, written out plainly.

    The finest grid, ``chain[0]`` steps, draws one normal per path and step.
    Each grid's block sums add the next finer grid's block sums in order,
    and the ``steps`` grid moves by its block sum over sqrt(fine steps per
    step).  Its crossing law is the exact single-barrier one.
    """
    eps = model.maturity / steps
    scale = math.sqrt(eps) / math.sqrt(chain[0] // steps)
    discount = math.exp(-model.rate * model.maturity)

    def sampler(ss, size):
        rng = np.random.default_rng(ss.spawn(1)[0])
        sums = [rng.standard_normal(size) for _ in range(chain[0])]
        for finer, coarser in zip(chain, chain[1:]):
            if finer == steps:
                break
            block = finer // coarser
            sums = [functools.reduce(np.add, sums[k * block:(k + 1) * block]) for k in range(coarser)]
        x = np.full(size, model.x0)
        on_grid = np.full(size, model.x0 < level)
        survival = on_grid.astype(float)
        for noise in sums:
            sigma_j = model.vol(x)
            x_next = x + model.drift(x) * eps + sigma_j * scale * noise
            on_grid &= x_next < level
            expo = -2.0 * np.maximum(level - x, 0.0) * np.maximum(level - x_next, 0.0) / (sigma_j * sigma_j * eps)
            survival *= -np.expm1(expo)
            x = x_next
        value = discount * payoff(x)
        return np.stack([np.where(on_grid, value, 0.0), value * survival])

    return sampler


class TestKnockoutLadder:
    model = EulerModel(drift=lambda x: 0.05 * x, vol=lambda x: 0.3 * x, maturity=1.0, steps=24, x0=100.0, rate=0.05)
    payoff = staticmethod(lambda x: np.maximum(x - 95.0, 0.0))

    @pytest.mark.parametrize("spec", [BarrierSpec(130.0), BarrierSpec(130.0, lower=80.0),
                                      BarrierSpec(130.0, upper_slope=-10.0, lower=70.0, lower_slope=5.0)],
                             ids=["single", "corridor", "sloped"])
    def test_the_finest_rung_is_the_single_grid_run(self, spec):
        # the finest grid draws its own normals, as a run of it alone does
        ladder = bridge.price_knockout_ladder(self.model, self.payoff, spec, [6, 24, 12], 20_000, seed=3)
        alone = bridge.price_knockout_ladder(self.model, self.payoff, spec, [24], 20_000, seed=3)[0]
        assert ladder[1] == alone
        assert ladder[0] != ladder[1] != ladder[2]

    @pytest.mark.parametrize("steps", [24, 6, 3])
    def test_a_coarse_rung_moves_by_block_sums_of_the_fine_normals(self, steps):
        # 24 -> 6 adds four normals a step, 6 -> 3 two block sums
        chain = [24, 6, 3]
        expected = mc.run_replications(_block_sum_sampler(self.model, self.payoff, 130.0, chain, steps), 3_000, 11)
        ladder = bridge.price_knockout_ladder(self.model, self.payoff, BarrierSpec(130.0), chain, 3_000, seed=11)
        assert ladder[chain.index(steps)] == expected

    @pytest.mark.parametrize("spec", [BarrierSpec(1.5), BarrierSpec(1.5, lower=0.5)], ids=["single", "corridor"])
    def test_a_volatility_that_returns_its_argument(self, spec):
        # the exact kernel moves x in place, after reading sigma at the left end
        model = EulerModel(drift=lambda x: 0.05 * x, vol=lambda x: x, maturity=1.0, steps=8, x0=1.0, rate=0.05)
        copied = replace(model, vol=lambda x: 1.0 * x)
        payoff = lambda x: np.maximum(x - 0.9, 0.0)
        assert (bridge.price_knockout_ladder(model, payoff, spec, [2, 8], 5_000, seed=2)
                == bridge.price_knockout_ladder(copied, payoff, spec, [2, 8], 5_000, seed=2))

    def test_rows_do_not_depend_on_threads(self):
        n = 2 * mc.BATCH_SIZE + 9
        spec = BarrierSpec(130.0)
        one, three = (bridge.price_knockout_ladder(self.model, self.payoff, spec, [3, 12, 6], n, seed=5, threads=t)
                      for t in (1, 3))
        assert one == three

    @pytest.mark.parametrize("rungs", [[8, 12, 16], [8, 8], [16, 4, 6], [], [0, 4]])
    def test_rungs_that_are_not_a_chain_are_refused(self, rungs):
        with pytest.raises(ValueError, match="chain"):
            bridge.price_knockout_ladder(self.model, self.payoff, BarrierSpec(130.0), rungs, 1_000, seed=1)


def _knockout_coin_flip_and_survival(model, payoff, level):
    """Rows (coin flip, survival weight, their difference) on one path stream.

    The coin flip is the corrected pricer before conditional Monte Carlo:
    a second stream draws one uniform per path and step, and the path dies
    when it falls below the crossing probability.  The survival-weighted row
    averages that kill over the uniforms given the path.
    """
    eps, sqrt_eps = model.eps, math.sqrt(model.eps)
    discount = math.exp(-model.rate * model.maturity)

    def sampler(ss, size):
        path_ss, kill_ss = ss.spawn(2)
        rng = np.random.default_rng(path_ss)
        kill_rng = np.random.default_rng(kill_ss)
        x = np.full(size, model.x0)
        alive = np.full(size, model.x0 < level)
        survival = alive.astype(float)
        gap = np.maximum(level - x, 0.0)
        for _ in range(model.steps):
            gauss = rng.standard_normal(size)
            sigma_i = model.vol(x)
            x_next = x + model.drift(x) * eps + sigma_i * sqrt_eps * gauss
            gap_next = np.maximum(level - x_next, 0.0)
            expo = -2.0 * gap * gap_next / (sigma_i * sigma_i * eps)
            alive &= kill_rng.random(size) >= np.exp(expo)
            survival *= -np.expm1(expo)
            gap, x = gap_next, x_next
        value = discount * payoff(x)
        return np.stack([value * alive, value * survival, value * alive - value * survival])

    return sampler


def test_survival_weight_agrees_with_the_coin_flip_on_the_committed_ladder():
    # barrier-bias-order at 100k paths a rung: the same paths give the coin
    # flip and the survival weight, which must agree within 4 paired SE, and
    # the weight, a conditional expectation of the flip, has no larger SE
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "barrier-bias-order.json")) as handle:
        doc = json.load(handle)
    rate, sigma = doc["rate"], doc["sigma"]
    payoff = lambda x: np.maximum(x - doc["strike"], 0.0)
    for i, steps in enumerate(doc["ladder"]):
        model = EulerModel(drift=lambda x: rate * x, vol=lambda x: sigma * x,
                           maturity=doc["maturity"], steps=steps, x0=doc["s0"], rate=rate)
        coin, weighted, diff = mc.run_replications(
            _knockout_coin_flip_and_survival(model, payoff, doc["barrier"]), 100_000, doc["seed"] + i)
        assert weighted == bridge.price_knockout_ladder(model, payoff, BarrierSpec(doc["barrier"]), [steps],
                                                        100_000, doc["seed"] + i)[0][1]
        assert abs(diff.mean) < 4.0 * diff.std_error
        assert weighted.std_error <= coin.std_error
