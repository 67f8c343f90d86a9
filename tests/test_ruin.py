import json
import math
import warnings

import numpy as np
import pytest

from rareflow import cli, mc, oracles, ruin, tilt
from rareflow.errors import MaxStepsExceeded, NetProfitViolated, NoRoot
from rareflow.ruin import Investment, RuinModel
from rareflow.tilt import Exponential


def exponential_model(claim_rate=1.0, lam=1.0, premium=2.0, invest=None):
    return RuinModel(premium, lam, Exponential(claim_rate), invest=invest)


def exact_ruin_probability(model, x):
    """Closed form (lam/(premium*nu)) e^(-theta_L x) for exponential claims."""
    nu = model.claims.lam
    theta_l = nu - model.lam / model.premium
    return model.lam / (model.premium * nu) * math.exp(-theta_l * x)


class TestLundbergCheck:
    def test_underflowed_bound_is_not_a_violation(self):
        # theta_L * x = 750: every sample underflows to 0, the log-bound does not
        res = ruin.simulate_ruin_is(exponential_model(), 1500.0, 100, seed=1)
        assert res.mean == 0.0

    def test_a_crossing_at_the_bound_is_admitted(self, monkeypatch, draws_at_bound):
        # every walk crosses in one step, at the float just above x, where
        # -theta_L * walk rounds to -theta_L * x: each log-weight meets its bound.
        # The tilted claim is that float and every tilted interarrival is 0
        x = 3.5
        monkeypatch.setattr(tilt.Exponential, "sample", lambda self, rng, size: np.full(size, np.nextafter(x, math.inf)))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoWaitGenerator(seed))
        model = exponential_model(1.5, 0.7, 1.1)
        res = ruin.simulate_ruin_is(model, x, 100, seed=1)
        assert draws_at_bound == [True]
        assert res.mean == pytest.approx(math.exp(-ruin.adjustment_coefficient(model).value * x), rel=1e-15)


class NoWaitGenerator:
    """A numpy Generator whose exponential draws are all 0."""

    def __init__(self, seed):
        self.generator = np.random.Generator(np.random.PCG64(seed))

    def exponential(self, scale, size):
        return np.zeros(size)

    def __getattr__(self, name):
        return getattr(self.generator, name)


class TestAdjustmentCoefficient:
    @pytest.mark.parametrize(
        "claim_rate, lam, premium",
        [(1.0, 1.0, 2.0), (2.0, 1.0, 1.0), (1.5, 0.7, 1.1)],
    )
    def test_exponential_closed_form(self, claim_rate, lam, premium):
        # gamma_Y(t)=t/(nu-t) against the premium line solves to nu - lam/premium
        model = exponential_model(claim_rate, lam, premium)
        sol = ruin.adjustment_coefficient(model)
        assert sol.value == pytest.approx(claim_rate - lam / premium, abs=1e-10)
        assert abs(sol.residual) <= 1e-10

    @pytest.mark.parametrize(
        "claim_rate, lam, premium",
        [(1.0, 1.0, 2.0), (2.0, 1.0, 1.0), (1.5, 0.7, 1.1), (3.0, 2.5, 1.0), (0.4, 0.3, 1.0)],
    )
    def test_exponential_root_to_rounding(self, claim_rate, lam, premium):
        sol = ruin.adjustment_coefficient(exponential_model(claim_rate, lam, premium))
        assert sol.value == pytest.approx(claim_rate - lam / premium, rel=1e-14, abs=0.0)

    def test_small_safety_loading(self):
        # loading 1e-4 puts theta_L = (p - 1)/p just past the trivial root at
        # 0; there h has slope ~1e-4, so a rounding of h moves the root by
        # ~1e-12 relative
        premium = 1.0001
        sol = ruin.adjustment_coefficient(exponential_model(1.0, 1.0, premium))
        assert sol.value == pytest.approx((premium - 1.0) / premium, rel=1e-11, abs=0.0)

    def test_net_profit_violated(self):
        with pytest.raises(NetProfitViolated):
            ruin.adjustment_coefficient(exponential_model(1.0, 1.0, 1.0))
        with pytest.raises(NetProfitViolated):
            ruin.adjustment_coefficient(exponential_model(1.0, 2.0, 1.5))

    def test_tilted_walk_has_positive_drift(self):
        # a tilted step is a claim tilted by theta_L minus the premium times an
        # interarrival of rate lam + premium * theta_L; its mean is the slope
        # cgf_Y'(theta_L) - premium / (lam + premium * theta_L) of the step's c.g.f.
        model = exponential_model()
        theta_l = ruin.adjustment_coefficient(model).value
        rate = model.lam + model.premium * theta_l
        drift = model.claims.cgf_prime(theta_l) - model.premium / rate
        assert drift > 0.0
        rng = np.random.default_rng(12)
        draws = model.claims.tilted(theta_l).sample(rng, 1_000_000) - model.premium * rng.exponential(1.0 / rate, 1_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() - 4.0 * se > 0.0
        assert draws.mean() == pytest.approx(drift, abs=4.0 * se)


class TestLundbergBound:
    @staticmethod
    def cli_bound(x):
        # the ruin table's exp(-theta_L x) column for exponential_model()
        doc = {"premium": 2.0, "lam": 1.0, "claim_rate": 1.0, "x": x, "replications": 100}
        report = cli.run_experiment(cli.parse_config(json.dumps(doc), "ruin"))
        return report.rows[0][report.columns.index("lundberg_bound")]

    def test_at_zero(self):
        assert self.cli_bound(0.0) == 1.0

    def test_substituted_value(self):
        assert self.cli_bound(10.0) == pytest.approx(math.exp(-5.0), rel=1e-9)

    def test_dominates_simulation(self):
        model = exponential_model()
        theta_l = ruin.adjustment_coefficient(model).value
        for i, x in enumerate((1.0, 3.0, 6.0)):
            est = ruin.simulate_ruin_is(model, x, 20_000, seed=40 + i)
            assert est.mean <= math.exp(-theta_l * x)


class TestSimulateRuinIs:
    def test_matches_closed_form(self):
        model = exponential_model()
        est = ruin.simulate_ruin_is(model, 5.0, 100_000, seed=1)
        exact = exact_ruin_probability(model, 5.0)
        assert exact == pytest.approx(0.5 * math.exp(-2.5), abs=1e-15)
        assert abs(est.mean - exact) < 4.0 * est.std_error

    def test_zero_reserve(self):
        model = exponential_model()
        est = ruin.simulate_ruin_is(model, 0.0, 100_000, seed=2)
        assert abs(est.mean - 0.5) < 4.0 * est.std_error

    def test_decay_slope(self):
        model = exponential_model()
        fit = ruin.ruin_decay_fit(model, [2.0, 4.0, 8.0, 16.0], 50_000, seed=3)
        assert fit.slope == pytest.approx(-0.5, rel=0.02)

    def test_pointwise_bound_and_second_moment(self):
        model = exponential_model()
        theta_l = ruin.adjustment_coefficient(model).value
        x = 4.0
        est = ruin.simulate_ruin_is(model, x, 50_000, seed=4)
        assert est.mean < math.exp(-theta_l * x)
        assert est.second_moment <= math.exp(-2.0 * theta_l * x) * (1.0 + 1e-12)

    def test_step_guard_flags_pathological_runs(self, monkeypatch):
        # with the guard forced tiny, deep reserves cannot cross in time
        monkeypatch.setattr(ruin, "MAX_PATH_STEPS", 5)
        with pytest.raises(MaxStepsExceeded):
            ruin.simulate_ruin_is(exponential_model(), 100.0, 100, seed=5)

    def test_step_guard_counts_each_path_beyond_the_expected_rounds(self, monkeypatch):
        # a tilted step gains 1 on average, so x = 3 expects 3 rounds: within
        # the guard of 5, but some of 1,000 paths need more than 5
        monkeypatch.setattr(ruin, "MAX_PATH_STEPS", 5)
        with pytest.raises(MaxStepsExceeded, match="did not cross"):
            ruin.simulate_ruin_is(exponential_model(), 3.0, 1_000, seed=5)

    @pytest.mark.parametrize("invest", [None, Investment(1.0, 1.0)])
    def test_wald_bound_stops_a_deep_reserve_before_any_draw(self, monkeypatch, invest):
        # a path at x = 1e12 expects about 1e12 rounds, past the guard of 1e7
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(MaxStepsExceeded, match="rounds on average"):
            ruin.simulate_ruin_is(exponential_model(invest=invest), 1e12, 100, seed=5)

    def test_thread_invariance_of_path_simulation(self):
        # stopped-walk streams are per batch, so threading cannot reorder them
        model = exponential_model()
        a = ruin.simulate_ruin_is(model, 3.0, 60_000, seed=6, threads=1)
        b = ruin.simulate_ruin_is(model, 3.0, 60_000, seed=6, threads=4)
        assert a == b


class TestInvestment:
    def test_quadratic_reducible_case(self):
        # gamma equation becomes 2 t^2 - t/2 - 1/2 = 0 for these parameters
        model = exponential_model(invest=Investment(1.0, 1.0))
        sol = ruin.invest_exponent(model)
        expected = (0.5 + math.sqrt(4.25)) / 4.0
        assert sol.value == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("claim_rate, lam, premium, b, sigma", [
        (1.0, 1.0, 2.0, 1.0, 1.0), (1.0, 1.0, 2.0, 0.3, 0.8), (2.0, 1.5, 1.0, 1.0, 0.5), (1.5, 0.7, 1.1, 0.2, 1.3),
    ])
    def test_invest_exponent_is_quadratic_root(self, claim_rate, lam, premium, b, sigma):
        # t/(nu - t) = p t/lam + c with c = b^2/(2 sigma^2 lam) is the quadratic
        # p t^2 + (lam - p nu + c lam) t - c lam nu = 0; its positive root is
        # taken in the form that does not cancel
        c = b * b / (2.0 * sigma * sigma * lam)
        lin = lam - premium * claim_rate + c * lam
        root_disc = math.sqrt(lin * lin + 4.0 * premium * c * lam * claim_rate)
        expected = (root_disc - lin) / (2.0 * premium) if lin < 0.0 else 2.0 * c * lam * claim_rate / (lin + root_disc)
        model = exponential_model(claim_rate, lam, premium, invest=Investment(b, sigma))
        assert ruin.invest_exponent(model).value == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_zero_drift_collapses_to_lundberg(self):
        model = exponential_model(invest=Investment(0.0, 1.0))
        theta_star = ruin.invest_exponent(model).value
        theta_l = ruin.adjustment_coefficient(model).value
        assert theta_star == pytest.approx(theta_l, abs=1e-9)

    def test_investment_beats_lundberg(self):
        model = exponential_model(invest=Investment(1.0, 1.0))
        theta_star = ruin.invest_exponent(model).value
        theta_l = ruin.adjustment_coefficient(model).value
        assert theta_star > theta_l
        assert theta_star == pytest.approx(0.640388, abs=1e-6)
        assert theta_l == pytest.approx(0.5, abs=1e-10)

    def test_exponent_nondecreasing_in_drift(self):
        values = []
        for b in (0.0, 0.5, 1.0, 2.0):
            model = exponential_model(invest=Investment(b, 1.0))
            values.append(ruin.invest_exponent(model).value)
        assert values[0] == pytest.approx(0.5, abs=1e-9)
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_optimal_fraction(self):
        flat = exponential_model(invest=Investment(0.0, 1.0))
        assert ruin.optimal_fraction(flat, ruin.invest_exponent(flat).value) == 0.0
        model = exponential_model(invest=Investment(1.0, 1.0))
        frac = ruin.optimal_fraction(model, ruin.invest_exponent(model).value)
        assert frac == pytest.approx(1.0 / 0.640388, rel=1e-5)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-170, 1e-300])
    def test_vanishing_volatility_takes_the_offset_limit(self, sigma):
        # below about sigma = 1e-161, 2 sigma^2 lam underflows to 0: the
        # offset is then 0 at b = 0 and inf at b != 0, as at sigma = 1e-160
        flat = exponential_model(invest=Investment(0.0, sigma))
        theta_star = ruin.invest_exponent(flat).value
        assert theta_star == ruin.adjustment_coefficient(flat).value
        assert ruin.optimal_fraction(flat, theta_star) == 0.0
        with pytest.raises(NoRoot):
            ruin.invest_exponent(exponential_model(invest=Investment(1.0, sigma)))

    def test_fraction_decreases_with_volatility(self):
        fractions = []
        for sigma in (1.0, 2.0):
            model = exponential_model(invest=Investment(1.0, sigma))
            fractions.append(ruin.optimal_fraction(model, ruin.invest_exponent(model).value))
        assert fractions[1] < fractions[0]


class TestWealthSimulation:
    def test_deep_safety_regime(self):
        # about 50 e-folds deep the weights still stay below exp(-theta* x)
        model = exponential_model(invest=Investment(1.0, 1.0))
        theta_star = ruin.invest_exponent(model).value
        x = 50.0 / theta_star
        est = ruin.simulate_ruin_is(model, x, 10_000, seed=8)
        exact = oracles.ruin_probability_invest(2.0, 1.0, 1.0, 1.0, 1.0, x)
        assert est.mean < math.exp(-50.0)
        assert abs(est.mean - exact) < 4.0 * est.std_error
        assert est.relative_error < 0.02

    @pytest.mark.parametrize("i, x", enumerate([5.0, 10.0, 20.0, 40.0]))
    def test_tilted_ladder_at_the_optimal_position(self, i, x):
        model = exponential_model(invest=Investment(1.0, 1.0))
        est = ruin.simulate_ruin_is(model, x, 100_000, seed=90 + i)
        exact = oracles.ruin_probability_invest(2.0, 1.0, 1.0, 1.0, 1.0, x)
        assert abs(est.mean - exact) < 4.0 * est.std_error
        assert est.relative_error < 0.05

    def test_each_creep_and_claim_term_is_checked_on_its_own(self, monkeypatch):
        # a check per round for its creep terms, then one for the claim-ruin terms
        # of the batch, each against exp(-theta* x); never a path's sum
        calls = []
        check = mc.check_bound
        monkeypatch.setattr(mc, "check_bound", lambda log_weight, log_bound, hit:
                            calls.append(np.size(log_weight)) or check(log_weight, log_bound, hit))
        model = exponential_model(invest=Investment(1.0, 1.0))
        ruin.simulate_ruin_is(model, 2.0, 1_000, seed=9)
        assert len(calls) > 2 and calls[-1] == 1_000

    def test_vanishing_position_touches_only_from_the_barrier(self):
        # b = 1e-163 puts alpha* sigma near 2e-163, whose square underflows to 0.
        # A Brownian motion started at the barrier still touches it at once, so
        # every path is ruined; one started above it is the classical process
        # up to a 1e-163 jitter
        model = exponential_model(invest=Investment(1e-163, 1.0))
        alpha = ruin.optimal_fraction(model, ruin.invest_exponent(model).value)
        assert alpha > 0.0 and (alpha * 1.0) ** 2 == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = ruin.simulate_ruin_is(model, 0.0, 2_000, seed=3)
            above = ruin.simulate_ruin_is(model, 1.0, 20_000, seed=4)
        classical = ruin.simulate_ruin_is(exponential_model(), 1.0, 20_000, seed=5)
        assert at_zero.mean == 1.0
        assert abs(above.mean - classical.mean) < 4.0 * math.hypot(above.std_error, classical.std_error)

    def test_decay_slope_bracket(self):
        model = exponential_model(invest=Investment(1.0, 1.0))
        theta_l = ruin.adjustment_coefficient(model).value
        theta_star = ruin.invest_exponent(model).value
        fit = ruin.ruin_decay_fit(model, [2.0, 4.0, 6.0, 8.0], 20_000, seed=70)
        assert -1.25 * theta_star <= fit.slope <= -theta_l
