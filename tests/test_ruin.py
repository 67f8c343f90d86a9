import json
import math
import warnings

import numpy as np
import pytest

from rareflow import cli, mc, ruin
from rareflow.errors import BoundViolated, MaxStepsExceeded, NetProfitViolated
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
    def test_violating_batch_raises(self):
        with pytest.raises(BoundViolated):
            ruin._check_lundberg(np.array([0.01, 0.2, 0.3]), 0.25)
        ruin._check_lundberg(np.array([0.01, 0.25, 0.0]), 0.25)

    def test_underflowed_bound_is_not_a_violation(self):
        # theta_L * x = 750: samples and bound both underflow to 0
        res = ruin.simulate_ruin_is(exponential_model(), 1500.0, 100, seed=1)
        assert res.mean == 0.0


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
        assert sol.kind == "lundberg"

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
        model = exponential_model()
        theta_l = ruin.adjustment_coefficient(model).value
        step = model.step_family()
        assert step.cgf_prime(theta_l) > 0.0
        tilted = step.tilted(theta_l)
        rng = np.random.default_rng(12)
        draws = tilted.sample(rng, 1_000_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() - 4.0 * se > 0.0
        assert draws.mean() == pytest.approx(step.cgf_prime(theta_l), abs=4.0 * se)


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

    def test_closed_form_validated_by_naive_simulation(self):
        # anchor the closed-form oracle itself at small reserves
        model = exponential_model()
        for i, x in enumerate((0.5, 1.0)):
            naive = ruin.simulate_wealth_ruin(model, x, 0.0, horizon=200.0, N=40_000, seed=60 + i)
            assert abs(naive.mean - exact_ruin_probability(model, x)) < 4.0 * naive.std_error

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
        assert sol.kind == "invest"

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
        assert ruin.optimal_fraction(exponential_model(invest=Investment(0.0, 1.0))) == 0.0
        model = exponential_model(invest=Investment(1.0, 1.0))
        frac = ruin.optimal_fraction(model)
        assert frac == pytest.approx(1.0 / 0.640388, rel=1e-5)

    def test_fraction_decreases_with_volatility(self):
        lo = ruin.optimal_fraction(exponential_model(invest=Investment(1.0, 1.0)))
        hi = ruin.optimal_fraction(exponential_model(invest=Investment(1.0, 2.0)))
        assert hi < lo


class TestWealthSimulation:
    def test_deep_safety_regime(self):
        model = exponential_model(invest=Investment(1.0, 1.0))
        theta_star = ruin.invest_exponent(model).value
        est = ruin.simulate_wealth_ruin(
            model, 50.0 / theta_star, alpha=ruin.optimal_fraction(model),
            horizon=50.0, N=10_000, seed=8,
        )
        assert est.mean < 1e-3

    @pytest.mark.parametrize("x, premium, b, sigma, alpha, horizon", [
        (1.0, 0.2, 0.5, 1.0, 1.0, 2.0),
        (1.5, 0.3, -0.5, 0.8, 1.0, 3.0),
        (2.0, 0.1, 0.2, 2.0, 0.7, 5.0),
    ])
    def test_no_claims_match_brownian_first_passage(self, x, premium, b, sigma, alpha, horizon):
        # lam = 1e-9: no claim arrives, so ruin is the first passage of x + mu t + s W_t below 0
        model = RuinModel(premium, 1e-9, Exponential(1.0), invest=Investment(b, sigma))
        mu, s = premium + alpha * b, alpha * sigma
        root_t = math.sqrt(horizon)

        def phi(z):
            return 0.5 * math.erfc(-z / math.sqrt(2.0))

        exact = (phi((-x - mu * horizon) / (s * root_t))
                 + math.exp(-2.0 * mu * x / s**2) * phi((-x + mu * horizon) / (s * root_t)))
        est = ruin.simulate_wealth_ruin(model, x, alpha, horizon, N=200_000, seed=11)
        assert abs(est.mean - exact) < 4.0 * est.std_error

    def test_vanishing_position_touches_only_from_the_barrier(self):
        # (alpha sigma)^2 = 1e-324 underflows to 0.  A Brownian motion started at
        # the barrier still touches it at once, so every path is ruined; one
        # started above it is the classical process up to a 1e-162 jitter
        model = exponential_model(invest=Investment(1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = ruin.simulate_wealth_ruin(model, 0.0, alpha=1e-162, horizon=1.0, N=2_000, seed=3)
            above = ruin.simulate_wealth_ruin(model, 1.0, alpha=1e-162, horizon=1.0, N=20_000, seed=4)
        classical = ruin.simulate_wealth_ruin(model, 1.0, alpha=0.0, horizon=1.0, N=20_000, seed=5)
        assert at_zero.mean == 1.0
        assert abs(above.mean - classical.mean) < 4.0 * math.hypot(above.std_error, classical.std_error)

    def test_decay_slope_bracket(self):
        model = exponential_model(invest=Investment(1.0, 1.0))
        theta_l = ruin.adjustment_coefficient(model).value
        theta_star = ruin.invest_exponent(model).value
        alpha = ruin.optimal_fraction(model)
        results = []
        reserves = [2.0, 4.0, 6.0, 8.0]
        for i, x in enumerate(reserves):
            est = ruin.simulate_wealth_ruin(model, x, alpha, horizon=200.0, N=20_000, seed=70 + i)
            results.append(est)
        points, dropped = mc.decay_points(reserves, results)
        assert dropped == 0
        fit = mc.fit_decay(points)
        assert -1.25 * theta_star <= fit.slope <= -theta_l
