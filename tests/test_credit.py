import math

import numpy as np
import pytest

from rareflow import credit, mc, tilt
from rareflow.credit import LossSchedule, PortfolioModel
from rareflow.errors import BoundViolated, RegimeError
from rareflow.oracles import credit_tail_quadrature
from rareflow.tilt import Bernoulli

from oracles import (binomial_tail_sum, credit_tail_beta_order, credit_tail_gh, credit_tail_windowed_quad,
                     normal_quantile, phi_bar, plain_loss_tail)

RHO_HALF = math.sqrt(0.5)


def schedule_model(p=0.01, rho=RHO_HALF, a=1.0, c=0.5):
    return PortfolioModel(p=p, rho=rho, threshold=LossSchedule(a, c))


class TestConditionalDefaultProb:
    def test_independent_case(self):
        model = PortfolioModel(p=0.2, rho=0.0, threshold=0.5)
        for z in (-3.0, 0.0, 4.0):
            assert credit.conditional_default_prob(model, z) == pytest.approx(0.2, abs=1e-15)

    def test_median_obligor(self):
        model = PortfolioModel(p=0.5, rho=0.7, threshold=0.9)
        assert credit.conditional_default_prob(model, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_reference_value(self):
        model = PortfolioModel(p=0.01, rho=0.5, threshold=0.5)
        value = credit.conditional_default_prob(model, 3.0)
        arg = (1.5 + normal_quantile(0.01)) / math.sqrt(0.75)
        assert value == pytest.approx(float(1.0 - phi_bar(arg)), rel=1e-12)
        assert value == pytest.approx(0.17001, abs=5e-5)

    def test_increasing_in_factor(self):
        model = PortfolioModel(p=0.05, rho=0.6, threshold=0.5)
        grid = np.linspace(-4.0, 4.0, 41)
        values = credit.conditional_default_prob(model, grid)
        assert np.all(np.diff(values) > 0.0)


class TestDecayRates:
    # the i.i.d. obligor rate is the Bernoulli relative entropy
    def test_independent_rate_limit_at_p(self):
        assert tilt.bernoulli_entropy(0.25, 0.250001) < 1e-9

    def test_independent_reference(self):
        rate = tilt.bernoulli_entropy(0.25, 0.5)
        assert rate == pytest.approx(0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0), abs=1e-15)

    def test_matches_bernoulli_legendre(self):
        for p, q in ((0.25, 0.5), (0.1, 0.3), (0.02, 0.9)):
            rate = tilt.bernoulli_entropy(p, q)
            assert rate == pytest.approx(tilt.legendre(tilt.Bernoulli(p), q).rate, abs=1e-12)

    def test_independent_regime_error(self):
        # q_1 = 1 - 0.5 = p and q_1 = 0.4 < p: no rare loss event to estimate
        for c in (0.5, 0.6):
            model = PortfolioModel(p=0.5, rho=0.0, threshold=LossSchedule(1.0, c))
            with pytest.raises(RegimeError):
                credit.two_step_is(model, 1, 100, seed=0)

    def test_dependent_rate_values(self):
        assert credit.dependent_decay(1.0, RHO_HALF) == pytest.approx(1.0, abs=1e-12)
        assert credit.dependent_decay(0.5, 0.9) == pytest.approx(0.5 * 0.19 / 0.81, abs=1e-12)

    def test_dependent_limit_vanishes_at_full_correlation(self):
        assert credit.dependent_decay(1.0, 0.999) < 0.003

    def test_dependent_regime_error_at_zero(self):
        with pytest.raises(RegimeError):
            credit.dependent_decay(1.0, 0.0)

    def test_near_one_loading_is_nearly_flat(self):
        rate = credit.dependent_decay(1.0, 0.95)
        assert rate == pytest.approx(0.0975 / 0.9025, abs=1e-12)
        assert rate == pytest.approx(0.105, rel=0.05)


class TestFactorThreshold:
    def test_at_marginal_probability(self):
        model = PortfolioModel(p=0.3, rho=0.5, threshold=0.5)
        # q = p collapses to the closed form quantile*(sqrt(1-rho^2)-1)/rho
        z = credit.factor_threshold(
            PortfolioModel(p=0.3, rho=0.5, threshold=LossSchedule(1.0, 0.7)), 1
        )
        expected = normal_quantile(0.3) * (math.sqrt(0.75) - 1.0) / 0.5
        assert credit.conditional_default_prob(model, expected) == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_case(self):
        model = PortfolioModel(p=0.5, rho=0.4, threshold=0.500001)
        z = credit.factor_threshold(model, 10)
        assert abs(z) < 1e-5

    def test_reference_value(self):
        model = PortfolioModel(p=0.01, rho=0.5, threshold=0.99)
        z = credit.factor_threshold(model, 10)
        # full-precision quantile oracle: (sqrt(0.75) q(0.99) - q(0.01)) / 0.5
        expected = (math.sqrt(0.75) * normal_quantile(0.99) - normal_quantile(0.01)) / 0.5
        assert z == pytest.approx(float(expected), rel=1e-13)
        assert z == pytest.approx(8.6820, abs=1e-3)

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.999])
    def test_inversion_residual(self, q):
        model = PortfolioModel(p=0.05, rho=0.45, threshold=q)
        z = credit.factor_threshold(model, 10)
        assert abs(credit.conditional_default_prob(model, z) - q) <= 1e-12


class TestConditionalTwist:
    # the paper's second step twists p(z) to q with tilt.bernoulli_twist
    def test_matches_bernoulli_saddle(self):
        model = PortfolioModel(p=0.25, rho=0.0, threshold=0.5)
        theta = tilt.bernoulli_twist(credit.conditional_default_prob(model, 0.0), 0.5)
        assert theta == pytest.approx(math.log(3.0), abs=1e-12)
        assert theta == pytest.approx(tilt.saddle_theta(Bernoulli(0.25), 0.5), abs=1e-12)

    def test_twisted_probability_hits_threshold(self):
        model = PortfolioModel(p=0.05, rho=0.6, threshold=0.7)
        for z in (-1.0, 0.0, 1.5):
            pz = credit.conditional_default_prob(model, z)
            theta = tilt.bernoulli_twist(pz, 0.7)
            tilted = pz * math.exp(theta) / (1.0 - pz + pz * math.exp(theta))
            assert tilted == pytest.approx(0.7, abs=1e-12)


class TestOuterExponent:
    def test_grid_properties(self):
        model = schedule_model()
        n = 1000
        z_n = credit.factor_threshold(model, n)
        grid = np.linspace(-3.0, z_n + 2.0, 240)
        values = credit.outer_exponent(model, n, grid)
        assert np.all(values <= 1e-12)                      # nonpositive
        assert np.all(np.diff(values) >= -1e-8)             # nondecreasing
        assert np.all(values[grid >= z_n] == 0.0)           # flat beyond z_n
        h = grid[1] - grid[0]
        interior = values[(grid > -2.5) & (grid < z_n - 0.5)]
        second = np.diff(interior, 2) / h**2
        assert np.all(second <= 1e-8)                       # concave

    def test_derivative_matches_finite_difference(self):
        model = schedule_model()
        n = 1000
        z_n = credit.factor_threshold(model, n)
        for z in np.linspace(0.5, z_n - 0.5, 7):
            closed = credit.outer_exponent_prime(model, n, float(z))
            h = 1e-6
            fd = (credit.outer_exponent(model, n, z + h) - credit.outer_exponent(model, n, z - h)) / (2 * h)
            assert closed == pytest.approx(fd, rel=1e-5)


class TestFactorShift:
    def test_interior_and_residual(self):
        model = schedule_model()
        n = 1000
        z_n = credit.factor_threshold(model, n)
        mu = credit.factor_shift(model, n)
        assert 0.0 < mu < z_n
        assert abs(credit.outer_exponent_prime(model, n, mu) - mu) <= 1e-8

    def test_golden_section_oracle(self):
        # independent maximization of F_n(mu) - mu^2/2
        model = schedule_model()
        n = 1000
        z_n = credit.factor_threshold(model, n)
        mu = credit.factor_shift(model, n)

        def objective(m):
            return credit.outer_exponent(model, n, m) - 0.5 * m * m

        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = 0.0, z_n
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        for _ in range(200):
            if objective(c) >= objective(d):
                b, d = d, c
                c = b - inv_phi * (b - a)
            else:
                a, c = c, d
                d = a + inv_phi * (b - a)
        golden = 0.5 * (a + b)
        assert mu == pytest.approx(golden, abs=1e-6)

    def test_shift_approaches_threshold(self):
        model = schedule_model()
        ratios = []
        for n in (100, 1000, 10_000, 100_000):
            mu = credit.factor_shift(model, n)
            z_n = credit.factor_threshold(model, n)
            ratios.append(mu / z_n)
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.9


# the committed credit configs: (model, portfolio sizes, seed)
COMMITTED_MODELS = [
    (PortfolioModel(p=0.1, rho=0.4, threshold=0.5), (20,), 3),
    (PortfolioModel(p=0.001, rho=0.3, threshold=0.05), (1000,), 802),
    (schedule_model(p=0.4), (100, 1000, 10_000), 801),
]


class TestConditionalBoundCheck:
    # each draw's log conditional tail lies below the Chernoff bound F_n(z)
    def test_every_draw_of_the_committed_models_is_within_the_bound(self, monkeypatch):
        slack = []
        check = mc.check_bound

        def spy(log_weight, log_bound, hit):
            below = hit & (log_bound < 0.0)  # on the lanes past z_n the bound is 0
            slack.append(float(np.min(log_bound[below] - log_weight[below])))
            check(log_weight, log_bound, hit)

        monkeypatch.setattr(mc, "check_bound", spy)
        for model, sizes, seed in COMMITTED_MODELS:
            for n in sizes:
                credit.two_step_is(model, n, 100_000, seed=seed)
        assert len(slack) == 5 * 7
        # the binomial tail is a polynomial factor below its Chernoff bound
        assert min(slack) > 0.4

    def test_a_lowered_bound_raises(self, monkeypatch):
        model, (n,), seed = COMMITTED_MODELS[0]
        bound = credit.outer_exponent
        monkeypatch.setattr(credit, "outer_exponent", lambda model, n, z: bound(model, n, z) - 1.0)
        with pytest.raises(BoundViolated):
            credit.two_step_is(model, n, 1_000, seed=seed)


class TestTwoStepIs:
    def test_independent_case_matches_binomial(self):
        # at rho = 0 every draw is the binomial tail itself
        model = PortfolioModel(p=0.25, rho=0.0, threshold=0.5)
        est = credit.two_step_is(model, 20, 100_000, seed=3)
        exact = binomial_tail_sum(20, 0.25, 10)
        assert est.mean == pytest.approx(exact, rel=1e-12)
        assert est.std_error == 0.0

    def test_a_sure_loss_event_is_a_regime_error(self):
        # n q_n below 1e-9 puts k_n at 0: {L >= 0} is no rare event
        model = PortfolioModel(p=1e-12, rho=0.99, threshold=1e-10)
        with pytest.raises(RegimeError, match="sure"):
            credit.two_step_is(model, 1, 1_000, seed=0)

    def test_quadrature_oracle_case(self):
        model = PortfolioModel(p=0.1, rho=0.4, threshold=0.5)
        exact = credit_tail_gh(20, 0.1, 0.4, 0.5)
        assert exact == pytest.approx(credit_tail_windowed_quad(20, 0.1, 0.4, 0.5), rel=1e-8)
        est = credit.two_step_is(model, 20, 100_000, seed=4, shift="mu_n")
        assert abs(est.mean - exact) < 4.0 * est.std_error

    def test_lattice_threshold_when_n_q_is_a_hair_above_an_integer(self):
        # 25 * 0.28 = 7.000000000000001: the event is {L >= 7}, the lattice
        # rule of cramer.lattice_threshold, not {L >= 8}
        model = PortfolioModel(p=0.1, rho=0.4, threshold=0.28)
        exact = credit_tail_quadrature(25, 0.1, 0.4, 0.28)
        for est in (credit.two_step_is(model, 25, 20_000, seed=8),
                    plain_loss_tail(25, 0.1, 0.4, 0.28, 20_000, seed=8)):
            assert abs(est.mean - exact) < 4.0 * est.std_error

    def test_variance_beats_plain_mc(self):
        model = PortfolioModel(p=0.1, rho=0.4, threshold=0.5)
        tuned = credit.two_step_is(model, 20, 100_000, seed=5)
        plain = plain_loss_tail(20, 0.1, 0.4, 0.5, 100_000, seed=5)
        assert tuned.relative_error < plain.relative_error

    def test_unbiased_across_shifts(self):
        model = PortfolioModel(p=0.1, rho=0.4, threshold=0.5)
        results = [
            credit.two_step_is(model, 20, 200_000, seed=60 + i, shift=shift)
            for i, shift in enumerate((0.0, "mu_n", "z_n"))
        ]
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                joint = math.hypot(results[i].std_error, results[j].std_error)
                assert abs(results[i].mean - results[j].mean) < 4.0 * joint

    def test_pointwise_conditional_bound_holds(self):
        # the in-sampler assertion is the contract; a run exercises it
        model = schedule_model(p=0.05)
        credit.two_step_is(model, 500, 50_000, seed=6)


class TestErrorBar:
    # 2,000 one-batch runs against the order-statistic reference, which
    # shares no binomial tail with the estimator and holds 1e-14 relative
    # here, far below the SE of about 1e-4 relative at 1,024 draws
    @pytest.mark.parametrize("model, n, seed", [(model, sizes[0], seed) for model, sizes, seed in COMMITTED_MODELS[:2]],
                             ids=["credit", "credit-deep"])
    def test_95_percent_interval_covers_the_reference(self, model, n, seed):
        reference = credit_tail_beta_order(n, model.p, model.rho, model.q_at(n))
        runs = [credit.two_step_is(model, n, 1_024, seed=seed + i) for i in range(2_000)]
        z = np.array([(run.mean - reference) / run.std_error for run in runs])
        assert abs(np.mean(np.abs(z) <= 1.96) - 0.95) <= 0.015


class TestMeasureLossDecay:
    def test_rungs_match_quadrature(self):
        model = schedule_model(p=0.4)
        for i, n in enumerate((100, 1000)):
            est = credit.two_step_is(model, n, 100_000, seed=70 + i)
            exact = credit_tail_windowed_quad(n, 0.4, RHO_HALF, model.q_at(n))
            assert abs(est.mean - exact) < 4.0 * est.std_error

    def test_ladder_slope_high_grade_portfolio(self):
        # p = 0.4 keeps the sqrt(log n) quantile correction small, so the
        # pinned ladder already sits near the limiting slope -a(1-rho^2)/rho^2
        model = schedule_model(p=0.4)
        fit = credit.measure_loss_decay(model, [100, 1000, 10_000], 100_000, seed=8)
        rate = credit.dependent_decay(1.0, RHO_HALF)
        assert fit.slope == pytest.approx(-rate, rel=0.25)

    @pytest.mark.xfail(
        strict=False,
        reason=(
            "at p=0.01 the factor threshold carries a |quantile(p)| sqrt(log n) "
            "term whose local slope on the {1e2,1e3,1e4} ladder is ~1.0, so the "
            "exact regression slope is -2.04, not -1; the +-25% band around the "
            "limit is unreachable at these portfolio sizes (verified against "
            "the windowed quadrature oracle)"
        ),
    )
    def test_ladder_slope_low_grade_portfolio_spec_band(self):
        model = schedule_model(p=0.01)
        fit = credit.measure_loss_decay(model, [100, 1000, 10_000], 100_000, seed=9)
        assert fit.slope == pytest.approx(-1.0, rel=0.25)

    def test_low_grade_ladder_matches_exact_finite_n_slope(self):
        # the honest finite-n check: the measured slope agrees with the slope
        # of the exact (quadrature) ladder, correction term and all
        model = schedule_model(p=0.01)
        fit = credit.measure_loss_decay(model, [100, 1000, 10_000], 200_000, seed=10)
        exact_points = [
            (math.log(n), math.log(credit_tail_windowed_quad(n, 0.01, RHO_HALF, model.q_at(n))))
            for n in (100, 1000, 10_000)
        ]
        exact_fit = mc.fit_decay(exact_points)
        assert exact_fit.slope == pytest.approx(-2.04, abs=0.02)
        assert fit.slope == pytest.approx(exact_fit.slope, rel=0.05)


class TestSmallPRegime:
    # highly-rated obligors: p_n = exp(-n a) with fixed threshold q

    @staticmethod
    def _estimates(rho, N, seed):
        a_exp, q = 0.05, 0.3
        points = []
        for i, n in enumerate((20, 40, 80)):
            p_n = math.exp(-a_exp * n)
            model = PortfolioModel(p=p_n, rho=rho, threshold=q)
            est = credit.two_step_is(model, n, N, seed + i, shift="z_n")
            points.append((float(n), est.log_mean))
        return points

    @pytest.mark.xfail(
        strict=False,
        reason=(
            "at n=20 the marginal p_20 = exp(-1) = 0.368 exceeds the fixed "
            "threshold q=0.3, so the first rung is not even a rare event and "
            "violates q > p; on the remaining rungs the slope of ln P over n "
            "sits at ~50-65% of the limit -a/rho^2 for every rho (quantile "
            "corrections decay like log(n a)/(n a), verified by quadrature), "
            "so the 30% band is unreachable at these sizes"
        ),
    )
    def test_limit_band_as_specified(self):
        points = self._estimates(0.5, 100_000, seed=11)
        fit = mc.fit_decay(points)
        assert fit.slope == pytest.approx(-0.05 / 0.25, rel=0.30)

    def test_trend_toward_limit_and_oracle_agreement(self):
        # shifted ladder {40, 80, 160}: every rung is rare (p_n < q) and the
        # two-step estimates track the quadrature oracle while the
        # n-normalized log-probability climbs toward the limit
        rho, a_exp, q = 0.5, 0.05, 0.3
        target = -a_exp / rho**2
        normalized = []
        for i, n in enumerate((40, 80, 160)):
            p_n = math.exp(-a_exp * n)
            model = PortfolioModel(p=p_n, rho=rho, threshold=q)
            est = credit.two_step_is(model, n, 100_000, seed=21 + i, shift="z_n")
            exact = credit_tail_windowed_quad(n, p_n, rho, q)
            assert abs(est.mean - exact) < 4.0 * est.std_error
            normalized.append(est.log_mean / n / target)
        # the normalized sequence climbs toward 1 from below
        assert normalized[0] < normalized[1] < normalized[2] < 1.0
