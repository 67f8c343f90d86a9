import json
import math
import os

import numpy as np
import pytest
from scipy.optimize import minimize

from rareflow import isdrift, mc, oracles
from rareflow.errors import AtMaturity, DomainEscape, MomentConditionViolated

from oracles import asian_call_conditional_gh, drifted_bm_max_crossing, likelihood_mean


def asian_payoff():
    return isdrift.asian_call_payoff(4, 50.0, 70.0, 0.3, 1.0)


def quadratic_payoff(dim, curvature):
    """G(z) = exp(-curvature * z'z), with gradient -2*curvature*z."""
    return isdrift.PathPayoff(
        dim=dim,
        evaluate=lambda z: np.exp(-curvature * np.sum(z * z, axis=-1)),
        gradient=lambda z: -2.0 * curvature * np.asarray(z, dtype=float),
        growth_c2=max(-curvature, 0.0),
    )


def shifted_linear_payoff(c, shift):
    """G(z) = exp(c'z + shift), with gradient c."""
    c = np.asarray(c, dtype=float)
    return isdrift.PathPayoff(
        dim=c.size,
        evaluate=lambda z: np.exp(np.sum(z * c, axis=-1) + shift),
        gradient=lambda z: c.copy(),
        growth_c2=0.0,
    )


class TestPathPayoff:
    def test_gradient_matches_central_differences(self):
        payoff = asian_payoff()
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 5:
            z = rng.normal(1.5, 0.5, 4)
            if not payoff.in_domain(z):
                continue
            closed = payoff.log_gradient(z)
            fd = np.empty(4)
            h = 1e-5
            for i in range(4):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                fd[i] = (payoff.log_payoff(zp) - payoff.log_payoff(zm)) / (2 * h)
            assert np.allclose(closed, fd, rtol=1e-4)
            checked += 1

    def test_log_payoff_finite_iff_positive(self):
        payoff = asian_payoff()
        assert payoff.log_payoff(np.full(4, 2.0)) > -math.inf
        assert payoff.log_payoff(np.full(4, -3.0)) == -math.inf

    @pytest.mark.parametrize("payoff", [
        shifted_linear_payoff([0.7, -0.4, 0.1], -0.5),
        quadratic_payoff(5, 0.25),
        asian_payoff(),
        isdrift.asian_call_payoff(12, 100.0, 95.0, 0.2, 0.5),
    ], ids=["linear", "quadratic", "asian", "asian-12"])
    def test_point_and_batch_share_one_formula(self, payoff):
        # the fixed point is found with single-point calls and the estimate
        # averages batch calls, so the two must agree bit for bit
        z = np.random.default_rng(5).standard_normal((64, payoff.dim)) + 1.5
        batch = payoff.evaluate_batch(z)
        assert batch.shape == (64,)
        assert np.count_nonzero(batch) > 0
        assert [payoff.evaluate(row) for row in z] == batch.tolist()


class TestGhsDrift:
    def test_linear_payoff_single_exact_step(self):
        c = np.array([0.7, -0.4, 0.1])
        res = isdrift.ghs_drift(isdrift.linear_payoff(c), np.zeros(3))
        assert res.converged
        assert res.iterations == 1
        assert np.array_equal(res.mu, c)

    def test_quadratic_payoff_zero_drift(self):
        payoff = quadratic_payoff(3, 0.25)
        res = isdrift.ghs_drift(payoff, np.array([1.0, -2.0, 0.5]))
        assert res.converged
        assert np.max(np.abs(res.mu)) < 1e-8

    def test_asian_against_nelder_mead(self):
        payoff = asian_payoff()
        res = isdrift.ghs_drift(payoff, np.full(4, 2.0))
        assert res.converged
        assert np.all(res.mu > 0.0)
        # independent optimizer from several starts
        def negated(z):
            g = payoff.evaluate(z)
            return 1e9 if g <= 0.0 else -(math.log(g) - 0.5 * float(z @ z))

        best = min(
            (
                minimize(negated, np.array(s, dtype=float), method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 40000})
                for s in ([2.0] * 4, [3.0, 2.0, 1.0, 1.0], [1.5, 1.5, 2.5, 2.5])
            ),
            key=lambda r: r.fun,
        )
        assert res.objective == pytest.approx(-best.fun, abs=1e-6)

    def test_fixed_point_residual_contract(self):
        payoff = asian_payoff()
        res = isdrift.ghs_drift(payoff, np.full(4, 2.0), tol=1e-9)
        residual = np.max(np.abs(payoff.log_gradient(res.mu) - res.mu))
        assert res.converged and residual <= 1e-9

    def test_max_iter_bounds_the_residual_checks(self):
        # the 4-step Asian call of configs/ghs-asian.json passes its 75th check, after 74 steps
        payoff, start = asian_payoff(), np.full(4, 2.0)
        default = isdrift.ghs_drift(payoff, start)
        exact = isdrift.ghs_drift(payoff, start, max_iter=74)
        assert exact.converged and exact.iterations == default.iterations == 74
        assert np.array_equal(exact.mu, default.mu)
        with pytest.warns(UserWarning, match="hit max_iter"):
            short = isdrift.ghs_drift(payoff, start, max_iter=73)
        assert not short.converged and short.iterations == 73

    def test_start_outside_domain(self):
        with pytest.raises(DomainEscape):
            isdrift.ghs_drift(asian_payoff(), np.full(4, -5.0))


class TestMuIsEstimator:
    def test_zero_shift_is_naive_bitwise(self):
        payoff = asian_payoff()
        a = isdrift.mu_is_estimator(payoff, np.zeros(4), 30_000, seed=2)
        b = isdrift.mu_is_estimator(payoff, [0.0, 0.0, 0.0, 0.0], 30_000, seed=2)
        assert a == b

    def test_linear_payoff_zero_variance(self):
        c = np.array([0.5, -0.25])
        res = isdrift.mu_is_estimator(isdrift.linear_payoff(c), c, 5_000, seed=3)
        expected = math.exp(0.5 * float(c @ c))
        assert res.mean == pytest.approx(expected, rel=1e-12)
        assert res.variance <= 1e-12 * expected**2

    def test_unbiased_for_any_shift(self):
        # 1-d payoff with closed-form expectation E exp(cZ) = exp(c^2/2)
        c = np.array([0.8])
        payoff = isdrift.linear_payoff(c)
        exact = math.exp(0.32)
        mu_hat = isdrift.ghs_drift(payoff, np.zeros(1)).mu
        for i, mu in enumerate((-1.0, 0.0, 1.0, float(mu_hat[0]))):
            res = isdrift.mu_is_estimator(payoff, [mu], 400_000, seed=50 + i)
            # the zero-variance shift needs an absolute floor at rounding scale
            assert abs(res.mean - exact) < max(4.0 * res.std_error, 1e-12)

    def test_asian_variance_reduction(self):
        payoff = asian_payoff()
        mu = isdrift.ghs_drift(payoff, np.full(4, 2.0)).mu
        tuned = isdrift.mu_is_estimator(payoff, mu, 100_000, seed=11)
        naive = isdrift.mu_is_estimator(payoff, np.zeros(4), 1_000_000, seed=12)
        joint = math.hypot(tuned.std_error, naive.std_error)
        assert abs(tuned.mean - naive.mean) < 4.0 * joint
        naive_matched = isdrift.mu_is_estimator(payoff, np.zeros(4), 100_000, seed=11)
        assert tuned.variance < naive_matched.variance

    def test_second_moment_minimized_near_fixed_point(self):
        payoff = asian_payoff()
        mu = isdrift.ghs_drift(payoff, np.full(4, 2.0)).mu
        scales = [0.0, 0.5, 0.8, 1.0, 1.2, 1.6]
        second_moments = [
            isdrift.mu_is_estimator(payoff, s * mu, 200_000, seed=13).second_moment
            for s in scales
        ]
        best = scales[int(np.argmin(second_moments))]
        assert best in (0.8, 1.0, 1.2)
        assert second_moments[scales.index(1.0)] < second_moments[0]


def _coverage(results, truth):
    """Shares of runs whose +-1.96 SE interval lies below and above the truth,
    and the mean reported SE over the empirical SD of the means."""
    means = np.array([r.mean for r in results])
    errors = np.array([r.std_error for r in results])
    z = (means - truth) / errors
    return float(np.mean(z > 1.96)), float(np.mean(z < -1.96)), float(errors.mean() / means.std(ddof=1))


class TestStratifiedMuIsEstimator:
    def test_asian_variance_far_below_plain(self):
        payoff = asian_payoff()
        mu = isdrift.ghs_drift(payoff, np.full(4, 2.0)).mu
        plain = isdrift.mu_is_estimator(payoff, mu, 100_000, seed=21)
        stratified = isdrift.stratified_mu_is_estimator(payoff, mu, 100_000, seed=22)
        assert abs(stratified.mean - plain.mean) < 4.0 * math.hypot(stratified.std_error, plain.std_error)
        assert stratified.variance < plain.variance / 25.0
        assert stratified.variance == pytest.approx(stratified.n * stratified.std_error**2, rel=1e-12)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_thread_count_invariance(self, threads):
        payoff = asian_payoff()
        mu = isdrift.ghs_drift(payoff, np.full(4, 2.0)).mu
        n = 2 * mc.BATCH_SIZE + 37
        serial = isdrift.stratified_mu_is_estimator(payoff, mu, n, seed=4)
        assert isdrift.stratified_mu_is_estimator(payoff, mu, n, seed=4, threads=threads) == serial

    @pytest.mark.parametrize("n", [2, 3, mc.BATCH_SIZE + 37])
    def test_any_replication_count_runs(self, n):
        payoff = asian_payoff()
        mu = isdrift.ghs_drift(payoff, np.full(4, 2.0)).mu
        res = isdrift.stratified_mu_is_estimator(payoff, mu, n, seed=5)
        assert res.n == n
        assert all(math.isfinite(value) for value in (res.mean, res.std_error, res.variance))

    @pytest.mark.parametrize("c", [[0.5, -0.25], [-0.7, 0.2, 0.4], [0.0, 0.9]])
    def test_linear_payoff_zero_variance(self, c):
        # Z = c + xi u + w with w orthogonal to u = c/|c|: c'Z - |c| xi is |c|^2
        c = np.array(c)
        res = isdrift.stratified_mu_is_estimator(isdrift.linear_payoff(c), c, 5_000, seed=3)
        expected = math.exp(0.5 * float(c @ c))
        assert res.mean == pytest.approx(expected, rel=1e-12)
        assert res.variance <= 1e-12 * expected**2

    @pytest.mark.parametrize("mu", [[0.0, 0.0], [math.inf, 0.0], [math.nan, 1.0]])
    def test_needs_a_finite_direction(self, mu):
        with pytest.raises(ValueError):
            isdrift.stratified_mu_is_estimator(isdrift.linear_payoff([0.6, -0.3]), mu, 100, seed=6)

    def test_error_bar_covers_a_linear_payoff(self):
        # mu not parallel to c leaves variance across and within the strata
        c, mu = np.array([0.3, -0.2, 0.5]), np.array([0.5, 0.1, 0.2])
        payoff = isdrift.linear_payoff(c)
        runs = [isdrift.stratified_mu_is_estimator(payoff, mu, 4_096, seed=seed) for seed in range(2_000)]
        high, low, se_over_sd = _coverage(runs, math.exp(0.5 * float(c @ c)))
        assert abs(1.0 - high - low - 0.95) <= 0.03
        assert high <= 0.04 and low <= 0.04
        assert abs(se_over_sd - 1.0) <= 0.1

    def test_error_bar_covers_the_asian_call(self):
        payoff = asian_payoff()
        mu = isdrift.ghs_drift(payoff, np.full(4, 2.0)).mu
        runs = [isdrift.stratified_mu_is_estimator(payoff, mu, 4_096, seed=seed) for seed in range(2_000)]
        high, low, se_over_sd = _coverage(runs, asian_call_conditional_gh(4, 50.0, 70.0, 0.3, 1.0))
        assert abs(1.0 - high - low - 0.95) <= 0.03
        assert high <= 0.04 and low <= 0.04
        assert abs(se_over_sd - 1.0) <= 0.1


class TestScaledSecondMoment:
    def test_optimal_shift_hits_varadhan_limit(self):
        c = np.array([0.5, 0.5])
        payoff = isdrift.linear_payoff(c)
        limit = isdrift.varadhan_limit_linear(c, c)
        assert limit == pytest.approx(float(c @ c), abs=1e-15)
        fit = isdrift.scaled_second_moment_rate(payoff, c, [1.0, 0.5, 0.25, 0.125], 200_000, seed=31)
        assert fit.slope == pytest.approx(limit, rel=0.15)

    def test_zero_shift_detectably_suboptimal(self):
        c = np.array([0.5, 0.5])
        payoff = isdrift.linear_payoff(c)
        limit = isdrift.varadhan_limit_linear(c, np.zeros(2))
        assert limit == pytest.approx(2.0 * float(c @ c), abs=1e-15)
        fit = isdrift.scaled_second_moment_rate(payoff, np.zeros(2), [1.0, 0.5, 0.25, 0.125], 200_000, seed=32)
        assert fit.slope == pytest.approx(limit, rel=0.15)
        assert fit.slope > isdrift.varadhan_limit_linear(c, c) * 1.5

    def test_zero_rung_dropped_with_warning(self):
        # at mu = c the second moment is exp(-799.5/eps) exactly, which
        # underflows to 0 at eps = 1 and is representable at the other rungs
        payoff = shifted_linear_payoff([0.5, 0.5], -400.0)
        with pytest.warns(UserWarning, match="dropped 1 zero-hit"):
            fit = isdrift.scaled_second_moment_rate(payoff, [0.5, 0.5], [8.0, 4.0, 2.0, 1.0], 1_000, seed=3)
        assert mc.zero_hit_rungs([8.0, 4.0, 2.0, 1.0], fit.results) == [1.0]
        assert [s for s, _ in fit.points] == [0.125, 0.25, 0.5]
        assert fit.slope == pytest.approx(-799.5, rel=1e-9)

    def test_growth_condition_diagnostic(self):
        # log-payoff growing like 0.3 z'z breaks the c2 < 1/4 requirement
        hot = isdrift.PathPayoff(
            dim=2,
            evaluate=lambda z: math.exp(0.3 * float(z @ z)),
            gradient=lambda z: 0.6 * np.asarray(z, dtype=float),
            growth_c2=0.3,
        )
        with pytest.raises(MomentConditionViolated):
            isdrift.scaled_second_moment_rate(hot, np.zeros(2), [1.0, 0.5, 0.25], 100, seed=0)


class TestFwClosedForms:
    def test_drift_at_barrier(self):
        assert isdrift.fw_drift_bs(0.0, math.log(100.0), math.log(100.0), 0.2, 1.0) == 0.0

    def test_drift_value(self):
        value = isdrift.fw_drift_bs(0.0, math.log(80.0), math.log(100.0), 0.2, 1.0)
        assert value == pytest.approx(math.log(0.8) / 0.2, abs=1e-9)
        assert value == pytest.approx(-1.11572, abs=1e-5)

    def test_drift_time_scaling(self):
        half = isdrift.fw_drift_bs(0.5, math.log(80.0), math.log(100.0), 0.2, 1.0)
        full = isdrift.fw_drift_bs(0.0, math.log(80.0), math.log(100.0), 0.2, 1.0)
        assert half == pytest.approx(2.0 * full, rel=1e-12)

    def test_at_maturity(self):
        with pytest.raises(AtMaturity):
            isdrift.fw_drift_bs(1.0, math.log(80.0), math.log(100.0), 0.2, 1.0)


class TestUpInBond:
    S0, BARRIER, SIGMA, MATURITY = 50.0, 150.0, 0.2, 0.25

    def test_naive_gets_no_hits_deep_otm(self):
        res = isdrift.price_up_in_bond(
            self.S0, self.BARRIER, self.SIGMA, self.MATURITY, 128, 100_000, seed=7,
            use_fw_drift=False,
        )
        assert res.mean == 0.0

    def test_fw_drift_matches_reflection_oracle(self):
        exact = drifted_bm_max_crossing(
            math.log(self.BARRIER / self.S0), -0.5 * self.SIGMA**2, self.SIGMA, self.MATURITY
        )
        res = isdrift.price_up_in_bond(
            self.S0, self.BARRIER, self.SIGMA, self.MATURITY, 256, 100_000, seed=8,
        )
        assert abs(res.mean - exact) < 4.0 * res.std_error
        assert res.relative_error < 0.02

    @pytest.mark.parametrize("s0", [50.0, 70.0])
    def test_variance_below_naive_when_estimable(self, s0):
        # moderate barrier so the naive estimator has hits at matched N
        barrier, sigma, maturity = 100.0, 0.4, 1.0
        fw = isdrift.price_up_in_bond(s0, barrier, sigma, maturity, 64, 100_000, seed=9)
        naive = isdrift.price_up_in_bond(s0, barrier, sigma, maturity, 64, 100_000, seed=9, use_fw_drift=False)
        assert fw.relative_error < naive.relative_error
        joint = math.hypot(fw.std_error, naive.std_error)
        assert abs(fw.mean - naive.mean) < 4.0 * joint

    def test_likelihood_is_a_martingale(self):
        # bounded drift: capped feedback toward the barrier
        def phi(t, prices):
            raw = np.log(prices / 100.0) / (0.4 * (1.0 - t))
            return np.clip(raw, -2.0, 2.0)

        res = likelihood_mean(70.0, 0.4, 1.0, 64, 1_000_000, seed=10, phi_fn=phi)
        assert abs(res.mean - 1.0) < 4.0 * res.std_error

    def test_bridge_hits_match_inline_crossing_law(self):
        # the sampler before it shared the bridge kernel, with the crossing
        # law written out per step: each step adds the chance that its bridge
        # is the first to touch, times the likelihood after the step
        s0, barrier, sigma, maturity, steps = 80.0, 100.0, 0.4, 1.0, 32
        dt, sqrt_dt = maturity / steps, math.sqrt(maturity / steps)
        log_barrier, base_drift = math.log(barrier), -0.5 * sigma * sigma

        def inline_sampler(ss, size):
            rng = np.random.default_rng(ss.spawn(1)[0])
            log_s = np.full(size, math.log(s0))
            log_weight = np.zeros(size)
            hit = log_s >= log_barrier
            survival, value = np.ones(size), np.zeros(size)
            for i in range(steps):
                phi = np.where(hit | (log_s >= log_barrier), 0.0,
                               (log_s - log_barrier) / (sigma * (maturity - i * dt)))
                gauss = rng.normal(size=size)
                log_next = log_s + (base_drift - sigma * phi) * dt + sigma * sqrt_dt * gauss
                log_weight += phi * sqrt_dt * gauss - 0.5 * phi * phi * dt
                hit |= log_next >= log_barrier
                gaps = np.maximum(log_barrier - log_s, 0.0) * np.maximum(log_barrier - log_next, 0.0)
                expo = -2.0 * gaps / (sigma * sigma * dt)
                term = expo + log_weight
                value += survival * np.where(term > -700.0, np.exp(np.maximum(term, -700.0)), 0.0)
                survival *= -np.expm1(expo)
                log_s = log_next
            return value

        expected = mc.run_replications(inline_sampler, 20_000, seed=12)
        got = isdrift.price_up_in_bond(s0, barrier, sigma, maturity, steps, 20_000, seed=12)
        assert got == expected

    def test_bridge_law_needs_a_positive_step_variance(self):
        # sigma^2 dt underflows to 0: the crossing exponent would be 0/0
        with pytest.raises(ValueError, match="sigma"):
            isdrift.price_up_in_bond(80.0, 100.0, 1e-170, 1.0, 4, 100, seed=1)

    def test_grid_max_mode_underestimates(self):
        # without bridge hits the discrete maximum misses excursions
        exact = drifted_bm_max_crossing(
            math.log(self.BARRIER / self.S0), -0.5 * self.SIGMA**2, self.SIGMA, self.MATURITY
        )
        res = isdrift.price_up_in_bond(
            self.S0, self.BARRIER, self.SIGMA, self.MATURITY, 256, 100_000, seed=11,
            bridge_hits=False,
        )
        assert res.mean < exact
        assert exact - res.mean > 6.0 * res.std_error


def _committed_fw_bond():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "fw-bond.json")) as handle:
        doc = json.load(handle)
    return doc["s0"], doc["barrier"], doc["sigma"], doc["maturity"], doc["steps"], doc["seed"]


def _up_in_coin_flip_and_weight(s0, barrier, sigma, maturity, steps):
    """Rows (coin flip, conditional weight, their difference) on one path stream.

    The coin flip is the up-in sampler before conditional Monte Carlo: a
    second stream draws one uniform per path and step, a uniform below the
    bridge probability p_i is a hit, and the sample is the likelihood at the
    first hit.  That sampler froze the drift after a hit, but the weight was
    frozen too, so following the no-hit path here gives the same samples.
    The conditional row is sum_i S_{i-1} p_i L_i on the same path.
    """
    dt, sqrt_dt = maturity / steps, math.sqrt(maturity / steps)
    log_barrier = math.log(barrier)

    def sampler(ss, size):
        path_ss, hit_ss = ss.spawn(2)
        rng = np.random.default_rng(path_ss)
        hit_rng = np.random.default_rng(hit_ss)
        log_s = np.full(size, math.log(s0))
        log_weight = np.zeros(size)
        grid_hit = np.zeros(size, dtype=bool)
        coin_hit, coin = np.zeros(size, dtype=bool), np.zeros(size)
        survival, weighted = np.ones(size), np.zeros(size)
        for i in range(steps):
            phi = np.where(grid_hit | (log_s >= log_barrier), 0.0,
                           isdrift.fw_drift_bs(i * dt, log_s, log_barrier, sigma, maturity))
            gauss = rng.standard_normal(size)
            log_next = log_s + (-0.5 * sigma * sigma - sigma * phi) * dt + sigma * sqrt_dt * gauss
            log_weight += phi * sqrt_dt * gauss - 0.5 * phi * phi * dt
            grid_hit |= log_next >= log_barrier
            expo = -2.0 * np.maximum(log_barrier - log_s, 0.0) * np.maximum(log_barrier - log_next, 0.0) / (
                sigma * sigma * dt)
            first = ~coin_hit & (hit_rng.random(size) < np.exp(expo))
            coin = np.where(first, np.exp(log_weight), coin)
            coin_hit |= first
            term = expo + log_weight
            weighted += survival * np.where(term > -700.0, np.exp(np.maximum(term, -700.0)), 0.0)
            survival *= -np.expm1(expo)
            log_s = log_next
        return np.stack([coin, weighted, coin - weighted])

    return sampler


def test_conditional_weight_agrees_with_the_coin_flip_on_the_committed_fw_bond():
    # the committed config at 100k paths: within 4 paired SE of the coin
    # flip, and no larger SE, since it averages the flip over its uniforms
    s0, barrier, sigma, maturity, steps, seed = _committed_fw_bond()
    coin, weighted, diff = mc.run_replications(
        _up_in_coin_flip_and_weight(s0, barrier, sigma, maturity, steps), 100_000, seed)
    assert weighted == isdrift.price_up_in_bond(s0, barrier, sigma, maturity, steps, 100_000, seed)
    assert abs(diff.mean) < 4.0 * diff.std_error
    assert weighted.std_error <= coin.std_error


def test_committed_fw_bond_matches_the_touch_oracle():
    # the log step and the bridge law are exact, so the estimator is unbiased
    # for the touch probability.  A floor on p_i, such as exp(-40) = 4e-18,
    # would add about that much on every early step, where the likelihood is
    # still near 1, and lift the mean from 2.6e-28 to order 1e-16
    s0, barrier, sigma, maturity, steps, seed = _committed_fw_bond()
    res = isdrift.price_up_in_bond(s0, barrier, sigma, maturity, steps, 20_000, seed)
    exact = oracles.up_in_bond_probability(s0, barrier, sigma, maturity)
    assert abs(res.mean - exact) < 4.0 * res.std_error
