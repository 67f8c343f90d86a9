import math

import mpmath
import numpy as np
import pytest

from rareflow import cramer, mc, oracles, tilt
from rareflow.cramer import EmpiricalMeanProblem
from rareflow.errors import DomainError
from rareflow.tilt import Bernoulli, Exponential, Normal, Poisson

from oracles import bernoulli_sum_enumeration, binomial_tail_sum, phi_bar


class TestNaiveTail:
    def test_certain_event(self):
        problem = EmpiricalMeanProblem(Bernoulli(0.3), 7, 0.0)
        res = cramer.is_tail(problem, 0.0, 1000, seed=0)
        assert res.mean == 1.0

    def test_binomial_oracle(self):
        problem = EmpiricalMeanProblem(Bernoulli(0.25), 10, 0.5)
        exact = binomial_tail_sum(10, 0.25, 5)
        assert exact == pytest.approx(0.0781269, abs=1e-7)
        res = cramer.is_tail(problem, 0.0, 1_000_000, seed=11)
        assert abs(res.mean - exact) < 4.0 * res.std_error

    def test_normal_oracle(self):
        problem = EmpiricalMeanProblem(Normal(0.0, 1.0), 4, 1.0)
        exact = float(phi_bar(2.0))  # S_n/n ~ N(0, 1/4)
        res = cramer.is_tail(problem, 0.0, 1_000_000, seed=5)
        assert abs(res.mean - exact) < 4.0 * res.std_error


class TestIsTail:
    @pytest.mark.parametrize("family, n, x", [
        (Bernoulli(0.25), 10, 0.5),
        (Poisson(1.3), 5, 2.0),
        (Normal(0.0, 1.0), 4, 1.0),
        (Exponential(1.0), 5, 1.8),
    ], ids=["Bernoulli", "Poisson", "Normal", "Exponential"])
    def test_zero_tilt_equals_naive_bitwise(self, family, n, x):
        # the plain Monte Carlo sampler, written out: the indicator of the
        # sum threshold on draws from the untilted law
        problem = EmpiricalMeanProblem(family, n, x)
        threshold = cramer._sum_threshold(problem)

        def naive_sampler(ss, size):
            sums = family.sample_sum(np.random.default_rng(ss), n, size)
            return (sums >= threshold).astype(float)

        naive = mc.run_replications(naive_sampler, 50_000, seed=3)
        tilted = cramer.is_tail(problem, 0.0, 50_000, seed=3)
        assert naive == tilted

    def test_bernoulli_saddle_matches_oracle(self):
        problem = EmpiricalMeanProblem(Bernoulli(0.25), 10, 0.5)
        theta = tilt.saddle_theta(problem.family, problem.x)
        assert theta == pytest.approx(math.log(3.0), abs=1e-12)
        res = cramer.is_tail(problem, theta, 100_000, seed=21)
        exact = binomial_tail_sum(10, 0.25, 5)
        assert abs(res.mean - exact) < 4.0 * res.std_error
        # variance reduction is the point: much tighter than naive at same N
        naive = cramer.is_tail(problem, 0.0, 100_000, seed=21)
        assert res.std_error < 0.5 * naive.std_error

    def test_deep_gaussian_tail(self):
        problem = EmpiricalMeanProblem(Normal(0.0, 1.0), 25, 1.0)
        exact = float(phi_bar(5.0))
        res = cramer.is_tail(problem, 1.0, 100_000, seed=17)
        assert abs(res.mean - exact) < 4.0 * res.std_error
        # the motivating failure: naive gets no hits at this N and seed
        naive = cramer.is_tail(problem, 0.0, 100_000, seed=17)
        assert naive.mean == 0.0

    def test_negative_theta_rejected(self):
        problem = EmpiricalMeanProblem(Bernoulli(0.25), 10, 0.5)
        with pytest.raises(DomainError):
            cramer.is_tail(problem, -0.5, 100, seed=0)

    def test_pointwise_chebyshev_bound(self):
        # every sample value respects exp(-n (theta x - cgf(theta)))
        problem = EmpiricalMeanProblem(Bernoulli(0.25), 12, 0.5)
        theta = tilt.saddle_theta(problem.family, problem.x)
        family = Bernoulli(0.25).tilted(theta)
        rng = np.random.default_rng(0)
        sums = family.sample_sum(rng, 12, 200_000)
        log_norm = 12 * Bernoulli(0.25).cgf(theta)
        values = np.where(sums >= 6, np.exp(-theta * sums + log_norm), 0.0)
        bound = math.exp(-12 * (theta * 0.5 - Bernoulli(0.25).cgf(theta)))
        assert np.all(values <= bound * (1.0 + 1e-12))


class TestEnumerationUnbiasedness:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_is_estimator_exactly_unbiased(self, n):
        # expectation of the tilted estimator over the full lattice equals the
        # exact binomial tail to 1e-12
        p, x = 0.25, 0.5
        family = Bernoulli(p)
        theta = tilt.saddle_theta(family, x)
        p_t = family.tilted(theta).p
        log_norm = n * family.cgf(theta)
        k_min = int(cramer.lattice_threshold(n, x))
        expectation = sum(
            math.comb(n, k) * p_t**k * (1.0 - p_t) ** (n - k) * math.exp(-theta * k + log_norm)
            for k in range(k_min, n + 1)
        )
        exact = binomial_tail_sum(n, p, k_min)
        assert expectation == pytest.approx(exact, abs=1e-12)

    def test_full_outcome_enumeration_n10(self):
        # brute force over all 2^10 outcomes, no binomial shortcuts
        n, p, x = 10, 0.25, 0.5
        family = Bernoulli(p)
        theta = tilt.saddle_theta(family, x)
        p_t = family.tilted(theta).p
        log_norm = n * family.cgf(theta)
        k_min = int(cramer.lattice_threshold(n, x))

        def outcome_value(mask, ones):
            prob_tilted = p_t**ones * (1.0 - p_t) ** (n - ones)
            estimator = math.exp(-theta * ones + log_norm) if ones >= k_min else 0.0
            return prob_tilted * estimator

        expectation = bernoulli_sum_enumeration(n, outcome_value)
        exact = binomial_tail_sum(n, p, k_min)
        assert expectation == pytest.approx(exact, abs=1e-12)


class TestVerifyRate:
    def test_bernoulli_rate(self):
        fit = cramer.verify_rate(Bernoulli(0.25), 0.5, [25, 50, 100, 200], 40_000, seed=2,
                                 theta=tilt.saddle_theta(Bernoulli(0.25), 0.5))
        target = -tilt.legendre(Bernoulli(0.25), 0.5).rate
        assert target == pytest.approx(-0.14384103622589042, abs=1e-12)
        assert fit.slope == pytest.approx(target, rel=0.15)

    def test_normal_rate(self):
        fit = cramer.verify_rate(Normal(0.0, 1.0), 1.0, [10, 20, 40, 80], 40_000, seed=4,
                                 theta=tilt.saddle_theta(Normal(0.0, 1.0), 1.0))
        assert fit.slope == pytest.approx(-0.5, rel=0.10)

    def test_flat_at_the_mean(self):
        fit = cramer.verify_rate(Normal(0.0, 1.0), 0.0, [10, 20, 40, 80], 100_000, seed=6, theta=0.0)
        assert abs(fit.slope) < 0.01


class TestChebyshevCheck:
    def test_a_draw_at_the_threshold_is_admitted(self, draws_at_bound):
        # n*x = 3 is a lattice site: a sum of exactly 3 has a log-weight
        # equal to its bound, to the bit
        problem = EmpiricalMeanProblem(Bernoulli(0.25), 10, 0.3)
        res = cramer.is_tail(problem, tilt.saddle_theta(problem.family, problem.x), N=20_000, seed=2)
        assert draws_at_bound == [True, True]
        assert abs(res.mean - binomial_tail_sum(10, 0.25, 3)) < 4.0 * res.std_error

    def test_lattice_level_just_above_an_integer(self):
        # n*x = 3 + 1e-10 rounds down to the lattice site 3, which the bound
        # must then admit
        problem = EmpiricalMeanProblem(Bernoulli(0.25), 10, 0.3 + 1e-11)
        res = cramer.is_tail(problem, tilt.saddle_theta(problem.family, problem.x), N=20_000, seed=2)
        exact = binomial_tail_sum(10, 0.25, 3)
        assert abs(res.mean - exact) < 4.0 * res.std_error


class TestOptimalityCertificate:
    def test_exact_ladders_certify_optimal_tilt(self):
        gamma_star = tilt.legendre(Bernoulli(0.25), 0.5).rate
        m2_fit, p_fit = cramer.bernoulli_optimality_ladders(0.25, 0.5, [25, 50, 100, 200])
        gap = mc.optimality_gap(m2_fit, p_fit)
        assert abs(gap) <= 0.05 * gamma_star

    def test_suboptimal_tilt_has_larger_gap(self):
        theta_opt = tilt.saddle_theta(Bernoulli(0.25), 0.5)
        ladder = [25, 50, 100, 200]
        m2_o, p_o = cramer.bernoulli_optimality_ladders(0.25, 0.5, ladder)
        m2_s = mc.fit_decay([(float(n), math.log(cramer.bernoulli_is_second_moment(n, 0.25, 0.5, 0.5 * theta_opt)))
                             for n in ladder])
        p_s = mc.fit_decay([(float(n), math.log(oracles.binomial_tail(n, 0.25, int(cramer.lattice_threshold(n, 0.5)))))
                            for n in ladder])
        gap_opt = abs(mc.optimality_gap(m2_o, p_o))
        gap_sub = abs(mc.optimality_gap(m2_s, p_s))
        assert gap_sub > 4.0 * gap_opt

    def test_second_moment_past_the_old_overflow(self):
        # n = 2000 overflowed math.comb(n, k) * p**k; compare the log-space sum
        n, p, x = 2000, 0.25, 0.5
        theta = tilt.saddle_theta(Bernoulli(p), x)
        gamma = Bernoulli(p).cgf(theta)
        p_t = Bernoulli(p).tilted(theta).p
        with mpmath.workdps(50):
            exact = float(mpmath.fsum(
                mpmath.binomial(n, k) * mpmath.mpf(p_t) ** k * (1 - mpmath.mpf(p_t)) ** (n - k)
                * mpmath.exp(-2 * mpmath.mpf(theta) * k + 2 * n * mpmath.mpf(gamma))
                for k in range(1000, n + 1)
            ))
        assert cramer.bernoulli_is_second_moment(n, p, x, theta) == pytest.approx(exact, rel=1e-10)

    def test_measured_second_moment_decay(self):
        # MC second-moment slope ~ 2x probability slope at the saddle tilt
        family = Bernoulli(0.25)
        gamma_star = tilt.legendre(family, 0.5).rate
        ladder = [25, 50, 100, 200]
        theta = tilt.saddle_theta(family, 0.5)
        m2_points, p_points = [], []
        for i, n in enumerate(ladder):
            problem = EmpiricalMeanProblem(family, n, 0.5)
            res = cramer.is_tail(problem, theta, 100_000, seed=100 + i)
            p_points.append((float(n), res.log_mean))
            m2_points.append((float(n), math.log(res.second_moment)))
        gap = mc.optimality_gap(mc.fit_decay(m2_points), mc.fit_decay(p_points))
        assert abs(gap) <= 0.05 * gamma_star
