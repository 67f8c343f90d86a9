import math

import mpmath
import pytest

from rareflow import oracles

from oracles import asian_call_conditional_gh, credit_tail_beta_order, up_out_call_reflection_quad


def binomial_tail_mpmath(n, p, k_min):
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        return float(mpmath.fsum(mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k) for k in range(k_min, n + 1)))


class TestBinomialTail:
    @pytest.mark.parametrize("n, p, k_min", [
        (2000, 0.25, 1000),   # ~3e-127, far past the old overflow at n ~ 1030
        (2000, 0.4, 1000),
        (2000, 0.1, 150),     # near 1: the tail holds the mode
        (5000, 0.25, 1700),   # ~5e-46
        (5000, 0.5, 2600),
        (5000, 0.3, 1400),
    ])
    def test_large_n_against_mpmath(self, n, p, k_min):
        exact = binomial_tail_mpmath(n, p, k_min)
        assert oracles.binomial_tail(n, p, k_min) == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_small_n_matches_direct_sum(self):
        direct = sum(math.comb(25, k) * 0.25**k * 0.75 ** (25 - k) for k in range(13, 26))
        assert oracles.binomial_tail(25, 0.25, 13) == pytest.approx(direct, rel=1e-14)

    def test_edges(self):
        assert oracles.binomial_tail(10, 0.3, 0) == 1.0
        assert oracles.binomial_tail(10, 0.3, 11) == 0.0
        assert oracles.binomial_tail(10, 0.3, 10) == pytest.approx(0.3**10, rel=1e-13)


class TestGammaTails:
    """The Poisson and Gamma sum tails, against mpmath's incomplete gamma function at 50 digits."""

    @pytest.mark.parametrize("mean, k_min", [(20.0, 40), (20.0, 20), (2000.0, 4000), (1e-3, 5), (3.5, 1)])
    def test_poisson_against_mpmath(self, mean, k_min):
        with mpmath.workdps(50):
            exact = float(mpmath.gammainc(k_min, 0, mean, regularized=True))
        assert oracles.poisson_tail(mean, k_min) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lam, n, x", [(1.0, 10, 2.0), (1.0, 40, 2.0), (2.5, 2000, 1.0), (0.3, 1, 50.0)])
    def test_exponential_against_mpmath(self, lam, n, x):
        with mpmath.workdps(50):
            exact = float(mpmath.gammainc(n, lam * (n * x), mpmath.inf, regularized=True))
        assert oracles.exponential_mean_tail(lam, n, x) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_edges(self):
        assert oracles.poisson_tail(2.0, 0) == oracles.poisson_tail(2.0, -3) == 1.0
        assert oracles.exponential_mean_tail(1.0, 5, 0.0) == oracles.exponential_mean_tail(1.0, 5, -1.0) == 1.0
        assert oracles.exponential_mean_tail(1.3, 1, 2.0) == pytest.approx(math.exp(-2.6), rel=1e-15)


class TestCreditTailQuadrature:
    @pytest.mark.parametrize("rho", [1e-12, 1e-9, 1e-6])
    def test_small_loading_tends_to_the_independent_tail(self, rho):
        # z_n ~ 1.28 / rho is far out; the quadrature window must still
        # cover the bump near 0, where the rho = 0 binomial tail sits
        independent = binomial_tail_mpmath(20, 0.1, 10)
        assert oracles.credit_tail_quadrature(20, 0.1, rho, 0.5) == pytest.approx(independent, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n, p, rho, q", [
        # adaptive quadrature missed these by 8.2e-4, 1.4e-7 and 6.0e-9 relative
        (100_000, 0.4, 0.9, 0.28),
        (10_000, 0.4, 0.99, 0.05),
        (10_000, 0.01, 0.99, 0.28),
        # the committed cells: configs/credit.json and the credit-ladder schedule
        (20, 0.1, 0.4, 0.5),
        (100, 0.4, 0.7071067811865476, 1.0 - 0.5 / 100),
        (1000, 0.4, 0.7071067811865476, 1.0 - 0.5 / 1000),
        (10_000, 0.4, 0.7071067811865476, 1.0 - 0.5 / 10_000),
    ])
    def test_against_the_order_statistic_route(self, n, p, rho, q):
        reference = credit_tail_beta_order(n, p, rho, q)
        assert oracles.credit_tail_quadrature(n, p, rho, q) == pytest.approx(reference, rel=1e-11, abs=0.0)


def up_out_call_mpmath(s0, strike, barrier, rate, sigma, maturity):
    """Reiner-Rubinstein up-and-out call (strike below the barrier), A - B + C - D, at 50 digits."""
    with mpmath.workdps(50):
        s0, k, h, r, sig, t = map(mpmath.mpf, (s0, strike, barrier, rate, sigma, maturity))
        st = sig * mpmath.sqrt(t)
        lam = (r + sig * sig / 2) / (sig * sig)
        discount = mpmath.exp(-r * t)
        x1 = mpmath.log(s0 / k) / st + lam * st
        x2 = mpmath.log(s0 / h) / st + lam * st
        y1 = mpmath.log(h * h / (s0 * k)) / st + lam * st
        y2 = mpmath.log(h / s0) / st + lam * st
        up = (h / s0) ** (2 * lam)

        def vanilla_piece(x):
            return s0 * mpmath.ncdf(x) - k * discount * mpmath.ncdf(x - st)

        def image_piece(y):
            return s0 * up * mpmath.ncdf(-y) - k * discount * up * (s0 / h) ** 2 * mpmath.ncdf(st - y)

        return float(vanilla_piece(x1) - vanilla_piece(x2) + image_piece(y1) - image_piece(y2))


class TestUpOutCallPrice:
    @pytest.mark.parametrize("args", [
        (100.0, 90.0, 150.0, 0.05, 0.5, 1.0),     # configs/barrier-bias-order.json
        (100.0, 90.0, 150.0, 0.05, 0.005, 1.0),   # exp(2 mu b / sigma^2) overflowed here
        (100.0, 90.0, 150.0, -0.05, 0.005, 1.0),
        (100.0, 90.0, 104.0, 0.05, 0.001, 1.0),   # the forward passes the barrier: ~2.5e-26
        (1.0, 1.0, 1.3, 0.05, 0.2, 1.0),
        (100.0, 110.0, 120.0, 0.05, 0.2, 1.0),
        (100.0, 50.0, 101.0, 0.1, 0.3, 0.5),
        (100.0, 90.0, 150.0, 2.0, 0.3, 1.0),
    ])
    def test_against_a_50_digit_closed_form(self, args):
        assert oracles.up_out_call_price(*args) == pytest.approx(up_out_call_mpmath(*args), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("strike", [60.0, 100.0, 130.0])
    @pytest.mark.parametrize("rate", [-0.05, 0.0, 0.05, 0.2])
    @pytest.mark.parametrize("sigma", [0.05, 0.2, 0.5, 1.0])
    def test_against_the_reflection_quadrature(self, strike, rate, sigma):
        args = (100.0, strike, 150.0, rate, sigma, 1.0)
        reference = up_out_call_reflection_quad(*args)
        assert oracles.up_out_call_price(*args) == pytest.approx(reference, rel=1e-9, abs=0.0)

    def test_worthless_at_or_past_the_barrier(self):
        assert oracles.up_out_call_price(150.0, 90.0, 150.0, 0.05, 0.5, 1.0) == 0.0
        assert oracles.up_out_call_price(100.0, 150.0, 150.0, 0.05, 0.5, 1.0) == 0.0

    @pytest.mark.parametrize("strike", [0.0, -1.0])
    def test_needs_a_positive_strike(self, strike):
        with pytest.raises(ValueError, match="strike"):
            oracles.up_out_call_price(100.0, strike, 150.0, 0.05, 0.5, 1.0)


class TestUpInBondProbability:
    def test_holds_at_a_vanishing_volatility(self):
        # exp(2 nu a / sigma^2) divided by sigma^2 = 0 here; the factor is s0 / barrier
        assert oracles.up_in_bond_probability(50.0, 150.0, 1e-170, 0.25) == 0.0
        assert oracles.up_in_bond_probability(50.0, 150.0, 0.2, 0.25) == pytest.approx(
            float(mpmath.ncdf(-(mpmath.log(3) + 0.005) / 0.1) + mpmath.ncdf(-(mpmath.log(3) - 0.005) / 0.1) / 3),
            rel=1e-12)


class TestAsianCallReference:
    @pytest.mark.parametrize("strike, value", [(70.0, 0.27650025762398), (100.0, 2.1256108027e-3)])
    def test_known_values(self, strike, value):
        assert asian_call_conditional_gh(4, 50.0, strike, 0.3, 1.0) == pytest.approx(value, rel=1e-10)

    @pytest.mark.parametrize("strike", [70.0, 100.0])
    def test_rule_has_converged(self, strike):
        coarse, fine = (asian_call_conditional_gh(4, 50.0, strike, 0.3, 1.0, nodes=k) for k in (64, 96))
        assert coarse == pytest.approx(fine, rel=1e-12)

    def test_one_step_is_the_black_scholes_call(self):
        vol = 0.3
        d1 = (math.log(50.0 / 45.0) + 0.5 * vol * vol) / vol
        call = 50.0 * mpmath.ncdf(d1) - 45.0 * mpmath.ncdf(d1 - vol)
        assert asian_call_conditional_gh(1, 50.0, 45.0, vol, 1.0) == pytest.approx(float(call), rel=1e-13)
