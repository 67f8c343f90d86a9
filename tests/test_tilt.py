import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from rareflow import credit, longterm, ruin, tilt
from rareflow.errors import DomainError, NotAttained
from rareflow.ruin import Investment, RuinModel
from rareflow.tilt import Bernoulli, ClaimStep, Exponential, Normal, Poisson

from oracles import cgf_by_quadrature, legendre_by_grid

FAMILIES = [
    Bernoulli(0.3),
    Poisson(1.7),
    Normal(0.4, 2.25),
    Exponential(1.3),
    ClaimStep(Exponential(1.0), 2.0, 1.0),
]


def finite_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def interior_grid(family, count=9):
    lo, hi = family.cgf_domain
    lo = max(lo, -3.0) + 0.05
    hi = min(hi, 3.0) - 0.05
    return np.linspace(lo, hi, count)


class TestCgfEval:
    def test_poisson_at_zero(self):
        assert Poisson(1.0).cgf(0.0) == 0.0

    def test_normal_paper_value(self):
        # Normal(0, 4) at theta=1: theta^2 sigma^2 / 2 = 2
        assert Normal(0.0, 4.0).cgf(1.0) == 2.0

    def test_exponential_against_quadrature(self):
        lam = 2.0
        value = Exponential(lam).cgf(1.0)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)
        quad = cgf_by_quadrature(lambda x: lam * math.exp(-lam * x), 1.0, 0.0, 60.0)
        assert value == pytest.approx(quad, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            Exponential(2.0).cgf(2.0)
        with pytest.raises(DomainError):
            ClaimStep(Exponential(1.0), 2.0, 1.0).cgf(-0.5)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_zero_at_origin(self, family):
        assert family.cgf(0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_convexity_on_grid(self, family):
        grid = interior_grid(family, 21)
        h = (grid[1] - grid[0]) / 4.0
        for theta in grid[1:-1]:
            second = (family.cgf(theta + h) - 2.0 * family.cgf(theta) + family.cgf(theta - h)) / h**2
            assert second >= -1e-7

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_derivative_at_zero_is_mean(self, family):
        fd = finite_diff(family.cgf, 0.0)
        assert fd == pytest.approx(family.mean, abs=1e-8)


class TestTilt:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_zero_tilt_is_identity(self, family):
        assert family.tilted(0.0) == family

    def test_poisson_scaling(self):
        # intensity multiplied by e^theta, bit-for-bit the formula's value
        theta = math.log(3.0)
        assert Poisson(2.0).tilted(theta) == Poisson(2.0 * math.exp(theta))
        assert Poisson(2.0).tilted(theta).lam == pytest.approx(6.0, rel=1e-15)

    def test_exponential_shift(self):
        assert Exponential(3.0).tilted(1.0) == Exponential(2.0)

    def test_bernoulli_closed_form(self):
        p, theta = 0.3, 0.7
        expected = p * math.exp(theta) / (1.0 - p + p * math.exp(theta))
        assert Bernoulli(p).tilted(theta) == Bernoulli(expected)

    def test_normal_mean_shift(self):
        assert Normal(0.0, 4.0).tilted(0.5) == Normal(2.0, 4.0)

    def test_claimstep_tilts_both_parts(self):
        family = ClaimStep(Exponential(1.0), 2.0, 1.0)
        tilted = family.tilted(0.25)
        assert tilted.claim == Exponential(0.75)
        assert tilted.lam == 1.5  # lam + premium * theta
        assert tilted.premium == 2.0

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_tilted_mean_matches_cgf_slope(self, family):
        # sample mean of 1e6 tilted draws within 4 SE of the finite-difference slope
        lo, hi = family.cgf_domain
        theta = min(0.4, 0.5 * (hi if math.isfinite(hi) else 1.0))
        tilted = family.tilted(theta)
        rng = np.random.default_rng(np.random.SeedSequence([2024, hash(type(family).__name__) % 2**32]))
        draws = tilted.sample(rng, 1_000_000)
        target = finite_diff(family.cgf, theta)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < 4.0 * se


class TestLegendre:
    def test_normal_paper_rate(self):
        res = tilt.legendre(Normal(0.0, 1.0), 1.0)
        assert res.rate == pytest.approx(0.5, abs=1e-15)
        assert res.attained

    def test_bernoulli_at_mean_exact_zero(self):
        assert tilt.legendre(Bernoulli(0.3), 0.3).rate == 0.0

    def test_poisson_paper_formula(self):
        res = tilt.legendre(Poisson(1.0), 2.0)
        expected = 2.0 * math.log(2.0) - 1.0
        assert res.rate == pytest.approx(expected, abs=1e-12)
        grid = np.linspace(-3.0, 5.0, 20001)
        numeric = legendre_by_grid(Poisson(1.0).cgf, grid, 2.0)
        assert res.rate == pytest.approx(numeric, abs=1e-6)

    def test_exponential_formula(self):
        lam, x = 1.3, 2.5
        res = tilt.legendre(Exponential(lam), x)
        assert res.rate == pytest.approx(lam * x - 1.0 - math.log(lam * x), abs=1e-12)

    def test_infinite_outside_support(self):
        assert not math.isfinite(tilt.legendre(Bernoulli(0.3), 1.5).rate)
        assert not math.isfinite(tilt.legendre(Bernoulli(0.3), -0.1).rate)
        assert not math.isfinite(tilt.legendre(Poisson(1.0), -1.0).rate)
        assert not math.isfinite(tilt.legendre(Exponential(1.0), -2.0).rate)

    def test_boundary_atoms_finite_not_attained(self):
        res = tilt.legendre(Bernoulli(0.25), 1.0)
        assert math.isfinite(res.rate) and not res.attained
        assert res.rate == pytest.approx(-math.log(0.25), abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_rate_zero_at_mean(self, family):
        res = tilt.legendre(family, family.mean)
        assert res.rate <= 1e-12

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_monotone_above_mean(self, family):
        xs = family.mean + np.linspace(0.0, 2.0, 9)
        rates = []
        for x in xs:
            res = tilt.legendre(family, float(x))
            rates.append(res.rate)
        assert all(r2 >= r1 - 1e-12 for r1, r2 in zip(rates, rates[1:]))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_biconjugate_recovers_cgf(self, family):
        # Gamma**(theta) from a fine x-grid of Gamma* values, with a parabolic
        # refinement at the grid argmax to kill the O(dx^2) grid-sup error
        thetas = interior_grid(family, 5)
        lo_x = family.cgf_prime(interior_grid(family, 3)[0])
        hi_x = family.cgf_prime(interior_grid(family, 3)[-1])
        xs = np.linspace(lo_x, hi_x, 4001)
        rates = np.array([tilt.legendre(family, float(x)).rate for x in xs])
        for theta in thetas:
            values = theta * xs - rates
            k = int(np.argmax(values))
            biconj = values[k]
            if 0 < k < len(xs) - 1:
                y0, y1, y2 = values[k - 1], values[k], values[k + 1]
                denom = y0 - 2.0 * y1 + y2
                if denom < 0.0:
                    biconj = y1 - 0.125 * (y2 - y0) ** 2 / denom
            assert biconj == pytest.approx(family.cgf(theta), abs=1e-6)


class TestSaddleTheta:
    def test_normal_linear(self):
        for var in (0.5, 1.0, 4.0):
            for x in (-1.0, 0.3, 2.0):
                assert tilt.saddle_theta(Normal(0.0, var), x) == pytest.approx(x / var, abs=1e-12)

    def test_bernoulli_closed_form_oracle(self):
        # p e^t/(1-p+p e^t) = x  =>  t = ln(x(1-p)/(p(1-x)))
        theta = tilt.saddle_theta(Bernoulli(0.25), 0.5)
        assert theta == pytest.approx(math.log(3.0), abs=1e-12)

    def test_poisson_root(self):
        theta = tilt.saddle_theta(Poisson(1.0), 2.0)
        assert theta == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_residual_and_tilted_mean(self, family):
        x = family.mean + 0.37
        theta = tilt.saddle_theta(family, x)
        assert abs(family.cgf_prime(theta) - x) <= 1e-10
        assert family.tilted(theta).mean == pytest.approx(x, abs=1e-9)

    def test_not_attained(self):
        with pytest.raises(NotAttained):
            tilt.saddle_theta(Bernoulli(0.25), 1.0)
        with pytest.raises(NotAttained):
            tilt.saddle_theta(Bernoulli(0.25), 1.5)
        with pytest.raises(NotAttained):
            tilt.saddle_theta(Exponential(1.0), -0.5)

    @pytest.mark.parametrize("x", [1e4, 1e6, 1e8, 1e10, 1e12, 1e15, -1e6, -1e10, -1e15])
    def test_claim_step_saddle_near_a_pole_is_a_float_root(self, x):
        # theta sits within 1e-4 of a pole of cgf', which moves by more than
        # 1e-10 from one float to the next: the saddle is where it changes sign
        family = ClaimStep(Exponential(1.0), 2.0, 1.0)
        res = tilt.legendre(family, x)
        assert res.attained and math.isfinite(res.rate)
        assert tilt.saddle_theta(family, x) == res.theta_star
        # cgf'(t) = 1/(1-t) - 2/(1+2t) = x is a quadratic in t; its root in (-1/2, 1),
        # with 1 - t and 1 + 2t written without cancellation near each pole
        s = math.sqrt(9.0 * x * x + 16.0)
        one_minus = 6.0 / (3.0 * x + 4.0 + s) if x > 0 else 1.0 - (x - 4.0 + s) / (4.0 * x)
        one_plus_two = 1.0 + (x - 4.0 + s) / (2.0 * x) if x > 0 else 12.0 / (s - 3.0 * x + 4.0)
        exact = 1.0 - one_minus if x > 0 else 0.5 * (one_plus_two - 1.0)
        assert abs(res.theta_star - exact) <= 2.0 * math.ulp(exact)
        assert res.rate == pytest.approx((x - 4.0 + s) / 4.0 + math.log(one_minus) + math.log(one_plus_two),
                                         rel=1e-12)


class TestBernoulliHelpers:
    """The vectorised twist and relative entropy against 50-digit mpmath."""

    EPS = 2.0**-52

    @staticmethod
    def grid():
        ps, qs = [], []
        for p in (1e-300, 1e-200, 1e-100, 1e-30, 1e-8, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12):
            candidates = [p + frac * (1.0 - p) for frac in (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-6)]
            candidates += [2.0 * p, p * (1.0 + 1e-6), 1.0 - 2.0**-53]
            for q in candidates:
                if p < q < 1.0:
                    ps.append(p)
                    qs.append(q)
        return np.array(ps), np.array(qs)

    @staticmethod
    def exact_terms(p, q):
        with mpmath.workdps(50):
            p, q = mpmath.mpf(p), mpmath.mpf(q)
            twist = [mpmath.log(q), -mpmath.log1p(-q), mpmath.log1p(-p), -mpmath.log(p)]
            entropy = [q * mpmath.log(q / p), (1 - q) * (mpmath.log1p(-q) - mpmath.log1p(-p))]
            # what rounding each input term contributes to the float result
            scale = [q * (1 + abs(mpmath.log(q / p))),
                     (1 - q) * (abs(mpmath.log1p(-q)) + abs(mpmath.log1p(-p)))]
            return (float(mpmath.fsum(twist)), float(sum(abs(t) for t in twist)),
                    float(mpmath.fsum(entropy)), float(mpmath.fsum(scale)))

    def test_twist_against_mpmath(self):
        ps, qs = self.grid()
        got = tilt.bernoulli_twist(ps, qs)
        for p, q, value in zip(ps, qs, got):
            exact, scale, _, _ = self.exact_terms(p, q)
            assert math.isfinite(value) and value > 0.0
            assert abs(value - exact) <= 8.0 * self.EPS * scale, (p, q)

    def test_entropy_against_mpmath(self):
        ps, qs = self.grid()
        got = tilt.bernoulli_entropy(ps, qs)
        for p, q, value in zip(ps, qs, got):
            _, _, exact, scale = self.exact_terms(p, q)
            assert abs(value - exact) <= 8.0 * self.EPS * scale, (p, q)

    def test_log_form_stays_finite_where_the_quotient_overflows(self):
        p, q = 1e-300, 1.0 - 2.0**-53
        assert q * (1.0 - p) / (p * (1.0 - q)) == math.inf
        assert tilt.bernoulli_twist(p, q) == pytest.approx(self.exact_terms(p, q)[0], rel=1e-15)


class TestClaimStep:
    def test_cgf_composition(self):
        family = ClaimStep(Exponential(1.0), 2.0, 1.0)
        theta = 0.3
        expected = Exponential(1.0).cgf(theta) + math.log(1.0 / (1.0 + 2.0 * theta))
        assert family.cgf(theta) == pytest.approx(expected, abs=1e-15)

    def test_domain_intersection(self):
        family = ClaimStep(Exponential(1.5), 2.0, 1.0)
        assert family.cgf_domain == (-0.5, 1.5)

    def test_mean(self):
        family = ClaimStep(Exponential(1.0), 2.0, 1.0)
        assert family.mean == pytest.approx(1.0 - 2.0, abs=1e-15)

    def test_sample_sum_matches_iterated_sampling_in_mean(self):
        family = ClaimStep(Exponential(1.0), 2.0, 1.0)
        rng = np.random.default_rng(7)
        batch = family.sample_sum(rng, 5, 200_000)
        se = batch.std(ddof=1) / math.sqrt(batch.size)
        assert abs(batch.mean() - 5.0 * family.mean) < 4.0 * se


def _scipy_brent(f, a, b, fa=None, fb=None):
    """scipy's brentq with the stopping rule of tilt._brent; None where it raises.

    It takes tilt._brent's arguments, so it can stand in for it in the probe.
    """
    try:
        return brentq(f, a, b, xtol=1e-300)
    except (ValueError, RuntimeError):
        return None


def _bits(root):
    return None if root is None else root.hex()


ROOT_FAMILIES = {
    "cubic": lambda c: lambda x: x**3 - c,
    "exp": lambda c: lambda x: math.exp(x) - c,  # no root for c <= 0
    "flat-tanh": lambda c: lambda x: 1e-8 * math.tanh(x - c),
    "quintic": lambda c: lambda x: (x - c) ** 5 + 1e-3 * (x - c),
    "sine": lambda c: lambda x: math.sin(x) - c,  # same-sign brackets around pairs of roots
    "step": lambda c: lambda x: 1.0 if x > c else -1.0,
}


class TestBrent:
    """tilt._brent returns scipy's brentq root to the bit, and None where brentq raises."""

    @pytest.mark.parametrize("name", sorted(ROOT_FAMILIES))
    def test_matches_scipy_brentq_to_the_bit(self, name):
        rng = np.random.default_rng(sorted(ROOT_FAMILIES).index(name))
        outcomes = set()
        for _ in range(1000):
            f = ROOT_FAMILIES[name](rng.uniform(-2.0, 2.0))
            a = rng.uniform(-5.0, 5.0)
            b = a + rng.exponential(3.0)
            expected = _bits(_scipy_brent(f, a, b))
            assert _bits(tilt._brent(f, a, b, f(a), f(b))) == expected, (name, a, b)
            outcomes.add(expected is None)
        assert False in outcomes

    def test_walk_to_a_pole_matches_scipy_to_the_bit(self, monkeypatch):
        # f blows up at the finite endpoint, so deep targets put the root within
        # BOUNDARY_PAD of it, where the probe keeps halving the pad
        rng = np.random.default_rng(11)
        for _ in range(300):
            hi = rng.uniform(0.1, 10.0)
            target = 10.0 ** rng.uniform(-1.0, 14.0)

            def f(t):
                return 1.0 / (hi - t) - 1.0 / hi - target

            ours = tilt._bracketed_root(f, 0.0, -math.inf, hi)
            with monkeypatch.context() as patch:
                patch.setattr(tilt, "_brent", _scipy_brent)
                expected = tilt._bracketed_root(f, 0.0, -math.inf, hi)
            assert expected is not None
            assert _bits(ours) == _bits(expected), (hi, target)

    def test_same_sign_bracket_returns_none(self):
        def f(t):
            return t * t + 1.0

        assert _scipy_brent(f, -1.0, 2.0) is None
        assert tilt._brent(f, -1.0, 2.0, f(-1.0), f(2.0)) is None
        assert tilt._bracketed_root(f, 0.0, -1.0, 1.0) is None

    def test_nan_at_a_probe_point_returns_none(self, monkeypatch):
        # the first probe toward 1 is 0.5, where f is nan
        def f(t):
            return math.nan if abs(t - 0.5) < 0.01 else t - 0.5

        assert tilt._bracketed_root(f, 0.0, -math.inf, 1.0) is None
        monkeypatch.setattr(tilt, "_brent", _scipy_brent)
        assert tilt._bracketed_root(f, 0.0, -math.inf, 1.0) is None

    def test_nan_at_an_iterate_returns_none(self, monkeypatch):
        # the bracket [0, 0.5] is clean; the secant step lands in the nan window
        def f(t):
            return math.nan if abs(t - 0.3) < 1e-3 else t - 0.3

        assert tilt._bracketed_root(f, 0.0, -math.inf, 1.0) is None
        monkeypatch.setattr(tilt, "_brent", _scipy_brent)
        assert tilt._bracketed_root(f, 0.0, -math.inf, 1.0) is None

    def test_no_convergence_in_100_iterations_returns_none(self):
        # bisection would need about 660 halvings to reach the jump
        def f(t):
            return 1.0 if t > 1e-200 else -1.0

        assert _scipy_brent(f, -1.0, 1.0) is None
        assert tilt._brent(f, -1.0, 1.0, f(-1.0), f(1.0)) is None

    def test_package_roots_match_scipy_to_the_bit(self, monkeypatch):
        ours = _package_roots()
        monkeypatch.setattr(tilt, "_brent", _scipy_brent)
        assert _package_roots() == ours


def _package_roots():
    """Every root the package solves for, on a spread of inputs, as float.hex."""
    roots = {}
    for claims in (Exponential(1.0), Exponential(2.5), Poisson(0.7), Normal(1.0, 0.5)):
        model = RuinModel(2.0, 1.0, claims, Investment(1.0, 1.5))
        roots[f"theta_L {claims}"] = ruin.adjustment_coefficient(model).value
        roots[f"theta* {claims}"] = ruin.invest_exponent(model).value
    step = ClaimStep(Exponential(1.0), 2.0, 1.0)
    for x in (-30.0, -3.0, -0.5, 0.5, 3.0, 30.0):
        roots[f"saddle {x}"] = tilt.saddle_theta(step, x)
    for n, p, rho, q in ((20, 0.1, 0.4, 0.5), (200, 0.01, 0.3, 0.1), (2000, 0.001, 0.6, 0.05)):
        roots[f"mu_n {n}"] = credit.factor_shift(credit.PortfolioModel(p, rho, q), n)
    for b in (0.0, 0.3):
        dual = longterm.solve_dual(longterm.LqModel.from_market(longterm.MarketSpec(0.0, 0.0, 0.2, b, 1.0), 1.0))
        for x in (0.05, 0.3, 3.0, 1e8, 1e17):
            roots[f"theta(x) {b} {x}"] = longterm.dual_to_value(dual, x)[1]
    return {key: value.hex() for key, value in roots.items()}
