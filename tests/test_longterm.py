import json
import math

import numpy as np
import pytest

from rareflow import cli, longterm, mc, tilt
from rareflow.errors import (
    DomainError,
    OutOfDomain,
    OutOfDualDomain,
)
from rareflow.longterm import DualSolution, LqModel, MarketSpec

from oracles import hjb_residual


def bs_model(ratio=0.2, k=1.0):
    spec = MarketSpec(a0=0.0, b0=0.0, a=ratio, b=0.0, sigma=1.0)
    return LqModel.from_market(spec, k)


def ou_model():
    return LqModel.from_market(MarketSpec(a0=0.0, b0=0.0, a=0.1, b=0.3, sigma=1.0), 1.0)


class TestBsDualCgf:
    def test_zero(self):
        assert longterm.bs_dual_cgf(0.2, 0.0, 1.0, 0.0) == 0.0

    def test_reference_values(self):
        assert longterm.bs_dual_cgf(0.2, 0.0, 1.0, 0.5) == pytest.approx(0.02, abs=1e-15)
        assert longterm.bs_dual_cgf(0.2, 0.0, 1.0, 0.9) == pytest.approx(0.18, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            longterm.bs_dual_cgf(0.2, 0.0, 1.0, 1.0)

    def test_equals_solver_off_unit_market(self):
        model = LqModel.from_market(MarketSpec(a0=0.03, b0=0.0, a=0.13, b=0.0, sigma=0.5), 1.3)
        for theta in (0.0, 0.25, 0.5, 0.9):
            assert longterm.bs_dual_cgf(0.13, 0.03, 0.5, theta) == longterm.lq_dual(model, theta)[2]
        assert longterm.bs_dual_cgf(0.13, 0.03, 0.5, 0.5) == pytest.approx(0.02, rel=1e-12)


class TestBsOutperformance:
    def test_worked_triple(self):
        value, theta_x, alpha = longterm.bs_outperformance(0.2, 0.0, 1.0, 0.08)
        assert value == pytest.approx(-0.02, abs=1e-10)
        assert theta_x == pytest.approx(0.5, abs=1e-10)
        assert alpha == pytest.approx(0.4, abs=1e-10)

    def test_branches_agree_at_threshold(self):
        ratio = 0.2
        x_bar = 0.5 * ratio**2
        value, theta_x, alpha = longterm.bs_outperformance(ratio, 0.0, 1.0, x_bar)
        assert value == 0.0
        assert theta_x == 0.0
        assert alpha == pytest.approx(math.sqrt(2.0 * x_bar), abs=1e-14)
        assert alpha == pytest.approx(ratio, abs=1e-14)

    def test_merton_regime(self):
        value, theta_x, alpha = longterm.bs_outperformance(0.2, 0.0, 1.0, 0.01)
        assert value == 0.0 and theta_x == 0.0
        assert alpha == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("x", [-0.1, 0.04, 0.5])
    def test_market_units_match_cli(self, tmp_path, x):
        # a0 = 0.03 and sigma = 0.5: m = ((a - a0)/sigma)^2/2 = 0.02 against
        # the excess target g = x - a0, so x = 0.04 holds the Merton fraction
        # and so does a negative target, which is no error
        a, a0, sigma = 0.13, 0.03, 0.5
        m, g = 0.5 * ((a - a0) / sigma) ** 2, x - a0
        if g <= m:
            expected = (0.0, 0.0, (a - a0) / sigma**2)
        else:
            expected = (-((math.sqrt(g) - math.sqrt(m)) ** 2), 1.0 - math.sqrt(m / g),
                        math.sqrt(2.0 * g) / sigma)
        assert longterm.bs_outperformance(a, a0, sigma, x) == pytest.approx(expected, rel=1e-12, abs=0.0)
        if x == 0.5:  # the LQ solver's triple, to 7 digits
            assert expected == pytest.approx((-0.2960928, 0.7937158, 1.9390719), abs=1e-7)
        path = tmp_path / "longterm.json"
        path.write_text(json.dumps({"a": a, "a0": a0, "sigma": sigma, "x": x}))
        out = tmp_path / "report.json"
        assert cli.main(["longterm", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        row = dict(zip(report["columns"], report["rows"][0]))
        printed = tuple(float(row[name]) for name in ("value", "theta_x", "alpha_star"))
        assert printed == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_against_numeric_dual_sup(self):
        # brute-force sup of theta x - cgf(theta) over a dense [0, 1) grid
        thetas = np.linspace(0.0, 1.0 - 1e-7, 300_001)
        x = 0.08
        ratio_sq = 0.2 * 0.2
        cgf = 0.5 * thetas / (1.0 - thetas) * ratio_sq
        objective = thetas * x - cgf
        value, theta_x, _ = longterm.bs_outperformance(0.2, 0.0, 1.0, x)
        assert -float(np.max(objective)) == pytest.approx(value, abs=1e-9)
        assert thetas[int(np.argmax(objective))] == pytest.approx(theta_x, abs=1e-4)


class TestLqDual:
    def test_zero_solution_at_zero(self):
        assert longterm.lq_dual(bs_model(), 0.0) == (0.0, 0.0, 0.0)
        assert longterm.lq_dual(ou_model(), 0.0) == (0.0, 0.0, 0.0)

    def test_black_scholes_collapse(self):
        model = bs_model(0.2)
        for theta in np.arange(0.1, 0.95, 0.1):
            _, _, lam = longterm.lq_dual(model, float(theta))
            assert lam == pytest.approx(longterm.bs_dual_cgf(0.2, 0.0, 1.0, float(theta)), abs=1e-10)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            longterm.lq_dual(bs_model(), 1.0)
        with pytest.raises(OutOfDomain):
            longterm.lq_dual(ou_model(), 0.95)  # discriminant bound binds first

    def test_hjb_residual_on_grid(self):
        for model in (bs_model(), ou_model()):
            bar, _ = longterm.theta_bar(model)
            for theta in np.linspace(0.05, min(bar, 1.0) - 0.05, 7):
                for y in (-3.0, -1.0, 0.0, 0.5, 2.0):
                    coeffs = longterm.lq_dual(model, float(theta))
                    assert abs(hjb_residual(model, float(theta), y, coeffs)) <= 1e-9

    def test_lambda_convex_and_zero_at_origin(self):
        for model in (bs_model(), ou_model()):
            bar, _ = longterm.theta_bar(model)
            grid = np.linspace(0.0, bar - 1e-3, 41)
            lams = np.array([longterm.lq_dual(model, float(t))[2] for t in grid])
            assert lams[0] == 0.0
            second = np.diff(lams, 2)
            assert np.all(second >= -1e-10)

    @pytest.mark.slow
    def test_ou_dual_against_risk_sensitive_mc(self):
        # finite-horizon oracle (1/T) ln E[exp(theta X_T)] under the feedback
        # policy; exact OU factor transition, Euler growth integral
        model = ou_model()
        theta = 0.3
        _, _, lam = longterm.lq_dual(model, theta)
        horizon, step, n_paths = 150.0, 0.02, 20_000
        n_steps = int(horizon / step)
        rng = np.random.default_rng(77)
        decay = math.exp(-model.k * step)
        sd = math.sqrt((1.0 - decay * decay) / (2.0 * model.k))
        xs = np.zeros(n_paths)
        ys = np.zeros(n_paths)
        for _ in range(n_steps):
            alpha = (model.beta2 * ys + model.beta4) / (1.0 - theta)
            drift = -0.5 * alpha**2 + model.beta2 * ys * alpha + model.beta4 * alpha
            xs += drift * step + alpha * math.sqrt(step) * rng.normal(size=n_paths)
            ys = ys * decay + sd * rng.normal(size=n_paths)
        shift = float(np.max(theta * xs))
        estimate = (shift + math.log(float(np.mean(np.exp(theta * xs - shift))))) / horizon
        assert estimate == pytest.approx(lam, rel=0.10)


class TestLamPrime:
    def test_ou_matches_central_difference(self):
        model = ou_model()
        bar, _ = longterm.theta_bar(model)
        h = 1e-6
        for theta in np.linspace(0.02, bar - 0.02, 12):
            up = longterm.lq_dual(model, float(theta) + h)[2]
            down = longterm.lq_dual(model, float(theta) - h)[2]
            assert longterm.lam_prime(model, float(theta)) == pytest.approx((up - down) / (2.0 * h), rel=1e-6)

    def test_black_scholes_closed_form(self):
        for theta in (0.0, 0.3, 0.9):
            assert longterm.lam_prime(bs_model(0.2), theta) == pytest.approx(0.02 / (1.0 - theta) ** 2, rel=1e-14, abs=0.0)


class TestThetaBar:
    def test_black_scholes_steep_at_one(self):
        bar, steep = longterm.theta_bar(bs_model())
        assert bar == pytest.approx(1.0, abs=1e-10)
        assert steep

    def test_not_steep_when_q_vanishes_at_the_cap(self):
        # a = a0 and b = b0: Lambda = theta^2 b0^2 / (2 k^2), with a finite
        # slope b0^2 / k^2 at theta_bar = 1
        model = LqModel.from_market(MarketSpec(a0=0.1, b0=0.05, a=0.1, b=0.05, sigma=1.0), 1.0)
        bar, steep = longterm.theta_bar(model)
        assert bar == 1.0 and not steep
        with pytest.raises(OutOfDualDomain):
            longterm.dual_to_value(longterm.solve_dual(model), 0.1)

    def test_ou_discriminant_boundary(self):
        model = ou_model()
        bar, steep = longterm.theta_bar(model)
        assert 0.0 < bar < 1.0
        # discriminant k^2 - T beta2^2: nonnegative just inside, negative just outside
        def disc(theta):
            return model.k**2 - theta / (1.0 - theta) * model.beta2**2

        assert disc(bar - 1e-6) >= -1e-8
        assert disc(bar + 1e-6) < 0.0


class TestFeedbackPolicy:
    def test_myopic_at_zero(self):
        model = ou_model()
        for y in (-1.0, 0.0, 2.0):
            assert longterm.feedback_policy(model, 0.0, y) == pytest.approx(
                model.beta2 * y + model.beta4, abs=1e-15
            )

    def test_bs_constant_in_factor(self):
        model = bs_model(0.2)
        values = {longterm.feedback_policy(model, 0.5, y) for y in (-2.0, 0.0, 3.0)}
        assert len(values) == 1
        assert values.pop() == pytest.approx(2.0 * model.beta4, abs=1e-15)

    def test_affine_in_factor(self):
        model = ou_model()
        a = longterm.feedback_policy(model, 0.3, -1.0)
        b = longterm.feedback_policy(model, 0.3, 3.0)
        mid = longterm.feedback_policy(model, 0.3, 1.0)
        assert a + b == pytest.approx(2.0 * mid, abs=1e-14)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            longterm.feedback_policy(bs_model(), 1.01, 0.0)

    def test_interior_maximum_of_hamiltonian(self):
        model = ou_model()

        def hamiltonian_term(theta, y, a):
            # the a-dependent part of the ergodic equation's sup
            drift_part = -0.5 * a * a + model.beta2 * y * a + model.beta4 * a
            return theta * drift_part + 0.5 * theta * theta * a * a

        for theta in (0.2, 0.5):
            for y in (-1.0, 0.0, 1.5):
                best = longterm.feedback_policy(model, theta, y)
                center = hamiltonian_term(theta, y, best)
                assert center > hamiltonian_term(theta, y, best + 0.1)
                assert center > hamiltonian_term(theta, y, best - 0.1)


class TestDualToValue:
    def test_below_slope_at_zero(self):
        dual = longterm.solve_dual(bs_model(0.2))
        value, theta_x = longterm.dual_to_value(dual, 0.01)
        assert value == 0.0 and theta_x == 0.0

    def test_black_scholes_agreement(self):
        dual = longterm.solve_dual(bs_model(0.2))
        value, theta_x = longterm.dual_to_value(dual, 0.08)
        assert value == pytest.approx(-0.02, abs=1e-9)
        assert theta_x == pytest.approx(0.5, abs=1e-6)

    def test_synthetic_parabola(self):
        dual = DualSolution(
            theta_bar=math.inf,
            lam=lambda t: t * t,
            lam_prime=lambda t: 2.0 * t,
            steep=True,
        )
        for x in (0.5, 1.0, 3.0):
            value, theta_x = longterm.dual_to_value(dual, x)
            assert value == pytest.approx(-x * x / 4.0, abs=1e-9)
            assert theta_x == pytest.approx(x / 2.0, abs=1e-6)

    def test_duality_round_trip(self):
        dual = longterm.solve_dual(bs_model(0.2))
        x_bar = 0.02
        for x in np.linspace(0.0, 5.0 * x_bar, 21):
            closed_v, closed_theta, _ = longterm.bs_outperformance(0.2, 0.0, 1.0, float(x))
            value, theta_x = longterm.dual_to_value(dual, float(x))
            assert value == pytest.approx(closed_v, abs=1e-8)

    def test_black_scholes_theta_to_rounding(self):
        # Lambda'(theta) = x_bar/(1 - theta)^2, so theta(x) = 1 - sqrt(x_bar/x)
        dual = longterm.solve_dual(bs_model(0.2))
        x_bar = 0.5 * 0.2**2
        for x in np.linspace(x_bar, 5.0 * x_bar, 41)[1:]:
            _, theta_x = longterm.dual_to_value(dual, float(x))
            assert abs(theta_x - (1.0 - math.sqrt(x_bar / x))) <= 1e-12, x

    def test_black_scholes_theta_inside_the_pad_of_the_edge(self):
        # theta(1e17) = 1 - sqrt(0.02/1e17) = 1 - 4.47e-10 lies closer to
        # theta_bar = 1 than BOUNDARY_PAD, where the probe used to stop
        dual = longterm.solve_dual(bs_model(0.2))
        x = 1e17
        _, theta_x = longterm.dual_to_value(dual, x)
        assert 0.0 < 1.0 - theta_x < tilt.BOUNDARY_PAD
        assert abs(dual.lam_prime(theta_x) / x - 1.0) < 1e-6
        assert abs(theta_x - (1.0 - math.sqrt(0.02 / x))) <= 1e-15

    @pytest.mark.parametrize("b", [0.015, 0.0825])
    def test_target_past_a_rounded_discriminant_zero(self, b):
        # theta_bar = k^2/(k^2 + beta2^2) is rounded, and for these b the
        # discriminant rounds below 0 at the last floats under it, before
        # Lambda' reaches 1e40; lam_prime raises OutOfDomain there
        model = LqModel.from_market(MarketSpec(a0=0.0, b0=0.0, a=0.2, b=b, sigma=1.0), 1.0)
        dual = longterm.solve_dual(model)
        with pytest.raises(OutOfDomain):
            longterm.lam_prime(model, math.nextafter(dual.theta_bar, 0.0))
        with pytest.raises(OutOfDualDomain):
            longterm.dual_to_value(dual, 1e40)

    def test_ou_theta_solves_lam_prime(self):
        model = ou_model()
        dual = longterm.solve_dual(model)
        for x in (0.05, 0.1, 0.3, 1.0, 3.0):
            _, theta_x = longterm.dual_to_value(dual, x)
            assert 0.0 < theta_x < dual.theta_bar
            assert abs(longterm.lam_prime(model, theta_x) - x) <= 1e-12, x

    def test_theta_monotone_in_target(self):
        dual = longterm.solve_dual(bs_model(0.2))
        thetas = [longterm.dual_to_value(dual, float(x))[1] for x in np.linspace(0.01, 0.4, 14)]
        assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(thetas, thetas[1:]))

    def test_out_of_dual_domain_when_not_steep(self):
        dual = DualSolution(
            theta_bar=1.0,
            lam=lambda t: 0.1 * t,
            lam_prime=lambda t: 0.1,
            steep=False,
        )
        with pytest.raises(OutOfDualDomain):
            longterm.dual_to_value(dual, 5.0)


class TestMcOutperformance:
    def test_non_rare_target(self):
        fit = longterm.mc_outperformance(
            bs_model(0.2), -0.5, [10.0, 20.0, 40.0], 50_000, seed=7,
            policy_index=50, euler_step=0.5,
        )
        assert abs(fit.slope) < 1e-3
        assert all(math.exp(lp) > 0.99 for _, lp in fit.points)

    def test_decay_slope_matches_value_at_resolvable_target(self):
        # x = 0.18 gives v = -0.08, large enough that the -log(T)/2 prefactor
        # on the pinned ladder does not swamp the 20% band
        model = bs_model(0.2)
        fit = longterm.mc_outperformance(model, 0.18, [25.0, 50.0, 100.0], 600_000, seed=5,
                                         policy_index=50, euler_step=0.5)
        value, _ = longterm.dual_to_value(longterm.solve_dual(model), 0.18)
        assert value == pytest.approx(-0.08, abs=1e-12)
        assert fit.slope == pytest.approx(value, rel=0.20)

    @pytest.mark.xfail(
        strict=False,
        reason=(
            "at x=0.08 (v=-0.02) the exact finite-T tail Phi-bar(0.2 sqrt(T)) "
            "fits to slope -0.0257 over T in {25,50,100} because of the "
            "-log(T)/2 prefactor: a 29% deviation no policy can remove, so the "
            "20% band fails even with zero Monte Carlo error"
        ),
    )
    def test_decay_slope_spec_band_at_small_target(self):
        model = bs_model(0.2)
        fit = longterm.mc_outperformance(model, 0.08, [25.0, 50.0, 100.0], 400_000, seed=6,
                                         policy_index=50, euler_step=0.5)
        assert fit.slope == pytest.approx(-0.02, rel=0.20)

    def test_suboptimal_policy_decays_faster(self):
        # policy_index 2 holds the position for the target x + 1/2, far past
        # the x + 1/50 of the nearly optimal policy
        model = bs_model(0.2)
        tuned = longterm.mc_outperformance(model, 0.08, [25.0, 50.0, 100.0], 400_000, seed=6,
                                           policy_index=50, euler_step=0.5)
        coarse = longterm.mc_outperformance(model, 0.08, [25.0, 50.0, 100.0], 400_000, seed=6,
                                            policy_index=2, euler_step=0.5)
        assert coarse.slope < tuned.slope - 0.01

    def test_bs_rungs_match_closed_form(self):
        # with constant coefficients X_T ~ N(c0 T, q^2 T) under alpha = q,
        # c0 = -q^2/2 + 0.2 q; the feedback policy at target t holds the
        # Black-Scholes position q = sqrt(2 t)
        x, n_paths, policy_index = 0.18, 400_000, 50
        q = math.sqrt(2.0 * (x + 1.0 / policy_index))
        c0 = -0.5 * q * q + 0.2 * q
        fit = longterm.mc_outperformance(bs_model(0.2), x, [25.0, 50.0, 100.0], n_paths, seed=31,
                                         policy_index=policy_index, euler_step=0.5)
        assert [h for h, _ in fit.points] == [25.0, 50.0, 100.0]
        for horizon, log_prob in fit.points:
            exact = 0.5 * math.erfc((x - c0) * math.sqrt(horizon) / q / math.sqrt(2.0))
            se = math.sqrt(exact * (1.0 - exact) / n_paths)
            assert abs(math.exp(log_prob) - exact) <= 4.0 * se, horizon

    def test_factor_model_matches_two_normal_euler_loop(self):
        # b != 0: the growth drift and vol depend on the factor, so the
        # conditional law is checked against a plain Euler loop that draws
        # both the W and the B normal at every step
        model = LqModel.from_market(MarketSpec(a0=0.0, b0=0.0, a=0.2, b=0.3, sigma=1.0), 1.0)
        x, ladder, n_paths, step, policy_index = 0.15, [5.0, 10.0, 20.0], 100_000, 0.25, 10
        fit = longterm.mc_outperformance(model, x, ladder, n_paths, seed=11,
                                         policy_index=policy_index, euler_step=step)
        _, theta = longterm.dual_to_value(longterm.solve_dual(model), x + 1.0 / policy_index)

        def policy(ys):
            return longterm.feedback_policy(model, theta, ys)

        assert [h for h, _ in fit.points] == ladder
        for rung, (horizon, log_prob) in enumerate(fit.points):
            n_steps = int(round(horizon / step))
            dt = horizon / n_steps
            decay = math.exp(-model.k * dt)
            sd = math.sqrt((1.0 - decay * decay) / (2.0 * model.k))

            def sampler(ss, size):
                rng = np.random.default_rng(ss)
                xs = np.zeros(size)
                ys = np.zeros(size)
                for _ in range(n_steps):
                    alpha = policy(ys)
                    drift = (-0.5 * alpha * alpha + model.beta2 * ys * alpha
                             + model.beta3 * ys + model.beta4 * alpha)
                    xs += drift * dt + alpha * math.sqrt(dt) * rng.standard_normal(size)
                    ys = ys * decay + sd * rng.standard_normal(size)
                return (xs / horizon >= x).astype(float)

            euler = mc.run_replications(sampler, n_paths, seed=21 + rung)
            prob = math.exp(log_prob)
            se = math.hypot(math.sqrt(prob * (1.0 - prob) / n_paths), euler.std_error)
            assert abs(prob - euler.mean) <= 4.0 * se, horizon


class TestNormalization:
    def test_market_map_records_inverse(self):
        spec = MarketSpec(a0=0.03, b0=0.0, a=0.13, b=0.0, sigma=0.5)
        model = LqModel.from_market(spec, 1.0)
        assert model.beta4 == pytest.approx((0.13 - 0.03) / 0.5, abs=1e-15)
        assert model.alpha_scale == pytest.approx(2.0, abs=1e-15)
        assert model.x_shift == 0.03
