"""Test-side oracles, kept independent of the package's estimator code.

Everything here is computed by enumeration, quadrature, or closed forms
derived separately from the implementation under test.  The plain Monte
Carlo references draw their own paths but run on the package's replication
engine, so a seed gives them the same batch streams as the estimators they
are compared with.
"""

import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri
from scipy.stats import binom

from rareflow import mc


def phi_bar(z):
    """Upper normal tail with erfc accuracy."""
    return ndtr(-np.asarray(z, dtype=float))


def normal_quantile(q):
    return ndtri(q)


def binomial_tail_sum(n: int, p: float, k_min: int) -> float:
    """P[Bin(n,p) >= k_min] as a plain sum of mass terms."""
    if k_min <= 0:
        return 1.0
    if k_min > n:
        return 0.0
    return sum(math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(k_min, n + 1))


def bernoulli_sum_enumeration(n: int, value_of_sum) -> float:
    """E[f(S_n)] over all 2^n Bernoulli outcomes, f given per outcome sum.

    Uses binary enumeration (not binomial shortcuts) so it is a genuinely
    brute-force expectation; n <= 14 keeps it fast.
    """
    total = 0.0
    for mask in range(1 << n):
        total += value_of_sum(mask, bin(mask).count("1"))
    return total


def cgf_by_quadrature(density, theta: float, lo: float, hi: float) -> float:
    """ln E[exp(theta X)] by numeric integration of a density."""
    val, _ = integrate.quad(lambda x: math.exp(theta * x) * density(x), lo, hi)
    return math.log(val)


def legendre_by_grid(cgf, theta_grid, x: float) -> float:
    """sup over a supplied theta grid of theta*x - cgf(theta)."""
    return max(theta * x - cgf(theta) for theta in theta_grid)


def gauss_hermite_factor_integral(f, nodes: int = 200):
    """E[f(Z)] for standard normal Z by Gauss-Hermite quadrature."""
    x_nodes, weights = np.polynomial.hermite.hermgauss(nodes)
    z = math.sqrt(2.0) * x_nodes
    values = np.array([f(zz) for zz in z])
    return float(np.sum(weights * values) / math.sqrt(math.pi))


def credit_tail_gh(n: int, p: float, rho: float, q: float, nodes: int = 200) -> float:
    """P[L_n >= n q] in the one-factor copula model, by quadrature x exact tails."""
    k_min = int(math.ceil(n * q - 1e-9))
    if rho == 0.0:
        return binomial_tail_sum(n, p, k_min)
    root = math.sqrt(1.0 - rho * rho)

    def conditional_tail(z):
        pz = float(ndtr((rho * z + ndtri(p)) / root))
        pz = min(max(pz, 1e-300), 1.0 - 1e-16)
        return float(binom.sf(k_min - 1, n, pz))

    return gauss_hermite_factor_integral(conditional_tail, nodes)


def credit_tail_windowed_quad(n: int, p: float, rho: float, q: float) -> float:
    """Loss-tail probability by adaptive quadrature on a window around z_n.

    The integrand is a narrow sigmoid-times-gaussian bump near the factor
    threshold; centering the integration window there keeps the adaptive rule
    honest at portfolio sizes where fixed Gauss-Hermite nodes go blind.
    """
    k_min = int(math.ceil(n * q - 1e-9))
    if rho == 0.0:
        return binomial_tail_sum(n, p, k_min)
    root = math.sqrt(1.0 - rho * rho)
    z_n = (root * ndtri(q) - ndtri(p)) / rho

    def integrand(z):
        pz = float(ndtr((rho * z + ndtri(p)) / root))
        pz = min(max(pz, 1e-300), 1.0 - 1e-16)
        dens = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return float(binom.sf(k_min - 1, n, pz)) * dens

    lo = min(z_n - 8.0, -8.0)
    hi = max(z_n + 8.0, 8.0)
    value, _ = integrate.quad(integrand, lo, hi, limit=800, epsabs=1e-300, epsrel=1e-10)
    return value


def credit_tail_beta_order(n: int, p: float, rho: float, q: float, dps: int = 30) -> float:
    """P[L_n >= ceil(n q - 1e-9)] in the one-factor copula model, by order statistics.

    With U_i the uniforms behind the defaults, L_n >= k exactly when the k-th
    smallest, U_(k) ~ Beta(k, n-k+1), lies below p(Z).  So the tail is
    E[Phi_bar((sqrt(1-rho^2) Phi^-1(U_(k)) - Phi^-1(p))/rho)], integrated in
    mpmath over t = Phi^-1(U_(k)): no binomial tail and no factor window.
    """
    k = math.ceil(n * q - 1e-9)
    with mpmath.workdps(dps):
        rho, p = mpmath.mpf(rho), mpmath.mpf(p)
        root = mpmath.sqrt(1 - rho * rho)
        offset = -mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * p)
        log_norm = mpmath.log(mpmath.beta(k, n - k + 1)) + mpmath.log(2 * mpmath.pi) / 2

        def integrand(t):
            log_density = (k - 1) * mpmath.log(mpmath.ncdf(t)) + (n - k) * mpmath.log(mpmath.ncdf(-t)) - t * t / 2
            return mpmath.ncdf((offset - root * t) / rho) * mpmath.exp(log_density - log_norm)

        # break points around the bulk of U_(k), mapped to t
        mode = mpmath.mpf(k) / (n + 1)
        centre = -mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mode)
        width = mpmath.sqrt(mode * (1 - mode) / (n + 2)) / mpmath.npdf(centre)
        steps = (-60, -30, -15, -8, -4, -2, -1, 0, 1, 2, 4, 8, 15, 30, 60)
        return float(mpmath.quad(integrand, [centre + j * width for j in steps]))


def plain_loss_tail(n: int, p: float, rho: float, q: float, N: int, seed: int):
    """Naive Monte Carlo frequency of {L_n >= ceil(n q - 1e-9)} in the one-factor copula model."""
    k_min = math.ceil(n * q - 1e-9)

    def sampler(ss, size):
        rng = np.random.default_rng(ss)
        z = rng.standard_normal(size)
        pz = ndtr((rho * z + ndtri(p)) / math.sqrt(1.0 - rho**2))
        losses = rng.binomial(n, pz, size)
        return (losses >= k_min).astype(float)

    return mc.run_replications(sampler, N, seed)


def likelihood_mean(s0: float, sigma: float, maturity: float, steps: int, N: int, seed: int, phi_fn):
    """Sample mean of the left-endpoint likelihood L_T of a drift phi_fn(t, prices).

    The log price steps under the drift shift -sigma*phi; for bounded phi
    the likelihood is a martingale with mean one.
    """
    dt = maturity / steps
    sqrt_dt = math.sqrt(dt)

    def sampler(ss, size):
        rng = np.random.default_rng(ss)
        log_s = np.full(size, math.log(s0))
        log_weight = np.zeros(size)
        for i in range(steps):
            phi = np.asarray(phi_fn(i * dt, np.exp(log_s)), dtype=float)
            gauss = rng.standard_normal(size)
            log_s = log_s + (-0.5 * sigma * sigma - sigma * phi) * dt + sigma * sqrt_dt * gauss
            log_weight += phi * sqrt_dt * gauss - 0.5 * phi * phi * dt
        return np.exp(log_weight)

    return mc.run_replications(sampler, N, seed)


def hjb_residual(model, theta: float, y: float, coeffs) -> float:
    """Residual at y of the ergodic equation for phi = A y^2/2 + B y, (A, B, Lambda) = coeffs.

    Lambda = phi''/2 - k y phi' + phi'^2/2 + theta beta3 y
             + sup_a [theta (-a^2/2 + (beta2 y + beta4) a) + theta^2 a^2/2],
    the sup of a concave quadratic in a (for 0 < theta < 1), taken at its
    vertex a = theta s / (theta (1 - theta)) with s = beta2 y + beta4.
    """
    coeff_a, coeff_b, lam = coeffs
    phi_prime = coeff_a * y + coeff_b
    slope = model.beta2 * y + model.beta4
    a_star = slope / (1.0 - theta)
    sup = theta * (-0.5 * a_star * a_star + slope * a_star) + 0.5 * theta * theta * a_star * a_star
    generator = 0.5 * coeff_a - model.k * y * phi_prime + 0.5 * phi_prime * phi_prime
    return generator + theta * model.beta3 * y + sup - lam


def drifted_bm_max_crossing(level: float, nu: float, sigma: float, horizon: float) -> float:
    """P[max_t (nu t + sigma W_t) >= level] on [0, horizon], by reflection."""
    if level <= 0.0:
        return 1.0
    denom = sigma * math.sqrt(horizon)
    return float(
        phi_bar((level - nu * horizon) / denom)
        + math.exp(2.0 * nu * level / (sigma * sigma)) * phi_bar((level + nu * horizon) / denom)
    )


def up_out_call_reflection_quad(s0, strike, barrier, rate, sigma, maturity) -> float:
    """Up-and-out call price by integrating the killed log-return density."""
    if s0 >= barrier:
        return 0.0
    mu = rate - 0.5 * sigma * sigma
    b = math.log(barrier / s0)
    s = sigma * math.sqrt(maturity)
    lo = math.log(strike / s0)

    def killed_density(y):
        direct = math.exp(-0.5 * ((y - mu * maturity) / s) ** 2)
        reflected = math.exp(2.0 * mu * b / (sigma * sigma)) * math.exp(
            -0.5 * ((y - 2.0 * b - mu * maturity) / s) ** 2
        )
        return (direct - reflected) / (s * math.sqrt(2.0 * math.pi))

    value, _ = integrate.quad(lambda y: (s0 * math.exp(y) - strike) * killed_density(y), lo, b, limit=200)
    return math.exp(-rate * maturity) * value


def bridge_action_piecewise_linear(x_i, x_next, level, sigma, t_hat) -> float:
    """Action of the piecewise-linear bridge path touching ``level`` at t_hat.

    Numerically integrates (dy/dt + (y - x_next)/(1-t))^2 / (2 sigma^2) over
    the two linear legs x_i -> level -> x_next.
    """

    def leg(a, b, t0, t1):
        slope = (b - a) / (t1 - t0)

        def integrand(t):
            y = a + slope * (t - t0)
            return (slope + (y - x_next) / (1.0 - t)) ** 2

        val, _ = integrate.quad(integrand, t0, t1, limit=200)
        return val

    total = leg(x_i, level, 0.0, t_hat) + leg(level, x_next, t_hat, 1.0 - 1e-9)
    return total / (2.0 * sigma * sigma)


def min_action_to_barrier(x_i, x_next, level, sigma) -> float:
    """Minimize the piecewise-linear bridge action over the touch time."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda t: bridge_action_piecewise_linear(x_i, x_next, level, sigma, t),
        bounds=(0.02, 0.98),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.fun)


def fortet_survival(boundary, horizon: float, n_grid: int, x0: float = 0.0) -> float:
    """Survival P[no crossing of a smooth boundary] for standard BM.

    Fortet's first-kind Volterra equation for the first-passage mass,
    discretized by midpoint collocation; validated against the linear-
    boundary closed form elsewhere in the suite.
    """
    dt = horizon / n_grid
    t = dt * np.arange(1, n_grid + 1)
    mid = t - 0.5 * dt
    c_t = np.array([boundary(tt) for tt in t])
    c_mid = np.array([boundary(tt) for tt in mid])
    mass = np.zeros(n_grid)
    for j in range(n_grid):
        lhs = float(phi_bar((c_t[j] - x0) / math.sqrt(t[j])))
        if j > 0:
            lhs -= float(np.sum(mass[:j] * phi_bar((c_t[j] - c_mid[:j]) / np.sqrt(t[j] - mid[:j]))))
        mass[j] = lhs / float(phi_bar((c_t[j] - c_mid[j]) / math.sqrt(t[j] - mid[j])))
    return 1.0 - float(np.sum(mass))


def asian_call_conditional_gh(steps: int, spot: float, strike: float, sigma: float, maturity: float,
                              nodes: int = 64) -> float:
    """E[(mean(S_1..S_m) - K)^+] of the zero-rate discretely monitored Asian call.

    Given z_1..z_{m-1}, (A - K)^+ is a zero-rate Black-Scholes call on S_m/m
    with forward S_{m-1}/m, strike K - (S_1 + ... + S_{m-1})/m and volatility
    sigma sqrt(dt); where that strike is at most 0 the call is the forward
    minus the strike.  The first m - 1 normals are integrated with a tensor
    probabilists' Gauss-Hermite rule of ``nodes`` points per axis.
    """
    dt = maturity / steps
    vol = sigma * math.sqrt(dt)
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    points = np.meshgrid(*([x] * (steps - 1)), indexing="ij")
    weight = np.prod(np.meshgrid(*([w] * (steps - 1)), indexing="ij"), axis=0)
    log_s = np.full(np.shape(weight), math.log(spot))
    partial_sum = np.zeros_like(log_s)
    for z in points:
        log_s = log_s - 0.5 * vol * vol + vol * z
        partial_sum = partial_sum + np.exp(log_s)
    forward = np.exp(log_s) / steps
    k = strike - partial_sum / steps
    safe_k = np.where(k > 0.0, k, 1.0)
    d1 = (np.log(forward / safe_k) + 0.5 * vol * vol) / vol
    call = forward * ndtr(d1) - safe_k * ndtr(d1 - vol)
    value = np.where(k > 0.0, call, forward - k)
    return float(np.sum(weight * value))
