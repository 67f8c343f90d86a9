"""Reference values computed by routes independent of the estimators.

Used by the CLI's --oracle columns; the test suite carries its own copies of
the critical ones so that estimator and oracle never share code paths.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import bdtrc, gammaln

from .gaussian import norm_cdf, norm_pdf, norm_ppf, norm_sf


def binomial_log_pmf(n: int, p: float, k) -> np.ndarray:
    """ln P[Bin(n, p) = k] from log-gamma terms, finite for every n."""
    k = np.asarray(k, dtype=float)
    return (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_tail(n: int, p: float, k_min: int) -> float:
    """P[Bin(n, p) >= k_min] from the regularised incomplete beta function.

    ``bdtrc`` keeps relative accuracy deep in the tail at every n; it returns
    nan past k = n, where the tail is empty.
    """
    if k_min > n:
        return 0.0
    return float(bdtrc(k_min - 1, n, p))


def normal_mean_tail(m: float, var: float, n: int, x: float) -> float:
    """P[S_n/n >= x] for i.i.d. Normal(m, var): a plain normal tail."""
    return float(norm_sf((x - m) * math.sqrt(n / var)))


def ruin_probability_exponential(premium: float, lam: float, claim_rate: float, x: float) -> float:
    """Closed-form ruin probability (lam/(premium*nu)) exp(-theta_L x).

    Valid for exponential claims under the net profit condition, with
    theta_L = nu - lam/premium.
    """
    theta_l = claim_rate - lam / premium
    if theta_l <= 0.0:
        raise ValueError("net profit condition fails; ruin is certain")
    return lam / (premium * claim_rate) * math.exp(-theta_l * x)


def up_out_call_price(s0: float, strike: float, barrier: float, rate: float,
                      sigma: float, maturity: float) -> float:
    """Reflection-principle price of an up-and-out call, by quadrature.

    The joint law of (log-return, running max) of the drifted Brownian gives
    the killed terminal density
    f(y) = phi((y - mu T)/s)/s - exp(2 mu b / sigma^2) phi((y - 2b - mu T)/s)/s
    for y < b = ln(B/S0), s = sigma sqrt(T); the price integrates the payoff
    against it.  Quadrature keeps this independent of any simulation code.
    """
    if s0 >= barrier:
        return 0.0
    mu = rate - 0.5 * sigma * sigma
    b = math.log(barrier / s0)
    s = sigma * math.sqrt(maturity)
    lo = math.log(strike / s0) if strike > 0 else -40.0 * s

    def killed_density(y):
        direct = norm_pdf((y - mu * maturity) / s) / s
        reflected = math.exp(2.0 * mu * b / (sigma * sigma)) * norm_pdf((y - 2.0 * b - mu * maturity) / s) / s
        return direct - reflected

    def integrand(y):
        return (s0 * math.exp(y) - strike) * killed_density(y)

    if lo >= b:
        return 0.0
    from scipy import integrate  # on demand: with the scipy.optimize it loads, about 0.3 s of cold start
    value, _ = integrate.quad(integrand, lo, b, limit=200)
    return math.exp(-rate * maturity) * max(value, 0.0)


def up_in_bond_probability(s0: float, barrier: float, sigma: float, maturity: float) -> float:
    """Reflection-principle touch probability for the driftless-price model."""
    a = math.log(barrier / s0)
    if a <= 0.0:
        return 1.0
    nu = -0.5 * sigma * sigma
    denom = sigma * math.sqrt(maturity)
    return float(
        norm_sf((a - nu * maturity) / denom)
        + math.exp(2.0 * nu * a / (sigma * sigma)) * norm_sf((a + nu * maturity) / denom)
    )


def credit_tail_quadrature(n: int, p: float, rho: float, q: float) -> float:
    """P[L_n >= n*q] by adaptive quadrature over the factor.

    Integrates the exact conditional binomial tail against the factor density
    on a window around the threshold z_n where the integrand concentrates
    (a fixed global rule under-resolves the far-tail bump for large n).  The
    window stops at |z| = 38, where the density underflows (it is below
    1e-313 there): for a small rho, z_n ~ 1/rho is far out, and a window
    reaching it would leave the rule no node on the bump near 0.
    """
    k_min = int(math.ceil(n * q - 1e-9))
    if rho == 0.0:
        return binomial_tail(n, p, k_min)
    root = math.sqrt(1.0 - rho * rho)
    z_n = (root * norm_ppf(q) - norm_ppf(p)) / rho

    def integrand(z):
        pz = float(norm_cdf((rho * z + norm_ppf(p)) / root))
        pz = min(max(pz, 1e-300), 1.0 - 1e-16)
        return binomial_tail(n, pz, k_min) * float(norm_pdf(z))

    lo = max(min(z_n - 8.0, -8.0), -38.0)
    hi = min(max(z_n + 8.0, 8.0), 38.0)
    from scipy import integrate  # loaded on demand, as in up_out_call_price
    value, _ = integrate.quad(integrand, lo, hi, limit=800, epsabs=1e-300, epsrel=1e-10)
    return value
