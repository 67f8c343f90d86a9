"""Reference values computed by routes independent of the estimators.

Used by the CLI's --oracle columns; the test suite carries its own copies of
the critical ones so that estimator and oracle never share code paths.  Each
is a closed form over scipy.special, or, for the credit tail, a fixed
Gauss-Legendre rule evaluated in one numpy pass; none needs scipy.integrate.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import bdtrc, gammaincc, gammaln, pdtrc

from .gaussian import norm_cdf, norm_cdf_scaled, norm_pdf, norm_ppf, norm_sf

# the credit oracle's factor rule: panels of the window, graded edges on each
# side of the threshold, and the nodes and weights of each panel
_UNIFORM_PANELS = 160
_GRADED_EDGES = 40
_GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(16)


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


def poisson_tail(mean: float, k_min: int) -> float:
    """P[Poisson(mean) >= k_min], the tail of a sum of n i.i.d. Poisson(lam) at mean n*lam.

    ``pdtrc`` is the regularised lower incomplete gamma function P(k_min, mean),
    accurate deep in the tail.
    """
    if k_min <= 0:
        return 1.0
    return float(pdtrc(k_min - 1, mean))


def exponential_mean_tail(lam: float, n: int, x: float) -> float:
    """P[S_n/n >= x] for i.i.d. Exponential(lam): S_n is Gamma(n, lam), whose tail is Q(n, lam n x)."""
    if x <= 0.0:
        return 1.0
    return float(gammaincc(n, lam * (n * x)))


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


def _reflected_cdf(z: float, d: float, gap: float, log_factor: float) -> float:
    """exp(log_factor) Phi(z), where log_factor - z^2/2 = -d^2/2 - gap.

    For z < 0 the product is formed from the scaled CDF Phi(z) exp(z^2/2) and
    that bounded exponent, so it stays finite where exp(log_factor) overflows
    and Phi(z) underflows; for z >= 0 the factor is below 1.
    """
    if z < 0.0:
        return float(norm_cdf_scaled(z)) * math.exp(-0.5 * d * d - gap)
    return math.exp(log_factor) * float(norm_cdf(z))


def _killed_mass(m: float, lo: float, b: float, s: float) -> float:
    """P[lo < X_1 < b, max X < b] for X_t = m t + s W_t, with lo < b and b > 0.

    By reflection the killed density of X_1 is the normal one times
    1 - exp(-2b(b-y)/s^2).  The reflected mass below u is
    exp(2bm/s^2) Phi((u - m - 2b)/s); each normal mass is a difference of
    tails where both arguments are positive.
    """
    d_lo, d_hi = (lo - m) / s, (b - m) / s
    direct = norm_sf(d_lo) - norm_sf(d_hi) if d_lo > 0.0 else norm_cdf(d_hi) - norm_cdf(d_lo)
    shift = 2.0 * b / s
    z_lo, z_hi = d_lo - shift, d_hi - shift
    log_factor = shift * m / s
    if z_lo > 0.0:
        # then m < lo - 2b < 0, so the factor exp(2bm/s^2) is below 1
        reflected = math.exp(log_factor) * (norm_sf(z_lo) - norm_sf(z_hi))
    else:
        reflected = (_reflected_cdf(z_hi, d_hi, 0.0, log_factor)
                     - _reflected_cdf(z_lo, d_lo, shift * (b - lo) / s, log_factor))
    return float(direct - reflected)


def up_out_call_price(s0: float, strike: float, barrier: float, rate: float,
                      sigma: float, maturity: float) -> float:
    """Closed-form price of a continuously monitored up-and-out call.

    The Black-Scholes price of Reiner & Rubinstein (Risk 4, 1991), written
    through the killed law of the log-return: with b = ln(B/S0),
    k = ln(K/S0) and s = sigma sqrt(T), the price is
    S0 M((r + sigma^2/2) T) - K exp(-rT) M((r - sigma^2/2) T), where M(m) is
    the mass on (k, b) of a drift-m path that never reaches b
    (``_killed_mass``).  The reflection terms divide by s, never by sigma^2,
    and take exponentials of non-positive exponents only, so the price stays
    finite where the factor exp(2 mu b / sigma^2) alone would overflow.
    """
    if strike <= 0.0:
        raise ValueError(f"strike must be positive, got {strike}")
    if s0 >= barrier or strike >= barrier:
        return 0.0
    b = math.log(barrier / s0)
    lo = math.log(strike / s0)
    s = sigma * math.sqrt(maturity)
    drift = rate * maturity
    half_var = 0.5 * sigma * sigma * maturity
    price = (s0 * _killed_mass(drift + half_var, lo, b, s)
             - strike * math.exp(-drift) * _killed_mass(drift - half_var, lo, b, s))
    return max(price, 0.0)


def up_in_bond_probability(s0: float, barrier: float, sigma: float, maturity: float) -> float:
    """Reflection-principle touch probability for the driftless-price model.

    The log price drifts at nu = -sigma^2/2, so the reflection factor
    exp(2 nu a / sigma^2) is exp(-a) = s0 / barrier.
    """
    a = math.log(barrier / s0)
    if a <= 0.0:
        return 1.0
    nu = -0.5 * sigma * sigma
    denom = sigma * math.sqrt(maturity)
    return float(norm_sf((a - nu * maturity) / denom) + s0 / barrier * norm_sf((a + nu * maturity) / denom))


def credit_tail_quadrature(n: int, p: float, rho: float, q: float) -> float:
    """P[L_n >= n*q] by a graded composite Gauss-Legendre rule over the factor.

    Integrates the exact conditional binomial tail against the factor density
    on a window around the threshold z_n, where the tail drops from 1 to 0
    over a width that shrinks like 1/sqrt(n).  The window is cut into
    uniform panels plus edges at z_n +- 8 2^-k (k = 0..39) and at z_n, so
    panels shrink geometrically toward the drop; each panel takes a 16-node
    rule.  The window stops at |z| = 38, where the density underflows (it is
    below 1e-313 there): for a small rho, z_n ~ 1/rho is far out, and the
    uniform panels still cover the bump near 0.
    """
    k_min = int(math.ceil(n * q - 1e-9))
    if rho == 0.0:
        return binomial_tail(n, p, k_min)
    root = math.sqrt(1.0 - rho * rho)
    offset = norm_ppf(p)
    z_n = (root * norm_ppf(q) - offset) / rho
    lo = max(min(z_n - 8.0, -8.0), -38.0)
    hi = min(max(z_n + 8.0, 8.0), 38.0)
    graded = 8.0 * 2.0 ** -np.arange(_GRADED_EDGES)
    edges = np.concatenate([np.linspace(lo, hi, _UNIFORM_PANELS + 1), z_n - graded, [z_n], z_n + graded])
    edges = np.unique(edges[(edges >= lo) & (edges <= hi)])
    half = 0.5 * np.diff(edges)[:, None]
    nodes, weights = _GAUSS_LEGENDRE
    z = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    pz = np.clip(norm_cdf((rho * z + offset) / root), 1e-300, 1.0 - 1e-16)
    return float(np.sum(half * weights * bdtrc(k_min - 1, n, pz) * norm_pdf(z)))
