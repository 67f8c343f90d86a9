"""Long-term outperformance probability via its risk-sensitive dual.

In the one-factor market of MarketSpec (bond rate a0 + b0 y, stock drift
a + b y, volatility sigma, Ornstein-Uhlenbeck factor dY = -k Y dt + dB) an
investor holding a = sigma * (stock fraction) grows log-wealth net of a0 t
as dX = (-a^2/2 + beta2 y a + beta3 y + beta4 a) dt + a dW, with
beta2 = (b - b0)/sigma, beta3 = b0, beta4 = (a - a0)/sigma and W independent
of B.  The dual cumulant Lambda(theta), theta in [0, 1), solves an ergodic
risk-sensitive control problem whose quadratic ansatz phi(y) = A y^2/2 + B y
reduces to scalar algebra: a quadratic for A, a linear solve for B, and
Lambda from the constant term.  The outperformance decay rate is then
v(x) = -sup_theta [theta x - Lambda(theta)].  With b = b0 = 0 (Black-Scholes)
both have closed forms: bs_dual_cgf and bs_outperformance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import mc, tilt
from .errors import DomainError, OutOfDomain, OutOfDualDomain
from .mc import DecayFit


@dataclass(frozen=True)
class MarketSpec:
    """One-factor market: bond rate a0 + b0 y, stock drift a + b y, vol sigma."""

    a0: float
    b0: float
    a: float
    b: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("stock volatility must be positive")


@dataclass(frozen=True)
class LqModel:
    """The normalized growth model dX = (-a^2/2 + beta2 y a + beta3 y + beta4 a) dt + a dW.

    ``alpha_scale`` and ``x_shift`` record the inverse of the normalization
    of LqModel.from_market (position a = alpha * sigma, growth net of the
    base bond rate a0) so answers can be reported in market units.
    """

    beta2: float
    beta3: float
    beta4: float
    k: float
    alpha_scale: float = 1.0
    x_shift: float = 0.0

    def __post_init__(self):
        if self.k <= 0.0:
            raise ValueError("mean-reversion rate must be positive")

    @staticmethod
    def from_market(spec: MarketSpec, k: float) -> "LqModel":
        """Map market coefficients to the normalized model."""
        return LqModel(
            beta2=(spec.b - spec.b0) / spec.sigma,
            beta3=spec.b0,
            beta4=(spec.a - spec.a0) / spec.sigma,
            k=k,
            alpha_scale=1.0 / spec.sigma,
            x_shift=spec.a0,
        )


@dataclass(frozen=True)
class DualSolution:
    """Lambda and Lambda' on [0, theta_bar) plus steepness of Lambda at the edge."""

    theta_bar: float
    lam: Callable[[float], float]
    lam_prime: Callable[[float], float]
    steep: bool


def bs_dual_cgf(a: float, a0: float, sigma: float, theta: float) -> float:
    """Black-Scholes dual cumulant theta/(1-theta) * ((a-a0)/sigma)^2 / 2.

    The cumulant of the growth in excess of the bond rate a0, which is what
    lq_dual returns for LqModel.from_market(MarketSpec(a0, 0, a, 0, sigma), k)
    at any k; diverges as theta -> 1.
    """
    if theta >= 1.0:
        raise DomainError(f"theta={theta} >= 1 is outside the dual domain")
    ratio = (a - a0) / sigma
    return 0.5 * (theta / (1.0 - theta)) * ratio**2


def bs_outperformance(a: float, a0: float, sigma: float, x: float) -> tuple[float, float, float]:
    """Closed-form (v(x), theta(x), alpha*) for the Black-Scholes market, in market units.

    With m = ((a-a0)/sigma)^2 / 2 and the excess target g = x - a0: for
    g <= m the Merton fraction (a-a0)/sigma^2 already outperforms (v = 0,
    theta = 0); above it v(x) = -(sqrt(g) - sqrt(m))^2, theta(x) =
    1 - sqrt(m/g) and the stock fraction is sqrt(2g)/sigma, signed as a - a0.
    """
    m = 0.5 * ((a - a0) / sigma) ** 2
    g = x - a0
    if g <= m:
        return 0.0, 0.0, (a - a0) / (sigma * sigma)
    value = -((math.sqrt(g) - math.sqrt(m)) ** 2)
    theta_x = 1.0 - math.sqrt(m / g)
    return value, theta_x, math.copysign(math.sqrt(2.0 * g), a - a0) / sigma


def _check_theta(theta: float) -> None:
    """The dual domain is [0, 1): the optimal position carries 1/(1 - theta)."""
    if not 0.0 <= theta < 1.0:
        raise OutOfDomain(f"theta={theta} outside the dual domain [0, 1)")


def lq_dual(model: LqModel, theta: float) -> tuple[float, float, float]:
    """Quadratic-ansatz coefficients (A, B, Lambda) at a dual parameter theta.

    Substituting phi = A y^2/2 + B y into the ergodic equation and matching
    powers of y gives
      y^2:  A^2/2 - k A + C2 = 0,          C2 = T beta2^2 / 2
      y^1:  B (A - k) + theta beta3 + T beta2 beta4 = 0
      y^0:  Lambda = A/2 + B^2/2 + T beta4^2 / 2
    with T = theta/(1 - theta).  The A-quadratic has two roots; the branch
    continuous in theta with A(0) = 0 is A = k - sqrt(k^2 - 2 C2), the one
    that keeps the theta-adjusted factor drift mean-reverting.  Raises
    OutOfDomain outside [0, 1) or when the discriminant goes negative.
    """
    _check_theta(theta)
    t_factor = theta / (1.0 - theta)
    c2 = 0.5 * t_factor * model.beta2**2
    disc = model.k**2 - 2.0 * c2
    if disc < 0.0:
        raise OutOfDomain(f"discriminant {disc:.6g} < 0 at theta={theta}")
    coeff_a = model.k - math.sqrt(disc)
    denom = model.k - coeff_a  # = sqrt(disc) > 0 on the ergodic branch
    rhs = theta * model.beta3 + t_factor * model.beta2 * model.beta4
    if denom == 0.0:
        raise OutOfDomain(f"degenerate linear solve at theta={theta}")
    coeff_b = rhs / denom
    lam = 0.5 * coeff_a + 0.5 * coeff_b**2 + 0.5 * t_factor * model.beta4**2
    return coeff_a, coeff_b, lam


def lam_prime(model: LqModel, theta: float) -> float:
    """Closed-form Lambda'(theta), by the chain rule through lq_dual's matching.

    With s = sqrt(disc) = k - A, T' = 1/(1 - theta)^2 and primes for
    d/dtheta: C2' = T' beta2^2/2, rhs' = beta3 + T' beta2 beta4,
    A' = C2'/s, B' = (rhs' + B C2'/s)/s and
    Lambda' = A'/2 + B B' + T' beta4^2/2.  Raises OutOfDomain where lq_dual does.
    """
    coeff_a, coeff_b, _ = lq_dual(model, theta)
    root = model.k - coeff_a
    t_prime = 1.0 / (1.0 - theta) ** 2
    c2_prime = 0.5 * t_prime * model.beta2**2
    rhs_prime = model.beta3 + t_prime * model.beta2 * model.beta4
    a_prime = c2_prime / root
    b_prime = (rhs_prime + coeff_b * c2_prime / root) / root
    return 0.5 * a_prime + coeff_b * b_prime + 0.5 * t_prime * model.beta4**2


def theta_bar(model: LqModel) -> tuple[float, bool]:
    """Right endpoint of the dual domain and whether Lambda is steep there.

    The A-discriminant k^2 - T beta2^2, with T = theta/(1 - theta), falls
    from k^2 to -inf on [0, 1) when beta2 != 0 and vanishes at
    k^2/(k^2 + beta2^2); with beta2 = 0 it stays positive and the endpoint
    is 1.  Steepness follows from the term of lam_prime that diverges there:
    at a discriminant zero A' = C2'/sqrt(disc) does; at 1, T' beta4^2/2 does
    unless beta4 = 0.
    """
    if model.beta2 != 0.0:
        return model.k**2 / (model.k**2 + model.beta2**2), True
    return 1.0, model.beta4 != 0.0


def feedback_policy(model: LqModel, theta: float, y: float) -> float:
    """Optimal position (beta2 y + beta4) / (1 - theta)."""
    _check_theta(theta)
    return (model.beta2 * y + model.beta4) / (1.0 - theta)


def solve_dual(model: LqModel) -> DualSolution:
    """Package Lambda and Lambda' as functions of theta on [0, theta_bar)."""
    bar, steep = theta_bar(model)
    return DualSolution(theta_bar=bar, lam=lambda theta: lq_dual(model, theta)[2],
                        lam_prime=lambda theta: lam_prime(model, theta), steep=steep)


def dual_to_value(dual: DualSolution, x: float) -> tuple[float, float]:
    """v(x) = -sup_{theta in [0, theta_bar)} [theta x - Lambda(theta)].

    The objective is concave, so its argmax theta(x) is the root of
    Lambda'(theta) = x; targets at or below Lambda'(0) give v = 0 with
    theta(x) = 0.  The probe toward theta_bar goes on to the last float
    below it, or ends where the rounded A-discriminant reaches 0 first
    (theta_bar is itself rounded when beta2 != 0).  Raises OutOfDualDomain
    for targets beyond Lambda' on that probe: past its value at the last
    point when Lambda is steep, past its finite limit when it is not.
    """
    if x <= dual.lam_prime(0.0):
        return 0.0, 0.0
    try:
        theta_x = tilt._bracketed_root(lambda theta: dual.lam_prime(theta) - x, 0.0, dual.theta_bar)
    except OutOfDomain:
        theta_x = None
    if theta_x is None:
        raise OutOfDualDomain(
            f"x={x} beyond Lambda' below theta_bar={dual.theta_bar:.6g}"
            + ("" if dual.steep else "; dual not steep")
        )
    return min(dual.lam(theta_x) - theta_x * x, 0.0), theta_x


def mc_outperformance(
    model: LqModel,
    x: float,
    horizons: Sequence[float],
    N: int,
    seed: int,
    policy_index: int = 1,
    euler_step: float = 1e-2,
    threads: int = 1,
) -> DecayFit:
    """Fit ln P[X_T / T >= x] against T under a nearly optimal feedback policy.

    The policy is alpha(theta(x + 1/policy_index), y) from the dual solution
    (the theorem's nearly-optimal sequence; larger indices track the optimum
    more closely).  It is affine in the factor, alpha = p y + q, so along it
    the growth drift is a quadratic c2 y^2 + c1 y + c0 and the volatility a
    line v1 y + v0.

    The factor moves by its exact Ornstein-Uhlenbeck transition on the grid
    of ``euler_step``.  The growth is the left-endpoint Euler sum, but it is
    drawn from its exact law given the factor path: with S1 and S2 the sums of
    y and y^2 over the left endpoints, and W independent of the factor noise,
    X_T ~ N(dt (c2 S2 + c1 S1 + n c0), dt (v1^2 S2 + 2 v1 v0 S1 + n v0^2)).
    So a step costs one factor normal, and a path one more normal for X_T.
    When c2 = c1 = v1 = 0 (a market with constant coefficients) the factor
    carries no weight: no factor path is simulated and X_T is drawn from its
    exact law N(c0 T, v0^2 T).

    The fitted slope estimates v(x); the approach in T is slow (a -ln(T)/2
    prefactor), so treat this as a property check.
    """
    dual = solve_dual(model)
    target = x + 1.0 / policy_index
    lam0_slope = dual.lam_prime(0.0)
    if x <= lam0_slope:
        target = lam0_slope + 1.0 / policy_index
    _, theta_pol = dual_to_value(dual, target)
    q = feedback_policy(model, theta_pol, 0.0)
    p = feedback_policy(model, theta_pol, 1.0) - q
    c2 = -0.5 * p * p + model.beta2 * p
    c1 = -p * q + model.beta2 * q + model.beta3 + model.beta4 * p
    c0 = -0.5 * q * q + model.beta4 * q
    v1, v0 = p, q
    factor_free = c2 == 0.0 and c1 == 0.0 and v1 == 0.0

    def estimate(horizon, rung_seed):
        n_steps = max(int(round(horizon / euler_step)), 1)
        dt = horizon / n_steps
        decay = math.exp(-model.k * dt)
        ou_sd = math.sqrt((1.0 - decay * decay) / (2.0 * model.k))

        def sampler(ss, size):
            rng = np.random.default_rng(ss)
            s1 = s2 = 0.0  # y_0 = 0 adds nothing to either sum
            if not factor_free:
                ys = np.zeros(size)
                s1 = np.zeros(size)
                s2 = np.zeros(size)
                buf = np.empty(size)
                for _ in range(n_steps - 1):
                    rng.standard_normal(size, out=buf)
                    ys *= decay
                    buf *= ou_sd
                    ys += buf
                    s1 += ys
                    np.multiply(ys, ys, out=buf)
                    s2 += buf
            mean = dt * (c2 * s2 + c1 * s1 + n_steps * c0)
            var = np.maximum(dt * (v1 * v1 * s2 + 2.0 * v1 * v0 * s1 + n_steps * v0 * v0), 0.0)
            xs = mean + np.sqrt(var) * rng.standard_normal(size)
            return (xs / horizon >= x).astype(float)

        return mc.run_replications(sampler, N, rung_seed, threads=threads)

    return mc.fit_ladder(horizons, mc.run_ladder(estimate, horizons, seed))
