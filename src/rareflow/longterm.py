"""Long-term outperformance probability via its risk-sensitive dual.

The growth rate of log-wealth in the one-factor linear-quadratic market
follows dX = (b0 y^2 + b1 a^2 + b2 y a + b3 y + b4 a + b5) dt
+ (d0 y + d1 a + d2) dW with an Ornstein-Uhlenbeck factor dY = -k Y dt + dB.
The dual cumulant Lambda(theta) solves an ergodic risk-sensitive control
problem whose quadratic ansatz phi(y) = A y^2 / 2 + B y reduces to scalar
algebra: a quadratic for A, a linear solve for B, and Lambda from the
constant term.  The outperformance decay rate is then
v(x) = -sup_theta [theta x - Lambda(theta)].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import mc
from .errors import (
    DomainError,
    NegativeTarget,
    OutOfDomain,
    OutOfDualDomain,
)
from .mc import DecayFit

RATE_INF = math.inf


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
    """Normalized linear-quadratic growth model.

    The normalization sigma = 1 (position rescaled to alpha*sigma) and
    beta5 = 0 (riskless base rate shifted into the target) is applied when
    building from a MarketSpec; ``alpha_scale`` and ``x_shift`` record the
    inverse map so answers can be reported in market units.
    """

    beta0: float
    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta5: float
    delta0: float
    delta1: float
    delta2: float
    k: float
    alpha_scale: float = 1.0
    x_shift: float = 0.0

    def __post_init__(self):
        if self.k <= 0.0:
            raise ValueError("mean-reversion rate must be positive")

    @staticmethod
    def from_market(spec: MarketSpec, k: float) -> "LqModel":
        """Map market coefficients to the normalized quadratic form."""
        return LqModel(
            beta0=0.0,
            beta1=-0.5,
            beta2=(spec.b - spec.b0) / spec.sigma,
            beta3=spec.b0,
            beta4=(spec.a - spec.a0) / spec.sigma,
            beta5=0.0,
            delta0=0.0,
            delta1=1.0,
            delta2=0.0,
            k=k,
            alpha_scale=1.0 / spec.sigma,
            x_shift=spec.a0,
        )


@dataclass(frozen=True)
class DualSolution:
    """(Lambda, A, B) on [0, theta_bar) plus steepness of Lambda at the edge."""

    theta_bar: float
    lam: Callable[[float], float]
    coeff_a: Callable[[float], float]
    coeff_b: Callable[[float], float]
    steep: bool


def static_rate(x: float, alpha: float, mu: float, sigma: float) -> float:
    """Decay rate of P[mean wealth >= x] for a fixed position in a flat market.

    ((alpha mu - x) / (alpha sigma))^2 / 2 for alpha != 0; holding nothing
    gives rate 0 at target 0 and an infinite rate otherwise.  Minimized over
    alpha at alpha = x / mu.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if alpha == 0.0:
        return 0.0 if x == 0.0 else RATE_INF
    return 0.5 * ((alpha * mu - x) / (alpha * sigma)) ** 2


def bs_dual_cgf(a: float, a0: float, sigma: float, theta: float) -> float:
    """Black-Scholes dual cumulant theta/(1-theta) * ((a-a0)/sigma^2)^2 / 2.

    Stated in the sigma-normalized units of LqModel.from_market (where the
    printed sigma^2 and sigma coincide); diverges as theta -> 1.
    """
    if theta >= 1.0:
        raise DomainError(f"theta={theta} >= 1 is outside the dual domain")
    ratio = (a - a0) / (sigma * sigma)
    return 0.5 * theta / (1.0 - theta) * ratio * ratio


def bs_outperformance(a: float, a0: float, sigma: float, x: float) -> tuple[float, float, float]:
    """Closed-form (v(x), theta(x), alpha*) for the Black-Scholes market.

    x_bar = ((a-a0)/sigma^2)^2 / 2 splits the regimes: below it the
    Merton-type fraction (a-a0)/sigma^2 already outperforms (v = 0), above it
    v(x) = -(sqrt(x) - sqrt(x_bar))^2 with theta(x) = 1 - sqrt(x_bar/x) and
    the growing position alpha* = sqrt(2x).
    """
    if x < 0.0:
        raise NegativeTarget(f"target must be nonnegative, got {x}")
    ratio = (a - a0) / (sigma * sigma)
    x_bar = 0.5 * ratio * ratio
    if x < x_bar:
        return 0.0, 0.0, ratio
    if x == 0.0:  # x_bar must be 0 too; degenerate flat market
        return 0.0, 0.0, ratio
    value = -((math.sqrt(x) - math.sqrt(x_bar)) ** 2)
    theta_x = 1.0 - math.sqrt(x_bar / x)
    return value, theta_x, math.sqrt(2.0 * x)


def _quadratic_pieces(model: LqModel, theta: float):
    """Coefficient-matching terms shared by lq_dual and theta_bar.

    Substituting phi = A y^2/2 + B y into the ergodic equation and matching
    powers of y gives
      y^2:  A^2/2 - k A + C2 = 0,          C2 = theta beta0
             + theta^2 delta0^2/2 + T P^2 / 2
      y^1:  B (A - k) + theta beta3 + theta^2 delta0 delta2 + T P Q = 0
      y^0:  Lambda = A/2 + B^2/2 + theta^2 delta2^2/2 + T Q^2 / 2
    with T = theta/(1 - theta delta1^2), P = beta2 + theta delta0 delta1,
    Q = beta4 + theta delta1 delta2.
    """
    t_factor = theta / (1.0 - theta * model.delta1**2)
    p_lin = model.beta2 + theta * model.delta0 * model.delta1
    q_lin = model.beta4 + theta * model.delta1 * model.delta2
    c2 = theta * model.beta0 + 0.5 * theta**2 * model.delta0**2 + 0.5 * t_factor * p_lin**2
    return t_factor, p_lin, q_lin, c2


def lq_dual(model: LqModel, theta: float) -> tuple[float, float, float]:
    """Quadratic-ansatz coefficients (A, B, Lambda) at a dual parameter theta.

    The A-quadratic has two roots; the branch continuous in theta with
    A(0) = 0 is A = k - sqrt(k^2 - 2 C2), the one that keeps the
    theta-adjusted factor drift mean-reverting.  Raises OutOfDomain at
    theta >= 1/delta1^2 or when the discriminant goes negative.
    """
    if theta < 0.0:
        raise OutOfDomain("theta must be nonnegative")
    if model.delta1 != 0.0 and theta >= 1.0 / model.delta1**2:
        raise OutOfDomain(
            f"theta={theta} >= 1/delta1^2 = {1.0 / model.delta1**2:.6g}"
        )
    t_factor, p_lin, q_lin, c2 = _quadratic_pieces(model, theta)
    disc = model.k**2 - 2.0 * c2
    if disc < 0.0:
        raise OutOfDomain(f"discriminant {disc:.6g} < 0 at theta={theta}")
    coeff_a = model.k - math.sqrt(disc)
    denom = model.k - coeff_a  # = sqrt(disc) > 0 on the ergodic branch
    rhs = theta * model.beta3 + theta**2 * model.delta0 * model.delta2 + t_factor * p_lin * q_lin
    if denom == 0.0:
        raise OutOfDomain(f"degenerate linear solve at theta={theta}")
    coeff_b = rhs / denom
    lam = 0.5 * coeff_a + 0.5 * coeff_b**2 + 0.5 * theta**2 * model.delta2**2 + 0.5 * t_factor * q_lin**2
    return coeff_a, coeff_b, lam


def hjb_residual(model: LqModel, theta: float, y: float) -> float:
    """Residual of the ergodic equation at (theta, y) for the encoded (A,B,Lambda).

    Zero up to rounding by construction; the unit tests pin 1e-9 on a grid.
    """
    coeff_a, coeff_b, lam = lq_dual(model, theta)
    t_factor, p_lin, q_lin, _ = _quadratic_pieces(model, theta)
    phi_p = coeff_a * y + coeff_b
    rhs = (
        0.5 * coeff_a
        - model.k * y * phi_p
        + 0.5 * phi_p**2
        + theta * (model.beta0 + 0.5 * theta * model.delta0**2) * y**2
        + theta * (model.beta3 + theta * model.delta0 * model.delta2) * y
        + 0.5 * theta**2 * model.delta2**2
        + 0.5 * t_factor * (p_lin * y + q_lin) ** 2
    )
    return rhs - lam


def theta_bar(model: LqModel, tol: float = 1e-10) -> tuple[float, bool]:
    """Right endpoint of the dual domain and whether Lambda is steep there.

    The endpoint is the smaller of 1/delta1^2 and the first theta where the
    A-discriminant turns negative (located by bisection).  Steepness is
    detected by the growth of Lambda' along a geometric approach to the
    endpoint.
    """
    cap = math.inf if model.delta1 == 0.0 else 1.0 / model.delta1**2

    def disc_ok(theta: float) -> bool:
        t_factor, _, _, c2 = _quadratic_pieces(model, theta)
        return model.k**2 - 2.0 * c2 >= 0.0

    hi = cap
    if math.isinf(cap):
        hi = 1.0
        while disc_ok(hi) and hi < 1e12:
            hi *= 2.0
        if hi >= 1e12:
            return math.inf, True
    lo = 0.0
    if disc_ok(hi * (1.0 - 1e-15) if math.isfinite(hi) else hi):
        bar = cap
    else:
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if disc_ok(mid):
                a = mid
            else:
                b = mid
        bar = 0.5 * (a + b)

    # steepness probe: Lambda' on a geometric approach grid to the endpoint
    def lam_prime(theta: float, h: float) -> float:
        _, _, up = lq_dual(model, theta + h)
        _, _, down = lq_dual(model, theta - h)
        return (up - down) / (2.0 * h)

    growth = []
    for gap in (1e-3, 1e-5, 1e-7):
        theta = bar - gap
        if theta <= 0.0:
            continue
        h = gap * 0.1
        try:
            growth.append(lam_prime(theta, h))
        except OutOfDomain:
            continue
    steep = len(growth) >= 2 and growth[-1] > 10.0 * max(growth[0], 1.0)
    return bar, steep


def feedback_policy(model: LqModel, theta: float, y: float) -> float:
    """Optimal position ((beta2 + theta d0 d1) y + beta4 + theta d1 d2)/(1 - theta d1^2)."""
    if model.delta1 != 0.0 and theta >= 1.0 / model.delta1**2:
        raise OutOfDomain(f"theta={theta} outside [0, 1/delta1^2)")
    return ((model.beta2 + theta * model.delta0 * model.delta1) * y
            + model.beta4 + theta * model.delta1 * model.delta2) / (1.0 - theta * model.delta1**2)


def hamiltonian_term(model: LqModel, theta: float, y: float, a: float) -> float:
    """The a-dependent part of the ergodic equation's sup, for optimality checks."""
    drift_part = model.beta1 * a * a + model.beta2 * y * a + model.beta4 * a
    vol = model.delta0 * y + model.delta1 * a + model.delta2
    return theta * drift_part + 0.5 * theta * theta * vol * vol


def solve_dual(model: LqModel) -> DualSolution:
    """Package Lambda, A, B as functions of theta on [0, theta_bar)."""
    bar, steep = theta_bar(model)

    def lam(theta: float) -> float:
        return lq_dual(model, theta)[2]

    def coeff_a(theta: float) -> float:
        return lq_dual(model, theta)[0]

    def coeff_b(theta: float) -> float:
        return lq_dual(model, theta)[1]

    return DualSolution(theta_bar=bar, lam=lam, coeff_a=coeff_a, coeff_b=coeff_b, steep=steep)


def _lam_prime(dual: DualSolution, theta: float) -> float:
    h = min(1e-7, max(theta, dual.theta_bar - theta) * 1e-3 + 1e-12)
    lo = max(theta - h, 0.0)
    hi = theta + h
    if math.isfinite(dual.theta_bar):
        hi = min(hi, dual.theta_bar * (1.0 - 1e-12))
    if hi <= lo:
        return 0.0
    return (dual.lam(hi) - dual.lam(lo)) / (hi - lo)


def dual_to_value(dual: DualSolution, x: float) -> tuple[float, float]:
    """v(x) = -sup_{theta in [0, theta_bar)} [theta x - Lambda(theta)].

    The objective is concave, so golden-section plus a Newton polish on
    Lambda'(theta) = x locates the argmax; targets at or below Lambda'(0)
    give v = 0 with theta(x) = 0.  Raises OutOfDualDomain for targets beyond
    Lambda'(theta_bar) when Lambda is not steep.
    """
    if x <= _lam_prime(dual, 0.0) + 1e-15:
        return 0.0, 0.0
    if not dual.steep and math.isfinite(dual.theta_bar):
        edge_slope = _lam_prime(dual, dual.theta_bar * (1.0 - 1e-9))
        if x >= edge_slope:
            raise OutOfDualDomain(
                f"x={x} >= Lambda'(theta_bar) ~ {edge_slope:.6g}; dual not steep"
            )

    def objective(theta: float) -> float:
        return theta * x - dual.lam(theta)

    lo = 0.0
    hi = dual.theta_bar if math.isfinite(dual.theta_bar) else 1.0
    if math.isinf(dual.theta_bar):
        while objective(hi * 2.0) > objective(hi) and hi < 1e12:
            hi *= 2.0
        hi *= 2.0
    else:
        hi *= 1.0 - 1e-12
    # golden-section on the concave objective
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(200):
        if b - a < 1e-13 * max(1.0, hi):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    theta_x = 0.5 * (a + b)
    # Newton polish on Lambda'(theta) = x using finite differences
    for _ in range(8):
        h = max(1e-8, theta_x * 1e-8)
        hi_t = theta_x + h
        lo_t = max(theta_x - h, 0.0)
        if math.isfinite(dual.theta_bar):
            hi_t = min(hi_t, dual.theta_bar * (1.0 - 1e-12))
        f_prime = (dual.lam(hi_t) - dual.lam(lo_t)) / (hi_t - lo_t)
        f_second = (dual.lam(hi_t) - 2.0 * dual.lam(theta_x) + dual.lam(lo_t)) / ((0.5 * (hi_t - lo_t)) ** 2)
        if not math.isfinite(f_second) or f_second <= 0.0:
            break
        step = (f_prime - x) / f_second
        cand = theta_x - step
        if not (lo < cand < hi):
            break
        if objective(cand) >= objective(theta_x):
            theta_x = cand
        else:
            break
    value = -objective(theta_x)
    return min(value, 0.0), theta_x


def mc_outperformance(
    model: LqModel,
    x: float,
    horizons: Sequence[float],
    N: int,
    seed: int,
    policy_index: int = 1,
    euler_step: float = 1e-2,
    constant_policy: float | None = None,
    threads: int = 1,
) -> DecayFit:
    """Fit ln P[X_T / T >= x] against T under a nearly optimal feedback policy.

    The policy is alpha(theta(x + 1/policy_index), y) from the dual solution
    (the theorem's nearly-optimal sequence; larger indices track the optimum
    more closely), or a fixed ``constant_policy``.  Either way alpha = p y + q
    is affine in the factor, so along it the growth drift is a quadratic
    c2 y^2 + c1 y + c0 and the volatility a line v1 y + v0.

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
    if constant_policy is None:
        target = x + 1.0 / policy_index
        lam0_slope = _lam_prime(dual, 0.0)
        if x <= lam0_slope:
            target = lam0_slope + 1.0 / policy_index
        _, theta_pol = dual_to_value(dual, target)
        q = feedback_policy(model, theta_pol, 0.0)
        p = feedback_policy(model, theta_pol, 1.0) - q
    else:
        p, q = 0.0, constant_policy
    c2 = model.beta0 + model.beta1 * p * p + model.beta2 * p
    c1 = 2.0 * model.beta1 * p * q + model.beta2 * q + model.beta3 + model.beta4 * p
    c0 = model.beta1 * q * q + model.beta4 * q + model.beta5
    v1 = model.delta0 + model.delta1 * p
    v0 = model.delta1 * q + model.delta2
    factor_free = c2 == 0.0 and c1 == 0.0 and v1 == 0.0

    results = []
    for rung, horizon in enumerate(horizons):
        n_steps = max(int(round(horizon / euler_step)), 1)
        dt = horizon / n_steps
        decay = math.exp(-model.k * dt)
        ou_sd = math.sqrt((1.0 - decay * decay) / (2.0 * model.k))

        def sampler(ss, size, _dt=dt, _n=n_steps, _decay=decay, _sd=ou_sd, _T=horizon):
            rng = np.random.default_rng(ss)
            s1 = s2 = 0.0  # y_0 = 0 adds nothing to either sum
            if not factor_free:
                ys = np.zeros(size)
                s1 = np.zeros(size)
                s2 = np.zeros(size)
                buf = np.empty(size)
                for _ in range(_n - 1):
                    rng.standard_normal(size, out=buf)
                    ys *= _decay
                    buf *= _sd
                    ys += buf
                    s1 += ys
                    np.multiply(ys, ys, out=buf)
                    s2 += buf
            mean = _dt * (c2 * s2 + c1 * s1 + _n * c0)
            var = np.maximum(_dt * (v1 * v1 * s2 + 2.0 * v1 * v0 * s1 + _n * v0 * v0), 0.0)
            xs = mean + np.sqrt(var) * rng.standard_normal(size)
            return (xs / _T >= x).astype(float)

        results.append(mc.run_replications(sampler, N, seed + rung, threads=threads))
    points, dropped = mc.decay_points(horizons, results)
    if dropped:
        warnings.warn(f"dropped {dropped} zero-hit horizons", stacklevel=2)
    return mc.fit_decay(points)
