"""Importance-sampling drift selection for path-dependent payoffs.

Two constructions: a deterministic mean shift mu for the driving normal
vector, chosen as the fixed point grad(log G)(mu) = mu of the payoff's
log-transform (the variance-optimal shift in the small-noise limit), and a
state-feedback drift for barrier-style events built from the closed-form
geodesic distance to the barrier in the constant-coefficient model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import mc
from .bridge import kill_exponent_single, kill_prob
from .errors import AtMaturity, DomainEscape, MomentConditionViolated
from .mc import DecayFit, EstimatorResult


class PathPayoff:
    """Nonnegative payoff G of a standard-normal vector of length dim.

    ``evaluate`` is the one formula: it maps an (..., dim) array to the payoff
    of each row along the last axis, so a single point and the (N, dim)
    Monte Carlo paths run the same code.  Row-wise reductions (``np.sum``,
    ``np.mean`` with ``axis=-1``) give each row the bits it gets alone; a
    matrix product does not.  ``log_payoff`` F = ln G is
    finite exactly on {G > 0}; a closed-form gradient may be supplied,
    otherwise central differences (step 1e-5) are used, gated by a domain
    probe.
    """

    def __init__(self, dim: int, evaluate: Callable[[np.ndarray], np.ndarray],
                 gradient: Callable[[np.ndarray], np.ndarray] | None = None,
                 growth_c2: float | None = None):
        self.dim = dim
        self._evaluate = evaluate
        self._gradient = gradient
        self.growth_c2 = growth_c2

    def evaluate(self, z: np.ndarray) -> float:
        return float(self._evaluate(np.asarray(z, dtype=float)))

    def evaluate_batch(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(self._evaluate(np.asarray(z, dtype=float)), dtype=float)

    def in_domain(self, z: np.ndarray) -> bool:
        return self.evaluate(z) > 0.0

    def log_payoff(self, z: np.ndarray) -> float:
        g = self.evaluate(z)
        return math.log(g) if g > 0.0 else -math.inf

    def log_gradient(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self._gradient is not None:
            return np.asarray(self._gradient(z), dtype=float)
        h = 1e-5
        grad = np.empty(self.dim)
        for i in range(self.dim):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            gp, gm = self.evaluate(zp), self.evaluate(zm)
            if gp <= 0.0 or gm <= 0.0:
                raise DomainEscape(f"finite-difference probe left {{G>0}} near {z}")
            grad[i] = (math.log(gp) - math.log(gm)) / (2.0 * h)
        return grad


@dataclass(frozen=True)
class DriftResult:
    mu: np.ndarray
    objective: float
    iterations: int
    converged: bool


def _objective(payoff: PathPayoff, z: np.ndarray) -> float:
    return payoff.log_payoff(z) - 0.5 * float(z @ z)


def ghs_drift(payoff: PathPayoff, start, tol: float = 1e-9, max_iter: int = 500) -> DriftResult:
    """Maximize F(z) - z'z/2 by damped fixed-point iteration on grad F(z) = z.

    Steps are blends z <- (1-eta) z + eta grad F(z) with an ascent safeguard:
    eta is halved while the candidate leaves {G > 0} or drops the objective,
    and additionally whenever the fixed-point residual stalls (the raw map
    can be locally expansive even at an interior maximum).  The damping
    persists across iterations and starts at a full step, so a linear
    log-payoff converges in a single exact iteration.  Hitting max_iter
    returns the best iterate with ``converged=False`` instead of raising.
    """
    z = np.asarray(start, dtype=float).copy()
    if not payoff.in_domain(z):
        raise DomainEscape("start point is outside {G > 0}")
    obj = _objective(payoff, z)
    eta = 1.0
    prev_residual = math.inf
    for it in range(1, max_iter + 1):
        grad = payoff.log_gradient(z)
        residual = float(np.max(np.abs(grad - z)))
        if residual <= tol:
            return DriftResult(mu=z, objective=obj, iterations=it - 1, converged=True)
        if residual >= prev_residual:
            # the raw map is expansive at this damping; back off for good
            eta *= 0.5
        prev_residual = residual
        trial = max(eta, 1e-12)
        accepted = False
        for _ in range(60):
            cand = (1.0 - trial) * z + trial * grad
            if payoff.in_domain(cand):
                cand_obj = _objective(payoff, cand)
                # slack sits well above objective rounding noise so terminal
                # steps of size O(residual) are never spuriously rejected
                if cand_obj >= obj - 1e-12 * max(1.0, abs(obj)):
                    z, obj = cand, cand_obj
                    eta = trial
                    accepted = True
                    break
            trial *= 0.5
        if not accepted:
            raise DomainEscape("no damped step stays in {G > 0} and ascends")
    grad = payoff.log_gradient(z)
    residual = float(np.max(np.abs(grad - z)))
    if residual <= tol:
        return DriftResult(mu=z, objective=obj, iterations=max_iter, converged=True)
    warnings.warn("fixed-point iteration hit max_iter; returning best iterate", stacklevel=2)
    return DriftResult(mu=z, objective=obj, iterations=max_iter, converged=False)


def mu_is_estimator(payoff: PathPayoff, mu, N: int, seed: int, threads: int = 1) -> EstimatorResult:
    """Average of G(Z) exp(-mu'Z + mu'mu/2) with Z ~ N(mu, I).

    Unbiased for E[G(Z)] for every finite mu; mu = 0 is the naive estimator.
    """
    mu = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu must be finite")
    half_norm = 0.5 * float(mu @ mu)

    def sampler(ss, size):
        rng = np.random.default_rng(ss)
        z = rng.standard_normal((size, payoff.dim)) + mu
        weights = np.exp(-(z @ mu) + half_norm)
        return payoff.evaluate_batch(z) * weights

    return mc.run_replications(sampler, N, seed, threads=threads)


def _check_growth(payoff: PathPayoff, rng: np.random.Generator) -> None:
    """Ray probe of F(z) <= c1 + c2 z'z with c2 < 1/4.

    Estimates c1 from unit-sphere values, then rejects when F along random
    rays exceeds the 0.2499-quadratic envelope.  Diagnostic only.
    """
    if payoff.growth_c2 is not None:
        if payoff.growth_c2 >= 0.25:
            raise MomentConditionViolated(
                f"declared quadratic growth c2={payoff.growth_c2} >= 1/4"
            )
        return
    dirs = rng.standard_normal((8, payoff.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    base = [payoff.log_payoff(d) for d in dirs]
    c1 = max([b for b in base if math.isfinite(b)], default=0.0) + 1.0
    for radius in (10.0, 30.0, 100.0):
        for d in dirs:
            f = payoff.log_payoff(radius * d)
            if math.isfinite(f) and f > c1 + 0.2499 * radius * radius:
                raise MomentConditionViolated(
                    f"log-payoff grows like >= z'z/4 along |z|={radius}"
                )


def scaled_second_moment_rate(
    payoff: PathPayoff, mu, eps_ladder: Sequence[float], N: int, seed: int, threads: int = 1
) -> DecayFit:
    """Measure the small-noise decay rate of the mu-IS second moment.

    For each eps the second moment M2(eps) of the scaled estimator is
    estimated by Monte Carlo and ln M2 is fitted against 1/eps; the slope
    estimates sup_z [2F(z) - mu'z + mu'mu/2 - z'z/2].  A rung whose estimate
    is zero is left out of the fit with a warning.
    """
    mu = np.asarray(mu, dtype=float)
    _check_growth(payoff, np.random.default_rng(np.random.SeedSequence([seed, 987654321])))

    def estimate(eps, rung_seed):
        sqrt_eps = math.sqrt(eps)
        mu_eps = mu / sqrt_eps

        def sampler(ss, size):
            rng = np.random.default_rng(ss)
            z = rng.standard_normal((size, payoff.dim)) + mu_eps
            z_eps = sqrt_eps * z
            f = np.log(np.maximum(payoff.evaluate_batch(z_eps), 1e-300))
            expo = (2.0 * f - 2.0 * (z_eps @ mu) + float(mu @ mu)) / eps
            return np.exp(expo)

        return mc.run_replications(sampler, N, rung_seed, threads=threads)

    return mc.fit_ladder([1.0 / eps for eps in eps_ladder], mc.run_ladder(estimate, eps_ladder, seed))


def varadhan_limit_linear(c, mu) -> float:
    """Closed-form sup_z [2 c'z - mu'z + mu'mu/2 - z'z/2] for linear log-payoff.

    Completing the square at z = 2c - mu gives
    2|c|^2 - 2 c'mu + mu'mu; equals |c|^2 at the optimal mu = c.
    """
    c = np.asarray(c, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return float(2.0 * c @ c - 2.0 * c @ mu + mu @ mu)


# -- payoff catalog ---------------------------------------------------------


def linear_payoff(c, offset: float = 0.0) -> PathPayoff:
    """G(z) = exp(c'z + offset): the zero-variance showcase for mu = c."""
    c = np.asarray(c, dtype=float)
    return PathPayoff(
        dim=c.size,
        evaluate=lambda z: np.exp(np.sum(z * c, axis=-1) + offset),
        gradient=lambda z: c.copy(),
        growth_c2=0.0,
    )


def quadratic_payoff(dim: int, curvature: float) -> PathPayoff:
    """G(z) = exp(-curvature * z'z), with gradient -2*curvature*z."""
    return PathPayoff(
        dim=dim,
        evaluate=lambda z: np.exp(-curvature * np.sum(z * z, axis=-1)),
        gradient=lambda z: -2.0 * curvature * np.asarray(z, dtype=float),
        growth_c2=max(-curvature, 0.0),
    )


def asian_call_payoff(steps: int, spot: float, strike: float, sigma: float, maturity: float) -> PathPayoff:
    """Discretely monitored Black-Scholes Asian call driven by step normals.

    S_{t_i} = S_{t_{i-1}} exp(-sigma^2 dt / 2 + sigma sqrt(dt) z_i), payoff
    (mean(S) - strike)_+.  The log-payoff gradient follows from
    dS_{t_i}/dz_j = sigma sqrt(dt) S_{t_i} for j <= i.
    """
    dt = maturity / steps
    vol_step = sigma * math.sqrt(dt)
    drift_step = -0.5 * sigma * sigma * dt

    def prices(z):
        log_increments = drift_step + vol_step * z
        return spot * np.exp(np.cumsum(log_increments, axis=-1))

    def evaluate(z):
        return np.maximum(np.mean(prices(z), axis=-1) - strike, 0.0)

    def gradient(z):
        s = prices(z)
        g = float(np.mean(s)) - strike
        if g <= 0.0:
            raise DomainEscape("gradient requested outside {G > 0}")
        # d mean(S) / dz_j = (vol_step / m) * sum_{i >= j} S_i
        tail_sums = np.cumsum(s[::-1])[::-1]
        return (vol_step / steps) * tail_sums / g

    return PathPayoff(dim=steps, evaluate=evaluate, gradient=gradient, growth_c2=0.0)


# -- barrier-style feedback drift ------------------------------------------


def fw_distance_bs(s: float, barrier: float, sigma: float) -> float:
    """Geodesic distance |ln(s/K)| / sigma to the barrier in log-price metric.

    Scale invariant: (s, K) and (c*s, c*K) give the same value.
    """
    if s <= 0.0 or barrier <= 0.0:
        raise ValueError("price and barrier must be positive")
    return abs(math.log(s / barrier)) / sigma


def fw_drift_bs(t: float, log_s, log_barrier: float, sigma: float, maturity: float):
    """Girsanov drift weight (ln s - ln K) / (sigma (T - t)), vectorised in ln s.

    Negative below the barrier; the measure change subtracts sigma*phi from
    the log-price drift, so the sign pushes simulated paths toward K.  Blows
    up like 1/(T-t) as maturity approaches.
    """
    if t >= maturity:
        raise AtMaturity(f"t={t} >= maturity {maturity}")
    return (log_s - log_barrier) / (sigma * (maturity - t))


def _girsanov_step(log_s, log_weight, phi, gauss, sigma: float, dt: float) -> np.ndarray:
    """One left-endpoint step of the log price under the drift shift -sigma*phi.

    Returns the next log price and adds the step's log-likelihood term
    phi dW - phi^2 dt / 2 to ``log_weight`` in place.
    """
    sqrt_dt = math.sqrt(dt)
    log_next = log_s + (-0.5 * sigma * sigma - sigma * phi) * dt + sigma * sqrt_dt * gauss
    log_weight += phi * sqrt_dt * gauss - 0.5 * phi * phi * dt
    return log_next


def price_up_in_bond(
    s0: float,
    barrier: float,
    sigma: float,
    maturity: float,
    steps: int,
    N: int,
    seed: int,
    use_fw_drift: bool = True,
    bridge_hits: bool = True,
    threads: int = 1,
) -> EstimatorResult:
    """P[price touches the up-barrier before maturity] by drifted simulation.

    Simulates the log price under the drift-shifted measure (shift -sigma*phi
    with the feedback phi above, frozen once the barrier is hit) and weights
    by the likelihood L_T = exp(int phi dW - int phi^2/2 dt) discretized at
    left endpoints.  With ``bridge_hits`` the barrier test also fires between
    grid points with the exact bridge probability, removing the sqrt(eps)
    discrete-monitoring bias; ``bridge_hits=False`` tests the grid maximum
    only.  ``use_fw_drift=False`` is plain Monte Carlo.
    """
    if s0 <= 0.0 or barrier <= 0.0:
        raise ValueError("prices must be positive")
    dt = maturity / steps
    log_barrier = math.log(barrier)

    def sampler(ss, size):
        path_ss, kill_ss = ss.spawn(2)
        rng = np.random.default_rng(path_ss)
        hit_rng = np.random.default_rng(kill_ss)
        log_s = np.full(size, math.log(s0))
        log_weight = np.zeros(size)
        hit = log_s >= log_barrier
        gap = np.maximum(log_barrier - log_s, 0.0)
        for i in range(steps):
            t = i * dt
            if use_fw_drift:
                phi = np.where(hit | (log_s >= log_barrier), 0.0,
                               fw_drift_bs(t, log_s, log_barrier, sigma, maturity))
            else:
                phi = np.zeros(size)
            gauss = rng.standard_normal(size)
            log_next = _girsanov_step(log_s, log_weight, phi, gauss, sigma, dt)
            new_hit = log_next >= log_barrier
            if bridge_hits:
                uniforms = hit_rng.random(size)
                gap_next = np.maximum(log_barrier - log_next, 0.0)
                new_hit |= uniforms < kill_prob(kill_exponent_single(gap, gap_next, sigma, dt))
                gap = gap_next
            hit |= new_hit
            log_s = log_next
        return hit * np.exp(log_weight)

    return mc.run_replications(sampler, N, seed, threads=threads)


def likelihood_mean(
    s0: float,
    sigma: float,
    maturity: float,
    steps: int,
    N: int,
    seed: int,
    phi_fn: Callable[[float, np.ndarray], np.ndarray],
    threads: int = 1,
) -> EstimatorResult:
    """Sample mean of the discretized likelihood L_T for a supplied drift.

    For bounded phi the likelihood is a martingale with mean one; this is the
    direct check of that normalization.
    """
    dt = maturity / steps

    def sampler(ss, size):
        rng = np.random.default_rng(ss)
        log_s = np.full(size, math.log(s0))
        log_weight = np.zeros(size)
        for i in range(steps):
            phi = np.asarray(phi_fn(i * dt, np.exp(log_s)), dtype=float)
            gauss = rng.standard_normal(size)
            log_s = _girsanov_step(log_s, log_weight, phi, gauss, sigma, dt)
        return np.exp(log_weight)

    return mc.run_replications(sampler, N, seed, threads=threads)
