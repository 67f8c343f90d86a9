"""Importance-sampling drift selection for path-dependent payoffs.

Two constructions: a deterministic mean shift mu for the driving normal
vector, chosen as the fixed point grad(log G)(mu) = mu of the payoff's
log-transform (the variance-optimal shift in the small-noise limit), and a
state-feedback drift for barrier-style events built from the closed-form
geodesic distance to the barrier in the constant-coefficient model.

The shift pairs with stratification along u = mu/|mu| (Glasserman,
Heidelberger & Shahabuddin 1999, section 4): the log-payoff is nearly linear
along mu, so ``stratified_mu_is_estimator`` draws u'(Z - mu) from
equal-probability strata inside each engine batch and the engine reports
the stratified standard error.  ``mu_is_estimator`` stays plain: it is the
naive estimator at mu = 0, which has no direction, and the second-moment
studies of the shift are about the plain weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import mc
from .bridge import kill_exponent_single, survival_factor
from .errors import AtMaturity, DomainEscape, MomentConditionViolated
from .mc import DecayFit, EstimatorResult


class PathPayoff:
    """Nonnegative payoff G of a standard-normal vector of length dim.

    ``evaluate`` is the one formula: it maps an (..., dim) array to the payoff
    of each row along the last axis, so a single point and the (N, dim)
    Monte Carlo paths run the same code.  Row-wise reductions (``np.sum``,
    ``np.mean`` with ``axis=-1``) give each row the bits it gets alone; a
    matrix product does not.  ``log_payoff`` F = ln G is finite exactly on
    {G > 0}; ``gradient`` is its closed-form gradient there, and
    ``growth_c2`` a declared c2 in the growth bound F(z) <= c1 + c2 z'z.
    """

    def __init__(self, dim: int, evaluate: Callable[[np.ndarray], np.ndarray],
                 gradient: Callable[[np.ndarray], np.ndarray], growth_c2: float):
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
        return np.asarray(self._gradient(np.asarray(z, dtype=float)), dtype=float)


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
    for it in range(max_iter + 1):
        grad = payoff.log_gradient(z)
        residual = float(np.max(np.abs(grad - z)))
        if residual <= tol:
            return DriftResult(mu=z, objective=obj, iterations=it, converged=True)
        if it == max_iter:
            break
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


# draws per stratum of the stratified estimator: 1,024 strata per full batch
PER_STRATUM = 16


def stratified_mu_is_estimator(payoff: PathPayoff, mu, N: int, seed: int, threads: int = 1) -> EstimatorResult:
    """Average of G(Z) exp(-mu'Z + mu'mu/2), Z ~ N(mu, I), stratified along u = mu/|mu|.

    Z = mu + xi u + w.  xi is the stratified standard normal of
    ``mc.stratified_normal`` over each batch's strata, drawn before w.  w is
    dim - 1 standard normals times an orthonormal basis of the complement of
    u: the other rows of the Householder reflection that maps e_1 to +-u.
    The weight is exp(-|mu| xi - |mu|^2/2), and a replication draws dim
    random numbers, as the plain estimator does.

    Unbiased for E[G(Z)] for every nonzero mu of finite norm; mu = 0 has no
    direction, so the naive run is ``mu_is_estimator``.  Its ``std_error``
    is the stratified one, its ``variance`` is N times the stratified
    variance of the mean, and its ``second_moment`` is derived from that
    variance and the mean, so it is not the plain second moment of the
    weighted payoff.
    """
    mu = np.asarray(mu, dtype=float)
    norm = math.sqrt(float(mu @ mu))
    if not 0.0 < norm < math.inf:
        raise ValueError("mu must be nonzero with a finite norm: it gives the direction of the strata")
    direction = mu / norm
    # the reflection I - 2 v v'/|v|^2, v = u + e_1 (u - e_1 when u_0 < 0, so
    # that |v|^2 >= 2), sends e_1 to -+u; its other rows span the complement
    v = direction.copy()
    v[0] += 1.0 if v[0] >= 0.0 else -1.0
    basis = (np.eye(payoff.dim) - (2.0 / float(v @ v)) * np.outer(v, v))[1:]
    half_norm = 0.5 * norm * norm

    def sampler(ss, size):
        rng = np.random.default_rng(ss)
        xi = mc.stratified_normal(rng, size, PER_STRATUM)
        z = rng.standard_normal((size, payoff.dim - 1)) @ basis
        z += xi[:, None] * direction
        z += mu
        return payoff.evaluate_batch(z) * np.exp(-norm * xi - half_norm)

    return mc.run_replications(sampler, N, seed, threads=threads, per_stratum=PER_STRATUM)


def _check_growth(payoff: PathPayoff) -> None:
    """The declared growth F(z) <= c1 + c2 z'z must have c2 < 1/4 for a finite second moment."""
    if payoff.growth_c2 >= 0.25:
        raise MomentConditionViolated(f"declared quadratic growth c2={payoff.growth_c2} >= 1/4")


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
    _check_growth(payoff)

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


def linear_payoff(c) -> PathPayoff:
    """G(z) = exp(c'z): the zero-variance showcase for mu = c."""
    c = np.asarray(c, dtype=float)
    return PathPayoff(
        dim=c.size,
        evaluate=lambda z: np.exp(np.sum(z * c, axis=-1)),
        gradient=lambda z: c.copy(),
        growth_c2=0.0,
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


def fw_drift_bs(t: float, log_s, log_barrier: float, sigma: float, maturity: float):
    """Girsanov drift weight (ln s - ln K) / (sigma (T - t)), vectorised in ln s.

    Negative below the barrier; the measure change subtracts sigma*phi from
    the log-price drift, so the sign pushes simulated paths toward K.  Blows
    up like 1/(T-t) as maturity approaches.
    """
    if t >= maturity:
        raise AtMaturity(f"t={t} >= maturity {maturity}")
    return (log_s - log_barrier) / (sigma * (maturity - t))


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
    left endpoints.  ``bridge_hits=False`` tests the grid maximum only and
    averages L_T over the paths that hit.  With ``bridge_hits`` the barrier
    may also be touched between grid points, with the exact bridge
    probability p_i of each step, which removes the sqrt(eps)
    discrete-monitoring bias.  A path is then not stopped by a coin flip:
    it keeps its no-hit dynamics until a grid hit, and the sample is the
    conditional expectation of the hit weight given the grid path,
    sum_i S_{i-1} p_i L_i, where S_{i-1} is the chance that no earlier
    bridge touched and L_i the likelihood after step i.  Terms below
    exp(-700) are dropped; they add up to less than steps * 1e-304.
    ``use_fw_drift=False`` is plain Monte Carlo.
    """
    if s0 <= 0.0 or barrier <= 0.0:
        raise ValueError("prices must be positive")
    dt = maturity / steps
    sqrt_dt = math.sqrt(dt)
    log_barrier = math.log(barrier)
    if bridge_hits and not sigma * sigma * dt > 0.0:
        raise ValueError("sigma^2 * maturity / steps must be positive for the bridge law")

    # near the sigma bound a kill exponent or a log-weight overflows to -inf,
    # the exact limit (a step too quiet to cross, a null path)
    @np.errstate(over="ignore")
    def sampler(ss, size):
        rng = np.random.default_rng(ss.spawn(1)[0])
        log_s = np.full(size, math.log(s0))
        log_weight = np.zeros(size)
        hit = log_s >= log_barrier
        value = hit.astype(float)  # bridge_hits: sum of S_{i-1} p_i L_i so far
        survival = 1.0 - value  # S_i: no touch through step i
        gap = np.maximum(log_barrier - log_s, 0.0)
        # step buffers, reused through out=: the same operations in the same
        # order as the expressions in the comments, so the same bits
        log_next, gap_next, gauss, move, scratch = np.empty((5, size))
        phi = np.zeros(size)  # stays 0 without the feedback drift
        for i in range(steps):
            if use_fw_drift:
                # hit holds log_s >= log_barrier already
                phi = fw_drift_bs(i * dt, log_s, log_barrier, sigma, maturity)
                np.copyto(phi, 0.0, where=hit)
            rng.standard_normal(out=gauss)
            # left-endpoint step under the drift shift -sigma*phi, and its
            # log-likelihood term phi dW - phi^2 dt / 2:
            # log_next = log_s + (-0.5 * sigma * sigma - sigma * phi) * dt + sigma * sqrt_dt * gauss
            np.multiply(sigma, phi, out=move)
            np.subtract(-0.5 * sigma * sigma, move, out=move)
            np.multiply(move, dt, out=move)
            np.add(log_s, move, out=log_next)
            np.multiply(sigma * sqrt_dt, gauss, out=move)
            np.add(log_next, move, out=log_next)
            # log_weight += phi * sqrt_dt * gauss - 0.5 * phi * phi * dt
            np.multiply(phi, sqrt_dt, out=move)
            np.multiply(move, gauss, out=move)
            np.multiply(0.5, phi, out=scratch)
            np.multiply(scratch, phi, out=scratch)
            np.multiply(scratch, dt, out=scratch)
            np.subtract(move, scratch, out=move)
            np.add(log_weight, move, out=log_weight)
            hit |= log_next >= log_barrier
            if bridge_hits:
                np.subtract(log_barrier, log_next, out=gap_next)
                np.maximum(gap_next, 0.0, out=gap_next)
                expo = kill_exponent_single(gap, gap_next, sigma, dt, out=gap)  # gap is not read again
                # S_{i-1} p_i L_i, dropped below exp(-700): np.exp leaves
                # its fast path below -708.  On most steps no path is near
                # enough to the barrier for a term to count or a factor
                # to differ from 1, and the step skips both
                term = np.add(expo, log_weight, out=move)
                if term.max() > -700.0:
                    value += survival * np.where(term > -700.0, np.exp(np.maximum(term, -700.0)), 0.0)
                if expo.max() > -40.0:  # below, -expm1 rounds to 1 exactly
                    survival *= survival_factor(expo, out=expo)
                gap, gap_next = gap_next, gap
            log_s, log_next = log_next, log_s
        return value if bridge_hits else hit * np.exp(log_weight)

    return mc.run_replications(sampler, N, seed, threads=threads)
