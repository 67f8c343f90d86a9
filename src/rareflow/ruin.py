"""Compound-Poisson ruin probabilities and the investment extension.

The reserve earns premiums at rate p, pays i.i.d. claims at Poisson(lam)
arrivals, and is ruined when it goes negative.  The adjustment coefficient
theta_L is the positive zero of the c.g.f. of the embedded walk
S_k = sum(Y_i - p*xi_i); with a constant stock position the improved
exponent theta* plays its part.  One sampler, ``simulate_ruin_is``, serves
both: it tilts the loss process by that exponent, under which ruin is
certain, and averages Siegmund's weight ``exp(-theta * L_tau)``, unbiased
for the infinite-horizon ruin probability and at most ``exp(-theta * x)``.
With a stock position the wealth can also creep through 0 between claims;
each path then carries its bridge survival instead of a coin flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bridge, mc, tilt
from .errors import MaxStepsExceeded, NetProfitViolated, NoRoot
from .mc import DecayFit, EstimatorResult
from .tilt import TiltableFamily

MAX_PATH_STEPS = int(1e7)


@dataclass(frozen=True)
class Investment:
    """Geometric Brownian stock with drift b and volatility sigma > 0."""

    b: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("stock volatility must be positive")


@dataclass(frozen=True)
class RuinModel:
    premium: float
    lam: float
    claims: TiltableFamily
    invest: Investment | None = None

    def __post_init__(self):
        if self.premium <= 0.0 or self.lam <= 0.0:
            raise ValueError("premium rate and claim intensity must be positive")
        if self.claims.mean <= 0.0:
            raise ValueError("claim family must have positive mean")

    @property
    def safety_loading(self) -> float:
        rho = self.lam * self.claims.mean
        return (self.premium - rho) / rho


@dataclass(frozen=True)
class ExponentSolution:
    value: float
    residual: float


def _solve_exponent(model: RuinModel, offset: float) -> ExponentSolution:
    """Positive root of gamma_Y(theta) = premium*theta/lam + offset.

    Equivalently h(theta) = cgf_Y(theta) - ln(1 + premium*theta/lam + offset)
    = 0, a convex-vs-concave crossing with a unique positive root for
    light-tailed claims.  The root is bracketed just past the trivial root
    at 0, along ``tilt.expansion_grid`` up toward the claim domain's upper edge.
    """
    if model.safety_loading <= 0.0:
        raise NetProfitViolated(
            f"safety loading {model.safety_loading:.6g} must be positive"
        )

    def h(theta):  # gamma_Y(theta) = E[exp(theta*Y)] - 1 against the line
        return math.expm1(model.claims.cgf(theta)) - model.premium * theta / model.lam - offset

    theta = tilt._bracketed_root(h, 1e-12, model.claims.cgf_domain[1])
    if theta is None:
        raise NoRoot(f"no positive solution at offset {offset:.6g}; claims may be too heavy")
    return ExponentSolution(value=theta, residual=h(theta))


def adjustment_coefficient(model: RuinModel) -> ExponentSolution:
    """The Lundberg exponent theta_L: gamma_Y(theta) = premium*theta/lam."""
    return _solve_exponent(model, 0.0)


def invest_exponent(model: RuinModel) -> ExponentSolution:
    """The improved exponent theta* when investing is allowed.

    Solves gamma_Y(theta) = premium*theta/lam + b^2/(2 sigma^2 lam); the
    offset term is what constant optimal investment buys, so theta* > theta_L
    whenever b != 0.  Where 2 sigma^2 lam underflows to 0 the offset takes
    its limit: 0 at b = 0, and inf otherwise, which has no root.
    """
    if model.invest is None:
        raise ValueError("model has no investment parameters")
    b, sigma = model.invest.b, model.invest.sigma
    denominator = 2.0 * sigma * sigma * model.lam
    offset = b * b / denominator if denominator > 0.0 else (math.inf if b != 0.0 else 0.0)
    return _solve_exponent(model, offset)


def optimal_fraction(model: RuinModel, theta_star: float) -> float:
    """The asymptotically optimal constant stock position b/(sigma^2 theta*).

    ``theta_star`` is the root ``invest_exponent(model)`` solves for.
    """
    if model.invest is None:
        raise ValueError("model has no investment parameters")
    if model.invest.b == 0.0:
        return 0.0
    return model.invest.b / (model.invest.sigma * model.invest.sigma * theta_star)


def simulate_ruin_is(
    model: RuinModel, x: float, N: int, seed: int, threads: int = 1
) -> EstimatorResult:
    """Importance-sampling estimate of the infinite-horizon ruin probability.

    Siegmund's algorithm (Asmussen & Glynn, *Stochastic Simulation*, 2007,
    ch. VI): tilt the loss L_t = x - V_t by the zero theta of its exponent,
    theta_L with no stock position (no investment, or b = 0) and theta* at
    alpha* = ``optimal_fraction``.  Ruin is then certain, and a path's sample
    exp(-theta L_tau) is at most exp(-theta x).  Tilted claims arrive at rate
    lam M_Y(theta) = lam + premium theta + b^2/(2 sigma^2); between them the
    wealth is a Brownian motion with drift premium (the stock's tilted drift
    b - alpha* sigma^2 theta* is 0) and volatility alpha* sigma.  A path
    carries its chance S of no creep through 0 so far; a round whose bridge
    survives with chance s adds S (1 - s) exp(-theta x) and sets S <- S s,
    and a claim that ruins adds S exp(-theta L).  ``mc.check_bound`` checks
    each term against exp(-theta x).  Before any draw, Wald's identity gives
    a path's expected rounds, x lam M_Y(theta) / kappa'(theta); above
    ``MAX_PATH_STEPS`` the run raises ``MaxStepsExceeded``.
    """
    if x < 0.0:
        raise ValueError("initial reserve must be nonnegative")
    b, sigma = (model.invest.b, model.invest.sigma) if model.invest else (0.0, 1.0)
    if b == 0.0:
        theta, vol = adjustment_coefficient(model).value, 0.0
    else:
        theta = invest_exponent(model).value
        vol = abs(optimal_fraction(model, theta)) * sigma
    sharpe = b / sigma
    tilted_claims = model.claims.tilted(theta)
    tilted_rate = model.lam + model.premium * theta + 0.5 * sharpe * sharpe
    step_mean = tilted_claims.mean - model.premium / tilted_rate  # a round's expected loss
    rounds = x / step_mean if step_mean > 0.0 else math.inf
    if rounds > MAX_PATH_STEPS:
        raise MaxStepsExceeded(f"a path takes {rounds:.3g} rounds on average; check the model")
    log_bound = -theta * x

    def sampler(ss, size):
        rng = np.random.default_rng(ss)
        log_out = np.empty(size)  # -theta * L at each path's claim ruin
        alive = np.ones(size)  # each path's chance S of no creep so far
        crept = np.zeros(size)  # the sum of each path's creep terms
        active = np.arange(size)
        walks = np.zeros(size)  # losses of the active paths, in their order
        steps = 0
        while active.size:
            steps += 1
            if steps > MAX_PATH_STEPS:
                raise MaxStepsExceeded("tilted walk did not cross; check the model")
            n = active.size
            claims = tilted_claims.sample(rng, n)
            waits = rng.exponential(1.0 / tilted_rate, n)
            if vol > 0.0:
                before = walks - model.premium * waits - vol * np.sqrt(waits) * rng.standard_normal(n)
                # losses below x play the gaps below an upper level; vol^2 wait
                # may underflow, where the limit is a touch iff a gap is 0
                with np.errstate(all="ignore"):
                    survive = bridge.survival_factor(
                        bridge.kill_exponent_single(x - walks, np.maximum(x - before, 0.0), vol, waits))
                    chance = alive[active]
                    log_creep = np.log(chance * (1.0 - survive)) + log_bound
                mc.check_bound(log_creep, log_bound, True)
                crept[active] += np.exp(log_creep)
                alive[active] = chance * survive
                walks = before + claims
            else:
                walks += claims - model.premium * waits
            crossed = walks > x
            log_out[active[crossed]] = -theta * walks[crossed]
            active, walks = active[~crossed], walks[~crossed]
        with np.errstate(divide="ignore"):  # a path that crept for sure has S = 0
            log_out += np.log(alive)
        mc.check_bound(log_out, log_bound, True)
        return np.exp(log_out) + crept

    return mc.run_replications(sampler, N, seed, threads=threads)


def ruin_decay_fit(
    model: RuinModel, reserves: Sequence[float], N: int, seed: int, threads: int = 1
) -> DecayFit:
    """Fit ln psi_hat(x) against the initial reserve ladder."""
    results = mc.run_ladder(lambda x, s: simulate_ruin_is(model, float(x), N, s, threads=threads), reserves, seed)
    return mc.fit_ladder(reserves, results)
