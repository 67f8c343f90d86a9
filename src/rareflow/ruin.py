"""Compound-Poisson ruin probabilities and the investment extension.

The reserve earns premiums at rate p, pays i.i.d. claims at Poisson(lam)
arrivals, and is ruined when it goes negative.  Ruin can only happen at claim
times, so everything reduces to the embedded walk S_k = sum(Y_i - p*xi_i).
The adjustment coefficient theta_L is the positive zero of that walk's
c.g.f.; sampling the walk under the theta_L-tilt turns ruin into a certain
event and yields an unbiased, asymptotically optimal estimator
``exp(-theta_L * S_sigma)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bridge, mc, tilt
from .errors import BoundViolated, MaxStepsExceeded, NetProfitViolated, NoRoot
from .mc import DecayFit, EstimatorResult
from .tilt import ClaimStep, TiltableFamily

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

    def step_family(self) -> ClaimStep:
        """The embedded walk increment Z = Y - premium * xi."""
        return ClaimStep(self.claims, self.premium, self.lam)


@dataclass(frozen=True)
class ExponentSolution:
    value: float
    residual: float
    kind: str  # "lundberg" or "invest"


def _gamma_shifted(model: RuinModel, theta: float) -> float:
    """gamma_Y(theta) = E[exp(theta*Y)] - 1."""
    return math.expm1(model.claims.cgf(theta))


def _solve_exponent(model: RuinModel, offset: float, kind: str) -> ExponentSolution:
    """Positive root of gamma_Y(theta) = premium*theta/lam + offset.

    Equivalently h(theta) = cgf_Y(theta) - ln(1 + premium*theta/lam + offset)
    = 0, a convex-vs-concave crossing with a unique positive root for
    light-tailed claims.  The root is bracketed just past the trivial root
    at 0, along ``tilt.expansion_grid`` toward the claim-domain edge.
    """
    if model.safety_loading <= 0.0:
        raise NetProfitViolated(
            f"safety loading {model.safety_loading:.6g} must be positive"
        )

    def h(theta):
        return _gamma_shifted(model, theta) - model.premium * theta / model.lam - offset

    theta = tilt._bracketed_root(h, 1e-12, *model.claims.cgf_domain)
    if theta is None:
        raise NoRoot(f"no positive solution for kind={kind}; claims may be too heavy")
    return ExponentSolution(value=theta, residual=h(theta), kind=kind)


def adjustment_coefficient(model: RuinModel) -> ExponentSolution:
    """The Lundberg exponent theta_L: gamma_Y(theta) = premium*theta/lam."""
    sol = _solve_exponent(model, 0.0, "lundberg")
    return sol


def invest_exponent(model: RuinModel) -> ExponentSolution:
    """The improved exponent theta* when investing is allowed.

    Solves gamma_Y(theta) = premium*theta/lam + b^2/(2 sigma^2 lam); the
    offset term is what constant optimal investment buys, so theta* > theta_L
    whenever b != 0.
    """
    if model.invest is None:
        raise ValueError("model has no investment parameters")
    b, sigma = model.invest.b, model.invest.sigma
    offset = b * b / (2.0 * sigma * sigma * model.lam)
    return _solve_exponent(model, offset, "invest")


def optimal_fraction(model: RuinModel) -> float:
    """The asymptotically optimal constant stock position b/(sigma^2 theta*)."""
    if model.invest is None:
        raise ValueError("model has no investment parameters")
    if model.invest.b == 0.0:
        return 0.0
    theta_star = invest_exponent(model).value
    return model.invest.b / (model.invest.sigma**2 * theta_star)


def simulate_ruin_is(
    model: RuinModel, x: float, N: int, seed: int, threads: int = 1
) -> EstimatorResult:
    """Importance-sampling estimate of the infinite-horizon ruin probability.

    Runs the embedded walk under the theta_L-tilted law (claims tilted by
    theta_L, interarrivals by -premium*theta_L), stops at the first passage
    above x, and averages exp(-theta_L * S_sigma).  The tilted walk has
    positive drift so the passage time is a.s. finite; every sample is below
    exp(-theta_L * x) because the stopped walk sits above x.
    """
    if x < 0.0:
        raise ValueError("initial reserve must be nonnegative")
    theta_l = adjustment_coefficient(model).value
    step = model.step_family()
    tilted_step = step.tilted(theta_l)
    bound = math.exp(-theta_l * x)

    def sampler(ss, size):
        rng = np.random.default_rng(ss)
        out = np.empty(size)
        active = np.arange(size)
        walks = np.zeros(size)  # positions of the active paths, in their order
        steps = 0
        while active.size:
            steps += 1
            if steps > MAX_PATH_STEPS:
                raise MaxStepsExceeded("tilted walk did not cross; check the model")
            walks += tilted_step.sample(rng, active.size)
            crossed = walks > x
            out[active[crossed]] = np.exp(-theta_l * walks[crossed])
            active, walks = active[~crossed], walks[~crossed]
        _check_lundberg(out, bound)
        return out

    return mc.run_replications(sampler, N, seed, threads=threads)


def _check_lundberg(samples: np.ndarray, bound: float) -> None:
    # <=, not <: past theta_L * x ~ 745 both sides underflow to 0
    if not np.all(samples <= bound * (1.0 + 1e-12)):
        raise BoundViolated("sample above the Lundberg bound")


def ruin_decay_fit(
    model: RuinModel, reserves: Sequence[float], N: int, seed: int, threads: int = 1
) -> DecayFit:
    """Fit ln psi_hat(x) against the initial reserve ladder."""
    results = mc.run_ladder(lambda x, s: simulate_ruin_is(model, float(x), N, s, threads=threads), reserves, seed)
    return mc.fit_ladder(reserves, results)


def simulate_wealth_ruin(
    model: RuinModel,
    x: float,
    alpha: float,
    horizon: float,
    N: int,
    seed: int,
    threads: int = 1,
) -> EstimatorResult:
    """Finite-horizon ruin frequency of the insurer investing ``alpha`` in stock.

    Wealth follows dV = (premium + alpha*b) dt + alpha*sigma dW minus claims
    at Poisson arrival times, a Brownian motion with drift between claims.
    Live paths jump from claim to claim: each round draws the wait (cut at
    the horizon) and the exact Gaussian endpoint, kills with the bridge law
    of touching 0 in between (certain when the endpoint is below 0), then
    subtracts the claim.  There is no grid bias, but ruin after ``horizon``
    is missed, so this underestimates the infinite-horizon probability.  At
    alpha = 0 it is plain Monte Carlo of the classical risk process.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if x < 0.0:
        raise ValueError("initial reserve must be nonnegative")
    b, sigma = (model.invest.b, model.invest.sigma) if model.invest else (0.0, 0.0)
    drift = model.premium + alpha * b
    vol = abs(alpha) * sigma

    def sampler(ss, size):
        rng = np.random.default_rng(ss)
        ruined = np.zeros(size)
        active, wealth, clock = np.arange(size), np.full(size, float(x)), np.zeros(size)
        while active.size:
            n = active.size
            wait = rng.exponential(1.0 / model.lam, n)
            left = horizon - clock
            tau = np.minimum(wait, left)
            end = wealth + drift * tau
            if vol > 0.0:
                end += vol * np.sqrt(tau) * rng.standard_normal(n)
                # distances above the barrier at 0 play the gaps below an upper level
                with np.errstate(all="ignore"):  # vol^2 tau may underflow: the limit is a touch iff a gap is 0
                    expo = np.nan_to_num(bridge.kill_exponent_single(wealth, np.maximum(end, 0.0), vol, tau), nan=0.0)
                killed = rng.random(n) < bridge.kill_prob(expo)
            else:
                killed = end < 0.0
            claimed = ~killed & (wait < left)
            end[claimed] -= model.claims.sample(rng, int(claimed.sum()))
            killed |= end < 0.0
            ruined[active[killed]] = 1.0
            live = claimed & ~killed
            active, wealth, clock = active[live], end[live], clock[live] + wait[live]
        return ruined

    return mc.run_replications(sampler, N, seed, threads=threads)
