"""Brownian-bridge barrier crossings between Euler grid points.

Between two grid values the Euler scheme is a Brownian bridge, so the chance
of touching a single constant barrier U is exact: ``exp(e)`` with the kill
exponent ``e = -2 (U - x_i)^+ (U - x_{i+1})^+ / (sigma^2 eps)``
(``kill_exponent_single``).  Barriers are affine in time, U(t) = U + U' t and
L(t) = L + L' t.  For a corridor or a sloped side the dominant-action law
``exp(-I/eps - w)`` (``kill_exponent_double``) keeps the cheaper of the two
barrier excursions plus a first-order slope correction (Baldi, 1995); for one
linear side and constant volatility it is the exact crossing law.  The
knock-out pricer uses these per-step kill probabilities to remove the
sqrt(eps) bias of testing the barrier at grid times only: a spec with one
constant upper level and no lower one runs the exact single-barrier kernel,
every other spec the dominant-action code.

A path is killed when a uniform u falls below ``exp(max(e, KILL_FLOOR))``.
The floor is exact for the decision: exp(-40) < 2**-53, the smallest positive
draw of ``Generator.random``, so no u > 0 lies below either side, and only a
draw of exactly 0.0 (probability 2**-53) can tell them apart.  It keeps
``np.exp`` out of its slow subnormal range, which deep exponents otherwise
hit on a large share of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mc
from .errors import InvalidBarrier
from .mc import EstimatorResult

# levels beyond these encode "no barrier on this side"
NO_UPPER = 1e18
NO_LOWER = -1e18

# floor on kill exponents in kill decisions; exp(-40) < 2**-53 (see above)
KILL_FLOOR = -40.0


@dataclass(frozen=True)
class BarrierSpec:
    """Two affine barriers U(t) = upper + upper_slope t and L(t) = lower + lower_slope t.

    A missing side keeps its sentinel level (``NO_LOWER``, or ``NO_UPPER``
    for no barrier at all), so the corridor code serves every spec;
    ``price_knockout`` spots a constant upper level with no lower one and
    runs the exact kernel instead.
    """

    upper: float
    upper_slope: float = 0.0
    lower: float = NO_LOWER
    lower_slope: float = 0.0


@dataclass(frozen=True)
class EulerModel:
    """Scalar diffusion dX = b(X) dt + sigma(X) dW on [0, T] with n steps."""

    drift: Callable[[np.ndarray], np.ndarray]
    vol: Callable[[np.ndarray], np.ndarray]
    maturity: float
    steps: int
    x0: float
    rate: float = 0.0

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("need at least 2 Euler steps")
        if self.maturity <= 0.0:
            raise ValueError("maturity must be positive")

    @property
    def eps(self) -> float:
        return self.maturity / self.steps


def kill_exponent_single(gap_i, gap_next, sigma_i, eps):
    """Log of the exact probability that a bridge step touches one barrier.

    ``gap = (U - x)^+`` is an endpoint's distance below the level U, 0 at or
    above it.  The exponent ``-2 gap_i gap_next / (sigma^2 eps)`` is 0 (a
    certain crossing) when either gap is 0, and symmetric in the endpoints.
    Gaps are taken as inputs so a pricer can carry the right-hand gap of one
    step over as the left-hand gap of the next.
    """
    return -2.0 * gap_i * gap_next / (sigma_i * sigma_i * eps)


def kill_prob(expo):
    """Kill threshold ``exp(max(expo, KILL_FLOOR))`` for decisions ``u < p``.

    Gives the same decision as ``exp(expo)`` for every uniform u > 0.
    """
    return np.exp(np.maximum(expo, KILL_FLOOR))


def _double_terms(x_i, x_next, lower_i, upper_i, lower_slope, upper_slope, sigma_i):
    """Action I and slope correction w of the cheaper corridor excursion.

    Upper branch: ``I = (2/sigma^2)(U - x_i)(U - x_next)``, ``w = (2/sigma^2)(U - x_i) U'``;
    the lower branch mirrors them in L.  The actions coincide on the midline
    x_i + x_next = L + U, where ties take the upper branch for determinism.
    Both terms are zero when an endpoint already sits outside the corridor.
    """
    if lower_i >= upper_i:
        raise InvalidBarrier(f"need L < U, got L={lower_i}, U={upper_i}")
    x_i = np.asarray(x_i, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    outside = (
        (x_i <= lower_i) | (x_i >= upper_i) | (x_next <= lower_i) | (x_next >= upper_i)
    )
    upper_branch = x_i + x_next >= lower_i + upper_i
    two_over_s2 = 2.0 / sigma_i**2
    rate_up = two_over_s2 * (upper_i - x_i) * (upper_i - x_next)
    rate_down = two_over_s2 * (x_i - lower_i) * (x_next - lower_i)
    w_up = two_over_s2 * (upper_i - x_i) * upper_slope
    w_down = two_over_s2 * (x_i - lower_i) * lower_slope
    rate = np.where(outside, 0.0, np.where(upper_branch, rate_up, rate_down))
    w = np.where(outside, 0.0, np.where(upper_branch, w_up, w_down))
    return rate, w


def kill_exponent_double(x_i, x_next, lower_i, upper_i, lower_slope, upper_slope, sigma_i, eps):
    """Log ``min(-I/eps - w, 0)`` of the dominant-action corridor kill probability.

    The counterpart of ``kill_exponent_single`` for a double or moving
    corridor, with the barriers and slopes frozen at the step's left end.
    """
    rate, w = _double_terms(x_i, x_next, lower_i, upper_i, lower_slope, upper_slope, sigma_i)
    return np.minimum(-rate / eps - w, 0.0)


def price_knockout(
    model: EulerModel,
    payoff: Callable[[np.ndarray], np.ndarray],
    spec: BarrierSpec,
    N: int,
    seed: int,
    method: str = "corrected",
    threads: int = 1,
) -> EstimatorResult | tuple[EstimatorResult, EstimatorResult]:
    """Discounted knock-out expectation E[exp(-rT) g(X_T) 1{alive}].

    ``naive`` kills a path only when a grid value leaves the corridor;
    ``corrected`` kills between grid points with the bridge probability,
    consuming one uniform per step from a stream separate from the path
    noise.  ``both`` prices the two methods from one pass over the same
    paths and returns ``(naive, corrected)``, each equal to its own
    method's run.  A spec with one constant upper level kills with the
    exact single-barrier law; any other spec with the dominant action plus
    its slope correction.  A corridor with L >= U at t = 0 or at the last
    grid time raises ``InvalidBarrier`` before any path is drawn, whatever
    the method; affine sides that are apart at both ends are apart between.
    """
    if method not in ("naive", "corrected", "both"):
        raise ValueError(f"unknown method {method!r}")
    eps = model.eps
    sqrt_eps = math.sqrt(eps)
    n_steps = model.steps
    times = eps * np.arange(n_steps + 1)
    lowers = spec.lower + spec.lower_slope * times
    uppers = spec.upper + spec.upper_slope * times
    if not (lowers[0] < uppers[0] and lowers[-1] < uppers[-1]):
        raise InvalidBarrier(f"need L < U on [0, T], got L={lowers[0]}, U={uppers[0]} at t=0 "
                             f"and L={lowers[-1]}, U={uppers[-1]} at t={times[-1]}")
    naive = method != "corrected"
    corrected = method != "naive"
    # one constant upper level: the exact law, with no branch or slope term
    single_up = spec.lower <= NO_LOWER and spec.upper_slope == 0.0 and spec.lower_slope == 0.0
    level = spec.upper
    discount = math.exp(-model.rate * model.maturity)

    def sampler(ss, size):
        path_ss, kill_ss = ss.spawn(2)
        rng = np.random.default_rng(path_ss)
        kill_rng = np.random.default_rng(kill_ss)
        x = np.full(size, model.x0)
        on_grid = np.full(size, lowers[0] < model.x0 < uppers[0])  # naive survivors
        bridged = on_grid.copy()  # corrected survivors
        gap = np.maximum(level - x, 0.0)
        for i in range(n_steps):
            gauss = rng.standard_normal(size)
            sigma_i = model.vol(x)
            x_next = x + model.drift(x) * eps + sigma_i * sqrt_eps * gauss
            if naive:
                on_grid &= (x_next > lowers[i + 1]) & (x_next < uppers[i + 1])
            if corrected:
                uniforms = kill_rng.random(size)
                if single_up:
                    gap_next = np.maximum(level - x_next, 0.0)
                    expo = kill_exponent_single(gap, gap_next, sigma_i, eps)
                    gap = gap_next
                else:
                    expo = kill_exponent_double(x, x_next, lowers[i], uppers[i],
                                                spec.lower_slope, spec.upper_slope, sigma_i, eps)
                bridged &= uniforms >= kill_prob(expo)
            x = x_next
        value = discount * payoff(x)
        if method == "both":
            return np.stack([value * on_grid, value * bridged])
        return value * (on_grid if naive else bridged)

    return mc.run_replications(sampler, N, seed, threads=threads)
