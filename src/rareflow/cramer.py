"""Tail probabilities of i.i.d. empirical means by the tilted estimator.

Estimates P[S_n/n >= x] by sampling under the theta-tilted law and
reweighting with exp(-theta*S_n + n*cgf(theta)).  Theta = 0 is the naive
estimator: the tilted law is the original one and every weight is 1.  At the
saddle-point tilt the estimator is asymptotically optimal: its second moment
decays at twice the rate of the probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from . import mc, oracles, tilt
from .errors import DomainError
from .mc import DecayFit, EstimatorResult
from .tilt import TiltableFamily

_LATTICE_FAMILIES = (tilt.Bernoulli, tilt.Poisson)


@dataclass(frozen=True)
class EmpiricalMeanProblem:
    """The event {S_n/n >= x} for n i.i.d. draws from ``family``.

    Sub-mean thresholds are allowed (oracle tests use them), though the
    estimators are then pointless.
    """

    family: TiltableFamily
    n: int
    x: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


def lattice_threshold(n: int, x: float) -> float:
    """Effective integer threshold for lattice-valued S_n.

    For integer-valued sums the event {S_n >= n*x} is {S_n >= ceil(n*x)};
    the small backoff keeps intended-integer products like 10*0.3 = 2.999...96
    from being rounded up a lattice site too far.  A product n*x beyond the
    float range raises ``DomainError``.
    """
    target = n * x
    if not math.isfinite(target):
        raise DomainError(f"the sum threshold n*x = {target} lies beyond the float range")
    return float(math.ceil(target - 1e-9))


def _sum_threshold(problem: EmpiricalMeanProblem) -> float:
    if isinstance(problem.family, _LATTICE_FAMILIES):
        return lattice_threshold(problem.n, problem.x)
    return problem.n * problem.x


def is_tail(
    problem: EmpiricalMeanProblem,
    theta: float,
    N: int = 10_000,
    seed: int = 0,
    threads: int = 1,
) -> EstimatorResult:
    """Importance-sampling estimate of P[S_n/n >= x] under the theta-tilt.

    Samples S_n under the tilted law and averages
    ``exp(-theta*S_n + n*cgf(theta)) * 1{S_n >= n*x}``; unbiased for every
    admissible theta.  The saddle point ``tilt.saddle_theta(family, x)`` is
    the variance-optimal tilt; theta = 0 is plain Monte Carlo.  Each hit's
    log-weight is at most -theta*k + n*cgf(theta) at the event's sum
    threshold k (the Chebyshev bound), checked per draw by
    ``mc.check_bound``; a draw exactly at k meets it.
    """
    if theta < 0.0:
        raise DomainError(f"tilt parameter must be >= 0, got {theta}")
    family, n = problem.family, problem.n
    threshold = _sum_threshold(problem)
    try:
        log_norm = n * family.cgf(theta)
        if not math.isfinite(log_norm):  # a Normal c.g.f. overflows to inf without raising
            raise OverflowError
        tilted = family.tilted(theta)
    except (OverflowError, ValueError):  # e^theta overflows, or a tilted Bernoulli p rounds to 1
        raise DomainError(f"theta={theta} tilts {family!r} beyond the float range") from None
    log_bound = -theta * threshold + log_norm

    def sampler(ss, size):
        rng = np.random.default_rng(ss)
        sums = tilted.sample_sum(rng, n, size)
        hits = sums >= threshold
        log_weight = -theta * sums + log_norm
        mc.check_bound(log_weight, log_bound, hits)
        return np.where(hits, np.exp(log_weight), 0.0)

    return mc.run_replications(sampler, N, seed, threads=threads)


def verify_rate(
    family: TiltableFamily,
    x: float,
    ladder: Sequence[int],
    N: int,
    seed: int,
    theta: float,
    threads: int = 1,
) -> DecayFit:
    """Fit ln P[S_n/n >= x] against n; the slope estimates -legendre(x).rate.

    Each rung is estimated by importance sampling at the one tilt theta,
    which does not depend on n; at the saddle point the fit certifies
    optimality.  Zero-hit rungs are dropped from the fit with a warning.
    """
    results = mc.run_ladder(lambda n, s: is_tail(EmpiricalMeanProblem(family, int(n), x), theta, N, s, threads=threads),
                            ladder, seed)
    return mc.fit_ladder(ladder, results)


# -- exact oracles for lattice families ------------------------------------
#
# These are used by tests and the optimality certificate: for Bernoulli
# problems everything is computable by summing binomial terms, which gives
# an estimator-independent cross-check.


def bernoulli_is_second_moment(n: int, p: float, x: float, theta: float) -> float:
    """Exact second moment of the tilted Bernoulli tail estimator.

    Sums E_theta[exp(-2*theta*S_n + 2n*cgf(theta)) 1{S_n >= n*x}] over the
    lattice values of S_n, in log space.
    """
    family = tilt.Bernoulli(p)
    gamma = family.cgf(theta)
    p_t = family.tilted(theta).p
    k = np.arange(max(int(lattice_threshold(n, x)), 0), n + 1)
    if k.size == 0:
        return 0.0
    log_terms = oracles.binomial_log_pmf(n, p_t, k) - 2.0 * theta * k + 2.0 * n * gamma
    return float(np.exp(logsumexp(log_terms)))


def bernoulli_optimality_ladders(p: float, x: float, ladder: Sequence[int]) -> tuple[DecayFit, DecayFit]:
    """Exact (second-moment, probability) decay fits over an n-ladder at the saddle tilt.

    Both ladders come from lattice enumeration, no sampling involved, so the
    optimality gap they certify is deterministic.
    """
    theta = tilt.saddle_theta(tilt.Bernoulli(p), x)
    m2_points = []
    p_points = []
    for n in ladder:
        m2 = bernoulli_is_second_moment(int(n), p, x, theta)
        prob = oracles.binomial_tail(int(n), p, int(lattice_threshold(int(n), x)))
        m2_points.append((float(n), math.log(m2)))
        p_points.append((float(n), math.log(prob)))
    return mc.fit_decay(m2_points), mc.fit_decay(p_points)
