"""Single-factor Gaussian-copula portfolio loss tails by conditional Monte Carlo.

Each of n obligors defaults when rho*Z + sqrt(1-rho^2)*eps_k crosses the
threshold matching marginal default probability p.  Conditionally on the
factor Z the loss is exactly Binomial(n, p(Z)), so the large-loss
probability P[L_n >= k_n] is the factor integral of the binomial tail
I_{p(Z)}(k_n, n - k_n + 1), the regularised incomplete beta function
(conditional Monte Carlo: Asmussen & Glynn, *Stochastic Simulation*, 2007,
ch. V).  The factor is drawn by importance sampling with the mean shift
mu_n of Glasserman & Li (*Management Science* 51, 2005), which maximises the
log of the Chernoff bound less mu^2/2, and stratified along that shift.
Every draw's log tail is checked against that Chernoff bound.  At rho = 0
the tail does not depend on the factor, and the estimate is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import betainc

from . import cramer, mc, tilt
from .errors import NoRoot, RegimeError
from .gaussian import norm_cdf, norm_pdf, norm_ppf
from .mc import DecayFit, EstimatorResult

# draws per stratum of the factor in two_step_is
PER_STRATUM = 2
# the smallest normal float; a conditional tail below it has lost its relative precision
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class LossSchedule:
    """Large-loss threshold q_n = 1 - c * n^-a, the slowly-to-1 regime."""

    a: float
    c: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise ValueError("schedule exponent a must lie in (0, 1]")
        if self.c <= 0.0:
            raise ValueError("schedule constant c must be positive")

    def q(self, n: int) -> float:
        return 1.0 - self.c * float(n) ** (-self.a)


@dataclass(frozen=True)
class PortfolioModel:
    """Homogeneous portfolio: marginal p, factor loading rho.

    ``threshold`` is either a fixed q in (p, 1) or a LossSchedule; ``q_at(n)``
    unifies the two.
    """

    p: float
    rho: float
    threshold: float | LossSchedule

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("marginal default probability must lie in (0,1)")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("factor loading must lie in [0,1)")
        if isinstance(self.threshold, float) and not self.p < self.threshold < 1.0:
            raise ValueError("fixed threshold q must lie in (p, 1)")

    def q_at(self, n: int) -> float:
        if isinstance(self.threshold, LossSchedule):
            return self.threshold.q(n)
        return float(self.threshold)


def conditional_default_prob(model: PortfolioModel, z) -> float | np.ndarray:
    """p(z) = Phi((rho z + Phi^-1(p)) / sqrt(1 - rho^2)).

    Strictly increasing in z for rho > 0; constant p when rho = 0.
    """
    out = norm_cdf(_probit_arg(model, np.asarray(z, dtype=float)))
    return float(out) if np.ndim(z) == 0 else out


def _probit_arg(model: PortfolioModel, z: np.ndarray) -> np.ndarray:
    """(rho z + Phi^-1(p)) / sqrt(1 - rho^2), the standard-normal quantile of p(z)."""
    return (model.rho * z + norm_ppf(model.p)) / math.sqrt(1.0 - model.rho**2)


def dependent_decay(a: float, rho: float) -> float:
    """Polynomial loss-tail rate a (1 - rho^2) / rho^2 in the n^-a regime."""
    if rho <= 0.0 or rho >= 1.0:
        raise RegimeError("rho must lie in (0,1); at rho=0 the rate is tilt.bernoulli_entropy(p, q)")
    if not 0.0 < a <= 1.0:
        raise ValueError("a must lie in (0, 1]")
    return a * (1.0 - rho * rho) / (rho * rho)


def factor_threshold(model: PortfolioModel, n: int) -> float:
    """z_n solving p(z_n) = q_n, in closed form by inverting the normal CDF."""
    if model.rho <= 0.0:
        raise RegimeError("factor threshold needs rho > 0")
    q = model.q_at(n)
    root = math.sqrt(1.0 - model.rho**2)
    return (root * norm_ppf(q) - norm_ppf(model.p)) / model.rho


def outer_exponent(model: PortfolioModel, n: int, z) -> np.ndarray:
    """F_n(z) = -n * rate(q_n, p(z)) for p(z) < q_n and 0 beyond z_n.

    Nonpositive, nondecreasing, concave in z; the log of the Chernoff bound
    on the conditional loss tail P[Bin(n, p(z)) >= n q_n].
    """
    q = model.q_at(n)
    pz = conditional_default_prob(model, np.asarray(z, dtype=float))
    # below the smallest normal float q / p(z) could overflow; F_n is
    # nondecreasing, so the bound there is the one at that float
    x = np.clip(pz, _TINY, q)
    out = np.where(pz < q, -float(n) * tilt.bernoulli_entropy(x, q), 0.0)
    return float(out) if np.ndim(z) == 0 else out


def outer_exponent_prime(model: PortfolioModel, n: int, z) -> np.ndarray:
    """Closed-form derivative of F_n.

    F_n'(z) = n (q_n/p(z) - (1-q_n)/(1-p(z))) phi(arg) rho/sqrt(1-rho^2),
    zero beyond z_n where F_n is flat.
    """
    q = model.q_at(n)
    z = np.asarray(z, dtype=float)
    arg = _probit_arg(model, z)
    pz = norm_cdf(arg)
    grad = (
        float(n)
        * (q / pz - (1.0 - q) / (1.0 - pz))
        * norm_pdf(arg)
        * model.rho
        / math.sqrt(1.0 - model.rho**2)
    )
    out = np.where(pz < q, grad, 0.0)
    return float(out) if z.ndim == 0 else out


def factor_shift(model: PortfolioModel, n: int) -> float:
    """The variance-optimal factor mean mu_n solving F_n'(mu) = mu.

    F_n' - id decreases (F_n(z) - z^2/2 is strictly concave), is positive at
    0 for thresholds in the rare regime and equals -z_n at z_n, so the root
    lies in [0, z_n]; a diagnostic NoRoot guards the bracket.
    """
    z_n = factor_threshold(model, n)
    if z_n <= 0.0:
        raise NoRoot(f"factor threshold z_n={z_n:.4g} is not positive; non-rare regime")

    def g(mu):
        return outer_exponent_prime(model, n, mu) - mu

    if g(0.0) <= 0.0:
        raise NoRoot("F_n'(0) <= 0: threshold not rare enough for a factor shift")
    mu = tilt._bracketed_root(g, 0.0, z_n)
    if mu is None:
        raise NoRoot(f"F_n'(mu) - mu keeps its sign on [0, z_n={z_n:.4g}]")
    return mu


def _resolve_shift(model: PortfolioModel, n: int, shift) -> float:
    if isinstance(shift, str):
        if shift == "mu_n":
            return factor_shift(model, n)
        if shift == "z_n":
            return factor_threshold(model, n)
        raise ValueError(f"unknown shift {shift!r}; use 'mu_n', 'z_n', or a number")
    return float(shift)


def two_step_is(
    model: PortfolioModel,
    n: int,
    N: int,
    seed: int,
    shift="mu_n",
    threads: int = 1,
) -> EstimatorResult:
    """Conditional Monte Carlo estimate of P[L_n >= k_n] over a shifted, stratified factor.

    The threshold k_n = ceil(n q_n - 1e-9) is ``cramer.lattice_threshold``.
    Per replication: xi is the stratified standard normal of
    ``mc.stratified_normal`` (``PER_STRATUM`` draws per stratum), the factor
    is z = mu + xi, and the value is the exact conditional tail
    P[Bin(n, p(z)) >= k_n] = betainc(k_n, n - k_n + 1, p(z)) times the
    likelihood ratio exp(-mu xi - mu^2/2).  Unbiased for any mu, including
    mu = 0.  At rho = 0 the tail does not depend on the factor and a named
    shift is 0, so every value is the binomial tail itself: the estimate is
    exact, with zero variance.  Each draw's log tail is checked against the
    Chernoff bound ``outer_exponent(model, n, z)`` by ``mc.check_bound``;
    a tail below the smallest normal float has lost its relative precision
    and is not checked.  The ``std_error`` is the stratified one.
    """
    q = model.q_at(n)
    if not model.p < q < 1.0:
        raise RegimeError(f"threshold q_n={q:.6g} outside (p, 1) with p={model.p}: "
                          "not a rare loss event, or one with an infinite twist")
    k = cramer.lattice_threshold(n, q)
    if k < 1:
        raise RegimeError(f"n q_n = {n * q:.3g} puts the loss threshold at 0: the loss event is sure")
    if model.rho == 0.0 and isinstance(shift, str):
        mu = 0.0  # the factor is irrelevant; a mean shift would only add noise
    else:
        mu = _resolve_shift(model, n, shift)

    def sampler(ss, size):
        xi = mc.stratified_normal(np.random.default_rng(ss), size, PER_STRATUM)
        z = mu + xi
        pz = conditional_default_prob(model, z)
        tail = betainc(k, n - k + 1.0, pz)
        hit = tail >= _TINY
        mc.check_bound(np.log(tail, out=np.full(size, -np.inf), where=hit), outer_exponent(model, n, z), hit)
        return tail * np.exp(-mu * xi - 0.5 * mu * mu)

    return mc.run_replications(sampler, N, seed, threads=threads, per_stratum=PER_STRATUM)


def measure_loss_decay(
    model: PortfolioModel,
    ladder: Sequence[int],
    N: int,
    seed: int,
    shift="mu_n",
    threads: int = 1,
) -> DecayFit:
    """Fit ln P[L_n >= k_n] against ln n over a portfolio-size ladder.

    The slope estimates -dependent_decay(a, rho); convergence in ln n is
    slow, so tolerances downstream are generous.
    """
    results = mc.run_ladder(lambda n, s: two_step_is(model, int(n), N, s, shift=shift, threads=threads), ladder, seed)
    return mc.fit_ladder([math.log(float(n)) for n in ladder], results)
