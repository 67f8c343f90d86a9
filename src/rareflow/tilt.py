"""Cumulant generating functions, exponential tilting, and rate functions.

The family catalog covers Bernoulli, Poisson, Normal and Exponential.  Every
family knows its closed-form c.g.f., the open interval where it is finite,
its closed-form convex conjugate, its tilted counterpart, and how to draw
samples (including exact draws of i.i.d. sums).  The root finder
``_bracketed_root`` serves the solvers of the other modules.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotAttained

BOUNDARY_PAD = 1e-9   # gap, times max(1, |endpoint|), where the probe to a finite endpoint starts halving it
# Brent's stopping rule: a negligible absolute tolerance leaves the relative one of 4 eps
BRENT_XTOL = 1e-300
BRENT_RTOL = 4.0 * 2.0**-52
BRENT_MAXITER = 100


@dataclass(frozen=True)
class LegendreResult:
    """Value of the convex conjugate of a c.g.f. at a point x.

    ``rate`` is infinite when x lies outside the support hull.  ``attained``
    says whether the defining supremum is reached at an interior saddle point
    ``theta_star`` (nan otherwise).
    """

    x: float
    theta_star: float
    rate: float
    attained: bool


class TiltableFamily(ABC):
    """A distribution with closed-form c.g.f. and exponential tilt."""

    @property
    @abstractmethod
    def cgf_domain(self) -> tuple[float, float]:
        """Open interval (lo, hi) containing 0 on which the c.g.f. is finite."""

    @abstractmethod
    def cgf(self, theta: float) -> float:
        ...

    @abstractmethod
    def cgf_prime(self, theta: float) -> float:
        """Derivative of the c.g.f.; the mean under the theta-tilted law."""

    @abstractmethod
    def tilted(self, theta: float) -> "TiltableFamily":
        ...

    @property
    @abstractmethod
    def mean(self) -> float:
        ...

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        ...

    @abstractmethod
    def sample_sum(self, rng: np.random.Generator, n: int, size: int) -> np.ndarray:
        """Draw ``size`` copies of a sum of ``n`` i.i.d. variates from its exact law."""

    def _check_theta(self, theta: float) -> None:
        lo, hi = self.cgf_domain
        if not (lo < theta < hi) or not math.isfinite(theta):
            raise DomainError(
                f"theta={theta} outside c.g.f. domain ({lo}, {hi}) of {self!r}"
            )

    @abstractmethod
    def _legendre_closed(self, x: float) -> LegendreResult:
        """The convex conjugate at x, in closed form."""


@dataclass(frozen=True)
class Bernoulli(TiltableFamily):
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"Bernoulli parameter must lie in (0,1), got {self.p}")

    @property
    def cgf_domain(self):
        return (-math.inf, math.inf)

    def cgf(self, theta):
        self._check_theta(theta)
        return math.log(1.0 - self.p + self.p * math.exp(theta))

    def cgf_prime(self, theta):
        self._check_theta(theta)
        e = self.p * math.exp(theta)
        return e / (1.0 - self.p + e)

    def tilted(self, theta):
        return Bernoulli(self.cgf_prime(theta))

    @property
    def mean(self):
        return self.p

    def sample(self, rng, size):
        return (rng.random(size) < self.p).astype(float)

    def sample_sum(self, rng, n, size):
        return rng.binomial(n, self.p, size).astype(float)

    def _legendre_closed(self, x):
        p = self.p
        if x < 0.0 or x > 1.0:
            return LegendreResult(x, math.nan, math.inf, attained=False)
        if x == 0.0:
            return LegendreResult(x, math.nan, -math.log1p(-p), attained=False)
        if x == 1.0:
            return LegendreResult(x, math.nan, -math.log(p), attained=False)
        rate = float(bernoulli_entropy(p, x))
        return LegendreResult(x, float(bernoulli_twist(p, x)), max(rate, 0.0), attained=True)


def bernoulli_twist(p, x):
    """Saddle point ln(x (1-p) / (p (1-x))) of Bernoulli(p) at mean x, vectorised.

    Summed as logs, it stays finite where the quotient overflows (p (1-x) subnormal).
    """
    return np.log(x) + np.log1p(-p) - np.log1p(-x) - np.log(p)


def bernoulli_entropy(p, x):
    """Relative entropy x ln(x/p) + (1-x) ln((1-x)/(1-p)), the Bernoulli(p) rate at x.

    Vectorised; the log1p difference keeps the second term accurate for tiny p and x.
    """
    return x * np.log(x / p) + (1.0 - x) * (np.log1p(-x) - np.log1p(-p))


@dataclass(frozen=True)
class Poisson(TiltableFamily):
    lam: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError(f"Poisson intensity must be positive, got {self.lam}")

    @property
    def cgf_domain(self):
        return (-math.inf, math.inf)

    def cgf(self, theta):
        self._check_theta(theta)
        return self.lam * math.expm1(theta)

    def cgf_prime(self, theta):
        self._check_theta(theta)
        return self.lam * math.exp(theta)

    def tilted(self, theta):
        return Poisson(self.cgf_prime(theta))

    @property
    def mean(self):
        return self.lam

    def sample(self, rng, size):
        return rng.poisson(self.lam, size).astype(float)

    def sample_sum(self, rng, n, size):
        try:
            return rng.poisson(n * self.lam, size).astype(float)
        except ValueError:  # numpy draws no Poisson mean above about 9.2e18
            raise DomainError(f"a Poisson sum of mean {n * self.lam} is too large to draw") from None

    def _legendre_closed(self, x):
        if x < 0.0:
            return LegendreResult(x, math.nan, math.inf, attained=False)
        if x == 0.0:
            return LegendreResult(x, math.nan, self.lam, attained=False)
        theta = math.log(x / self.lam)
        rate = x * math.log(x / self.lam) + self.lam - x
        return LegendreResult(x, theta, max(rate, 0.0), attained=True)


@dataclass(frozen=True)
class Normal(TiltableFamily):
    m: float
    var: float

    def __post_init__(self):
        if self.var <= 0.0:
            raise ValueError(f"Normal variance must be positive, got {self.var}")

    @property
    def cgf_domain(self):
        return (-math.inf, math.inf)

    def cgf(self, theta):
        self._check_theta(theta)
        return self.m * theta + 0.5 * theta * theta * self.var

    def cgf_prime(self, theta):
        self._check_theta(theta)
        return self.m + theta * self.var

    def tilted(self, theta):
        return Normal(self.cgf_prime(theta), self.var)

    @property
    def mean(self):
        return self.m

    def sample(self, rng, size):
        return rng.normal(self.m, math.sqrt(self.var), size)

    def sample_sum(self, rng, n, size):
        return rng.normal(n * self.m, math.sqrt(n * self.var), size)

    def _legendre_closed(self, x):
        theta = (x - self.m) / self.var
        rate = (x - self.m) ** 2 / (2.0 * self.var)
        return LegendreResult(x, theta, rate, attained=True)


@dataclass(frozen=True)
class Exponential(TiltableFamily):
    lam: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError(f"Exponential intensity must be positive, got {self.lam}")

    @property
    def cgf_domain(self):
        return (-math.inf, self.lam)

    def cgf(self, theta):
        self._check_theta(theta)
        # log1p keeps full relative accuracy near 0, the quotient near lam
        if theta < 0.5 * self.lam:
            return -math.log1p(-theta / self.lam)
        return math.log(self.lam / (self.lam - theta))

    def cgf_prime(self, theta):
        self._check_theta(theta)
        return 1.0 / (self.lam - theta)

    def tilted(self, theta):
        self._check_theta(theta)
        return Exponential(self.lam - theta)

    @property
    def mean(self):
        return 1.0 / self.lam

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.lam, size)

    def sample_sum(self, rng, n, size):
        return rng.gamma(n, 1.0 / self.lam, size)

    def _legendre_closed(self, x):
        if x <= 0.0:
            return LegendreResult(x, math.nan, math.inf, attained=False)
        theta = self.lam - 1.0 / x
        rate = self.lam * x - 1.0 - math.log(self.lam * x)
        return LegendreResult(x, theta, max(rate, 0.0), attained=True)


def expansion_grid(hi: float):
    """Geometric probe sequence from 0 up toward the open domain endpoint hi > 0.

    A finite endpoint is approached by halving the remaining gap down to a
    pad, then halving the pad until the next point would round to the
    endpoint; an infinite one by doubling.
    """
    if math.isinf(hi):
        step = 1e-3
        while step < 1e30:
            yield step
            step *= 2.0
    else:
        pad = BOUNDARY_PAD * max(1.0, hi)
        frac = 0.5
        while hi * frac > pad:
            yield hi * (1.0 - frac)
            frac *= 0.5
        yield hi - pad
        while hi - pad * 0.5 != hi:
            pad *= 0.5
            yield hi - pad


def _brent(f, xa: float, xb: float, fa: float, fb: float) -> float | None:
    """Brent's root of ``f`` on [xa, xb], given fa = f(xa) and fb = f(xb).

    A line-for-line port of scipy's ``brentq`` (``Zeros/brentq.c``; Brent,
    *Algorithms for Minimization Without Derivatives*, 1973, ch. 4) called
    with ``xtol=1e-300`` and its default ``rtol`` and ``maxiter``: the same
    float operations in the same order, so the same root to the bit.
    A division by zero, which C turns into inf or nan, takes the bisection
    step as the failed comparison does there.  Returns None on a same-sign
    bracket, a nan value of f, or no convergence in 100 iterations, the
    cases where brentq raises.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    if math.isnan(fpre) or math.isnan(fcur):
        return None
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        return None
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            return None
    return None


def _bracketed_root(f, start: float, hi: float) -> float | None:
    """Root of ``f`` at the first sign change on the probe from ``start`` up toward ``hi``.

    The probe runs from ``start`` through ``expansion_grid(hi)``; the last
    point on start's side and the first one past it bracket the root, which
    ``_brent`` refines to a few ulp.  Returns None when f keeps its sign up
    to the last probe point, when it returns nan at a probe point or Brent
    iterate, or when Brent's method does not converge.
    """
    a, fa = float(start), float(f(start))
    if fa == 0.0:
        return a
    for b in expansion_grid(hi):
        fb = float(f(b))
        if fb == 0.0 or (fb > 0.0) != (fa > 0.0):
            return _brent(f, a, b, fa, fb)
        a, fa = b, fb
    return None


def saddle_theta(family: TiltableFamily, x: float) -> float:
    """Solve the saddle-point equation cgf'(theta) = x.

    Raises NotAttained when x is at or beyond the boundary of attainable
    means.
    """
    result = legendre(family, x)
    if not result.attained:
        raise NotAttained(f"x={x} not an interior mean for {family!r}")
    return result.theta_star


def legendre(family: TiltableFamily, x: float) -> LegendreResult:
    """Fenchel-Legendre transform sup_theta [theta*x - cgf(theta)], in closed form."""
    return family._legendre_closed(x)
