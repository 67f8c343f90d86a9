"""Cumulant generating functions, exponential tilting, and rate functions.

The family catalog covers Bernoulli, Poisson, Normal and Exponential.  Every
family knows its closed-form c.g.f., the open interval where it is finite,
its closed-form convex conjugate, its tilted counterpart, and how to draw
samples (including exact draws of i.i.d. sums).  The root finder
``_bracketed_root`` serves the solvers of the other modules.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotAttained

_NORMAL_MIN = sys.float_info.min  # the smallest normal float
BOUNDARY_PAD = 1e-9   # gap, times max(1, |endpoint|), where the probe to a finite endpoint starts halving it


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
        ratio = x / self.lam
        # the log of the quotient is the accurate one near the mean, but it
        # rounds to 0 or overflows at the ends of the float range
        theta = math.log(ratio) if _NORMAL_MIN <= ratio < math.inf else math.log(x) - math.log(self.lam)
        rate = x * theta + self.lam - x
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
        gap = x - self.m
        theta = gap / self.var
        rate = gap * gap / (2.0 * self.var)  # a square that overflows is inf, not an error
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
        product = self.lam * x
        # as for the Poisson quotient: lam * x may round to 0 or overflow
        log_product = math.log(product) if _NORMAL_MIN <= product < math.inf else math.log(self.lam) + math.log(x)
        rate = product - 1.0 - log_product
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


def _refine(f, a: float, b: float, fa: float, fb: float) -> float | None:
    """The float in [a, b], a < b, where ``f`` changes sign, given fa = f(a) and fb = f(b).

    Illinois regula falsi (Dowell & Jarratt, *BIT* 11, 1971); the midpoint
    stands in where the secant point rounds outside the open bracket or three
    steps did not halve it.  Ends at an exact zero, or at adjacent floats with
    the one of smaller |f|; None on a nan value or a same-sign bracket.
    """
    if math.isnan(fa) or math.isnan(fb) or fa != 0.0 != fb and (fa < 0.0) == (fb < 0.0):
        return None
    ga, gb, moved, widths = fa, fb, 0, (math.inf,) * 3  # secant values, last end moved, last three widths
    while fa != 0.0 and fb != 0.0:
        mid = a + 0.5 * (b - a)
        if not a < mid < b:  # a and b are adjacent floats
            return a if abs(fa) <= abs(fb) else b
        x = b - (b - a) * (gb / (gb - ga))
        if not a < x < b or b - a > 0.5 * widths[0]:
            x = mid
        widths = widths[1:] + (b - a,)
        fx = float(f(x))
        if math.isnan(fx):
            return None
        if (fx < 0.0) == (fa < 0.0):
            a, fa, ga, gb, moved = x, fx, fx, gb * (0.5 if moved == 1 else 1.0), 1
        else:
            b, fb, gb, ga, moved = x, fx, fx, ga * (0.5 if moved == -1 else 1.0), -1
    return a if fa == 0.0 else b


def _bracketed_root(f, start: float, hi: float) -> float | None:
    """Root of ``f`` at the first sign change on the probe from ``start`` up toward ``hi``.

    The probe runs from ``start`` through ``expansion_grid(hi)``; its last
    point on start's side and the first one past it bracket the root, and
    ``_refine`` finds it there.  Returns None when f keeps its sign up to the
    last probe point, or is nan at a probe point or refinement step.
    """
    a, fa = float(start), float(f(start))
    if fa == 0.0:
        return a
    for b in expansion_grid(hi):
        fb = float(f(b))
        if fb == 0.0 or (fb > 0.0) != (fa > 0.0):
            return _refine(f, a, b, fa, fb)
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
