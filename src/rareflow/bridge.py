"""Brownian-bridge barrier crossings between Euler grid points.

Between two grid values the Euler scheme is a Brownian bridge, so the chance
of touching a single constant barrier U is exact: ``exp(e)`` with the kill
exponent ``e = -2 (U - x_i)^+ (U - x_{i+1})^+ / (sigma^2 eps)``
(``kill_exponent_single``).  Barriers are affine in time, U(t) = U + U' t and
L(t) = L + L' t.  For a corridor or a sloped side the dominant-action law
``exp(-I/eps - w)`` (``kill_exponent_double``) keeps the cheaper of the two
barrier excursions plus a first-order slope correction (Baldi, 1995); for one
linear side and constant volatility it is the exact crossing law.  The
knock-out pricer uses these per-step crossing probabilities to remove the
sqrt(eps) bias of testing the barrier at grid times only: a spec with one
constant upper level and no lower one runs the exact single-barrier kernel,
every other spec the dominant-action code.

Given the grid path, the bridges of different steps are independent, so the
chance that a path survives every step is the product of ``1 - exp(e)`` over
its steps (``survival_factor``).  The knock-out pricer averages the payoff
times that product, the conditional expectation of the killed payoff given
the grid path: it is unbiased, its variance is no larger than a coin flip's,
and it draws no kill stream.  The factor is ``-expm1(e)``, exact near a
certain crossing and fast over the whole range of e.  The ruin sampler
``ruin.simulate_ruin_is`` weights its creeps through 0 the same way.

``price_knockout_ladder`` is the knock-out pricer.  It prices a chain of
grids (each step count divides the next larger one) in one pass that draws
the finest grid's normals only, and gives each grid's naive and corrected
rows from the same paths; a single grid is a one-rung ladder.  A grid with
b fine steps per step moves by the sum of its b fine normals over sqrt(b),
an exact standard normal, so each grid keeps its own law; this is the level
coupling of multilevel Monte Carlo (Giles, 2008).  The finest grid's rows
are those of its one-rung ladder at the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import mc
from .errors import InvalidBarrier
from .mc import EstimatorResult

# levels beyond these encode "no barrier on this side"
NO_UPPER = 1e18
NO_LOWER = -1e18


@dataclass(frozen=True)
class BarrierSpec:
    """Two affine barriers U(t) = upper + upper_slope t and L(t) = lower + lower_slope t.

    A missing side keeps its sentinel level (``NO_LOWER``, or ``NO_UPPER``
    for no barrier at all), so the corridor code serves every spec;
    ``price_knockout_ladder`` spots a constant upper level with no lower one
    and runs the exact kernel instead.
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


def kill_exponent_single(gap_i, gap_next, sigma_i, eps, out=None):
    """Log of the exact probability that a bridge step touches one barrier.

    ``gap = (U - x)^+`` is an endpoint's distance below the level U, 0 at or
    above it.  The exponent ``-2 gap_i gap_next / (sigma^2 eps)`` is 0 (a
    certain crossing) when either gap is 0, and symmetric in the endpoints.
    Gaps are taken as inputs so a pricer can carry the right-hand gap of one
    step over as the left-hand gap of the next; ``out`` may be ``gap_i``.
    """
    numerator = np.multiply(np.multiply(-2.0, gap_i, out=out), gap_next, out=out)
    return np.divide(numerator, sigma_i * sigma_i * eps, out=out)


def survival_factor(expo, out=None):
    """Probability ``1 - exp(expo)`` that a bridge step does not cross, as ``-expm1(expo)``.

    Exact near a certain crossing; 1 at an exponent of -inf (a step too
    quiet to reach the barrier), and 0 at a nan exponent, the 0/0 of a
    zero-volatility step that sits on the barrier.  ``out`` may be ``expo``.
    """
    return np.fmax(np.negative(np.expm1(expo, out=out), out=out), 0.0, out=out)


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
    with np.errstate(divide="ignore"):  # sigma^2 may underflow: the action is then inf
        two_over_s2 = 2.0 / np.square(sigma_i)
    rate_up = two_over_s2 * (upper_i - x_i) * (upper_i - x_next)
    rate_down = two_over_s2 * (x_i - lower_i) * (x_next - lower_i)
    # a flat side has no slope term, not the inf * 0 of an underflowed sigma^2
    w_up = two_over_s2 * (upper_i - x_i) * upper_slope if upper_slope else 0.0
    w_down = two_over_s2 * (x_i - lower_i) * lower_slope if lower_slope else 0.0
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


def _grid_barriers(spec: BarrierSpec, model: EulerModel) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper levels at the model's grid times.

    A corridor with L >= U at t = 0 or at the last grid time raises
    ``InvalidBarrier``; affine sides that are apart at both ends are apart
    between.
    """
    times = model.eps * np.arange(model.steps + 1)
    lowers = spec.lower + spec.lower_slope * times
    uppers = spec.upper + spec.upper_slope * times
    if not (lowers[0] < uppers[0] and lowers[-1] < uppers[-1]):
        raise InvalidBarrier(f"need L < U on [0, T], got L={lowers[0]}, U={uppers[0]} at t=0 "
                             f"and L={lowers[-1]}, U={uppers[-1]} at t={times[-1]}")
    return lowers, uppers


def price_knockout_ladder(
    model: EulerModel,
    payoff: Callable[[np.ndarray], np.ndarray],
    spec: BarrierSpec,
    rungs: Sequence[int],
    N: int,
    seed: int,
    threads: int = 1,
) -> list[tuple[EstimatorResult, EstimatorResult]]:
    """``(naive, corrected)`` knock-out prices E[exp(-rT) g(X_T) 1{alive}] on grids that share their normals.

    ``naive`` kills a path only when a grid value leaves the corridor.
    ``corrected`` weights each path by its probability of surviving every
    step's bridge, the product of ``survival_factor`` over the steps, so it
    draws the path noise only.  Both rows come from one pass over the same
    paths.  A spec with one constant upper level uses the exact
    single-barrier law; any other spec the dominant action plus its slope
    correction.  A corridor with L >= U at t = 0 or at the last grid time
    raises ``InvalidBarrier`` before any path is drawn.

    ``rungs`` are step counts that stand in for ``model.steps``, in any
    order; sorted, each must be at least 2 and divide the next larger one,
    else ``ValueError``.  One grid is the one-rung ladder ``[model.steps]``.
    One pass draws the finest grid's normals only, and a coarse grid's step
    is driven by the scaled sum of its fine normals (the level coupling of
    multilevel Monte Carlo), so every rung keeps its exact law and the
    finest rung's pair is that of the one-rung ladder at ``seed``.  Each
    result's standard error is right for its rung alone; differences
    between rungs are far more precise than their combined standard error.
    The pairs come in the order of ``rungs``.
    """
    order = sorted(range(len(rungs)), key=lambda r: -rungs[r])
    chain = [rungs[r] for r in order]
    if not chain or chain[-1] < 2 or any(coarse >= fine or fine % coarse for fine, coarse in zip(chain, chain[1:])):
        raise ValueError(f"rungs {list(rungs)} are not a chain: each step count must be at least 2 "
                         "and divide the next larger one")
    models = [replace(model, steps=steps) for steps in chain]
    barriers = [_grid_barriers(spec, m) for m in models]
    # one constant upper level: the exact law, with no branch or slope term
    single_up = spec.lower <= NO_LOWER and spec.upper_slope == 0.0 and spec.lower_slope == 0.0
    # fine steps per step of each grid, and the scale of its block sum of normals
    blocks = [chain[0] // steps for steps in chain]
    scales = [math.sqrt(m.eps) / math.sqrt(block) for m, block in zip(models, blocks)]
    discount = math.exp(-model.rate * model.maturity)

    def sampler(ss, size):
        # grid k's x and survival sit in rows 2k and 2k + 1 of one array,
        # finest grid first, and turn into its naive and corrected rows; a
        # grid's block sum of normals is built from the next finer grid's
        # block sums as they complete, one add for each after the first
        rng = np.random.default_rng(ss.spawn(1)[0])
        rows = np.empty((2 * len(chain), size))
        xs, survivals, on_grids = list(rows[0::2]), list(rows[1::2]), []
        for x, survival, (lowers, uppers) in zip(xs, survivals, barriers):
            x[...] = model.x0
            on_grids.append(np.full(size, lowers[0] < model.x0 < uppers[0]))  # naive survivors
            survival[...] = on_grids[-1]  # corrected: P(no bridge crossing | grid path)
        # the exact kernel carries a grid's right-hand gap over as its next
        # left-hand gap and moves x in place; the dominant-action law reads
        # x and x_next both
        in_place = single_up
        gaps = [np.maximum(spec.upper - x, 0.0) for x in xs] if single_up else None
        sums = np.empty((len(chain) - 1, size))  # block sums of the coarse grids' normals
        # step buffers, written through out= with the operations and order of
        # the plain expressions in the comments, so the same bits
        fine, spare = np.empty((2, size))
        x_next = None if in_place else np.empty(size)
        for i in range(1, chain[0] + 1):  # i fine steps done after this one
            # a fine normal that opens a step of the next grid goes straight into its sum
            noise = sums[0] if len(chain) > 1 and (i - 1) % blocks[1] == 0 else fine
            rng.standard_normal(out=noise)
            for r, block in enumerate(blocks):
                if r:
                    total = sums[r - 1]
                    if (i - blocks[r - 1]) % block:
                        np.add(total, noise, out=total)
                    elif r > 1:  # the first finer step of this grid's step
                        np.copyto(total, noise)
                    if i % block:
                        break
                    noise = total
                j = i // block - 1
                grid, x, (lowers, uppers) = models[r], xs[r], barriers[r]
                eps = grid.eps
                sigma_j = grid.vol(x)
                if in_place and np.may_share_memory(sigma_j, x):
                    sigma_j = sigma_j.copy()  # the kernel reads sigma at the left end
                moved = x if in_place else x_next
                # moved = x + drift(x) * eps + sigma_j * scale * noise
                np.multiply(grid.drift(x), eps, out=spare)
                np.add(x, spare, out=moved)
                np.multiply(sigma_j, scales[r], out=spare)
                np.multiply(spare, noise, out=spare)
                np.add(moved, spare, out=moved)
                on_grids[r] &= (moved > lowers[j + 1]) & (moved < uppers[j + 1])
                if single_up:
                    # gap_next = max(U - x_next, 0); the exponent overwrites the old gap
                    gap_next = np.maximum(np.subtract(spec.upper, moved, out=spare), 0.0, out=spare)
                    # sigma^2 eps may underflow: the -inf (or 0/0) exponent is the limit
                    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                        expo = kill_exponent_single(gaps[r], gap_next, sigma_j, eps, out=gaps[r])
                    gaps[r], spare = gap_next, expo
                else:
                    expo = kill_exponent_double(x, x_next, lowers[j], uppers[j],
                                                spec.lower_slope, spec.upper_slope, sigma_j, eps)
                survivals[r] *= survival_factor(expo, out=expo)
                if not in_place:
                    np.copyto(x, x_next)
        # a dead path's payoff may overflow where the discount underflows to
        # 0: its row entry is 0, not the nan of 0 * inf
        with np.errstate(over="ignore", invalid="ignore"):
            for x, survival, on_grid in zip(xs, survivals, on_grids):
                value = discount * payoff(x)
                x[...] = np.where(on_grid, value, 0.0)
                survival[...] = np.where(survival > 0.0, value * survival, 0.0)
        return rows

    rows = mc.run_replications(sampler, N, seed, threads=threads)
    pairs = {r: rows[2 * k:2 * k + 2] for k, r in enumerate(order)}
    return [pairs[r] for r in range(len(rungs))]
