"""Seeded Monte Carlo replication engine and decay-rate fitting.

Replications are split into fixed-size batches.  Batch ``b`` of a run with
seed ``s`` draws from ``SeedSequence([s, b])``, so the stream layout depends
only on ``(sampler, n, seed)`` — never on thread count — and batch statistics
are merged in batch-index order.  Samplers receive the batch SeedSequence and
may spawn independent sub-streams from it without perturbing each other.  A sampler may return k rows, k
estimators of the same replications, and gets k results from one pass, each
the one its row alone would give.  Every ladder of runs goes through
``run_ladder`` and, when its rates are fitted, ``fit_ladder``, except the
barrier step-count ladder: its rungs share paths, so each chain of them is
one pass of ``bridge.price_knockout_ladder`` with a k-row sampler.  Every
importance sampler with a per-draw bound checks it through ``check_bound``.

Threads: the engine keeps one pool of worker threads per requested thread
count for the life of the process (a forked child starts with none).  A
parallel run gives each of up to ``threads`` workers one task that pulls
batch indices from a shared counter until none are left, so no schedule
changes a bit of the result.  A failing batch stops the handing out of new
indices; the batches already handed out finish, and the error of the
lowest failing batch index is raised, as a serial run would raise it.  A
sampler that calls the engine from inside a worker runs that call serially.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import BoundViolated, InsufficientData, MismatchedLadders, NonFiniteInput

BATCH_SIZE = 1 << 14

# log_mean of a run whose empirical mean is not positive; kept out of decay
# fits (see decay_points).
LOG_ZERO = -math.inf

Sampler = Callable[[np.random.SeedSequence, int], np.ndarray]

# thread count -> the engine's pool of that many workers, made on first use
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_worker = threading.local()  # .active is set in every engine worker thread


def _forget_pools() -> None:
    """Give a forked child no pools: the parent's workers do not survive a fork."""
    global _pools, _pools_lock
    _pools, _pools_lock = {}, threading.Lock()


os.register_at_fork(after_in_child=_forget_pools)


def _mark_worker() -> None:
    _worker.active = True


def _pool(threads: int) -> ThreadPoolExecutor:
    """The engine's pool of ``threads`` workers, kept for the life of the process."""
    with _pools_lock:
        pool = _pools.get(threads)
        if pool is None:
            pool = _pools[threads] = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="rareflow-mc", initializer=_mark_worker)
        return pool


@dataclass(frozen=True)
class EstimatorResult:
    """Summary statistics of one Monte Carlo run."""

    n: int
    mean: float
    variance: float
    std_error: float
    relative_error: float
    second_moment: float
    log_mean: float


@dataclass(frozen=True)
class DecayFit:
    """Ordinary least squares fit of log-probability against a scale.

    A fit made by ``fit_ladder`` also carries every rung's result in ladder
    order.
    """

    points: tuple[tuple[float, float], ...]
    slope: float
    results: tuple[EstimatorResult, ...] = ()


def _merge(stats_a, stats_b):
    """Chan's pairwise update for (count, mean, M2, scale) in fixed order.

    M2 is held in units of scale**2, and the merge keeps the larger scale.
    """
    na, ma, sa, ka = stats_a
    nb, mb, sb, kb = stats_b
    n = na + nb
    scale = max(ka, kb)
    ra, rb = ka / scale, kb / scale
    delta = mb - ma
    mean = ma + delta * (nb / n)
    d = delta / scale
    m2 = sa * (ra * ra) + sb * (rb * rb) + d * d * (na * nb / n)
    return (n, mean, m2, scale)


def _batch_stats(values: np.ndarray):
    """(count, mean, M2, scale) of one batch; M2 is NaN when the mean is not finite.

    The mean is tested first, so a batch holding inf never forms ``inf - inf``
    and the caller rejects it without a numpy RuntimeWarning.  The scale is
    1 unless M2 < 2**-900, where squared deviations may underflow: M2 is then
    summed over the deviations over a power of two near the largest.
    """
    n = values.size
    with np.errstate(invalid="ignore"):  # a batch holding both +inf and -inf
        mean = float(np.mean(values))
    if not math.isfinite(mean):
        return (n, mean, math.nan, 1.0)
    m2 = float(np.sum((values - mean) ** 2))
    scale = 1.0
    if m2 < 2.0**-900:
        peak = float(np.max(np.abs(values - mean)))
        if peak > 0.0:
            scale = math.ldexp(1.0, math.frexp(peak)[1])
            m2 = float(np.sum(((values - mean) / scale) ** 2))
    return (n, mean, m2, scale)


def _estimate(stats) -> EstimatorResult:
    """The ``EstimatorResult`` of merged (count, mean, M2, scale) statistics."""
    count, mean, m2, scale = stats
    variance = m2 / (count - 1) if count > 1 else 0.0  # in units of scale**2
    variance = max(variance, 0.0)
    std_error = scale * math.sqrt(variance / count)
    relative_error = std_error / mean if mean > 0.0 else math.nan
    second_moment = (m2 * scale * scale + count * mean * mean) / count
    log_mean = math.log(mean) if mean > 0.0 else LOG_ZERO
    return EstimatorResult(
        n=count,
        mean=mean,
        variance=variance * scale * scale,
        std_error=std_error,
        relative_error=relative_error,
        second_moment=second_moment,
        log_mean=log_mean,
    )


def check_bound(log_weight, log_bound, hit) -> None:
    """Raise ``BoundViolated`` if a hit draw's log-weight is above its log-bound.

    The comparison is exact.  A sampler forms ``log_bound`` from the same
    expression as ``log_weight``, evaluated at the event's threshold: with a
    nonpositive coefficient on a sum at or above that threshold, monotone
    rounding puts every hit at or below its bound.  ``log_bound`` may be one
    value or one per lane; misses are exempt, and -inf and nan weights pass.
    """
    if np.any(hit & (log_weight > log_bound)):
        raise BoundViolated("importance weight above its per-draw bound")


def run_replications(
    sampler: Sampler,
    n: int,
    seed: int,
    threads: int = 1,
) -> EstimatorResult | tuple[EstimatorResult, ...]:
    """Average ``n`` replications of a sampler of one or more estimators.

    ``sampler(seed_seq, size)`` must return values drawn from generators
    derived from ``seed_seq`` only: ``size`` values, or a ``(k, size)``
    array whose k rows are k estimators of the same replications (common
    random numbers).  A 1-D sampler gives one ``EstimatorResult``; a
    ``(k, size)`` one a tuple of k, each bit-identical to a run of a sampler
    returning that row alone.  The result is bit-identical for fixed
    ``(sampler, n, seed)`` whatever ``threads`` is, and so is the error of a
    run that fails: that of its lowest failing batch.  A batch holding a NaN
    or inf sample raises ``NonFiniteInput`` naming the batch index.
    """
    if n < 2:
        raise ValueError("need at least 2 replications")
    batches = []
    start = 0
    index = 0
    while start < n:
        size = min(BATCH_SIZE, n - start)
        batches.append((index, size))
        start += size
        index += 1

    def one_batch(batch):
        idx, size = batch
        ss = np.random.SeedSequence([seed, idx])
        values = np.asarray(sampler(ss, size), dtype=float)
        if values.shape != (size,) and not (values.ndim == 2 and values.shape[0] >= 1 and values.shape[1] == size):
            raise ValueError(f"sampler returned shape {values.shape}, wanted ({size},) or (k, {size})")
        rows = values if values.ndim == 2 else (values,)
        per_row = []
        for j, row in enumerate(rows):
            stats = _batch_stats(row)
            if not (math.isfinite(stats[1]) and math.isfinite(stats[2])):
                where = f"batch {idx}" if values.ndim == 1 else f"batch {idx}, row {j}"
                raise NonFiniteInput(f"{where}: non-finite samples (mean {stats[1]}, M2 {stats[2]})")
            per_row.append(stats)
        return values.ndim, per_row

    per_batch = [None] * len(batches)
    errors = {}  # batch index -> the exception its batch raised
    indices = itertools.count()

    def work():
        # take no new index once a batch has failed; every lower index was
        # handed out before it, so the lowest failing batch is always seen
        while not errors:
            i = next(indices)
            if i >= len(batches):
                return
            try:
                per_batch[i] = one_batch(batches[i])
            except Exception as exc:
                errors[i] = exc

    if threads > 1 and len(batches) > 1 and not getattr(_worker, "active", False):
        pool = _pool(threads)
        for task in [pool.submit(work) for _ in range(min(threads, len(batches)))]:
            task.result()
    else:
        work()
    if errors:
        raise errors[min(errors)]

    layout = {(ndim, len(per_row)) for ndim, per_row in per_batch}
    if len(layout) > 1:
        raise ValueError(f"sampler changed its output layout between batches: {sorted(layout)}")
    totals = per_batch[0][1]
    for _, per_row in per_batch[1:]:
        totals = [_merge(total, stats) for total, stats in zip(totals, per_row)]
    results = tuple(_estimate(total) for total in totals)
    return results if per_batch[0][0] == 2 else results[0]


def fit_decay(points: Sequence[tuple[float, float]]) -> DecayFit:
    """Least-squares slope of log_prob against scale.

    Non-finite log-probabilities are rejected outright (zero-hit runs must be
    filtered by the caller, see ``decay_points``), as are ladders with fewer
    than 3 distinct scales or with a spread that squares to 0.
    """
    pts = tuple((float(s), float(lp)) for s, lp in points)
    if len(pts) < 3:
        raise InsufficientData(f"need at least 3 points, got {len(pts)}")
    scales = np.array([p[0] for p in pts])
    logs = np.array([p[1] for p in pts])
    if not np.all(np.isfinite(scales)) or not np.all(np.isfinite(logs)):
        bad = [p for p in pts if not (math.isfinite(p[0]) and math.isfinite(p[1]))]
        raise NonFiniteInput(f"non-finite points rejected: {bad}")
    sxx = float(np.sum((scales - scales.mean()) ** 2))
    if len(set(scales.tolist())) != len(pts) or sxx == 0.0:  # a spread of subnormals squares to 0
        raise InsufficientData("scales must be distinct and spread beyond float underflow")
    sxy = float(np.sum((scales - scales.mean()) * (logs - logs.mean())))
    return DecayFit(points=pts, slope=sxy / sxx)


def decay_points(
    scales: Sequence[float], results: Sequence[EstimatorResult]
) -> tuple[list[tuple[float, float]], int]:
    """Pair scales with log-estimates, dropping zero-hit rungs.

    Returns the usable points and the number of dropped rungs so callers can
    warn instead of silently fitting a truncated ladder.
    """
    points = [(float(scale), res.log_mean) for scale, res in zip(scales, results)
              if math.isfinite(res.log_mean)]
    return points, len(results) - len(points)


def zero_hit_rungs(rungs: Sequence, results: Sequence[EstimatorResult]) -> list:
    """The rungs whose run saw no hit: a mean that is not positive."""
    return [rung for rung, res in zip(rungs, results) if not math.isfinite(res.log_mean)]


def run_ladder(estimate: Callable[[object, int], object], rungs: Sequence, seed: int) -> list:
    """``estimate(rung, seed + i)`` for rung ``i`` of a ladder, in ladder order.

    Rungs draw from distinct seeds, and a ladder of one rung repeats the
    single run at ``seed``.
    """
    return [estimate(rung, seed + i) for i, rung in enumerate(rungs)]


def fit_ladder(scales: Sequence[float], results: Sequence[EstimatorResult]) -> DecayFit:
    """Fit log-estimates against scales, leaving zero-hit rungs out with a warning.

    The fit carries every result in ladder order.
    With fewer than 3 rungs left there is no line to fit: the slope is nan,
    and the rungs' results are kept all the same.
    """
    points, dropped = decay_points(scales, results)
    if dropped:  # attributed to the caller of the function that fits its ladder
        warnings.warn(f"dropped {dropped} zero-hit rungs from the decay fit", stacklevel=3)
    fit = fit_decay(points) if len(points) >= 3 else DecayFit(tuple(points), math.nan)
    return replace(fit, results=tuple(results))


def optimality_gap(second_moment_fit: DecayFit, prob_fit: DecayFit) -> float:
    """Slope of the second moment minus twice the probability slope.

    A value near zero certifies asymptotic optimality of an importance
    sampling scheme: the second moment then decays at twice the rate of the
    probability itself, the Cauchy-Schwarz-optimal speed.
    """
    ladder_a = tuple(p[0] for p in second_moment_fit.points)
    ladder_b = tuple(p[0] for p in prob_fit.points)
    if ladder_a != ladder_b:
        raise MismatchedLadders(f"ladders differ: {ladder_a} vs {ladder_b}")
    return second_moment_fit.slope - 2.0 * prob_fit.slope
