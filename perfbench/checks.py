"""Correctness gate: reference values and property checks for CLI reports.

Every reference here is computed by a route of its own (closed forms, log-space
sums, a fixed Gauss-Legendre rule) and imports nothing from rareflow, so an
estimator cannot pass by sharing a mistake with its oracle.

``check_report`` turns one CLI report into one ``Estimate`` per estimated
quantity: whether it passed, why not, and (for unbiased estimators with an
exact reference) its z-score, which the caller pools over a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtrc, ndtr, ndtri

Z_LIMIT = 4.0  # an estimate with an exact reference must lie within 4 SE of it


@dataclass
class Estimate:
    ok: bool
    reason: str | None = None
    z: float | None = None


def _rows(report) -> list[dict]:
    return [dict(zip(report.columns, row)) for row in report.rows]


def _finite(value) -> bool:
    return value is not None and math.isfinite(float(value))


def _phi_bar(u: float) -> float:
    """Upper standard normal tail, accurate far out."""
    return 0.5 * math.erfc(u / math.sqrt(2.0))


def binomial_tail(n: int, p: float, k_min: int) -> float:
    """P[Bin(n, p) >= k_min] summed in log space, so any n is safe."""
    if k_min <= 0:
        return 1.0
    if k_min > n:
        return 0.0
    k = np.arange(k_min, n + 1, dtype=float)
    log_pmf = (math.lgamma(n + 1) - np.array([math.lgamma(v + 1) for v in k])
               - np.array([math.lgamma(n - v + 1) for v in k])
               + k * math.log(p) + (n - k) * math.log1p(-p))
    top = float(log_pmf.max())
    return math.exp(top) * float(np.exp(log_pmf - top).sum())


def ruin_exponential(premium: float, lam: float, claim_rate: float, x: float) -> float:
    """Cramer-Lundberg ruin probability with exponential claims."""
    return lam / (premium * claim_rate) * math.exp(-(claim_rate - lam / premium) * x)


def touch_probability(s0: float, barrier: float, sigma: float, maturity: float) -> float:
    """P[max_{t<=T} S_t >= B] for driftless geometric Brownian motion.

    ln S is a Brownian motion with drift nu = -sigma^2/2; the reflection
    principle gives the law of its running maximum.
    """
    a = math.log(barrier / s0)
    nu = -0.5 * sigma * sigma
    s = sigma * math.sqrt(maturity)
    return _phi_bar((a - nu * maturity) / s) + math.exp(2.0 * nu * a / sigma**2) * _phi_bar((a + nu * maturity) / s)


def up_and_out_call(s0: float, strike: float, barrier: float, rate: float, sigma: float, maturity: float) -> float:
    """Closed-form up-and-out call (barrier above strike and spot).

    Vanilla Black-Scholes call minus the up-and-in call of Merton (1973) and
    Reiner & Rubinstein (1991), as tabulated in Hull, Options, Futures and
    Other Derivatives, ch. 26.
    """
    n = lambda u: float(ndtr(u))  # noqa: E731
    st = sigma * math.sqrt(maturity)
    disc = math.exp(-rate * maturity)
    lam = (rate + 0.5 * sigma * sigma) / sigma**2
    d1 = (math.log(s0 / strike) + (rate + 0.5 * sigma * sigma) * maturity) / st
    vanilla = s0 * n(d1) - strike * disc * n(d1 - st)
    x1 = math.log(s0 / barrier) / st + lam * st
    y = math.log(barrier * barrier / (s0 * strike)) / st + lam * st
    y1 = math.log(barrier / s0) / st + lam * st
    ratio = barrier / s0
    up_in = (s0 * n(x1) - strike * disc * n(x1 - st)
             - s0 * ratio ** (2 * lam) * (n(-y) - n(-y1))
             + strike * disc * ratio ** (2 * lam - 2) * (n(-y + st) - n(-y1 + st)))
    return vanilla - up_in


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def credit_tail(n: int, p: float, rho: float, q: float) -> float:
    """P[L_n >= n q] in the Gaussian one-factor model.

    The conditional binomial tail is integrated against the factor density by
    a composite 16-point Gauss-Legendre rule on a window that covers both the
    factor's bulk and the threshold z_n where the integrand concentrates.
    """
    k_min = math.ceil(float(n) * q)
    root = math.sqrt(1.0 - rho * rho)
    c = float(ndtri(p))
    z_n = (root * float(ndtri(q)) - c) / rho
    edges = np.linspace(min(z_n - 10.0, -10.0), max(z_n + 10.0, 10.0), 401)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    z = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    pz = ndtr((rho * z + c) / root)
    tail = bdtrc(k_min - 1, n, pz)
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return float(np.sum(w * tail * density))


def outperformance_rate(a: float, a0: float, sigma: float, x: float) -> float:
    """v(x) for a constant-coefficient market: -(sqrt(x - a0) - |a - a0|/(sigma sqrt 2))^2."""
    x_bar = 0.5 * ((a - a0) / sigma) ** 2
    gap = x - a0
    return 0.0 if gap <= x_bar else -((math.sqrt(gap) - math.sqrt(x_bar)) ** 2)


def _slope(xs, ys) -> float:
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    return float(np.sum((xs - xs.mean()) * (ys - ys.mean())) / np.sum((xs - xs.mean()) ** 2))


def _against(mean, se, reference) -> Estimate:
    if not (_finite(mean) and _finite(se)) or float(mean) <= 0.0:
        return Estimate(False, f"no usable estimate (mean {mean}, se {se})")
    if se == 0.0:
        return Estimate(False, "zero standard error")
    z = (float(mean) - reference) / float(se)
    if abs(z) > Z_LIMIT:
        return Estimate(False, f"{z:+.2f} SE from reference {reference:.6g}", z)
    return Estimate(True, None, z)


def _cramer(params, rows):
    if params["family"] != "bernoulli":
        raise ValueError("only the Bernoulli family has a reference here")
    return [_against(r["mean"], r["std_error"],
                     binomial_tail(int(r["n"]), params["p"], math.ceil(int(r["n"]) * params["x"] - 1e-9)))
            for r in rows]


def _ruin(params, rows):
    return [_against(r["mean"], r["std_error"],
                     ruin_exponential(params["premium"], params["lam"], params["claim_rate"], float(r["x"])))
            for r in rows]


def _credit(params, rows):
    return [_against(r["mean"], r["std_error"], credit_tail(int(r["n"]), params["p"], params["rho"], float(r["q_n"])))
            for r in rows]


def _fw_bond(params, rows):
    reference = touch_probability(params["s0"], params["barrier"], params["sigma"], params["maturity"])
    return [_against(r["mean"], r["std_error"], reference) for r in rows]


def _barrier(params, rows):
    """Finest corrected rung within 4 SE; every other rung biased less than naive."""
    if params.get("payoff", "call") != "call" or params.get("method", "both") != "both":
        raise ValueError("the barrier check needs a call priced by both methods")
    reference = up_and_out_call(params["s0"], params["strike"], params["barrier"],
                                params.get("rate", 0.0), params["sigma"], params["maturity"])
    out = []
    for i, r in enumerate(rows):
        naive_err = abs(float(r["naive_mean"]) - reference)
        corr_err = abs(float(r["corrected_mean"]) - reference)
        ordered = corr_err < naive_err
        order = Estimate(ordered, None if ordered else
                         f"steps {r['steps']}: corrected error {corr_err:.4g} not below naive {naive_err:.4g}")
        if i == len(rows) - 1:
            finest = _against(r["corrected_mean"], r["corrected_std_error"], reference)
            finest.z = None  # biased at O(1/steps) by design: not pooled
            out += [order, finest]
        else:
            out += [order, order]
    return out


def _ghs(params, rows):
    """The drifted and the naive estimator target the same price."""
    by_name = {r["estimator"]: r for r in rows}
    a, b = by_name["mu_is"], by_name["naive"]
    se = math.hypot(float(a["std_error"]), float(b["std_error"]))
    z = (float(a["mean"]) - float(b["mean"])) / se
    ok = abs(z) <= Z_LIMIT
    est = Estimate(ok, None if ok else f"drifted and naive estimates differ by {z:+.2f} SE", z)
    return [est, est]


def _longterm(params, rows):
    """Decay slope of ln P[X_T/T >= x] in T within 20% of v(x)."""
    if params.get("b", 0.0) != 0.0 or params.get("b0", 0.0) != 0.0:
        raise ValueError("v(x) is in closed form only for constant coefficients")
    value = outperformance_rate(params["a"], params.get("a0", 0.0), params.get("sigma", 1.0), params["x"])
    slope = _slope([r["horizon"] for r in rows], [r["log_mean"] for r in rows])
    ok = abs(slope - value) <= 0.20 * abs(value)
    reason = None if ok else f"slope {slope:.5f} not within 20% of v(x) = {value:.5f}"
    return [Estimate(ok, reason) for _ in rows]


_CHECKS = {
    "cramer": _cramer,
    "ruin": _ruin,
    "credit": _credit,
    "fw-bond": _fw_bond,
    "barrier": _barrier,
    "ghs": _ghs,
    "longterm": _longterm,
}


def expected_estimates(params: dict) -> int:
    """How many estimates a config asks for, whether or not the call succeeds."""
    sub = params["subcommand"]
    rungs = len(params["ladder"]) if params.get("ladder") else 1
    if sub == "barrier":
        return 2 * rungs
    if sub == "ghs":
        return 2
    return rungs


def check_report(params: dict, report) -> list[Estimate]:
    """One Estimate per expected estimate; missing rungs count as zero-hit."""
    rows = _rows(report)
    expected = expected_estimates(params)
    mean_key = "corrected_mean" if params["subcommand"] == "barrier" else "mean"
    zero_hit = [r for r in rows if not _finite(r[mean_key]) or float(r[mean_key]) <= 0.0]
    if zero_hit or params["subcommand"] == "longterm" and len(rows) < expected:
        return [Estimate(False, "zero-hit rung") for _ in range(expected)]
    return _CHECKS[params["subcommand"]](params, rows)


def rarest_relative_error(params: dict, report) -> float:
    """Relative error of the rarest rung's estimate.

    The rarest rung is the row with the smallest mean; for barrier it is the
    finest corrected rung and for ghs the drifted estimator.  A 0/1
    estimator whose row carries no standard error gets
    sqrt((1 - p) / (n p)) from its mean and replication count.
    """
    rows = _rows(report)
    sub = params["subcommand"]
    if sub == "barrier":
        row = rows[-1]
        return float(row["corrected_std_error"]) / float(row["corrected_mean"])
    if sub == "ghs":
        row = next(r for r in rows if r["estimator"] == "mu_is")
    else:
        row = min(rows, key=lambda r: float(r["mean"]))
    mean = float(row["mean"])
    if _finite(row.get("std_error")):
        return float(row["std_error"]) / mean
    return math.sqrt((1.0 - mean) / (params["replications"] * mean))
