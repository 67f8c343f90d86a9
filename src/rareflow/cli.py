"""Config-driven experiment runner: every estimator as a subcommand.

Experiments are described by one flat JSON document per run; command-line
flags (--seed, --n, --threads, --out, --oracle) override the file.  Output is
CSV or JSON with a metadata block (seed, wall time, version, config hash) and
fixed per-subcommand data columns.  Identical config and seed produce
byte-identical data rows, whatever the thread count; files are written to a
temp path and renamed so failures never leave partial output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__, bridge, cramer, credit, isdrift, longterm, mc, oracles, ruin, tilt
from .errors import (
    BoundViolated,
    DomainError,
    InvalidBarrier,
    NetProfitViolated,
    NoRoot,
    NotAttained,
    OutOfDomain,
    OutOfDualDomain,
    ParseError,
    RareflowError,
    RegimeError,
)

SUBCOMMANDS = (
    "cramer",
    "ruin",
    "ruin-invest",
    "barrier",
    "fw-bond",
    "ghs",
    "credit",
    "longterm",
)

EXIT_CODES = {
    ParseError: 2,
    DomainError: 3,
    NotAttained: 4,
    NetProfitViolated: 5,
    NoRoot: 6,
    RegimeError: 7,
    OutOfDomain: 8,
    OutOfDualDomain: 8,
    InvalidBarrier: 9,
    BoundViolated: 12,
}


@dataclass
class FieldSpec:
    type: type
    required: bool = False
    default: object = None
    choices: tuple | None = None
    check: object = None  # (value, params) -> error string or None


def _positive(name):
    return lambda v, _p: None if v > 0 else f"{name} must be positive, got {v}"


def _at_least(low, name):
    return lambda v, _p: None if v >= low else f"{name} must be at least {low}, got {v}"


def _probability(name):
    return lambda v, _p: None if 0.0 < v < 1.0 else f"{name} must lie in (0,1), got {v}"


_COMMON = {
    "subcommand": FieldSpec(str, choices=SUBCOMMANDS),
    "replications": FieldSpec(int, default=10000, check=_at_least(2, "replications")),
    "seed": FieldSpec(int, default=0, check=_at_least(0, "seed")),
    "ladder": FieldSpec(list, default=None),
    "output": FieldSpec(str, default="csv", choices=("csv", "json")),
    "oracle": FieldSpec(bool, default=False),
}

SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    "cramer": {
        "family": FieldSpec(str, required=True, choices=("bernoulli", "poisson", "normal", "exponential")),
        "p": FieldSpec(float, default=None),
        "lam": FieldSpec(float, default=None),
        "mean": FieldSpec(float, default=0.0),
        "var": FieldSpec(float, default=1.0),
        "n": FieldSpec(int, required=True, check=_positive("n")),
        "x": FieldSpec(float, required=True),
        "theta": FieldSpec(float, default=None),
    },
    "ruin": {
        "premium": FieldSpec(float, required=True, check=_positive("premium")),
        "lam": FieldSpec(float, required=True, check=_positive("lam")),
        "claim_rate": FieldSpec(float, required=True, check=_positive("claim_rate")),
        "x": FieldSpec(float, required=True, check=_at_least(0, "x")),
    },
    "ruin-invest": {
        "premium": FieldSpec(float, required=True, check=_positive("premium")),
        "lam": FieldSpec(float, required=True, check=_positive("lam")),
        "claim_rate": FieldSpec(float, required=True, check=_positive("claim_rate")),
        "b": FieldSpec(float, required=True),
        "sigma": FieldSpec(float, required=True, check=_positive("sigma")),
        "x": FieldSpec(float, default=None, check=_at_least(0, "x")),
        "horizon": FieldSpec(float, default=None, check=_positive("horizon")),
    },
    "barrier": {
        "s0": FieldSpec(float, required=True, check=_positive("s0")),
        "strike": FieldSpec(float, default=0.0),
        "barrier": FieldSpec(float, required=True, check=_positive("barrier")),
        "rate": FieldSpec(float, default=0.0),
        "sigma": FieldSpec(float, required=True, check=_positive("sigma")),
        "maturity": FieldSpec(float, required=True, check=_positive("maturity")),
        "steps": FieldSpec(int, default=64, check=_at_least(2, "steps")),
        "payoff": FieldSpec(str, default="call", choices=("call", "bond")),
        "space": FieldSpec(str, default="log", choices=("log", "price")),
    },
    "fw-bond": {
        "s0": FieldSpec(float, required=True, check=_positive("s0")),
        "barrier": FieldSpec(float, required=True, check=_positive("barrier")),
        "sigma": FieldSpec(float, required=True, check=_positive("sigma")),
        "maturity": FieldSpec(float, required=True, check=_positive("maturity")),
        "steps": FieldSpec(int, default=256, check=_positive("steps")),
        "use_fw_drift": FieldSpec(bool, default=True),
        "bridge_hits": FieldSpec(bool, default=True),
    },
    "ghs": {
        "steps": FieldSpec(int, default=4, check=_positive("steps")),
        "s0": FieldSpec(float, required=True, check=_positive("s0")),
        "strike": FieldSpec(float, required=True, check=_positive("strike")),
        "sigma": FieldSpec(float, required=True, check=_positive("sigma")),
        "maturity": FieldSpec(float, required=True, check=_positive("maturity")),
        "start_shift": FieldSpec(float, default=2.0),
        "tol": FieldSpec(float, default=1e-9, check=_positive("tol")),
        "max_iter": FieldSpec(int, default=500, check=_positive("max_iter")),
    },
    "credit": {
        "n": FieldSpec(int, required=True, check=_positive("n")),
        "p": FieldSpec(float, required=True, check=_probability("p")),
        "rho": FieldSpec(float, required=True,
                         check=lambda v, _p: None if 0.0 <= v < 1.0 else f"rho must lie in [0,1), got {v}"),
        "q": FieldSpec(float, default=None),
        "schedule_a": FieldSpec(float, default=None),
        "schedule_c": FieldSpec(float, default=0.5, check=_positive("schedule_c")),
        "shift": FieldSpec((str, float), default="mu_n",
                           check=lambda v, _p: None if isinstance(v, float) or v in ("mu_n", "z_n")
                           else f"shift must be a number, 'mu_n' or 'z_n', got {v!r}"),
    },
    "longterm": {
        "a": FieldSpec(float, required=True),
        "a0": FieldSpec(float, default=0.0),
        "b": FieldSpec(float, default=0.0),
        "b0": FieldSpec(float, default=0.0),
        "sigma": FieldSpec(float, default=1.0, check=_positive("sigma")),
        "k": FieldSpec(float, default=1.0, check=_positive("k")),
        "x": FieldSpec(float, required=True),
        "theta": FieldSpec(float, default=None),
        "policy_index": FieldSpec(int, default=1, check=_positive("policy_index")),
        "euler_step": FieldSpec(float, default=0.01, check=_positive("euler_step")),
    },
}


# the field each ladder rung stands in for; longterm rungs are horizons
_LADDER_FIELDS = {"cramer": "n", "ruin": "x", "ruin-invest": "x", "barrier": "steps",
                  "credit": "n", "longterm": "horizon"}
_RUNG_SPECS = {sub: SCHEMAS[sub].get(name, FieldSpec(float, check=_positive("horizon")))
               for sub, name in _LADDER_FIELDS.items()}


@dataclass
class ExperimentConfig:
    subcommand: str
    params: dict
    replications: int
    seed: int
    ladder: list | None
    output: str
    oracle: bool

    def canonical(self) -> dict:
        # unset optionals are omitted: their defaults regenerate on reparse
        doc = {"subcommand": self.subcommand}
        doc.update({k: self.params[k] for k in sorted(self.params) if self.params[k] is not None})
        doc["replications"] = self.replications
        doc["seed"] = self.seed
        if self.ladder is not None:
            doc["ladder"] = self.ladder
        doc["output"] = self.output
        doc["oracle"] = self.oracle
        return doc


def _coerce(value, spec: FieldSpec, name: str, errors: list) -> object:
    types = spec.type if isinstance(spec.type, tuple) else (spec.type,)
    if float in types and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            errors.append(f"{name}: integer out of float range")
            return None
    if int in types and isinstance(value, bool):
        errors.append(f"{name}: expected int, got bool")
        return None
    if not isinstance(value, tuple(types)):
        errors.append(f"{name}: expected {'/'.join(t.__name__ for t in types)}, got {type(value).__name__}")
        return None
    if spec.choices is not None and value not in spec.choices:
        errors.append(f"{name}: {value!r} not one of {spec.choices}")
        return None
    return value


def _field_value(raw: dict, name: str, spec: FieldSpec, errors: list) -> object:
    """The coerced and checked value of one field, or its default when absent."""
    value = _coerce(raw[name], spec, name, errors) if name in raw else spec.default
    if value is not None and spec.check is not None:
        problem = spec.check(value, raw)
        if problem:
            errors.append(problem)
    return value


def parse_config(text: str, subcommand: str | None = None) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment document.

    Collects every validation problem (unknown keys, missing fields, domain
    violations) into a single ParseError rather than stopping at the first.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # over-long integers, over-deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("config document must be a JSON object")

    errors: list[str] = []
    sub = raw.get("subcommand", subcommand)
    if sub is None:
        raise ParseError("missing 'subcommand' (not in config and not given on the command line)")
    if sub not in SUBCOMMANDS:
        raise ParseError(f"unknown subcommand {sub!r}; choose from {SUBCOMMANDS}")
    if subcommand is not None and sub != subcommand:
        raise ParseError(f"config subcommand {sub!r} does not match command line {subcommand!r}")

    schema = SCHEMAS[sub]
    known = set(schema) | set(_COMMON)
    for key in raw:
        if key not in known:
            errors.append(f"unknown key {key!r} for subcommand {sub!r}")

    common_values = {name: _field_value(raw, name, spec, errors)
                     for name, spec in _COMMON.items() if name != "subcommand"}
    params = {}
    for name, spec in schema.items():
        if spec.required and name not in raw:
            errors.append(f"missing required key {name!r} for subcommand {sub!r}")
        params[name] = _field_value(raw, name, spec, errors)

    ladder, field_name = common_values["ladder"], _LADDER_FIELDS.get(sub)
    _validate_cross_fields(sub, params, errors)
    if ladder is not None and field_name is None:
        errors.append(f"ladder: subcommand {sub!r} takes no ladder")
    elif ladder:
        for i, value in enumerate(ladder):
            found: list[str] = []
            _field_value({field_name: value}, field_name, _RUNG_SPECS[sub], found)
            if value in ladder[:i]:  # a repeated scale leaves the decay fit singular
                found.append(f"repeats ladder[{ladder.index(value)}]")
            errors.extend(f"ladder[{i}]: {problem}" for problem in found)
    if errors:
        raise ParseError("config validation failed:\n  - " + "\n  - ".join(errors))
    return ExperimentConfig(
        subcommand=sub,
        params=params,
        replications=common_values["replications"],
        seed=common_values["seed"],
        ladder=ladder,
        output=common_values["output"],
        oracle=common_values["oracle"],
    )


def _validate_cross_fields(sub: str, params: dict, errors: list) -> None:
    if sub == "cramer":
        fam = params.get("family")
        if fam == "bernoulli" and (params.get("p") is None or not 0.0 < params["p"] < 1.0):
            errors.append("p: bernoulli family needs p in (0,1)")
        if fam in ("poisson", "exponential") and (params.get("lam") is None or params["lam"] <= 0.0):
            errors.append(f"lam: {fam} family needs lam > 0")
        if fam == "normal" and params["var"] is not None and params["var"] <= 0.0:
            errors.append("var: normal family needs var > 0")
    elif sub == "credit":
        q, sa = params.get("q"), params.get("schedule_a")
        if (q is None) == (sa is None):
            errors.append("credit config needs exactly one of 'q' (fixed) or 'schedule_a' (large-loss schedule)")
        p = params.get("p")
        if q is not None and p is not None and not (p < q < 1.0):
            errors.append(f"q: fixed threshold must satisfy p < q < 1, got q={q} with p={p}")
        if sa is not None and not (0.0 < sa <= 1.0):
            errors.append("schedule_a: must lie in (0, 1]")
    elif sub == "barrier":
        if params.get("payoff") == "call" and params["strike"] is not None and params["strike"] <= 0.0:
            errors.append("strike: call payoff needs strike > 0")
    elif sub == "longterm":
        theta = params.get("theta")
        if theta is not None and not 0.0 <= theta < 1.0:
            errors.append(f"theta: must lie in [0, 1) for the dual evaluation, got {theta}")


def _fmt(value) -> str:
    """Render one CSV cell: finite numbers in plain notation, sentinels as text."""
    if value is None:
        return "na"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "na"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17g")
    return str(value)


@dataclass
class Report:
    meta: dict
    columns: list
    rows: list


def _estimator_row(res: mc.EstimatorResult) -> list:
    return [res.n, res.mean, res.std_error, res.relative_error,
            res.log_mean if math.isfinite(res.log_mean) else None]

_EST_COLS = ["n_rep", "mean", "std_error", "rel_error", "log_mean"]


def _rungs(config: ExperimentConfig) -> list:
    """The ladder cast to its field's type, else that field's value."""
    if config.ladder:
        return [_RUNG_SPECS[config.subcommand].type(v) for v in config.ladder]
    return [config.params[_LADDER_FIELDS[config.subcommand]]]


def _ladder_meta(rungs: list, fit: mc.DecayFit) -> dict:
    """The fitted decay slope, nan below 3 hit rungs, and the rungs that saw no hit."""
    return {"mc_slope": fit.slope, "zero_hit_rungs": mc.zero_hit_rungs(rungs, fit.results)}


def _run_cramer(config: ExperimentConfig, threads: int) -> Report:
    p = config.params
    fam_name = p["family"]
    if fam_name == "bernoulli":
        family = tilt.Bernoulli(p["p"])
    elif fam_name == "poisson":
        family = tilt.Poisson(p["lam"])
    elif fam_name == "exponential":
        family = tilt.Exponential(p["lam"])
    else:
        family = tilt.Normal(p["mean"], p["var"])

    theta = p["theta"] if p["theta"] is not None else tilt.saddle_theta(family, p["x"])
    sizes = _rungs(config)
    fit = cramer.verify_rate(family, p["x"], sizes, config.replications, config.seed, theta=theta, threads=threads)
    rows = []
    for n, res in zip(sizes, fit.results):
        row = [n, p["x"], theta] + _estimator_row(res)
        if config.oracle:
            row.append(_cramer_oracle(fam_name, p, family, n))
        rows.append(row)
    cols = ["n", "x", "theta"] + _EST_COLS + (["oracle"] if config.oracle else [])
    return Report(meta=_ladder_meta(sizes, fit), columns=cols, rows=rows)


def _cramer_oracle(fam_name, p, family, n):
    if fam_name == "bernoulli":
        return oracles.binomial_tail(n, p["p"], int(cramer.lattice_threshold(n, p["x"])))
    if fam_name == "normal":
        return oracles.normal_mean_tail(p["mean"], p["var"], n, p["x"])
    return None


def _run_ruin(config: ExperimentConfig, threads: int) -> Report:
    p = config.params
    model = ruin.RuinModel(p["premium"], p["lam"], tilt.Exponential(p["claim_rate"]))
    sol = ruin.adjustment_coefficient(model)
    reserves = _rungs(config)
    fit = ruin.ruin_decay_fit(model, reserves, config.replications, config.seed, threads=threads)
    rows = []
    for x, res in zip(reserves, fit.results):
        row = [x, sol.value, math.exp(-sol.value * x)] + _estimator_row(res)
        if config.oracle:
            row.append(oracles.ruin_probability_exponential(p["premium"], p["lam"], p["claim_rate"], x))
        rows.append(row)
    cols = ["x", "theta_l", "lundberg_bound"] + _EST_COLS + (["oracle"] if config.oracle else [])
    meta = {"theta_l": sol.value, "residual": sol.residual, **_ladder_meta(reserves, fit)}
    return Report(meta=meta, columns=cols, rows=rows)


def _run_ruin_invest(config: ExperimentConfig, threads: int) -> Report:
    p = config.params
    model = ruin.RuinModel(
        p["premium"], p["lam"], tilt.Exponential(p["claim_rate"]),
        invest=ruin.Investment(p["b"], p["sigma"]),
    )
    theta_l = ruin.adjustment_coefficient(model).value
    sol = ruin.invest_exponent(model)
    alpha = ruin.optimal_fraction(model)
    cols = ["x", "theta_l", "theta_star", "alpha_star"] + _EST_COLS
    meta = {"theta_star": sol.value, "alpha_star": alpha}
    if config.ladder:
        horizon = p["horizon"] if p["horizon"] is not None else 200.0 / p["lam"]
        reserves = _rungs(config)
        fit = mc.fit_ladder(reserves, mc.run_ladder(lambda x, seed: ruin.simulate_wealth_ruin(
            model, x, alpha, horizon, config.replications, seed, threads=threads), reserves, config.seed))
        rows = [[x, theta_l, sol.value, alpha] + _estimator_row(res) for x, res in zip(reserves, fit.results)]
        meta.update(_ladder_meta(reserves, fit))
    else:
        rows = [[p["x"] if p["x"] is not None else 0.0, theta_l, sol.value, alpha, None, None, None, None, None]]
    return Report(meta=meta, columns=cols, rows=rows)


def _run_barrier(config: ExperimentConfig, threads: int) -> Report:
    p = config.params
    sigma, rate = p["sigma"], p["rate"]
    if p["space"] == "log":
        x0 = math.log(p["s0"])
        drift = lambda x: rate - 0.5 * sigma * sigma
        vol = lambda x: sigma
        barrier_level = math.log(p["barrier"])
        price = np.exp
    else:
        x0 = p["s0"]
        drift = lambda x: rate * x
        vol = lambda x: sigma * x
        barrier_level = p["barrier"]
        price = lambda x: x
    payoff = (lambda x: np.maximum(price(x) - p["strike"], 0.0)) if p["payoff"] == "call" else np.ones_like
    spec = bridge.BarrierSpec(barrier_level)
    oracle_value = None
    if config.oracle:
        if p["payoff"] == "call":
            oracle_value = oracles.up_out_call_price(p["s0"], p["strike"], p["barrier"], rate, sigma, p["maturity"])
        else:
            # the touch law is the driftless-price one, so only rate 0 has an oracle
            oracle_value = 1.0 - oracles.up_in_bond_probability(
                p["s0"], p["barrier"], sigma, p["maturity"]) if rate == 0.0 else None
    cols = ["steps", "eps"] + [f"{m}_{c}" for m in ("naive", "corrected") for c in ("mean", "std_error")]
    if config.oracle:
        cols.append("oracle")

    def one_row(steps: int, seed: int) -> list:
        model = bridge.EulerModel(drift=drift, vol=vol, maturity=p["maturity"], steps=steps, x0=x0, rate=rate)
        row = [steps, model.eps]
        for res in bridge.price_knockout(model, payoff, spec, config.replications, seed, method="both", threads=threads):
            row.extend([res.mean, res.std_error])
        if config.oracle:
            row.append(oracle_value)
        return row

    return Report(meta={}, columns=cols, rows=mc.run_ladder(one_row, _rungs(config), config.seed))


def _run_fw_bond(config: ExperimentConfig, threads: int) -> Report:
    p = config.params
    res = isdrift.price_up_in_bond(
        p["s0"], p["barrier"], p["sigma"], p["maturity"], p["steps"],
        config.replications, config.seed, use_fw_drift=p["use_fw_drift"],
        bridge_hits=p["bridge_hits"], threads=threads,
    )
    row = [p["s0"], p["barrier"], p["use_fw_drift"]] + _estimator_row(res)
    cols = ["s0", "barrier", "fw_drift"] + _EST_COLS
    if config.oracle:
        cols.append("oracle")
        row.append(oracles.up_in_bond_probability(p["s0"], p["barrier"], p["sigma"], p["maturity"]))
    return Report(meta={}, columns=cols, rows=[row])


def _run_ghs(config: ExperimentConfig, threads: int) -> Report:
    p = config.params
    payoff = isdrift.asian_call_payoff(p["steps"], p["s0"], p["strike"], p["sigma"], p["maturity"])
    start = np.full(p["steps"], p["start_shift"])
    drift = isdrift.ghs_drift(payoff, start, tol=p["tol"], max_iter=p["max_iter"])
    res_is = isdrift.mu_is_estimator(payoff, drift.mu, config.replications, config.seed, threads=threads)
    res_naive = isdrift.mu_is_estimator(payoff, np.zeros(p["steps"]), config.replications, config.seed + 1, threads=threads)
    cols = ["estimator", "objective", "converged"] + _EST_COLS + [f"mu_{i}" for i in range(p["steps"])]
    rows = [
        ["mu_is", drift.objective, drift.converged] + _estimator_row(res_is) + list(drift.mu),
        ["naive", None, None] + _estimator_row(res_naive) + [0.0] * p["steps"],
    ]
    return Report(meta={"iterations": drift.iterations}, columns=cols, rows=rows)


def _run_credit(config: ExperimentConfig, threads: int) -> Report:
    p = config.params
    threshold = p["q"] if p["q"] is not None else credit.LossSchedule(p["schedule_a"], p["schedule_c"])
    model = credit.PortfolioModel(p=p["p"], rho=p["rho"], threshold=threshold)
    sizes = _rungs(config)
    fit = credit.measure_loss_decay(model, sizes, config.replications, config.seed, shift=p["shift"], threads=threads)
    rows = []
    for n, res in zip(sizes, fit.results):
        row = [n, model.q_at(n)] + _estimator_row(res)
        if config.oracle:
            row.append(oracles.credit_tail_quadrature(n, p["p"], p["rho"], model.q_at(n)))
        rows.append(row)
    cols = ["n", "q_n"] + _EST_COLS + (["oracle"] if config.oracle else [])
    return Report(meta=_ladder_meta(sizes, fit), columns=cols, rows=rows)


def _run_longterm(config: ExperimentConfig, threads: int) -> Report:
    p = config.params
    spec = longterm.MarketSpec(a0=p["a0"], b0=p["b0"], a=p["a"], b=p["b"], sigma=p["sigma"])
    model = longterm.LqModel.from_market(spec, p["k"])
    if p["theta"] is not None:
        # direct dual evaluation at a requested theta (errors if outside domain)
        coeff_a, coeff_b, lam = longterm.lq_dual(model, p["theta"])
        cols = ["theta", "coeff_a", "coeff_b", "lambda"]
        return Report(meta={}, columns=cols, rows=[[p["theta"], coeff_a, coeff_b, lam]])
    dual = longterm.solve_dual(model)
    x_norm = p["x"] - model.x_shift
    value, theta_x = longterm.dual_to_value(dual, x_norm)
    alpha = longterm.feedback_policy(model, theta_x, 0.0) * model.alpha_scale
    meta = {"theta_bar": dual.theta_bar, "steep": dual.steep}
    cols = ["x", "value", "theta_x", "alpha_star", "horizon"] + _EST_COLS
    if config.ladder:
        horizons = _rungs(config)
        fit = longterm.mc_outperformance(
            model, x_norm, horizons, config.replications, config.seed,
            policy_index=p["policy_index"], euler_step=p["euler_step"], threads=threads,
        )
        meta.update(_ladder_meta(horizons, fit))
        rows = [[p["x"], value, theta_x, alpha, horizon] + _estimator_row(res)
                for horizon, res in zip(horizons, fit.results)]
    else:
        rows = [[p["x"], value, theta_x, alpha, None, None, None, None, None, None]]
    return Report(meta=meta, columns=cols, rows=rows)


_RUNNERS = {
    "cramer": _run_cramer,
    "ruin": _run_ruin,
    "ruin-invest": _run_ruin_invest,
    "barrier": _run_barrier,
    "fw-bond": _run_fw_bond,
    "ghs": _run_ghs,
    "credit": _run_credit,
    "longterm": _run_longterm,
}


def run_experiment(config: ExperimentConfig, threads: int = 1) -> Report:
    """Dispatch a validated config and collect rows plus run metadata.

    Every warning the run raises is listed, in order, under the ``warnings``
    meta key, then raised again so the caller's warning filters apply.
    """
    started = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = _RUNNERS[config.subcommand](config, threads)
    elapsed = time.monotonic() - started
    digest = hashlib.sha256(
        json.dumps(config.canonical(), sort_keys=True).encode()
    ).hexdigest()[:16]
    report.meta = {
        "subcommand": config.subcommand,
        "seed": config.seed,
        "replications": config.replications,
        "version": __version__,
        "config_hash": digest,
        "wall_time_s": round(elapsed, 3),
        **report.meta,
        "warnings": [str(w.message) for w in caught],
    }
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return report


def render_csv(report: Report) -> str:
    lines = [f"# {key}: {_fmt(value)}" for key, value in report.meta.items()]
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    # JSON has no nan or inf: such meta values print as their CSV text
    meta = {key: _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v
            for key, v in report.meta.items()}
    doc = {
        "meta": meta,
        "columns": report.columns,
        "rows": [[_fmt(v) for v in row] for row in report.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _write_atomic(path: str, payload: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", newline="\n") as handle:
        handle.write(payload)
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rareflow", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--n", type=int, default=None, help="override the replication count")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--out", default=None, help="output file (.csv or .json)")
    parser.add_argument("--oracle", action="store_true", help="add oracle columns where available")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"rareflow: cannot read config: {exc}", file=sys.stderr)
        return 11

    try:
        config = parse_config(text, args.subcommand)
        for flag, name in (("seed", "seed"), ("n", "replications")):
            value = getattr(args, flag)
            if value is not None:
                problem = _COMMON[name].check(value, None)
                if problem:
                    raise ParseError(f"--{flag}: {problem}")
                setattr(config, name, value)
        if args.oracle:
            config.oracle = True
        if args.out is not None:
            if args.out.endswith(".json"):
                config.output = "json"
            elif args.out.endswith(".csv"):
                config.output = "csv"
        report = run_experiment(config, threads=max(args.threads, 1))
    except RareflowError as exc:
        code = EXIT_CODES.get(type(exc), 10)
        print(f"rareflow: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code

    payload = render_json(report) if config.output == "json" else render_csv(report)
    if args.out:
        try:
            _write_atomic(args.out, payload)
        except OSError as exc:
            print(f"rareflow: cannot write output: {exc}", file=sys.stderr)
            return 11
    else:
        sys.stdout.write(payload)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
