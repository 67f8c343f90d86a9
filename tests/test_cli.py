import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import nullcontext, redirect_stderr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rareflow import cli, cramer, credit, mc, ruin, tilt
from rareflow.cli import ExperimentConfig, parse_config, run_experiment
from rareflow.errors import (BoundViolated, DomainError, NoRoot, NotAttained, OutOfDomain, OutOfDualDomain, ParseError,
                             RegimeError)


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def data_section(text):
    """CSV lines after the metadata comments."""
    return [line for line in text.splitlines() if not line.startswith("#")]


MINIMAL = {
    "cramer": {"family": "bernoulli", "p": 0.25, "n": 10, "x": 0.5},
    "ruin": {"premium": 2.0, "lam": 1.0, "claim_rate": 1.0, "x": 2.0},
    "ruin-invest": {"premium": 2.0, "lam": 1.0, "claim_rate": 1.0, "b": 1.0, "sigma": 1.0},
    "barrier": {"s0": 100.0, "strike": 90.0, "barrier": 130.0, "sigma": 0.25, "maturity": 1.0, "steps": 8},
    "fw-bond": {"s0": 80.0, "barrier": 100.0, "sigma": 0.4, "maturity": 1.0, "steps": 16},
    "ghs": {"s0": 50.0, "strike": 70.0, "sigma": 0.3, "maturity": 1.0},
    "credit": {"n": 20, "p": 0.1, "rho": 0.4, "q": 0.5},
    "longterm": {"a": 0.2, "x": 0.08},
}


class TestParseConfig:
    def test_minimal_cramer_defaults(self):
        config = parse_config(json.dumps(MINIMAL["cramer"]), "cramer")
        assert config.subcommand == "cramer"
        assert config.replications == 10000
        assert config.seed == 0
        assert config.output == "csv"
        assert config.oracle is False
        assert config.params["theta"] is None

    def test_credit_regime_error_names_field(self):
        doc = dict(MINIMAL["credit"], q=0.05)
        with pytest.raises(ParseError) as err:
            parse_config(json.dumps(doc), "credit")
        assert "q" in str(err.value)
        assert "p < q < 1" in str(err.value)

    def test_unknown_key_rejected(self):
        doc = dict(MINIMAL["ruin"], nonsense=1)
        with pytest.raises(ParseError) as err:
            parse_config(json.dumps(doc), "ruin")
        assert "nonsense" in str(err.value)

    def test_all_errors_reported_not_just_first(self):
        doc = {"family": "bernoulli", "p": 1.5, "x": 0.5, "bogus": 1}
        with pytest.raises(ParseError) as err:
            parse_config(json.dumps(doc), "cramer")
        message = str(err.value)
        assert "bogus" in message          # unknown key
        assert "p" in message              # invalid probability
        assert "n" in message              # missing required field

    def test_invalid_json_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_config("{broken", "ruin")
        assert "line 1" in str(err.value)

    def test_subcommand_mismatch(self):
        doc = dict(MINIMAL["ruin"], subcommand="credit")
        with pytest.raises(ParseError):
            parse_config(json.dumps(doc), "ruin")

    def test_longterm_theta_domain(self):
        doc = dict(MINIMAL["longterm"], theta=1.2)
        with pytest.raises(ParseError) as err:
            parse_config(json.dumps(doc), "longterm")
        assert "theta" in str(err.value)

    @pytest.mark.parametrize("subcommand", sorted(MINIMAL))
    def test_round_trip(self, subcommand):
        rng = np.random.default_rng(hash(subcommand) % 2**32)
        doc = dict(MINIMAL[subcommand])
        doc["subcommand"] = subcommand
        if rng.random() < 0.5:
            doc["seed"] = int(rng.integers(0, 2**31))
        if rng.random() < 0.5:
            doc["replications"] = int(rng.integers(2, 10_000))
        if rng.random() < 0.5:
            doc["output"] = "json"
        config = parse_config(json.dumps(doc), subcommand)
        text = json.dumps(config.canonical())
        again = parse_config(text, subcommand)
        assert again == config


# JSON values of every kind, keys drawn mostly from the real schema
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([0, 1, -1, 2, 10**400, -(10**400)]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_KEYS = sorted({key for schema in cli.SCHEMAS.values() for key in schema} | set(cli._COMMON))
_DOCS = st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=6), _JSON_VALUES, max_size=10)


class TestBadInput:
    @pytest.mark.parametrize("flags, doc", [
        (["--seed", "-1"], {}),
        ([], {"seed": -1}),
        (["--n", "1"], {}),
        ([], {"replications": 1}),
        # values that pass a type check but not the model behind the field
        ([], {"subcommand": "barrier", "steps": 1}),
        ([], {"subcommand": "barrier", "ladder": [8, 1]}),
        ([], {"ladder": [-1]}),
        ([], {"subcommand": "cramer", "ladder": [0]}),
        ([], {"subcommand": "cramer", "ladder": [10, 20, 10]}),
        ([], {"subcommand": "longterm", "ladder": [-5.0]}),
        ([], {"subcommand": "ruin-invest", "ladder": [-1]}),
        ([], {"subcommand": "ruin-invest", "x": -1.0}),
        ([], {"subcommand": "ruin-invest", "sigma": 0.0}),
        ([], {"subcommand": "credit", "ladder": [2.7]}),
        ([], {"subcommand": "fw-bond", "ladder": [8]}),
        ([], {"subcommand": "ghs", "ladder": [8]}),
        # theta 0 is the naive estimator; there is no estimator key
        ([], {"subcommand": "cramer", "estimator": "naive"}),
        # a shift name or schedule constant the credit model would reject
        ([], {"subcommand": "credit", "shift": "mu"}),
        ([], {"subcommand": "credit", "schedule_c": 0.0}),
        # keys that are gone: a ladder runs the Monte Carlo rungs, and barrier prices both methods
        ([], {"subcommand": "longterm", "simulate": True}),
        ([], {"subcommand": "ruin-invest", "simulate": True}),
        ([], {"subcommand": "barrier", "method": "naive"}),
        # a step count past the float range: the step variance overflowed converting it
        ([], {"subcommand": "barrier", "ladder": [8, 10**400]}),
        ([], {"subcommand": "fw-bond", "steps": 10**400}),
        # exp(-rate * maturity) overflows: the pricer's discount raised OverflowError
        ([], {"subcommand": "barrier", "rate": -710.0}),
        ([], {"subcommand": "barrier", "rate": -1e300, "maturity": 1e10}),
        # sizes numpy cannot draw: the binomial count, or n * x, overflowed
        ([], {"subcommand": "cramer", "n": 2**63}),
        ([], {"subcommand": "cramer", "family": "normal", "n": 10**400}),
        ([], {"subcommand": "credit", "n": 10**19, "rho": 0.0}),
        ([], {"subcommand": "credit", "n": 10**19, "shift": 0.0}),
    ])
    def test_exit_code_2_without_traceback(self, tmp_path, capsys, flags, doc):
        sub = doc.get("subcommand", "ruin")
        path = write_config(tmp_path, f"{sub}.json", dict(MINIMAL[sub], **doc))
        assert cli.main([sub, "--config", path] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("rareflow: ParseError:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub, doc", [
        ("barrier", dict(MINIMAL["barrier"], strike="high")),
        ("cramer", {"family": "normal", "n": 10, "x": 0.5, "var": "high"}),
    ])
    def test_mistyped_value_next_to_a_cross_field_check(self, sub, doc):
        with pytest.raises(ParseError) as err:
            parse_config(json.dumps(doc), sub)
        assert "expected float, got str" in str(err.value)

    @pytest.mark.parametrize("sub, doc, error", [
        # theta_L = 1 - 1e-17 rounds to the claim-domain edge: no float below it solves h = 0
        ("ruin", {"premium": 1e17}, NoRoot),
        # theta* = 1 - 2e-18 rounds to the claim rate for this drift
        ("ruin-invest", {"b": 1e9}, NoRoot),
        # p(0) > q: the factor threshold z_n is negative
        ("credit", {"p": 0.6, "q": 0.65, "rho": 0.9}, NoRoot),
        ("cramer", {"family": "exponential", "lam": 1.0, "x": -0.5}, NotAttained),
        ("cramer", {"x": 1.5}, NotAttained),
        # a = a0 and b = b0: Lambda' stays below b0^2 = 0.0025 up to theta_bar
        ("longterm", {"a": 0.1, "a0": 0.1, "b": 0.05, "b0": 0.05, "x": 0.2}, OutOfDualDomain),
        ("longterm", {"a": 0.1, "a0": 0.1, "b": 0.05, "b0": 0.05, "x": 0.2, "ladder": [5.0, 10.0, 20.0]},
         OutOfDualDomain),
        ("longterm", {"b": 0.3, "theta": 0.95}, OutOfDomain),
        # sigma^2 underflows to 0: b^2 / (2 sigma^2 lam) divided by zero
        ("ruin-invest", {"sigma": 1e-170}, NoRoot),
        # a tilt beyond the float range: the tilted p rounds to 1, which
        # Bernoulli rejects, or e^theta overflows in the c.g.f.
        ("cramer", {"p": 0.3, "theta": 38.0}, DomainError),
        ("cramer", {"p": 0.3, "theta": 710.0}, DomainError),
        ("cramer", {"family": "poisson", "lam": 1.0, "x": 2.0, "theta": 800.0}, DomainError),
        # numpy draws no Poisson mean this large
        ("cramer", {"family": "poisson", "lam": 1.0, "x": 2.0, "theta": 700.0}, DomainError),
        ("cramer", {"family": "poisson", "lam": 1e18, "x": 2e18}, DomainError),
        # the Normal c.g.f. overflows to inf without raising
        ("cramer", {"family": "normal", "n": 10, "x": 1.0, "theta": 1e160}, DomainError),
    ])
    def test_solver_failure_exit_code_without_traceback(self, tmp_path, capsys, sub, doc, error):
        path = write_config(tmp_path, f"{sub}.json", dict(MINIMAL[sub], replications=2_000, **doc))
        assert cli.main([sub, "--config", path]) == cli.EXIT_CODES[error]
        err = capsys.readouterr().err
        assert err.startswith(f"rareflow: {error.__name__}:")
        assert "Traceback" not in err

    def test_threshold_that_rounds_to_1_exits_7(self, tmp_path, capsys):
        # q_n = 1 - 1e-16 / 10 rounds to 1: log1p(-q_n) raised ValueError
        doc = {"n": 10, "p": 0.1, "rho": 0.4, "schedule_a": 1.0, "schedule_c": 1e-16, "replications": 2_000}
        path = write_config(tmp_path, "credit.json", doc)
        assert cli.main(["credit", "--config", path]) == cli.EXIT_CODES[RegimeError]
        err = capsys.readouterr().err
        assert err.startswith("rareflow: RegimeError:")
        assert "Traceback" not in err

    def test_a_reserve_beyond_reach_of_the_walk_exits_10_at_once(self, tmp_path, capsys):
        # the tilted walk gains about 1 per round, so x = 1e12 would take 1e12 rounds
        path = write_config(tmp_path, "ruin.json", dict(MINIMAL["ruin"], x=1e12))
        started = time.monotonic()
        assert cli.main(["ruin", "--config", path]) == 10
        assert time.monotonic() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("rareflow: MaxStepsExceeded:") and "Traceback" not in err

    def test_integer_beyond_float_range(self):
        doc = dict(MINIMAL["ruin"], premium=10**400)
        with pytest.raises(ParseError) as err:
            parse_config(json.dumps(doc), "ruin")
        assert "premium" in str(err.value)

    def test_bound_violation_exits_with_its_code(self, tmp_path, capsys, monkeypatch):
        # halve the Lundberg bound the real check sees: samples above it fail
        check = mc.check_bound
        monkeypatch.setattr(mc, "check_bound", lambda log_weight, log_bound, hit:
                            check(log_weight, log_bound - math.log(2.0), hit))
        path = write_config(tmp_path, "ruin.json", dict(MINIMAL["ruin"], replications=1_000))
        assert cli.main(["ruin", "--config", path]) == cli.EXIT_CODES[BoundViolated] == 12
        assert "BoundViolated" in capsys.readouterr().err

    @settings(max_examples=400, deadline=None, database=None)
    @given(doc=_DOCS, subcommand=st.sampled_from(cli.SUBCOMMANDS) | st.none())
    def test_fuzz_parse_config_raises_only_parse_error(self, doc, subcommand):
        try:
            config = parse_config(json.dumps(doc), subcommand)
        except ParseError:
            return
        assert isinstance(config, ExperimentConfig)
        assert config.seed >= 0 and config.replications >= 2

    @settings(max_examples=200, deadline=None, database=None)
    @given(text=st.text(max_size=40))
    def test_fuzz_parse_config_on_raw_text(self, text):
        try:
            parse_config(text, "ruin")
        except ParseError:
            pass


class TestRunExperiment:
    def test_ruin_rows_deterministic(self, tmp_path):
        path = write_config(tmp_path, "ruin.json", dict(MINIMAL["ruin"], replications=20_000, seed=42))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["ruin", "--config", path, "--out", str(out_a)]) == 0
        assert cli.main(["ruin", "--config", path, "--out", str(out_b)]) == 0
        assert data_section(out_a.read_text()) == data_section(out_b.read_text())

    def test_threads_do_not_change_rows(self, tmp_path):
        path = write_config(tmp_path, "ruin.json", dict(MINIMAL["ruin"], replications=50_000, seed=11))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["ruin", "--config", path, "--threads", "1", "--out", str(out_a)]) == 0
        assert cli.main(["ruin", "--config", path, "--threads", "4", "--out", str(out_b)]) == 0
        assert data_section(out_a.read_text()) == data_section(out_b.read_text())

    def test_barrier_ladder_emits_row_per_rung(self, tmp_path):
        doc = dict(MINIMAL["barrier"], ladder=[8, 16, 32], replications=5_000, oracle=True)
        path = write_config(tmp_path, "barrier.json", doc)
        out = tmp_path / "barrier.csv"
        assert cli.main(["barrier", "--config", path, "--out", str(out)]) == 0
        lines = data_section(out.read_text())
        header, rows = lines[0], [line for line in lines[1:] if line]
        assert header.split(",")[:2] == ["steps", "eps"]
        assert "naive_mean" in header and "corrected_mean" in header
        assert [row.split(",")[0] for row in rows] == ["8", "16", "32"]

    def test_barrier_rungs_share_paths_along_each_chain(self, tmp_path):
        # 16 and 8 share one pass at seed + 2, the index of 16; 12 divides
        # neither and runs alone at seed + 1.  Each pass's finest rung prints
        # the row of a run of that rung alone at the pass's seed
        def run(name, doc):
            out = tmp_path / f"{name}.json"
            path = write_config(tmp_path, f"{name}.json.in", dict(MINIMAL["barrier"], replications=3_000, **doc))
            assert cli.main(["barrier", "--config", path, "--threads", "1", "--out", str(out)]) == 0
            return json.loads(out.read_text())

        report = run("ladder", {"ladder": [8, 12, 16], "seed": 40})
        assert report["meta"]["path_passes"] == [{"steps": [16, 8], "seed": 42}, {"steps": [12], "seed": 41}]
        assert [row[0] for row in report["rows"]] == ["8", "12", "16"]
        for i, steps in ((1, 12), (2, 16)):
            alone = run(f"alone{steps}", {"steps": steps, "seed": 40 + i})
            assert alone["meta"]["path_passes"] == [{"steps": [steps], "seed": 40 + i}]
            assert report["rows"][i] == alone["rows"][0]

    def test_invalid_domain_nonzero_exit_no_partial_output(self, tmp_path, capsys):
        doc = dict(MINIMAL["longterm"], theta=1.2)
        path = write_config(tmp_path, "longterm.json", doc)
        out = tmp_path / "never.csv"
        code = cli.main(["longterm", "--config", path, "--out", str(out)])
        assert code != 0
        assert not out.exists()
        assert "theta" in capsys.readouterr().err

    def test_longterm_records_dropped_horizons(self, tmp_path):
        # P[X_400/400 >= 0.18] ~ 1e-15: 2,000 paths see no hit on that rung
        doc = dict(MINIMAL["longterm"], x=0.18, ladder=[5.0, 10.0, 20.0, 400.0],
                   euler_step=0.5, policy_index=50, replications=2_000, seed=5)
        path = write_config(tmp_path, "longterm.json", doc)
        out = tmp_path / "report.json"
        with pytest.warns(UserWarning, match="dropped 1 zero-hit"):
            assert cli.main(["longterm", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["meta"]["zero_hit_rungs"] == [400.0]
        rows = [dict(zip(report["columns"], cells)) for cells in report["rows"]]
        assert [row["horizon"] for row in rows] == ["5", "10", "20", "400"]
        assert (rows[-1]["mean"], rows[-1]["log_mean"]) == ("0", "na")

    def test_longterm_rows_carry_estimator_columns(self, tmp_path):
        doc = dict(MINIMAL["longterm"], x=0.18, ladder=[5.0, 10.0, 20.0],
                   euler_step=0.5, policy_index=50, replications=2_000, seed=5)
        path = write_config(tmp_path, "longterm.json", doc)
        out = tmp_path / "report.json"
        assert cli.main(["longterm", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for cells in report["rows"]:
            row = dict(zip(report["columns"], cells))
            assert row["n_rep"] == "2000"
            mean, se = float(row["mean"]), float(row["std_error"])
            # 0/1 samples: the sample variance is m (1 - m) n / (n - 1)
            assert se == pytest.approx(math.sqrt(mean * (1.0 - mean) / 1_999), rel=1e-9)
            assert float(row["rel_error"]) == pytest.approx(se / mean, rel=1e-12)
            assert math.log(mean) == pytest.approx(float(row["log_mean"]), rel=1e-12)

    def test_zero_hit_run_listed_in_metadata(self, tmp_path):
        # P[Bin(200, 0.25) >= 100] ~ 1e-14: 20,000 naive draws see no hit
        doc = dict(MINIMAL["cramer"], n=200, theta=0.0, replications=20_000, seed=1)
        path = write_config(tmp_path, "naive.json", doc)
        out = tmp_path / "naive.json.out.json"
        with pytest.warns(UserWarning, match="dropped 1 zero-hit"):
            assert cli.main(["cramer", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["meta"]["zero_hit_rungs"] == [200]
        assert report["rows"] == [["200", "0.5", "0", "20000", "0", "0", "na", "na"]]

    def test_rungs_with_hits_leave_zero_hit_list_empty(self, tmp_path):
        path = write_config(tmp_path, "ruin.json", dict(MINIMAL["ruin"], ladder=[2.0, 4.0, 8.0], replications=2_000))
        out = tmp_path / "ruin.json.out.json"
        assert cli.main(["ruin", "--config", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["zero_hit_rungs"] == []

    def test_net_profit_violation_exit_code(self, tmp_path, capsys):
        doc = dict(MINIMAL["ruin"], premium=0.5)
        path = write_config(tmp_path, "bad.json", doc)
        code = cli.main(["ruin", "--config", path])
        assert code == 5
        assert "NetProfitViolated" in capsys.readouterr().err

    def test_longterm_with_two_hit_horizons_reports_them(self, tmp_path):
        # at 2,000 paths the horizon-100 rung (P ~ 3e-5) sees no hit: it is
        # printed as mean 0 and the slope, which needs 3 hit rungs, is na
        out = tmp_path / "report.json"
        with pytest.warns(UserWarning, match="dropped 1 zero-hit"):
            code = cli.main(["longterm", "--config", os.path.join(CONFIG_DIR, "longterm.json"),
                             "--n", "2000", "--out", str(out)])
        assert code == 0

        def no_constant(name):
            raise AssertionError(f"bare {name} in JSON output")

        report = json.loads(out.read_text(), parse_constant=no_constant)
        assert report["meta"]["mc_slope"] == "na"
        assert report["meta"]["zero_hit_rungs"] == [100.0]
        rows = [dict(zip(report["columns"], cells)) for cells in report["rows"]]
        assert [row["horizon"] for row in rows] == ["25", "50", "100"]
        assert (rows[-1]["mean"], rows[-1]["log_mean"]) == ("0", "na")

    def test_flag_overrides_win(self, tmp_path):
        path = write_config(tmp_path, "ruin.json", dict(MINIMAL["ruin"], seed=1, replications=5_000))
        config = parse_config((tmp_path / "ruin.json").read_text(), "ruin")
        report_default = run_experiment(config)
        assert report_default.meta["seed"] == 1
        out = tmp_path / "o.json"
        assert cli.main(["ruin", "--config", path, "--seed", "9", "--n", "2500", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["seed"] == 9
        assert doc["meta"]["replications"] == 2500

    def test_json_mirrors_csv_rows(self, tmp_path):
        path = write_config(tmp_path, "c.json", dict(MINIMAL["cramer"], replications=5_000, seed=3))
        out_csv = tmp_path / "r.csv"
        out_json = tmp_path / "r.json"
        assert cli.main(["cramer", "--config", path, "--out", str(out_csv)]) == 0
        assert cli.main(["cramer", "--config", path, "--out", str(out_json)]) == 0
        lines = data_section(out_csv.read_text())
        doc = json.loads(out_json.read_text())
        assert lines[0].split(",") == doc["columns"]
        assert lines[1].split(",") == doc["rows"][0]

    def test_no_bare_nan_in_output(self, tmp_path):
        # longterm without a ladder emits placeholder cells, never nan
        path = write_config(tmp_path, "lt.json", dict(MINIMAL["longterm"]))
        out = tmp_path / "lt.csv"
        assert cli.main(["longterm", "--config", path, "--out", str(out)]) == 0
        text = out.read_text()
        assert "nan" not in text.lower().replace("na,", "").replace(",na", "")
        for token in data_section(text)[1].split(","):
            assert token == "na" or token in ("true", "false") or math.isfinite(float(token))

    def test_oracle_column_close_to_estimate(self, tmp_path):
        path = write_config(tmp_path, "r.json", dict(MINIMAL["ruin"], replications=50_000, seed=2))
        out = tmp_path / "r.json.out.json"
        assert cli.main(["ruin", "--config", path, "--oracle", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        row = dict(zip(doc["columns"], doc["rows"][0]))
        mean, se, oracle = float(row["mean"]), float(row["std_error"]), float(row["oracle"])
        assert abs(mean - oracle) < 4.0 * se

    def test_credit_oracle_at_every_size(self, tmp_path):
        # the large-loss schedule of configs/credit-ladder.json, past n = 20000
        doc = {"n": 100, "p": 0.4, "rho": 1.0 / math.sqrt(2.0), "schedule_a": 1.0,
               "ladder": [100_000, 1_000_000], "replications": 20_000, "seed": 801}
        out = tmp_path / "credit.json.out.json"
        assert cli.main(["credit", "--config", write_config(tmp_path, "credit.json", doc),
                         "--oracle", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        rows = [dict(zip(result["columns"], map(float, row))) for row in result["rows"]]
        assert [row["n"] for row in rows] == [100_000, 1_000_000]
        for row in rows:
            assert 0.0 < row["oracle"] < 1.0
            assert abs(row["mean"] - row["oracle"]) < 4.0 * row["std_error"]

    def test_credit_oracle_past_the_binomial_routine_is_a_warning(self, tmp_path):
        # scipy's bdtrc returns nan from about n = 1e10: the cell prints na and the run says why
        doc = {"n": 10**12, "p": 0.1, "rho": 0.4, "q": 0.5, "replications": 2_000, "seed": 3}
        out = tmp_path / "credit.json.out.json"
        with pytest.warns(UserWarning, match="no oracle at n = 1000000000000"):
            assert cli.main(["credit", "--config", write_config(tmp_path, "credit.json", doc),
                             "--oracle", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [dict(zip(report["columns"], row))["oracle"] for row in report["rows"]] == ["na"]
        assert len(report["meta"]["warnings"]) == 1 and "bdtrc" in report["meta"]["warnings"][0]

    def test_bond_oracle_in_both_spaces(self, tmp_path):
        oracles = {}
        for space in ("log", "price"):
            doc = dict(MINIMAL["barrier"], payoff="bond", space=space, replications=2_000)
            out = tmp_path / f"{space}.csv"
            assert cli.main(["barrier", "--config", write_config(tmp_path, f"{space}.json", doc),
                             "--oracle", "--out", str(out)]) == 0
            lines = [line.split(",") for line in data_section(out.read_text()) if line]
            oracles[space] = dict(zip(lines[0], lines[1]))["oracle"]
        assert oracles["log"] != "na"
        assert oracles["price"] == oracles["log"]

    @pytest.mark.parametrize("subcommand", sorted(MINIMAL))
    def test_every_subcommand_runs_clean(self, tmp_path, subcommand):
        doc = dict(MINIMAL[subcommand], replications=2_000, seed=13)
        if subcommand == "fw-bond":
            doc["steps"] = 8
        if subcommand == "barrier":
            doc["steps"] = 8
        path = write_config(tmp_path, "cfg.json", doc)
        out = tmp_path / "out.csv"
        assert cli.main([subcommand, "--config", path, "--out", str(out)]) == 0
        assert out.exists()
        lines = data_section(out.read_text())
        assert len(lines) >= 2


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
CONFIGS = [
    pytest.param(os.path.join(CONFIG_DIR, name), id=name)
    for name in sorted(os.listdir(CONFIG_DIR)) if name.endswith(".json")
]


# subcommands whose committed configs run a decay ladder
DECAY_LADDERS = ("cramer", "ruin", "ruin-invest", "credit", "longterm")


@pytest.mark.parametrize("config_path", CONFIGS)
def test_committed_config_runs(tmp_path, config_path):
    with open(config_path) as handle:
        subcommand = json.load(handle)["subcommand"]
    # at 2,000 paths the horizon-100 rung of longterm.json (P ~ 3e-5) sees no hit
    longterm_config = os.path.basename(config_path) == "longterm.json"
    sections = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}.csv"
        with pytest.warns(UserWarning, match="dropped 1 zero-hit rungs") if longterm_config else nullcontext():
            code = cli.main([subcommand, "--config", config_path, "--n", "2000", "--threads", str(threads),
                             "--out", str(out)])
        assert code == 0
        text = out.read_text()
        sections.append(data_section(text))
    header, rows = sections[0][0], sections[0][1:]
    assert rows
    for row in rows:
        assert len(row.split(",")) == len(header.split(","))
    assert sections[0] == sections[1]
    if subcommand in DECAY_LADDERS:
        meta_keys = {line[2:].split(":")[0] for line in text.splitlines() if line.startswith("# ")}
        assert {"mc_slope", "zero_hit_rungs"} <= meta_keys
    if longterm_config:
        assert "# zero_hit_rungs: [100.0]" in text.splitlines()


@pytest.mark.parametrize("sub, doc, library_fit", [
    ("cramer", dict(MINIMAL["cramer"], ladder=[10, 20, 40]),
     lambda N, seed: cramer.verify_rate(tilt.Bernoulli(0.25), 0.5, [10, 20, 40], N, seed,
                                        theta=tilt.saddle_theta(tilt.Bernoulli(0.25), 0.5))),
    ("ruin", dict(MINIMAL["ruin"], ladder=[2.0, 4.0, 8.0]),
     lambda N, seed: ruin.ruin_decay_fit(ruin.RuinModel(2.0, 1.0, tilt.Exponential(1.0)), [2.0, 4.0, 8.0], N, seed)),
    ("credit", dict(MINIMAL["credit"], ladder=[20, 40, 80]),
     lambda N, seed: credit.measure_loss_decay(credit.PortfolioModel(0.1, 0.4, 0.5), [20, 40, 80], N, seed)),
], ids=["cramer", "ruin", "credit"])
def test_cli_and_library_share_one_ladder_path(tmp_path, sub, doc, library_fit):
    path = write_config(tmp_path, f"{sub}.json", dict(doc, replications=2_000, seed=7))
    out = tmp_path / "report.json"
    assert cli.main([sub, "--config", path, "--threads", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    fit = library_fit(2_000, 7)
    assert report["meta"]["mc_slope"] == fit.slope
    means = [float(dict(zip(report["columns"], cells))["mean"]) for cells in report["rows"]]
    assert means == [res.mean for res in fit.results]


_LADDER_DOCS = {
    "longterm": st.fixed_dictionaries(
        {"a": st.floats(0.05, 0.3), "x": st.floats(0.0, 0.3), "policy_index": st.integers(1, 50),
         "euler_step": st.just(0.5)},
        optional={"ladder": st.lists(st.floats(1.0, 20.0), min_size=1, max_size=4, unique=True)}),
    "ruin-invest": st.fixed_dictionaries(
        {"premium": st.floats(1.5, 3.0), "lam": st.floats(0.5, 1.5), "claim_rate": st.floats(1.0, 2.0),
         "b": st.floats(-1.0, 2.0), "sigma": st.floats(0.5, 2.0), "x": st.floats(0.0, 8.0)},
        optional={"ladder": st.lists(st.floats(0.0, 8.0), min_size=1, max_size=4, unique=True)}),
}


@settings(max_examples=40, deadline=None, database=None)
@given(sub_doc=st.sampled_from(sorted(_LADDER_DOCS)).flatmap(lambda sub: st.tuples(st.just(sub), _LADDER_DOCS[sub])),
       seed=st.integers(0, 2**31 - 1))
def test_a_ladder_runs_the_monte_carlo_rungs(sub_doc, seed):
    sub, doc = sub_doc
    ladder = doc.get("ladder")
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out.json")
        with open(path, "w") as handle:
            json.dump(dict(doc, replications=200, seed=seed), handle)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main([sub, "--config", path, "--threads", "1", "--out", out])
        if code != 0:
            # 10 is the documented code of every other RareflowError, e.g. a
            # ladder of subnormal reserves that mc.fit_decay cannot fit
            assert code in cli.EXIT_CODES.values() or code == 10
            assert stderr.getvalue().startswith("rareflow: ") and "Traceback" not in stderr.getvalue()
            return
        with open(out) as handle:
            report = json.load(handle)
    rows = [dict(zip(report["columns"], cells)) for cells in report["rows"]]
    rung_column = "horizon" if sub == "longterm" else "x"
    if ladder:
        assert [row[rung_column] for row in rows] == [cli._fmt(float(v)) for v in ladder]
    elif sub == "longterm":
        assert len(rows) == 1 and rows[0]["n_rep"] == rows[0]["mean"] == "na"
    else:  # ruin-invest estimates its one reserve
        assert [(row["x"], row["n_rep"]) for row in rows] == [(cli._fmt(doc["x"]), "200")]
    ladder_keys = {"mc_slope", "zero_hit_rungs"}
    assert ladder_keys & set(report["meta"]) == (ladder_keys if ladder or sub == "ruin-invest" else set())
    assert [str(w.message) for w in caught] == report["meta"]["warnings"]
    assert all(w.category is UserWarning and "zero-hit" in str(w.message) for w in caught)


def _tiny_or_plain(low, high):
    # a volatility down to where sigma^2 * maturity / steps underflows, or a plain one
    return st.floats(low, high) | st.floats(-160.0, -1.0).map(lambda e: 10.0**e)


_ORACLE_DOCS = {
    "barrier": st.fixed_dictionaries(
        {"s0": st.floats(1.0, 200.0), "strike": st.floats(0.5, 300.0), "barrier": st.floats(0.5, 400.0),
         "rate": st.floats(-0.5, 0.5) | st.floats(-1e3, 1e3), "sigma": _tiny_or_plain(0.005, 2.0),
         "maturity": st.floats(0.01, 5.0), "steps": st.integers(2, 16), "payoff": st.sampled_from(["call", "bond"]),
         "space": st.sampled_from(["log", "price"])},
        optional={"ladder": st.lists(st.integers(2, 32), min_size=1, max_size=3, unique=True)}),
    "fw-bond": st.fixed_dictionaries(
        {"s0": st.floats(1.0, 200.0), "barrier": st.floats(0.5, 400.0), "sigma": _tiny_or_plain(0.005, 2.0),
         "maturity": st.floats(0.01, 5.0), "steps": st.integers(1, 32), "use_fw_drift": st.booleans(),
         "bridge_hits": st.booleans()}),
    "credit": st.fixed_dictionaries(
        {"n": st.integers(1, 100_000), "p": st.floats(1e-4, 0.9),
         "rho": st.just(0.0) | st.floats(0.0, 0.999),
         "threshold": st.floats(0.0, 1.0) | st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 2.0))},
        optional={"ladder": st.lists(st.integers(1, 100_000), min_size=1, max_size=3, unique=True)}),
    # the families with an oracle; a target below the mean exits 3 (a tilt below 0)
    "cramer": st.one_of(
        st.fixed_dictionaries({"family": st.just("bernoulli"), "p": st.floats(1e-3, 0.9), "x": st.floats(0.0, 1.0)}),
        st.fixed_dictionaries({"family": st.just("normal"), "mean": st.floats(-2.0, 2.0), "var": st.floats(0.1, 4.0),
                               "x": st.floats(-3.0, 3.0)}),
        st.fixed_dictionaries({"family": st.sampled_from(["poisson", "exponential"]), "lam": st.floats(0.2, 5.0),
                               "x": st.floats(0.0, 5.0)}),
    ).flatmap(lambda doc: st.fixed_dictionaries(
        dict({key: st.just(value) for key, value in doc.items()}, n=st.integers(1, 2000)),
        optional={"ladder": st.lists(st.integers(1, 2000), min_size=1, max_size=3, unique=True)})),
    # a safety loading of at least 0.1 keeps each tilted walk's passage short;
    # reserves to 3 decimals, as a ladder of subnormal reserves has no spread to fit
    "ruin": st.fixed_dictionaries(
        {"lam": st.floats(0.5, 1.5), "claim_rate": st.floats(0.5, 2.0), "loading": st.floats(0.1, 3.0),
         "x": st.floats(0.0, 30.0).map(lambda v: round(v, 3))},
        optional={"ladder": st.lists(st.floats(0.0, 30.0).map(lambda v: round(v, 3)), min_size=1, max_size=3,
                                     unique=True)}),
    # the ranges of _LADDER_DOCS, with reserves to 3 decimals as for ruin
    "ruin-invest": st.fixed_dictionaries(
        {"premium": st.floats(1.5, 3.0), "lam": st.floats(0.5, 1.5), "claim_rate": st.floats(1.0, 2.0),
         "b": st.floats(-1.0, 2.0), "sigma": st.floats(0.5, 2.0), "x": st.floats(0.0, 8.0).map(lambda v: round(v, 3))},
        optional={"ladder": st.lists(st.floats(0.0, 8.0).map(lambda v: round(v, 3)), min_size=1, max_size=4,
                                     unique=True)}),
}


def _oracle_doc(sub, doc):
    """A config document; a credit threshold is a fixed q in (p, 1) or a schedule (a, c),
    and a ruin premium is lam / claim_rate times 1 + loading."""
    doc = dict(doc)
    if sub == "ruin":
        doc["premium"] = doc["lam"] / doc["claim_rate"] * (1.0 + doc.pop("loading"))
    if sub == "credit":
        threshold = doc.pop("threshold")
        if isinstance(threshold, tuple):
            doc.update(schedule_a=threshold[0], schedule_c=threshold[1])
        else:
            doc["q"] = doc["p"] + threshold * (1.0 - doc["p"])
    return doc


@settings(deadline=None, database=None)
@given(sub_doc=st.sampled_from(sorted(_ORACLE_DOCS)).flatmap(lambda sub: st.tuples(st.just(sub), _ORACLE_DOCS[sub])),
       seed=st.integers(0, 2**31 - 1))
# a discount of e^468 puts every sample near 1.8e203, where squared deviations overflow
@example(sub_doc=("barrier", {"s0": 100.0, "strike": 90.0, "barrier": 130.0, "sigma": 0.25, "maturity": 0.5,
                              "steps": 8, "payoff": "bond", "rate": -936.0}), seed=3)
# x / lam and lam * x round to 0, where the log of the Legendre rate has no value
@example(sub_doc=("cramer", {"family": "poisson", "lam": 2.0, "x": 5e-324, "n": 1}), seed=0)
@example(sub_doc=("cramer", {"family": "exponential", "lam": 0.2, "x": 5e-324, "n": 1}), seed=0)
def test_every_oracle_run_ends_in_bounded_oracles_or_a_documented_error(sub_doc, seed):
    sub, doc = sub_doc
    doc = _oracle_doc(sub, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out.json")
        with open(path, "w") as handle:
            json.dump(dict(doc, replications=200, seed=seed), handle)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True), redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main([sub, "--config", path, "--oracle", "--threads", "1", "--out", out])
        if code != 0:
            assert code in cli.EXIT_CODES.values()
            assert stderr.getvalue().startswith("rareflow: ") and "Traceback" not in stderr.getvalue()
            return
        with open(out) as handle:
            report = json.load(handle)
    cells = [dict(zip(report["columns"], row))["oracle"] for row in report["rows"]]
    assert cells
    if sub == "barrier" and doc["payoff"] == "bond" and doc["rate"] != 0.0:
        assert set(cells) == {"na"}  # the touch law is the driftless-price one
        return
    ceiling = doc["s0"] if sub == "barrier" and doc["payoff"] == "call" else 1.0
    for cell in cells:
        assert 0.0 <= float(cell) <= ceiling


# Drawn once from the domain of _ORACLE_DOCS, with space log (barrier) and
# bridge_hits (fw-bond), by a numpy generator seeded 2019, values rounded to
# 4 digits; draws that exit 2 or print no oracle (a bond at a rate other
# than 0) were passed over.  The seed is the draw's index.  The ruin and
# cramer draws came the same way from a generator seeded 22, a ruin premium
# as lam / claim_rate times 1 + loading; cramer draws that exit 3 (a target
# below the mean) were passed over.  The poisson and exponential draws came
# from a generator seeded 30, with n and ladder rungs in [1, 200] and x
# between the family's mean and twice it, so that few of their tails
# underflow to 0; their seed is 100 plus the draw's index.
_FIVE_SE_DOCS = [
    ("fw-bond", {"s0": 176.2, "barrier": 306.3, "sigma": 1.402, "maturity": 2.769, "steps": 30,
                 "use_fw_drift": False, "seed": 1}),
    ("fw-bond", {"s0": 30.35, "barrier": 379.2, "sigma": 2.209e-61, "maturity": 2.997, "steps": 4,
                 "use_fw_drift": True, "seed": 2}),
    ("fw-bond", {"s0": 92.76, "barrier": 10.26, "sigma": 1.098e-112, "maturity": 4.024, "steps": 17,
                 "use_fw_drift": True, "seed": 3}),
    ("fw-bond", {"s0": 181.2, "barrier": 105.1, "sigma": 1.387, "maturity": 3.082, "steps": 30,
                 "use_fw_drift": True, "seed": 4}),
    ("fw-bond", {"s0": 11.84, "barrier": 120.3, "sigma": 0.6469, "maturity": 4.408, "steps": 23,
                 "use_fw_drift": True, "seed": 5}),
    ("fw-bond", {"s0": 132.4, "barrier": 236.8, "sigma": 1.788, "maturity": 1.914, "steps": 24,
                 "use_fw_drift": False, "seed": 6}),
    ("barrier", {"s0": 77.7, "strike": 240.8, "barrier": 169.1, "rate": -0.06113, "sigma": 1.413,
                 "maturity": 3.876, "steps": 2, "payoff": "call", "ladder": [32], "seed": 13}),
    ("barrier", {"s0": 52.79, "strike": 99.9, "barrier": 183.2, "rate": 96.78, "sigma": 2.041e-48,
                 "maturity": 2.083, "steps": 5, "payoff": "call", "seed": 19}),
    ("barrier", {"s0": 70.52, "strike": 293.8, "barrier": 365.1, "rate": 16.36, "sigma": 0.6932,
                 "maturity": 3.113, "steps": 2, "payoff": "call", "seed": 22}),
    ("barrier", {"s0": 47.57, "strike": 61.52, "barrier": 397.4, "rate": 0.3851, "sigma": 1.973,
                 "maturity": 4.55, "steps": 4, "payoff": "call", "ladder": [8, 26], "seed": 23}),
    ("barrier", {"s0": 95.94, "strike": 115.8, "barrier": 39.22, "rate": 0.07505, "sigma": 8.271e-77,
                 "maturity": 3.867, "steps": 7, "payoff": "call", "seed": 24}),
    ("barrier", {"s0": 194.7, "strike": 46.43, "barrier": 163.7, "rate": 0.2964, "sigma": 1.754,
                 "maturity": 0.06215, "steps": 12, "payoff": "call", "ladder": [13, 15, 22], "seed": 26}),
    ("ruin", {"premium": 1.471, "lam": 0.8663, "claim_rate": 0.7989, "x": 19.6, "ladder": [25.55], "seed": 1}),
    ("ruin", {"premium": 0.9806, "lam": 0.7165, "claim_rate": 1.696, "x": 3.095, "ladder": [27.45], "seed": 2}),
    ("ruin", {"premium": 1.35, "lam": 0.9128, "claim_rate": 1.772, "x": 23.92, "seed": 3}),
    ("ruin", {"premium": 1.467, "lam": 1.225, "claim_rate": 1.129, "x": 5.574, "seed": 4}),
    ("ruin", {"premium": 1.584, "lam": 1.121, "claim_rate": 1.239, "x": 20.56, "seed": 5}),
    ("ruin", {"premium": 1.835, "lam": 0.9167, "claim_rate": 1.41, "x": 14.41, "ladder": [5.628, 9.251, 17.76],
              "seed": 6}),
    ("cramer", {"family": "normal", "mean": -1.794, "var": 2.266, "x": 0.6448, "n": 1976, "ladder": [955, 1821],
                "seed": 1}),
    ("cramer", {"family": "normal", "mean": -0.35, "var": 0.5279, "x": 1.228, "n": 1025, "seed": 3}),
    ("cramer", {"family": "normal", "mean": -1.894, "var": 3.777, "x": 1.288, "n": 413, "seed": 4}),
    ("cramer", {"family": "normal", "mean": 1.736, "var": 2.016, "x": 2.115, "n": 1445, "seed": 5}),
    ("cramer", {"family": "normal", "mean": 0.9311, "var": 0.4669, "x": 1.274, "n": 1148, "ladder": [404, 722, 865],
                "seed": 11}),
    ("cramer", {"family": "bernoulli", "p": 0.4207, "x": 0.6691, "n": 708, "ladder": [1411], "seed": 12}),
    ("cramer", {"family": "poisson", "lam": 2.26, "x": 2.469, "n": 48, "seed": 101}),
    ("cramer", {"family": "poisson", "lam": 4.364, "x": 5.789, "n": 157, "ladder": [80], "seed": 102}),
    ("cramer", {"family": "exponential", "lam": 1.401, "x": 1.174, "n": 119, "seed": 103}),
    ("cramer", {"family": "exponential", "lam": 2.499, "x": 0.7072, "n": 79, "seed": 104}),
    ("cramer", {"family": "poisson", "lam": 2.633, "x": 4.958, "n": 149, "ladder": [108, 120], "seed": 105}),
    ("cramer", {"family": "exponential", "lam": 1.453, "x": 1.336, "n": 57, "seed": 111}),
]
# what makes each estimator unbiased for its closed form: in log space the
# Euler step and the bridge law are exact, and the bond counts bridge hits
_FIVE_SE_FIXED = {"barrier": {"space": "log"}, "fw-bond": {"bridge_hits": True}}


@pytest.mark.parametrize("sub, doc", _FIVE_SE_DOCS, ids=[f"{sub}-{doc['seed']}" for sub, doc in _FIVE_SE_DOCS])
def test_estimate_within_five_se_of_its_oracle(tmp_path, sub, doc):
    # the corrected knock-out, the bridge-hit bond, the tilted ruin walk and
    # the tilted empirical mean are unbiased; a row with no spread (a tail that
    # underflows to 0, or a price with no volatility) must equal the oracle
    doc = dict(doc, **_FIVE_SE_FIXED.get(sub, {}))
    out = tmp_path / "out.json"
    path = write_config(tmp_path, "cfg.json", dict(doc, replications=5_000))
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        assert cli.main([sub, "--config", path, "--oracle", "--threads", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    prefix = "corrected_" if sub == "barrier" else ""
    rows = [dict(zip(report["columns"], row)) for row in report["rows"]]
    # a decay ladder leaves out a tail that underflows to 0, with a warning
    zero_hit = sum(float(cells["mean"]) == 0.0 for cells in rows) if sub in ("cramer", "ruin") else 0
    assert report["meta"]["warnings"] == ([f"dropped {zero_hit} zero-hit rungs from the decay fit"] if zero_hit else [])
    for cells in rows:
        mean, se, oracle = (float(cells[key]) for key in (prefix + "mean", prefix + "std_error", "oracle"))
        if se == 0.0:
            assert mean == pytest.approx(oracle, rel=1e-12, abs=1e-12)
        else:
            assert abs(mean - oracle) < 5.0 * se


@pytest.mark.parametrize("sub, doc, expected", [
    # the reflection factor exp(2 mu b / sigma^2) overflowed at the parent
    ("barrier", dict(MINIMAL["barrier"], sigma=0.005, rate=0.05, space="log"), 0),
    ("barrier", dict(MINIMAL["barrier"], sigma=0.005, rate=0.05, space="price"), 0),
    # sigma^2 * maturity / steps underflows to 0: the oracles and the bridge kill divided by it
    ("barrier", dict(MINIMAL["barrier"], sigma=1e-170), 2),
    ("barrier", dict(MINIMAL["barrier"], sigma=1e-170, payoff="bond"), 2),
    ("fw-bond", dict(MINIMAL["fw-bond"], sigma=1e-170), 2),
    # the largest rung sets the step variance
    ("barrier", dict(MINIMAL["barrier"], sigma=1e-153, ladder=[2, 4096]), 2),
    ("barrier", dict(MINIMAL["barrier"], sigma=1e-153, ladder=[2, 4]), 0),
    # sigma passes the bound, but a bridge exponent or a log-weight overflows
    # to -inf, the exact limit, which printed numpy overflow warnings
    ("barrier", dict(MINIMAL["barrier"], s0=0.1, strike=0.05, barrier=2.0, sigma=1e-153, steps=4,
                     space="price"), 0),
    ("fw-bond", dict(MINIMAL["fw-bond"], s0=1.0, barrier=1e300, sigma=3e-154, steps=4), 0),
], ids=["call-sigma-0.005-log", "call-sigma-0.005-price", "call-sigma-1e-170", "bond-sigma-1e-170",
        "fw-bond-sigma-1e-170", "ladder-underflows", "ladder-holds", "price-space-kill-exponent",
        "fw-bond-far-barrier"])
def test_oracle_at_a_vanishing_volatility(tmp_path, capsys, sub, doc, expected):
    out = tmp_path / "out.json"
    path = write_config(tmp_path, "cfg.json", dict(doc, replications=200))
    assert cli.main([sub, "--config", path, "--oracle", "--threads", "1", "--out", str(out)]) == expected
    if expected:
        assert capsys.readouterr().err.startswith("rareflow: ParseError:")
        return
    report = json.loads(out.read_text())
    assert report["meta"]["warnings"] == []
    for row in report["rows"]:
        cells = dict(zip(report["columns"], row))
        if sub == "fw-bond":
            # a touch 690 log units away at sigma 3e-154: the probability is 0
            assert float(cells["oracle"]) == float(cells["mean"]) == 0.0
        else:
            assert 0.0 < float(cells["oracle"]) <= doc["s0"]


@pytest.mark.parametrize("doc", [
    dict(MINIMAL["barrier"], s0=148.2, strike=264.4, barrier=78.60, rate=735.9, sigma=1.525, maturity=4.557,
         ladder=[16, 26]),
    dict(MINIMAL["barrier"], s0=16.74, strike=135.3, barrier=360.9, rate=256.3, sigma=8.9e-79, maturity=3.522,
         ladder=[11, 22, 32]),
], ids=["barrier-below-s0", "vanishing-sigma"])
def test_knocked_out_call_under_an_underflowed_discount_prices_zero(tmp_path, doc):
    # a dead path's payoff overflows to inf where exp(-rate T) underflows to
    # 0: its sample is 0, not the nan of 0 * inf
    out = tmp_path / "out.json"
    path = write_config(tmp_path, "cfg.json", dict(doc, replications=200))
    assert cli.main(["barrier", "--config", path, "--oracle", "--threads", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["meta"]["warnings"] == []
    for row in report["rows"]:
        cells = dict(zip(report["columns"], row))
        assert [float(cells[key]) for key in ("naive_mean", "naive_std_error", "corrected_mean",
                                             "corrected_std_error", "oracle")] == [0.0] * 5


def test_warnings_recorded_in_metadata(tmp_path):
    out = tmp_path / "report.json"
    with pytest.warns(UserWarning, match="dropped 1 zero-hit"):
        assert cli.main(["longterm", "--config", os.path.join(CONFIG_DIR, "longterm.json"),
                         "--n", "2000", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["warnings"] == ["dropped 1 zero-hit rungs from the decay fit"]
    doc = dict(MINIMAL["longterm"], x=0.18, ladder=[5.0, 10.0, 20.0],
               euler_step=0.5, policy_index=50, replications=2_000, seed=5)
    out = tmp_path / "all_hit.json"
    assert cli.main(["longterm", "--config", write_config(tmp_path, "lt.json", doc), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["warnings"] == []


@pytest.mark.parametrize("sub", ["ghs", "longterm"])
def test_an_oracle_asked_of_a_subcommand_without_one_is_a_warning(tmp_path, sub):
    doc = dict(MINIMAL[sub], replications=200)
    path = write_config(tmp_path, "cfg.json", doc)
    reports = []
    for flags in ([], ["--oracle"]):
        out = tmp_path / f"out{len(flags)}.json"
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            assert cli.main([sub, "--config", path, "--threads", "1", "--out", str(out), *flags]) == 0
        reports.append(json.loads(out.read_text()))
    plain, asked = reports
    assert asked["meta"]["warnings"] == plain["meta"]["warnings"] + [f"{sub} has no oracle; --oracle adds no column"]
    assert asked["columns"] == plain["columns"] and asked["rows"] == plain["rows"]


def test_module_runs_as_a_script():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "rareflow.cli", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run("ruin", "--config", os.path.join(CONFIG_DIR, "ruin.json"), "--n", "2000")
    assert done.returncode == 0
    assert data_section(done.stdout)[0] == "x,theta_l,lundberg_bound,n_rep,mean,std_error,rel_error,log_mean,oracle"
    assert run("--bogus").returncode == 2


# Every float field of each subcommand's minimal config (and of each cramer
# family's), set one at a time to each end of the float range, must end in a
# result or a documented exit code, never in a Python exception.
_PROBE_CONFIGS = dict(
    MINIMAL,
    **{"cramer-poisson": {"family": "poisson", "lam": 1.0, "n": 10, "x": 2.0},
       "cramer-normal": {"family": "normal", "n": 10, "x": 1.0},
       "cramer-exponential": {"family": "exponential", "lam": 1.0, "n": 10, "x": 2.0}})
_PROBE_VALUES = (5e-324, 1e-300, 1e-12, 1e12, 1e300, 1.7e308, -1e300, -5e-324)
_PROBE_FIELDS = [(name, field) for name in sorted(_PROBE_CONFIGS)
                 for field, spec in cli.SCHEMAS[name.split("-")[0] if name.startswith("cramer") else name].items()
                 if float in (spec.type if isinstance(spec.type, tuple) else (spec.type,))]


@pytest.mark.parametrize("name, field", _PROBE_FIELDS, ids=[f"{name}-{field}" for name, field in _PROBE_FIELDS])
def test_every_float_field_at_the_ends_of_the_float_range_ends_in_a_documented_code(tmp_path, name, field):
    sub = name.split("-")[0] if name.startswith("cramer") else name
    documented = {0, 10, 11, *cli.EXIT_CODES.values()}
    out = str(tmp_path / "out.json")
    for value in _PROBE_VALUES:
        path = write_config(tmp_path, "cfg.json", dict(_PROBE_CONFIGS[name], replications=2, **{field: value}))
        with warnings.catch_warnings(record=True), redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            code = cli.main([sub, "--config", path, "--oracle", "--threads", "1", "--out", out])
        assert code in documented, (field, value, code)
