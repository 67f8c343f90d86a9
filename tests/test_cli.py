import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import nullcontext, redirect_stderr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareflow import cli, cramer, credit, ruin, tilt
from rareflow.cli import ExperimentConfig, parse_config, run_experiment
from rareflow.errors import BoundViolated, NoRoot, NotAttained, OutOfDomain, OutOfDualDomain, ParseError


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
        ([], {"subcommand": "ruin-invest", "horizon": 0.0}),
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
    ])
    def test_solver_failure_exit_code_without_traceback(self, tmp_path, capsys, sub, doc, error):
        path = write_config(tmp_path, f"{sub}.json", dict(MINIMAL[sub], replications=2_000, **doc))
        assert cli.main([sub, "--config", path]) == cli.EXIT_CODES[error]
        err = capsys.readouterr().err
        assert err.startswith(f"rareflow: {error.__name__}:")
        assert "Traceback" not in err

    def test_integer_beyond_float_range(self):
        doc = dict(MINIMAL["ruin"], premium=10**400)
        with pytest.raises(ParseError) as err:
            parse_config(json.dumps(doc), "ruin")
        assert "premium" in str(err.value)

    def test_bound_violation_exits_with_its_code(self, tmp_path, capsys, monkeypatch):
        # halve the Lundberg bound the real check sees: samples above it fail
        check = ruin._check_lundberg
        monkeypatch.setattr(ruin, "_check_lundberg", lambda samples, bound: check(samples, 0.5 * bound))
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
        # ruin-invest without a ladder emits placeholder cells, never nan
        path = write_config(tmp_path, "ri.json", dict(MINIMAL["ruin-invest"]))
        out = tmp_path / "ri.csv"
        assert cli.main(["ruin-invest", "--config", path, "--out", str(out)]) == 0
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
     lambda N, seed: cramer.verify_rate(tilt.Bernoulli(0.25), 0.5, [10, 20, 40], N, seed)),
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
         "b": st.floats(-1.0, 2.0), "sigma": st.floats(0.5, 2.0), "x": st.floats(0.0, 8.0),
         "horizon": st.floats(1.0, 20.0)},
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
    else:
        assert len(rows) == 1 and rows[0]["n_rep"] == rows[0]["mean"] == "na"
    ladder_keys = {"mc_slope", "zero_hit_rungs"}
    assert ladder_keys & set(report["meta"]) == (ladder_keys if ladder else set())
    assert [str(w.message) for w in caught] == report["meta"]["warnings"]
    assert all(w.category is UserWarning and "zero-hit" in str(w.message) for w in caught)


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
