import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareflow import cli, ruin
from rareflow.cli import ExperimentConfig, parse_config, run_experiment, serialize_config
from rareflow.errors import BoundViolated, ParseError


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
        assert config.params["estimator"] == "is"

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
        text = serialize_config(config)
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
        ([], {"subcommand": "longterm", "simulate": True, "ladder": [-5.0]}),
        ([], {"subcommand": "ruin-invest", "simulate": True, "ladder": [-1]}),
        ([], {"subcommand": "ruin-invest", "x": -1.0}),
        ([], {"subcommand": "ruin-invest", "simulate": True, "horizon": 0.0}),
        ([], {"subcommand": "credit", "ladder": [2.7]}),
        ([], {"subcommand": "fw-bond", "ladder": [8]}),
        ([], {"subcommand": "ghs", "ladder": [8]}),
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
        doc = dict(MINIMAL["longterm"], x=0.18, simulate=True, ladder=[5.0, 10.0, 20.0, 400.0],
                   euler_step=0.5, policy_index=50, replications=2_000, seed=5)
        path = write_config(tmp_path, "longterm.json", doc)
        out = tmp_path / "report.json"
        with pytest.warns(UserWarning, match="dropped 1 zero-hit"):
            assert cli.main(["longterm", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["meta"]["dropped_horizons"] == [400.0]
        horizon = report["columns"].index("horizon")
        assert [row[horizon] for row in report["rows"]] == ["5", "10", "20"]

    def test_net_profit_violation_exit_code(self, tmp_path, capsys):
        doc = dict(MINIMAL["ruin"], premium=0.5)
        path = write_config(tmp_path, "bad.json", doc)
        code = cli.main(["ruin", "--config", path])
        assert code == 5
        assert "NetProfitViolated" in capsys.readouterr().err

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
        # ruin-invest without simulation emits placeholder cells, never nan
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
