"""The behaviour to keep: the data rows of every committed config.

``tests/golden/<config>.csv`` holds the data rows (the lines that do not
start with ``#``) of ``configs/<config>.json`` run with ``--oracle``.  Each
config runs in-process at 1 and 2 threads, and its rows must match those
bytes.  A change that moves rows on purpose rewrites the golden file in the
same commit; on a mismatch the test prints each moved cell and the z of each
moved mean.  Byte identity is known to hold with the numpy version in
``tests/golden/numpy-version.txt``.  The committed rows of the unbiased
estimators with an oracle must also lie within 5 SE of it.
"""

import csv
import math
import pathlib
import warnings

import numpy as np
import pytest

from rareflow import cli

from oracles import asian_call_conditional_gh

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted(path.stem for path in (ROOT / "configs").glob("*.json"))


def data_rows(name: str, threads: int) -> str:
    config = cli.parse_config((ROOT / "configs" / f"{name}.json").read_text())
    config.oracle = True
    with warnings.catch_warnings():  # a run's warnings go to its metadata, not its rows
        warnings.simplefilter("ignore")
        report = cli.run_experiment(config, threads=threads)
    return "".join(line + "\n" for line in cli.render_csv(report).splitlines() if not line.startswith("#"))


def moved_cells(old: str, new: str) -> list[str]:
    """Each cell that differs, as ``row r, column: old -> new``."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines) or old_lines[:1] != new_lines[:1]:
        return [f"layout: {old_lines[:1]} with {len(old_lines)} lines -> {new_lines[:1]} with {len(new_lines)}"]
    columns = old_lines[0].split(",")
    return [f"row {r}, {column}: {a} -> {b}"
            for r, (old_line, new_line) in enumerate(zip(old_lines[1:], new_lines[1:]), start=1)
            for column, a, b in zip(columns, old_line.split(","), new_line.split(","))
            if a != b]


def moved_means_z(old: str, new: str) -> list[str]:
    """The z of each moved mean, (new - old) / sqrt(SE_old^2 + SE_new^2), from its row's SE."""
    old_rows, new_rows = (list(csv.DictReader(text.splitlines())) for text in (old, new))
    if len(old_rows) != len(new_rows) or not old_rows or list(old_rows[0]) != list(new_rows[0]):
        return []
    lines = []
    for r, (a, b) in enumerate(zip(old_rows, new_rows), start=1):
        for column in a:
            se_column = column[:-len("mean")] + "std_error"
            if column.endswith("mean") and se_column in a and a[column] != b[column]:
                delta = float(b[column]) - float(a[column])
                z = delta / math.hypot(float(a[se_column]), float(b[se_column]))
                lines.append(f"row {r}, {column}: {a[column]} -> {b[column]}, z = {z:+.2f}")
    return lines


def test_every_config_has_a_golden_file():
    assert CONFIGS
    assert sorted(path.stem for path in GOLDEN.glob("*.csv")) == CONFIGS


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", CONFIGS)
def test_data_rows_match_the_golden_file(name, threads):
    expected = (GOLDEN / f"{name}.csv").read_text()
    got = data_rows(name, threads)
    if got != expected:
        recorded = (GOLDEN / "numpy-version.txt").read_text().strip()
        moved = "\n".join(moved_cells(expected, got))
        z_table = "\n".join(moved_means_z(expected, got))
        pytest.fail(f"{name} at {threads} threads moved (golden numpy {recorded}, "
                    f"running {np.__version__}):\n{moved}\nz of each moved mean:\n{z_table}")


# unbiased estimators whose rows carry an exact oracle; barrier rows carry
# the Euler bias by design and stay out
UNBIASED_WITH_ORACLE = ("cramer", "credit", "credit-deep", "credit-ladder", "fw-bond", "ruin")


@pytest.mark.parametrize("name", UNBIASED_WITH_ORACLE)
def test_committed_rows_lie_within_five_se_of_their_oracle(name):
    rows = list(csv.DictReader((GOLDEN / f"{name}.csv").read_text().splitlines()))
    assert rows
    for row in rows:
        mean, se, oracle = (float(row[key]) for key in ("mean", "std_error", "oracle"))
        assert se > 0.0 and abs(mean - oracle) < 5.0 * se, row


def test_committed_ghs_rows_lie_within_five_se_of_the_reference():
    # ghs prints no oracle column; the reference is the test-side quadrature
    params = cli.parse_config((ROOT / "configs" / "ghs-asian.json").read_text()).params
    reference = asian_call_conditional_gh(params["steps"], params["s0"], params["strike"], params["sigma"],
                                          params["maturity"])
    rows = list(csv.DictReader((GOLDEN / "ghs-asian.csv").read_text().splitlines()))
    assert [row["estimator"] for row in rows] == ["mu_is", "naive"]
    for row in rows:
        mean, se = float(row["mean"]), float(row["std_error"])
        assert se > 0.0 and abs(mean - reference) < 5.0 * se, row
