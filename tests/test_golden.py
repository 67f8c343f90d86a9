"""The behaviour to keep: the data rows of every committed config.

``tests/golden/<config>.csv`` holds the data rows (the lines that do not
start with ``#``) of ``configs/<config>.json`` run with ``--oracle``.  Each
config runs in-process at 1 and 2 threads, and its rows must match those
bytes.  A change that moves rows on purpose rewrites the golden file in the
same commit.  Byte identity is known to hold with the numpy version in
``tests/golden/numpy-version.txt``.
"""

import pathlib
import warnings

import numpy as np
import pytest

from rareflow import cli

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
        pytest.fail(f"{name} at {threads} threads moved (golden numpy {recorded}, "
                    f"running {np.__version__}):\n{moved}")
