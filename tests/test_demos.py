"""Smoke test: every demo runs to completion and prints something."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "demo_additive_coalescent.py",
        "demo_multiplicative_window.py",
        "demo_prim_intervals.py",
        "demo_walk_encoding.py",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
