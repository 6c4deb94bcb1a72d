"""Smoke test: every demo script runs to the end.

Demo 03 is left out: its integration by parts at k = 4 takes about half a
minute, and acceptance criterion 3 already runs those calls.
"""
import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
FAST_DEMOS = ("01_weights_and_symbols", "02_phases_and_hypotheses",
              "04_operators_and_inversion", "05_composition_symbol",
              "06_boundedness_compactness", "07_scenario_runner")


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    """The demo prints its story and leaves no temporary file behind."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
    assert not any(scratch.iterdir())
