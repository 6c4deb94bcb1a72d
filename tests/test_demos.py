"""Smoke test: every demo script runs to the end."""
import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
NAMES = sorted(path.stem for path in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", NAMES)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    """The demo prints its story and leaves no temporary file behind."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
    assert not any(scratch.iterdir())
