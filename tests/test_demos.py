"""Smoke test: every demo still runs."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("[0-9]*.py")))
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LEMNISCATES_OUTDIR", str(tmp_path))
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
