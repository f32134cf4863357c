"""Smoke tests: each experiment script's ``main()`` on tiny arguments."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, args: list[str], monkeypatch) -> int:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    return module.main()


def test_ratio_sweep(tmp_path, monkeypatch):
    out = tmp_path / "ratios.csv"
    assert run_script("ratio_sweep", ["--trials", "2", "--output", str(out)],
                      monkeypatch) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 10                   # 2 target pools x 5 exponents
    assert {row["targets"] for row in rows} == {"generic", "commutative"}
    assert all(row["trials"] == "2" for row in rows)


def test_radius_norm_explore(monkeypatch, capsys):
    assert run_script("radius_norm_explore", ["--samples", "2", "--starts", "1"],
                      monkeypatch) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6                   # header + 5 layouts


def test_uncertainty_grid(tmp_path, monkeypatch):
    out = tmp_path / "grid.csv"
    assert run_script("uncertainty_grid", ["--points", "3", "--output", str(out)],
                      monkeypatch) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 16                   # (3 + 1 refined point) squared
    assert all(row["bound_ok"] == "True" for row in rows)
    assert float(rows[0]["half_gamma"]) == pytest.approx(20 ** 0.5 / 2, abs=1e-9)
