"""Smoke test: the experiment script's ``main()`` on tiny arguments."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, args: list[str], monkeypatch) -> int:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    return module.main()


def test_radius_norm_explore(monkeypatch, capsys):
    assert run_script("radius_norm_explore", ["--samples", "2", "--starts", "1"],
                      monkeypatch) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6                   # header + 5 layouts

