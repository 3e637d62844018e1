"""Smoke runs of the experiment scripts under scripts/."""

import importlib.util
import re
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bisector_orders(monkeypatch, capsys):
    script = _load("bisector_orders")
    monkeypatch.setattr(sys, "argv", ["bisector_orders.py"])
    assert script.main() == 0
    out = capsys.readouterr().out
    orders = [float(v) for v in re.findall(r"bisector order (\S+),", out)]
    # one line per parabola pair, each bisector of order 2
    assert len(orders) == 3
    for order in orders:
        assert abs(order - 2.0) <= 0.01


def test_plane_family(monkeypatch, capsys):
    script = _load("plane_family")
    monkeypatch.setattr(
        sys, "argv", ["plane_family.py", "--exponents", "3", "3/2", "--coeffs", "-2", "1"]
    )
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    # one line per exponent, each over the two ordered coefficient pairs;
    # at e = 3 the bisector sits below a 1/256 grid step at the smallest
    # scales, yet every germ keeps its medial branch
    assert lines[0] == "e = 3: 2 germs; set NOT_LNE/medial LNE: 2; defects: none"
    assert lines[1].startswith("e = 3/2: 2 germs;")
    assert "failed" not in lines[1] and "raised" not in lines[1]
    assert lines[2].startswith("elapsed ")
