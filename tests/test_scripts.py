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
