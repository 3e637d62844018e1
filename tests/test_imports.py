"""Which scipy modules an analysis loads.

``import lnegerm``, the analysis of a germ of curve pieces,
``lnegerm medial`` on any builtin and the SVG plots of ``medial`` and
``analyze`` load no scipy module: the package's own ``optimize.brentq`` and
``metrics.components`` serve them.  scipy is imported inside the functions
that need it, and a surface germ's link sections load only ``scipy.sparse``
(shortest paths).  Each check runs in a fresh interpreter so that
``sys.modules`` starts clean.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import contextlib, io, json, pathlib, sys, tempfile

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

loaded = {}
import lnegerm
from lnegerm import builtin, cli, germ_set, puiseux_branch, run_scenario, RunConfig
from lnegerm.scenarios import scenario_for_germ
loaded["import"] = scipy_modules()

for label in ("cusp", "abs_graph", "three_tangent"):
    run_scenario(builtin(label))
fan = germ_set(
    branches=[
        puiseux_branch([(1, (1.0, a)), (e, (0.0, c))], t_max=1.0, label=f"fan{k}")
        for k, (a, e, c) in enumerate(
            [(-1.0, (3, 2), 0.5), (-1.0 / 3.0, 2, 0.9), (1.0 / 3.0, (5, 2), 0.3), (1.0, 3, 0.7)]
        )
    ],
    label="fan4",
)
run_scenario(scenario_for_germ(fan, RunConfig()), RunConfig())
loaded["curves"] = scipy_modules()

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["analyze", "--builtin", "cusp"])
loaded["cli"] = scipy_modules()
loaded["cli_code"] = code

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["medial", "--builtin", "horn3d"])
loaded["medial"] = scipy_modules()
loaded["medial_code"] = code

for command in ("medial", "analyze"):
    with tempfile.TemporaryDirectory() as plots, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--builtin", "cusp", "--plot", plots])
        loaded[f"{command}_plot_svgs"] = sorted(p.name for p in pathlib.Path(plots).iterdir())
    loaded[f"{command}_plot"] = scipy_modules()
    loaded[f"{command}_plot_code"] = code

run_scenario(builtin("horn3d"))
loaded["horn3d"] = scipy_modules()
print(json.dumps(loaded))
"""


def _loaded() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_curve_germs_load_no_scipy():
    loaded = _loaded()
    assert loaded["import"] == []
    assert loaded["curves"] == []
    assert loaded["cli_code"] == 0
    assert loaded["cli"] == []
    assert loaded["medial_code"] == 0
    assert loaded["medial"] == []
    for command, svg in (("medial", "cusp_medial.svg"), ("analyze", "cusp.svg")):
        assert loaded[f"{command}_plot_code"] == 0
        assert loaded[f"{command}_plot_svgs"] == [svg]
        assert loaded[f"{command}_plot"] == []
    horn = loaded["horn3d"]
    assert "scipy.sparse" in horn
    assert not [m for m in horn if m.startswith(("scipy.optimize", "scipy.spatial"))]
