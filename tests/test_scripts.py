"""Smoke runs of the experiment scripts under scripts/."""

import re
import sys

from conftest import load_module


def test_plane_family(monkeypatch, capsys):
    script = load_module("scripts/plane_family.py")
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


def test_kernels(capsys):
    script = load_module("scripts/kernels.py")
    before = {name: getattr(owner, attr) for name, (owner, attr) in script.KERNELS.items()}
    assert script.main(["--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "kernels of one arc_fan and plane_sweep seed-0 analysis, "
        "link_section also of one horn3d, best of 1"
    )
    # one line per kernel, each called and timed in the analysis, then the
    # writer on the analysis's results
    rows = [re.fullmatch(r"(\S+) +(\d+) calls +(\S+) us/call", line) for line in lines[1:]]
    assert all(rows) and [m[1] for m in rows] == [*script.KERNELS, "canonical_json"]
    for m in rows:
        assert int(m[2]) > 0 and float(m[3]) > 0.0
    # the recording wrappers are gone again
    for name, (owner, attr) in script.KERNELS.items():
        assert getattr(owner, attr) is before[name]


def test_digests_repeat(capsys):
    script = load_module("scripts/digests.py")
    outs = {}
    one_germ = ["--workloads", "arc_fan", "--seeds", "3"]
    runs = (one_germ, ["--pairs", *one_germ], ["--cli"], ["--links"], ["--orders"])
    for argv in runs * 2:
        assert script.main(argv) == 0
        outs.setdefault(argv[0], []).append(capsys.readouterr().out)
    # a second run of the same germs and command lines gives the same bytes
    for first, second in outs.values():
        assert second == first
    # one line per germ, of its JSON and of its pair reports
    assert re.fullmatch(r"arc_fan 3 arc_fan [0-9a-f]{64}\n", outs["--workloads"][0])
    assert re.fullmatch(r"pairs arc_fan 3 arc_fan [0-9a-f]{64}\n", outs["--pairs"][0])
    assert outs["--pairs"][0].split()[-1] != outs["--workloads"][0].split()[-1]
    # one line per command line: 4 builtins x (analyze json/csv, medial
    # json/csv, link csv), then the builtin table, the flag-set ladder and
    # horn3d's link and analysis under maxv
    lines = outs["--cli"][0].splitlines()
    assert len(lines) == 24
    # every run exits 0 but horn3d's link under maxv(40, 1, 20), whose
    # verdict is undecided (exit 2)
    undecided = ("link", "--builtin", "horn3d", "--norm", "maxv", "--weights", "40,1,20")
    for run, line in zip(script.CLI_RUNS, lines):
        code = 2 if run[:-2] == undecided else 0
        assert re.fullmatch(rf"cli {' '.join(run)} exit {code} [0-9a-f]{{64}}", line), line
    # one line per germ, norm and density: horn3d, 7 horn-plus-wall germs
    # and 3 wall-line germs x 3 norms x 3 densities, none raising
    lines = outs["--links"][0].splitlines()
    assert len(lines) == 99
    for line in lines:
        pattern = (
            r"links (horn3d|horn_wall_\S+|wall_lines_\S+) (euclid|maxv\S*) (8|32|64) [0-9a-f]{64}"
        )
        assert re.fullmatch(pattern, line), line
    # one line per Puiseux pair: 128 of the default germs (none of horn3d)
    # and one per germ of the 210-germ plane family, each with its exact
    # order, none INFINITE
    lines = outs["--orders"][0].splitlines()
    assert len(lines) == 128 + 210
    for line in lines:
        pattern = r"orders (\w+:\d:)?[\w-]+ \w+\|\w+ \d+(/\d+)?"
        assert re.fullmatch(pattern, line), line
