"""CLI contract: flags, exit codes, formats, determinism."""

import json

import pytest

from lnegerm import builtin, germset_to_json
from lnegerm.cli import main
from lnegerm.report import canonical_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def abs_germ_file(tmp_path):
    path = tmp_path / "abs.json"
    path.write_text(canonical_json(germset_to_json(builtin("abs_graph").germ())))
    return str(path)


class TestAnalyze:
    def test_builtin_cusp_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--builtin", "cusp")
        assert code == 0
        report = json.loads(out)
        assert report["set_verdict"] == "NOT_LNE"
        assert report["medial_verdict"] == "LNE"
        assert report["pass"] is True

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "analyze", "--builtin", "abs_graph", "--seed", "5")
        _, out2, _ = run_cli(capsys, "analyze", "--builtin", "abs_graph", "--seed", "5")
        assert out1 == out2

    def test_levels_below_minimum(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--builtin", "cusp", "--levels", "4"
        )
        assert code == 1
        assert "5" in err

    def test_germ_file(self, capsys, abs_germ_file):
        code, out, _ = run_cli(capsys, "analyze", "--germ", abs_germ_file)
        assert code == 0
        assert json.loads(out)["set_verdict"] == "LNE"

    def test_malformed_germ_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli(capsys, "analyze", "--germ", str(bad))
        assert code == 1
        assert "error" in err

    def test_max_norm_matches_euclid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "--builtin",
            "abs_graph",
            "--norm",
            "maxv",
            "--weights",
            "1,1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["set_verdict"] == "LNE"
        assert report["link_report"]["verdict"] == "LNE"


class TestMedial:
    def test_csv_header_2d(self, capsys):
        code, out, _ = run_cli(
            capsys, "medial", "--builtin", "abs_graph", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,distance,cluster_count,max_pair_angle"
        assert len(lines) > 10

    def test_empty_axis_single_line_germ(self, capsys, tmp_path):
        germ = {
            "label": "single_line",
            "ambient_dim": 2,
            "branches": [
                {
                    "label": "l",
                    "t_max": 1.0,
                    "terms": [{"exp": [1, 1], "coeff": [1.0, 0.0]}],
                }
            ],
            "surfaces": [],
        }
        path = tmp_path / "line.json"
        path.write_text(json.dumps(germ))
        code, out, _ = run_cli(
            capsys, "medial", "--germ", str(path), "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["x,y,distance,cluster_count,max_pair_angle"]

    def test_3d_plot_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "medial", "--builtin", "horn3d", "--plot", str(tmp_path / "o")
        )
        assert code == 1
        assert "2D" in err

    def test_svg_written(self, capsys, tmp_path):
        out_dir = tmp_path / "plots"
        code, _, _ = run_cli(
            capsys,
            "medial",
            "--builtin",
            "abs_graph",
            "--format",
            "csv",
            "--plot",
            str(out_dir),
        )
        assert code == 0
        svg = out_dir / "abs_graph_medial.svg"
        assert svg.exists()
        assert svg.read_text().startswith("<svg")


class TestLink:
    def test_csv_per_scale(self, capsys):
        code, out, _ = run_cli(
            capsys, "link", "--builtin", "cusp", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "norm,t,component_count,C_t,min_separation"
        assert len(lines) == 8  # default 7 levels

    def test_json_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "link", "--builtin", "three_tangent")
        assert code == 0
        assert json.loads(out)["verdict"] == "NOT_LNE"


class TestConfigPrecedence:
    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": 7, "density": 16}))
        code, out, _ = run_cli(
            capsys,
            "link",
            "--builtin",
            "cusp",
            "--config",
            str(cfg),
            "--levels",
            "6",
            "--format",
            "csv",
        )
        assert code == 0
        assert len(out.splitlines()) == 7  # header + 6 levels from the flag

    def test_config_resolution_applies_to_builtin(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"medial": {"resolution": 0.0049}}))
        code, out, _ = run_cli(
            capsys, "medial", "--builtin", "abs_graph", "--config", str(cfg)
        )
        assert code == 0
        report = json.loads(out)
        assert report["resolution"] == 0.0049
        assert report["config"]["medial"]["resolution"] == 0.0049

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        code, _, err = run_cli(
            capsys, "link", "--builtin", "cusp", "--config", str(cfg)
        )
        assert code == 1
        assert "nope" in err
