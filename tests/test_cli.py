"""CLI contract: flags, exit codes, formats, determinism."""

import json
import math

import pytest

from lnegerm import BUILTIN_LABELS, RunConfig, builtin, germset_to_json
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

    @pytest.mark.parametrize(
        "flags",
        [
            ("--order-tol", "nan"),
            ("--t-max", "inf"),
            ("--norm", "maxv", "--weights", "nan,1"),
        ],
        ids=["order_tol_nan", "t_max_inf", "weights_nan"],
    )
    def test_non_finite_flag_is_an_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "analyze", "--builtin", "abs_graph", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("lnegerm: error:") and "finite" in err

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--builtin", "cusp", "--norm", "maxv", "--weights", "1,2,3"),
            ("link", "--builtin", "horn3d", "--norm", "maxv", "--weights", "1,2"),
        ],
        ids=["analyze_2d", "link_3d"],
    )
    def test_weights_of_the_wrong_length(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("lnegerm: error: max-norm weights:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("link", "--builtin", "horn3d", "--weights", "40,1,20"),
            ("analyze", "--builtin", "cusp", "--norm", "euclid", "--weights", "1,2"),
        ],
        ids=["link_default_norm", "analyze_euclid"],
    )
    def test_weights_need_the_max_norm(self, capsys, argv):
        # no other norm reads them, so a report must not echo them as applied
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("lnegerm: error: weights")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--builtin", "cusp", "--bogus"),
            ("medial", "--builtin", "cusp", "--grid-res", "0.01"),
            ("medial", "--builtin", "cusp", "--tau", "0.001"),
            ("analyze",),
        ],
    )
    def test_usage_error_is_an_error(self, capsys, argv):
        # exit code 2 means UNDECIDED, never a usage error
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage: lnegerm" in err

    def test_help(self, capsys):
        code, out, _ = run_cli(capsys, "medial", "--help")
        assert code == 0
        assert out.startswith("usage: lnegerm medial")


class TestMedial:
    def test_csv_header_2d(self, capsys):
        code, out, _ = run_cli(
            capsys, "medial", "--builtin", "abs_graph", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,distance,cluster_count,max_pair_angle"
        # one anchor of the one bisector per scale
        assert len(lines) == 1 + len(RunConfig().scales())

    @pytest.mark.parametrize("label", BUILTIN_LABELS)
    def test_rows_are_the_analysed_anchors(self, capsys, all_results, label):
        code, out, _ = run_cli(capsys, "medial", "--builtin", label)
        assert code == 0
        report = json.loads(out)
        axis = all_results[label].axis
        assert report["resolution"] == axis.resolution
        assert report["points"] == [
            {
                "point": [float(v) for v in p],
                "distance": cluster.distance,
                "cluster_count": cluster.cluster_count,
                "max_pair_angle": cluster.max_pair_angle,
            }
            for p, cluster in axis.points
        ]
        assert len(report["points"]) >= len(RunConfig().scales())

    def test_asymmetric_3d_germ_is_an_error(self, capsys, tmp_path):
        # (t, t^2, 0) and (t, 0, t^2): no bisector path, and no grid either
        germ = {
            "label": "twisted",
            "ambient_dim": 3,
            "branches": [
                {
                    "label": label,
                    "t_max": 1.0,
                    "terms": [
                        {"exp": [1, 1], "coeff": [1.0, 0.0, 0.0]},
                        {"exp": [2, 1], "coeff": coeff},
                    ],
                }
                for label, coeff in (("a", [0.0, 1.0, 0.0]), ("b", [0.0, 0.0, 1.0]))
            ],
            "surfaces": [],
        }
        path = tmp_path / "twisted.json"
        path.write_text(json.dumps(germ))
        code, out, err = run_cli(capsys, "medial", "--germ", str(path))
        assert code == 1
        assert out == ""
        assert "not symmetric under z -> -z" in err

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

    def test_builtin_takes_ladder_flags(self, capsys):
        # cusp has one medial branch: one row per level of 2^-4..2^-8
        code, out, _ = run_cli(
            capsys, "medial", "--builtin", "cusp", "--t-min", "0.00390625",
            "--levels", "5", "--format", "csv",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [math.hypot(float(x), float(y)) for x, y, *_ in rows] == pytest.approx(
            [2.0**-k for k in range(4, 9)], rel=1e-12
        )

    def test_builtin_takes_config_file_ladder(self, capsys, tmp_path):
        # a config file's ladder is the flags' ladder
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_min": 0.00390625, "levels": 5}))
        argv = ("medial", "--builtin", "cusp", "--format", "csv")
        code, from_file, _ = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0
        assert len(from_file.splitlines()) == 1 + 5
        _, from_flags, _ = run_cli(capsys, *argv, "--t-min", "0.00390625", "--levels", "5")
        assert from_file == from_flags

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

    @pytest.mark.parametrize(
        "medial",
        [{"window": [[-0.1, 0.1], [0.0, 0.2]]}, {"resolution": 0.0049}, {"tau": 0.001}],
        ids=["window", "resolution", "tau"],
    )
    def test_grid_keys_rejected(self, capsys, tmp_path, medial):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"medial": medial}))
        code, out, err = run_cli(
            capsys, "medial", "--builtin", "abs_graph", "--config", str(cfg)
        )
        assert code == 1
        assert out == ""
        assert f"unknown medial config keys: {sorted(medial)}" in err

    def test_theta_min_from_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"medial": {"theta_min": 0.3}}))
        code, out, _ = run_cli(
            capsys, "medial", "--builtin", "abs_graph", "--config", str(cfg)
        )
        assert code == 0
        assert json.loads(out)["config"]["medial"] == {"theta_min": 0.3}

    @pytest.mark.parametrize("label", BUILTIN_LABELS)
    @pytest.mark.parametrize("command", ["analyze", "medial", "link"])
    def test_echoed_config_reads_back(self, capsys, tmp_path, command, label):
        # the config a run echoes, passed alone through --config, is the run
        weights = "2,1,3" if label == "horn3d" else "2,1"
        flags = (
            "--levels", "6", "--density", "24", "--order-tol", "0.15", "--theta-min", "0.25",
            "--norm", "maxv", "--weights", weights, "--seed", "5",
        )
        first = run_cli(capsys, command, "--builtin", label, *flags)
        assert first[0] != 1, first[2]
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(json.loads(first[1])["config"]))
        assert run_cli(capsys, command, "--builtin", label, "--config", str(cfg)) == first

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        code, _, err = run_cli(
            capsys, "link", "--builtin", "cusp", "--config", str(cfg)
        )
        assert code == 1
        assert "nope" in err


def _germ_file_case(mutate, label="abs_graph"):
    data = germset_to_json(builtin(label).germ())
    mutate(data)
    return "germ", data


_MALFORMED = {
    "config_medial_number": ("config", {"medial": 5}),
    "config_medial_list": ("config", {"medial": [1]}),
    "config_levels_string": ("config", {"levels": "7"}),
    "config_t_min_string": ("config", {"t_min": "x"}),
    "config_weights_number": ("config", {"weights": 3}),
    "config_theta_min_string": ("config", {"medial": {"theta_min": "a"}}),
    "branch_t_max_string": _germ_file_case(lambda d: d["branches"][0].update(t_max="x")),
    "branch_coeff_string": _germ_file_case(
        lambda d: d["branches"][0]["terms"][0].update(coeff=["a", 0])
    ),
    "branch_exp_zero_den": _germ_file_case(
        lambda d: d["branches"][0]["terms"][0].update(exp=[1, 0])
    ),
    "horn_unknown_param": _germ_file_case(
        lambda d: d["surfaces"][0]["params"].update(bogus=1), label="horn3d"
    ),
    "branches_number": _germ_file_case(lambda d: d.update(branches=5)),
    "ambient_dim_float": _germ_file_case(lambda d: d.update(ambient_dim=2.5)),
    "ambient_dim_bool": _germ_file_case(lambda d: d.update(ambient_dim=True)),
    "label_list": _germ_file_case(lambda d: d.update(label=[1])),
    "branch_label_list": _germ_file_case(lambda d: d["branches"][0].update(label=[1])),
    "branch_label_number": _germ_file_case(lambda d: d["branches"][0].update(label=7)),
    "surface_label_list": _germ_file_case(
        lambda d: d["surfaces"][0].update(label=[1]), label="horn3d"
    ),
    "surface_kind_list": _germ_file_case(
        lambda d: d["surfaces"][0].update(kind=["horn"]), label="horn3d"
    ),
    "horn_a_outer_zero": _germ_file_case(
        lambda d: d["surfaces"][0]["params"].update(a_outer=0.0), label="horn3d"
    ),
    "horn_sign_two": _germ_file_case(
        lambda d: d["surfaces"][0]["params"].update(sign=2.0), label="horn3d"
    ),
    "horn_sign_zero": _germ_file_case(
        lambda d: d["surfaces"][0]["params"].update(sign=0.0), label="horn3d"
    ),
    "horn_sign_true": _germ_file_case(
        lambda d: d["surfaces"][0]["params"].update(sign=True), label="horn3d"
    ),
    "wall_y_max_zero": _germ_file_case(
        lambda d: d["surfaces"][2]["params"].update(y_max=0.0), label="horn3d"
    ),
    "horn_y_max_negative": _germ_file_case(
        lambda d: d["surfaces"][0]["params"].update(y_max=-1.0), label="horn3d"
    ),
}

#: the parameter each of these errors names: unchecked, a sign off ±1 (or the
#: bool True, which equals 1) analyses to a verdict, and a height y_max <= 0
#: fails later, in an unrelated check
_NAMES_PARAMETER = {
    "horn_sign_two": "sign",
    "horn_sign_zero": "sign",
    "horn_sign_true": "sign",
    "wall_y_max_zero": "y_max",
    "horn_y_max_negative": "y_max",
}


#: non-finite numbers pass every <= check, so each is checked where it enters;
#: without that check these end in an unrelated error, or in none
_NON_FINITE = {
    "config_order_tolerance_nan": ("config", {"order_tolerance": math.nan}),
    "config_t_max_inf": ("config", {"t_max": math.inf}),
    "config_weights_nan": ("config", {"norm": "maxv", "weights": [math.nan, 1.0]}),
    "branch_coeff_nan": _germ_file_case(
        lambda d: d["branches"][0]["terms"][0].update(coeff=[math.nan, 1.0])
    ),
    "branch_t_max_inf": _germ_file_case(lambda d: d["branches"][0].update(t_max=math.inf)),
    "horn_a_outer_nan": _germ_file_case(
        lambda d: d["surfaces"][0]["params"].update(a_outer=math.nan), label="horn3d"
    ),
    "horn_y_max_inf": _germ_file_case(
        lambda d: d["surfaces"][0]["params"].update(y_max=math.inf), label="horn3d"
    ),
    "wall_half_width_inf": _germ_file_case(
        lambda d: d["surfaces"][2]["params"].update(half_width_coef=math.inf),
        label="horn3d",
    ),
}


@pytest.mark.parametrize("name", [*_MALFORMED, *_NON_FINITE])
def test_malformed_input_file_is_an_error(capsys, tmp_path, name):
    kind, data = {**_MALFORMED, **_NON_FINITE}[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    source = ("--builtin", "cusp", "--config") if kind == "config" else ("--germ",)
    code, out, err = run_cli(capsys, "analyze", *source, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("lnegerm: error:")
    if name in _NON_FINITE:
        assert "finite" in err
    if name in _NAMES_PARAMETER:
        assert f"{_NAMES_PARAMETER[name]} must be" in err
