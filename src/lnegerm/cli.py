"""Command-line front end: analyze | scenarios | medial | link.

Configuration precedence is flags > config file (--config, JSON) >
defaults.  JSON output is canonical and byte-deterministic for a fixed
configuration and seed; CSV is a flat projection; SVG plots are 2D-only
and never affect exit codes.  Exit codes: 0 on completion, 2 when a
verdict stays UNDECIDED (or a scenario is INCONCLUSIVE), 1 on errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import MedialConfig, RunConfig
from .errors import InputError, LnegermError
from .germs import load_germ_file, sample_cloud
from .links import link_criterion_verdict
from .medial import extract_medial_axis_grid
from .report import (
    axis_csv,
    canonical_json,
    link_csv,
    pair_csv,
    scenario_table_csv,
    svg_overlay_2d,
)
from .scenarios import (
    BUILTIN_LABELS,
    builtin,
    medial_grid,
    run_all,
    run_scenario,
    scenario_for_germ,
)
from .tangency import Verdict

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON config file")
    common.add_argument("--t-min", type=float, default=None)
    common.add_argument("--t-max", type=float, default=None)
    common.add_argument("--levels", type=int, default=None)
    common.add_argument("--density", type=int, default=None)
    common.add_argument("--order-tol", type=float, default=None)
    common.add_argument("--grid-res", type=float, default=None)
    common.add_argument("--tau", type=float, default=None)
    common.add_argument("--theta-min", type=float, default=None)
    common.add_argument("--norm", choices=("euclid", "maxv"), default=None)
    common.add_argument("--weights", default=None, help="comma-separated positives")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--plot", metavar="DIR", default=None)
    common.add_argument("--seed", type=int, default=None)

    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=BUILTIN_LABELS)
    group.add_argument("--germ", metavar="FILE")

    parser = argparse.ArgumentParser(
        prog="lnegerm",
        description="LNE analysis of semialgebraic germs and their medial axes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "analyze",
        parents=[source, common],
        help="full report: tangency + medial + links",
    )
    sub.add_parser("scenarios", parents=[common], help="run the builtin registry")
    sub.add_parser("medial", parents=[source, common], help="medial axis export")
    sub.add_parser("link", parents=[source, common], help="link section report")
    return parser


_FLAG_FIELDS = {
    "t_min": "t_min",
    "t_max": "t_max",
    "levels": "levels",
    "density": "density",
    "order_tol": "order_tolerance",
    "norm": "norm_kind",
    "format": "output_format",
    "plot": "plot_dir",
    "seed": "seed",
}
_MEDIAL_FLAG_FIELDS = {"grid_res": "resolution", "tau": "tau", "theta_min": "theta_min"}


def config_from_args(args) -> RunConfig:
    values: dict = {}
    medial: dict = {}
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError("config file must hold a JSON object")
        medial = dict(data.pop("medial", {}) or {})
        values = data
    for flag, field in _FLAG_FIELDS.items():
        v = getattr(args, flag)
        if v is not None:
            values[field] = v
    for flag, field in _MEDIAL_FLAG_FIELDS.items():
        v = getattr(args, flag)
        if v is not None:
            medial[field] = v
    if args.weights is not None:
        try:
            values["weights"] = tuple(float(w) for w in args.weights.split(","))
        except ValueError as exc:
            raise InputError(f"malformed --weights: {exc}") from exc
    if "window" in medial and medial["window"] is not None:
        medial["window"] = tuple(tuple(ab) for ab in medial["window"])
    known = {f.name for f in dataclasses.fields(RunConfig)} - {"medial"}
    unknown = set(values) - known
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    known_m = {f.name for f in dataclasses.fields(MedialConfig)}
    unknown = set(medial) - known_m
    if unknown:
        raise InputError(f"unknown medial config keys: {sorted(unknown)}")
    return RunConfig(medial=MedialConfig(**medial), **values)


def _load_scenario(args, config: RunConfig):
    """Scenario for the requested source; ``medial_grid`` applies the
    configured medial window and resolution over the scenario's own."""
    if args.builtin:
        return builtin(args.builtin)
    return scenario_for_germ(load_germ_file(args.germ), config)


def _write_plot(directory: str, name: str, content: str) -> None:
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(content)


def _scenario_svg(result, config: RunConfig) -> str:
    germ = result.scenario.germ()
    cloud = sample_cloud(germ, config.t_max, config.density)
    coords = result.axis.coords()
    return svg_overlay_2d(
        cloud.points, coords if len(coords) else (), title=result.scenario.label
    )


def cmd_analyze(args) -> int:
    config = config_from_args(args)
    scn = _load_scenario(args, config)
    result = run_scenario(scn, config)
    report = result.to_dict()
    report["config"] = config.to_dict()
    if config.output_format == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(scenario_table_csv([result]))
        sys.stdout.write(pair_csv(result.set_reports + result.medial_reports))
    if config.plot_dir and scn.ambient_dim == 2:
        _write_plot(
            config.plot_dir, f"{scn.label}.svg", _scenario_svg(result, config)
        )
    verdicts = (result.set_verdict, result.medial_verdict, result.link.verdict)
    return EXIT_UNDECIDED if Verdict.UNDECIDED in verdicts else EXIT_OK


def cmd_scenarios(args) -> int:
    config = config_from_args(args)
    results = run_all(config)
    if config.output_format == "json":
        sys.stdout.write(canonical_json([r.to_dict() for r in results]))
    else:
        sys.stdout.write(scenario_table_csv(results))
    if config.plot_dir:
        for r in results:
            if r.scenario.ambient_dim == 2:
                _write_plot(
                    config.plot_dir,
                    f"{r.scenario.label}.svg",
                    _scenario_svg(r, config),
                )
    if any(r.status == "FAIL" for r in results):
        return EXIT_ERROR
    if any(r.status == "INCONCLUSIVE" for r in results):
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_medial(args) -> int:
    config = config_from_args(args)
    scn = _load_scenario(args, config)
    germ = scn.germ()
    if germ.ambient_dim not in (2, 3):
        raise InputError("medial extraction supports ambient dimension 2 or 3")
    if config.plot_dir and germ.ambient_dim == 3:
        raise InputError("SVG plots are 2D-only; drop --plot for 3D germs")
    window, resolution = medial_grid(scn, config.medial)
    axis = extract_medial_axis_grid(
        germ,
        window,
        resolution,
        tau=config.medial.tau,
        theta_min=config.medial.theta_min,
    )
    if config.output_format == "csv":
        sys.stdout.write(axis_csv(axis))
    else:
        rows = []
        for p, cluster in axis.points:
            rows.append(
                {
                    "point": [float(v) for v in p],
                    "distance": cluster.distance,
                    "cluster_count": cluster.cluster_count,
                    "max_pair_angle": cluster.max_pair_angle,
                }
            )
        sys.stdout.write(
            canonical_json(
                {
                    "label": germ.label,
                    "resolution": axis.resolution,
                    "points": rows,
                    "config": config.to_dict(),
                }
            )
        )
    if config.plot_dir:
        cloud = sample_cloud(germ, config.t_max, config.density)
        coords = axis.coords()
        _write_plot(
            config.plot_dir,
            f"{germ.label}_medial.svg",
            svg_overlay_2d(
                cloud.points, coords if len(coords) else (), title=germ.label
            ),
        )
    return EXIT_OK


def cmd_link(args) -> int:
    config = config_from_args(args)
    scn = _load_scenario(args, config)
    germ = scn.germ()
    norm = config.norm(germ.ambient_dim)
    result = link_criterion_verdict(
        germ, config.scales(), density=config.density, norm=norm
    )
    if config.output_format == "csv":
        sys.stdout.write(link_csv(result.report))
    else:
        report = result.to_dict()
        report["label"] = germ.label
        report["config"] = config.to_dict()
        sys.stdout.write(canonical_json(report))
    return EXIT_UNDECIDED if result.verdict is Verdict.UNDECIDED else EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "scenarios": cmd_scenarios,
    "medial": cmd_medial,
    "link": cmd_link,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except LnegermError as exc:
        print(f"lnegerm: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"lnegerm: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
