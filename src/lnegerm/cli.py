"""Command-line front end: analyze | scenarios | medial | link.

Configuration precedence is flags > config file (--config, JSON) >
defaults.  A config file takes the keys of the ``config`` object a run
echoes (``RunConfig.to_dict``, plus ``plot_dir``), and each flag's dest is
its key, so an echoed config read back repeats the run.  JSON output is
canonical and byte-deterministic for a fixed configuration and seed; CSV
is a flat projection.  SVG plots draw a plane germ's branch samples and
its medial points: ``analyze`` and ``scenarios`` plot their plane germs and
skip the others without affecting the exit code, while ``medial --plot``
on a 3D germ is an error.  Exit codes: 0 on completion, 2 when a verdict
stays UNDECIDED (or a scenario is INCONCLUSIVE), 1 on errors, usage errors
included.

``medial`` exports the anchors of the exact medial branches that
``analyze`` grades: ``medial_branch_germs`` on the configured scale ladder,
the one ladder of every command.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import MedialConfig, RunConfig
from .errors import InputError, LnegermError, TraceError
from .germs import _sample_curve_piece, load_germ_file
from .links import link_criterion_verdict
from .medial import medial_branch_germs
from .report import (
    axis_csv,
    axis_rows,
    canonical_json,
    link_csv,
    pair_csv,
    scenario_table_csv,
    svg_overlay_2d,
)
from .scenarios import (
    BUILTIN_LABELS,
    builtin,
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
    common.add_argument("--order-tol", dest="order_tolerance", type=float, default=None)
    common.add_argument("--theta-min", type=float, default=None)
    common.add_argument("--norm", choices=("euclid", "maxv"), default=None)
    common.add_argument("--weights", default=None, help="comma-separated positives")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--plot", dest="plot_dir", metavar="DIR", default=None)
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


#: config keys that differ from their ``RunConfig`` field; every other key
#: is its field's name.  Each flag's dest is its key.
_FIELD_OF = {"norm": "norm_kind", "format": "output_format"}
_KEY_OF = {field: key for key, field in _FIELD_OF.items()}


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
            raise InputError(f"config file {args.config} must hold a JSON object")
        medial = data.pop("medial", None) or {}
        if not isinstance(medial, dict):
            raise InputError(f"config file {args.config}: field 'medial' must be a JSON object")
        values = data
    keys = {_KEY_OF.get(f.name, f.name) for f in dataclasses.fields(RunConfig)} - {"medial"}
    for key in keys - {"weights"}:
        v = getattr(args, key)
        if v is not None:
            values[key] = v
    if args.theta_min is not None:
        medial["theta_min"] = args.theta_min
    if args.weights is not None:
        try:
            values["weights"] = tuple(float(w) for w in args.weights.split(","))
        except ValueError as exc:
            raise InputError(f"malformed --weights: {exc}") from exc
    unknown = set(values) - keys
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    unknown = set(medial) - {"theta_min"}
    if unknown:
        raise InputError(f"unknown medial config keys: {sorted(unknown)}")
    fields = {_FIELD_OF.get(key, key): v for key, v in values.items()}
    return RunConfig(medial=MedialConfig(**medial), **fields)


def _load_scenario(args, config: RunConfig):
    """Scenario for the requested source: the builtin, or an ad-hoc
    scenario wrapping the germ file."""
    if args.builtin:
        return builtin(args.builtin)
    return scenario_for_germ(load_germ_file(args.germ), config)


def _write_plot(directory: str, name: str, content: str) -> None:
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(content)


def _medial_svg(germ, axis, config: RunConfig) -> str:
    """A plane germ's branch samples with its medial points, titled by label."""
    samples = [
        p for b in germ.branches for p in _sample_curve_piece(b, config.t_max, config.density)[1]
    ]
    return svg_overlay_2d(samples, axis.coords(), title=germ.label)


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
            config.plot_dir, f"{scn.label}.svg", _medial_svg(scn.germ(), result.axis, config)
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
                    _medial_svg(r.scenario.germ(), r.axis, config),
                )
    if any(r.status == "FAIL" for r in results):
        return EXIT_ERROR
    if any(r.status == "INCONCLUSIVE" for r in results):
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_medial(args) -> int:
    """Write the anchors of the germ's medial branches on ``config.scales()``,
    the ladder ``analyze`` solves them on."""
    config = config_from_args(args)
    germ = _load_scenario(args, config).germ()
    if config.plot_dir and germ.ambient_dim == 3:
        raise InputError("SVG plots are 2D-only; drop --plot for 3D germs")
    axis, _ = medial_branch_germs(germ, config.scales(), config.medial.theta_min)
    if not axis.points and axis.failures:
        raise TraceError(f"{germ.label}: no medial point: {axis.failures[0][1]}")
    if config.output_format == "csv":
        sys.stdout.write(axis_csv(axis))
    else:
        sys.stdout.write(
            canonical_json(
                {
                    "label": germ.label,
                    "resolution": axis.resolution,
                    "points": axis_rows(axis),
                    "config": config.to_dict(),
                }
            )
        )
    if config.plot_dir:
        _write_plot(config.plot_dir, f"{germ.label}_medial.svg", _medial_svg(germ, axis, config))
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on misuse
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
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
