"""Benchmark worker: analyses one workload's germs and prints raw figures.

Started by ``run.py`` with the thread pins in its environment and ``src``
on its path.  Load is a closed loop with one client: this one process and
thread analyse the germs one after another.  Times are wall seconds and,
for the metrics, reference seconds from the speed probe (``speed.py``).
The last line of standard output is one JSON object.

  --setup-only   import the package, build the germs, report the time
  --trace 0      whole passes over the germs while they fit in --seconds
  --trace 1      one untraced pass, then one pass under the span tracer
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe

THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def run_pass(workload: str, seed: int, probe: SpeedProbe) -> list:
    """Analyse every germ of the workload once; one record per germ.

    The timed region is what ``lnegerm analyze`` does for a germ: the
    analysis and its canonical JSON.  Hashing and grading are not timed.
    Each germ gets its wall seconds and its reference seconds.
    """
    from lnegerm.report import canonical_json
    from lnegerm.scenarios import run_scenario
    from workloads import build_cases, defect_of, grade, raised_cause

    records = []
    gc.collect()
    for case in build_cases(workload, seed):
        t0 = time.perf_counter()
        try:
            result = run_scenario(case.scenario, case.config)
            text = canonical_json(result.to_dict())
        except Exception as exc:  # a germ that raises is a failure, not a crash
            t1 = time.perf_counter()
            rec = {
                "digest": None,
                "bytes": 0,
                "failures": [raised_cause(exc)],
                "undecided": [],
                "order_errors": [],
                "c_max": None,
                "continuation_failed": 0,
            }
        else:
            t1 = time.perf_counter()
            g = grade(case, result)
            data = text.encode()
            rec = {
                "digest": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
                "failures": g.failures,
                "undecided": g.undecided,
                "order_errors": g.order_errors,
                "c_max": g.c_max,
                "continuation_failed": g.continuation_failed,
            }
            del result
        rec.update(
            name=case.name,
            timed=case.timed,
            start=t0,
            end=t1,
            seconds=t1 - t0,
            ref_seconds=probe.ref_seconds(t0, t1),
        )
        rec["defects"] = sorted({defect_of(c) for c in rec["failures"]})
        rec["undecided_defects"] = sorted({defect_of(c) for c in rec["undecided"]})
        records.append(rec)
    return records


def grade_summary(records: list) -> dict:
    n = len(records)
    errors = [e for r in records for e in r["order_errors"]]
    return {
        "grade.failed_frac": sum(1 for r in records if r["failures"]) / n,
        "grade.undecided_frac": sum(1 for r in records if r["undecided"]) / n,
        "grade.order_err_max": max(errors, default=0.0),
    }


def layer_metrics(tr, records: list, scale: float, wall_traced: float, wall_untraced: float) -> dict:
    """Per-layer figures of the traced pass; span seconds are turned into
    reference seconds with the pass's speed ``scale``."""
    spans, counts = tr.spans, tr.counts

    def calls(name):
        return spans[name][0]

    def total(name):
        return spans[name][1] * scale

    def self_s(name):
        return spans[name][2] * scale

    stage = "scenarios.stage."
    out = {f"{stage}{s}_s": total(stage + s) for s in (
        "link_criterion", "set_pairs", "medial_grid", "branch_tracking", "medial_pairs"
    )}
    for name in (
        "germs.symbolic_separation_order",
        "germs.sample_cloud",
        "metrics.build_graph",
        "metrics.inner_distance",
        "links.link_section",
        "medial.FootFinder.init",
        "medial.FootFinder.feet",
        "medial.FootFinder.polish",
        "medial.refine_equidistant",
        "surfaces.HornPiece.project",
        "surfaces.WallPiece.project",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in (
        "series.invert_norm_series",
        "tangency.outer_tangency_order",
        "tangency.inner_tangency_order",
        "medial.SampledCurve.point_at_radius",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = total(name)
    out["tangency.pair_verdict.calls"] = calls("tangency.pair_verdict")
    for name in (
        "germs.sample_cloud.points",
        "metrics.build_graph.edges",
        "medial.FootFinder.init.cloud_points",
        "medial.grid.nodes",
        "medial.grid.refine_attempts",
        "medial.grid.accepted",
    ):
        out[name] = counts[name]
    out["medial.golden_min.calls"] = counts["medial.golden_min"]
    out["surfaces.golden_min.calls"] = counts["surfaces.golden_min"]
    attempts = counts["medial.grid.refine_attempts"]
    out["medial.grid.accept_ratio"] = counts["medial.grid.accepted"] / attempts if attempts else 0.0
    refines = calls("medial.refine_equidistant")
    out["medial.continuation.refine_calls"] = refines - attempts
    out["medial.refine_equidistant.none_frac"] = (
        counts["medial.refine_equidistant.none"] / refines if refines else 0.0
    )
    out["medial.continuation_failed"] = sum(r["continuation_failed"] for r in records)
    out["links.c_max"] = max((r["c_max"] for r in records if r["c_max"] is not None), default=0.0)
    out["report.canonical_json.bytes"] = sum(r["bytes"] for r in records)
    out.update(grade_summary(records))
    out["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
    return out


def _wall(records: list) -> float:
    """Time to verdict, in reference seconds, of the germs the end-to-end
    timings cover."""
    return sum(r["ref_seconds"] for r in records if r["timed"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    started = time.perf_counter()
    probe = SpeedProbe()
    try:
        return measure(args, probe, started)
    finally:
        probe.stop()


def measure(args, probe: SpeedProbe, started: float) -> int:
    import lnegerm
    from workloads import build_cases

    src = Path.cwd().resolve() / "src"
    if not Path(lnegerm.__file__).resolve().is_relative_to(src):
        print(f"lnegerm imported from {lnegerm.__file__}, not {src}", file=sys.stderr)
        return 2
    build_cases(args.workload, args.seed)
    ready = time.monotonic()
    setup_scale = probe.scale(started, time.perf_counter())
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0
    probe.add_tree_kernel()

    passes = []
    if args.trace:
        import tracer

        passes.append(run_pass(args.workload, args.seed, probe))
        tr = tracer.Tracer()
        tracer.install(tr)
        try:
            passes.append(run_pass(args.workload, args.seed, probe))
        finally:
            tr.restore()
        traced = passes[1]
        scale = probe.scale(traced[0]["start"], traced[-1]["end"])
        metrics = layer_metrics(tr, traced, scale, _wall(traced), _wall(passes[0]))
    else:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(args.workload, args.seed, probe))
            # start another whole pass only if it should end within --seconds
            pass_s = sum(r["seconds"] for r in passes[-1])
            if time.perf_counter() - start + pass_s > args.seconds:
                break
        metrics = {
            "wall_s": statistics.median(_wall(p) for p in passes),
            "analyze_s_p50": statistics.median(
                r["ref_seconds"] for p in passes for r in p if r["timed"]
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    records = [r for p in passes for r in p]
    digests = {}
    causes = {}
    nondeterministic = set()
    for r in records:
        if digests.setdefault(r["name"], r["digest"]) != r["digest"]:
            nondeterministic.add(r["name"])
        if causes.setdefault(r["name"], r["failures"]) != r["failures"]:
            nondeterministic.add(r["name"])
    unknown = sorted({r["name"] for r in records if "unknown" in r["defects"]})
    germs = [
        {
            "name": r["name"],
            "timed": r["timed"],
            "seconds": [q["seconds"] for p in passes for q in p if q["name"] == r["name"]],
            "ref_seconds": [
                q["ref_seconds"] for p in passes for q in p if q["name"] == r["name"]
            ],
            "sha256": r["digest"],
            "failures": r["failures"],
            "defects": r["defects"],
            "undecided": r["undecided"],
            "undecided_defects": r["undecided_defects"],
        }
        for r in passes[0]
    ]
    print(
        json.dumps(
            {
                "ready": ready,
                "setup_scale": setup_scale,
                "correct": not unknown and not nondeterministic,
                # each germ counts once, however many passes fit in the
                # run, so the counts depend on the seed alone
                "attempted": len(passes[0]),
                "failed": sum(1 for r in passes[0] if r["failures"]),
                "unknown_failures": unknown,
                "nondeterministic": sorted(nondeterministic),
                "pass_ref_seconds": [_wall(p) for p in passes],
                "grade": grade_summary(records),
                "germs": germs,
                "machine": machine_info(args.seed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
