"""lnegerm benchmark: time to an LNE verdict, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plane_sweep --seed 0 --seconds 30 --trace 0

The package is imported from the checkout's ``src`` directory; nothing needs
building.  Each worker process gets BLAS/OpenMP threads pinned to 1.  Times
are in reference seconds (see speed.py).  The set-up time (untraced runs
only) is the median over SETUP_PROBES fresh worker processes plus the
measuring worker itself, each timed from its start until the package is
imported and the germs are built.  The last line of standard output is the
result JSON; the lines before it name every metric with its unit, the
cause of every failed or UNDECIDED germ, the sha256 of each germ's
canonical JSON, and the machine.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("plane_sweep", "arc_fan", "horn3d")
SETUP_PROBES = 2
#: a run must end within 180 s; leave the launcher room to report
WORKER_TIMEOUT_S = 170.0
PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ, **PINS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(root: Path, env: dict, args: list, timeout: float) -> tuple:
    """(set-up reference seconds, last-line JSON) of one worker process."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker exited with code {proc.returncode}: {' '.join(args)}\n{proc.stderr}"
        )
    out = json.loads(lines[-1])
    return (out["ready"] - start) * out["setup_scale"], out


def declared_metrics(root: Path, trace: int) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lnegerm" / "__init__.py").is_file():
        print(f"no lnegerm package under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    units = declared_metrics(root, args.trace)
    env = worker_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        setups = [
            run_worker(root, env, [*common, "--setup-only"], 60.0)[0]
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        setup, out = run_worker(
            root,
            env,
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline - time.monotonic(),
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    values = dict(out["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != set(units):
        print(
            f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
            file=sys.stderr,
        )
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    detail = {
        k: out[k]
        for k in ("machine", "pass_ref_seconds", "grade", "unknown_failures", "nondeterministic", "germs")
    }
    detail["setup_samples_s"] = setups
    print("detail " + json.dumps(detail, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(out['pass_ref_seconds'])}  germs analysed {out['attempted']}")
    for g in out["germs"]:
        kind = "timed" if g["timed"] else "graded"
        secs = " ".join(f"{t:.3f}" for t in g["seconds"])
        refs = " ".join(f"{t:.3f}" for t in g["ref_seconds"])
        print(f"  germ {g['name']:<22} {kind:<6} wall {secs} s  ref {refs} s  sha256 {g['sha256']}")
        for cause in g["failures"]:
            print(f"    FAILED [{', '.join(g['defects'])}] {cause}")
        for cause in g["undecided"]:
            print(f"    UNDECIDED [{', '.join(g['undecided_defects'])}] {cause}")
    for k, v in sorted(out["grade"].items()):
        print(f"  {k:<44} {v:.6g}")
    for k, m in metrics.items():
        print(f"  {k:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
