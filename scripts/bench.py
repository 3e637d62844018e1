#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

Each run is one ``perfbench/run.py --workload W --seed S --seconds N
--trace T`` subprocess, started from the root of the checkout it measures;
``perfbench/`` is used as it is.  A run's result is its last line of
standard output, and its germs, grade and machine come from its ``detail
{...}`` line.

With ``--parent REV`` the committed files of REV are exported (``git
archive``) into a temporary directory, which is removed afterwards, and
``--pairs`` pairs are run per workload and seed, the parent first in even
pairs and the change first in odd ones.  Each metric is reported per side
as its median and quartiles over the runs, with the relative change of the
medians, the pairs the change wins, loses and ties (the direction is the
metric's ``better`` in ``BENCHMARK.json``), and whether a gain may be
claimed: at least ten pairs, nine tenths of them won, and the medians
further apart than the parent's quartile spread.  A metric that reads 0
in every change run but not in every parent run is reported as not
measured and never claimed: the change no longer reaches the layer it
traces.  Without ``--parent`` one side is measured ``--pairs`` times and
its medians are compared with the newest ``BENCH_*.json`` of the
checkout whose machine block matches, if any.

``--out FILE`` writes all of it as JSON, with every run's ``correct``,
``failed`` and metric values and the machine block (the ``detail`` line's
``machine`` without its seed).  When a run fails (a nonzero exit, a
timeout or an unreadable result) no further run starts: the file keeps the
``workload:seed`` entries already finished and a ``failed_run`` record of
the failed one (side, workload, seed, pair index, exit code and the last
lines of its standard error), and the script exits 1.

Run from the root of a checkout, for example::

    python3 scripts/bench.py --workloads arc_fan --seeds 0 7 --seconds 30 \\
        --pairs 10 --parent HEAD --out BENCH_26.json
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("plane_sweep", "arc_fan", "horn3d")
#: a run.py run ends within 180 s on its own (its worker timeout)
RUN_TIMEOUT_S = 240.0
#: share of the pairs a change must win before a gain is claimed
WIN_SHARE = 0.9
#: fewest pairs a gain is claimed on
MIN_PAIRS = 10
#: lines of a failed run's standard error kept in its record
STDERR_LINES = 20


class BenchError(Exception):
    """A run or export that failed: ``code`` is its exit code (None when it
    has none, as after a timeout) and ``stderr`` its standard error."""

    def __init__(self, message: str, code: int | None = None, stderr: str = ""):
        super().__init__(message)
        self.code = code
        self.stderr = stderr


def parse_run(stdout: str) -> dict:
    """The result of one run.py run: ``correct``, ``attempted``, ``failed``,
    ``metrics`` (name -> value), ``machine`` and ``sha256`` (germ name ->
    digest)."""
    lines = stdout.strip().splitlines()
    details = [line for line in lines if line.startswith("detail {")]
    if not lines or not details:
        raise BenchError("run.py printed no result and detail lines")
    result = json.loads(lines[-1])
    detail = json.loads(details[-1][len("detail ") :])
    machine = {k: v for k, v in detail["machine"].items() if k != "seed"}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "machine": machine,
        "sha256": {g["name"]: g["sha256"] for g in detail["germs"]},
    }


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(root / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        stderr = exc.stderr.decode(errors="replace") if isinstance(exc.stderr, bytes) else ""
        raise BenchError(f"run.py timed out in {root}: {' '.join(cmd[2:])}", None, stderr) from exc
    if proc.returncode != 0:
        raise BenchError(
            f"run.py exited with code {proc.returncode} in {root}: {' '.join(cmd[2:])}\n"
            f"{proc.stderr}",
            proc.returncode,
            proc.stderr,
        )
    try:
        return parse_run(proc.stdout)
    except (BenchError, ValueError, KeyError) as exc:
        raise BenchError(
            f"run.py printed no readable result in {root}: {' '.join(cmd[2:])}: {exc}",
            proc.returncode,
            proc.stderr,
        ) from exc


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method; one value is its own)."""
    values = sorted(values)
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list) -> dict:
    """Per metric: the values of the runs in order, and their quartiles."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        out[name] = {"values": values, **quartiles(values)}
    return out


def compare(parent: list, change: list, better: dict) -> dict:
    """Per metric: relative change of the medians, pair wins, losses and
    ties of the change, and whether a gain may be claimed.  ``parent`` and
    ``change`` are the runs of the pairs, in pair order.  A metric that
    reads 0 in every change run but not in every parent run is not
    ``measured``: the change no longer reaches what it counts or times
    (a traced layer it stopped calling), so no gain is claimed for it."""
    out = {}
    for name, direction in better.items():
        if name not in parent[0]["metrics"]:
            continue
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        losses = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        ps, cs = quartiles(p), quartiles(c)
        spread = ps["q3"] - ps["q1"]
        gain = sign * (ps["median"] - cs["median"])
        measured = any(c) or not any(p)
        out[name] = {
            "better": direction,
            "relative_change": cs["median"] / ps["median"] - 1.0 if ps["median"] else None,
            "wins": wins,
            "losses": losses,
            "ties": len(p) - wins - losses,
            "pairs": len(p),
            "parent_iqr": spread,
            "measured": measured,
            "gain_claimable": measured
            and len(p) >= MIN_PAIRS
            and wins >= WIN_SHARE * len(p)
            and gain > spread,
        }
    return out


def pair_order(index: int) -> tuple:
    """Which side runs first in pair ``index``: the parent in even pairs."""
    return ("parent", "change") if index % 2 == 0 else ("change", "parent")


def export_rev(repo: Path, rev: str, dest: Path) -> Path:
    """Extract the committed files of ``rev`` into ``dest``.  An archive
    leaves nothing registered in the repository, even if the run is
    killed, as a worktree would."""
    proc = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", rev], capture_output=True
    )
    if proc.returncode != 0:
        stderr = proc.stderr.decode(errors="replace")
        raise BenchError(f"git archive {rev} failed: {stderr.strip()}", proc.returncode, stderr)
    # extraction filters came with 3.10.12, 3.11.4 and 3.12
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, **safe)
    return dest


def better_of(root: Path, trace: int) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["per_layer" if trace else "end_to_end"]}


def previous_bench(root: Path, machine: dict, out: Path | None):
    """(path, data) of the newest BENCH_*.json in ``root`` with the same
    machine block, other than ``out``; None if there is none."""
    def number(path):
        stem = path.stem.split("_", 1)[-1]
        return int(stem) if stem.isdigit() else -1

    for path in sorted(root.glob("BENCH_*.json"), key=number, reverse=True):
        if out is not None and path.resolve() == out.resolve():
            continue
        data = json.loads(path.read_text())
        if data.get("machine") == machine:
            return path, data
    return None


def against_previous(results: dict, previous: dict) -> dict:
    """Per workload:seed and metric, the relative change of this file's
    median from the median of the change side of an earlier file."""
    out = {}
    for key, entry in results.items():
        old = previous.get(key, {}).get("change", {}).get("summary", {})
        rel = {
            name: q["median"] / old[name]["median"] - 1.0
            for name, q in entry["change"]["summary"].items()
            if old.get(name, {}).get("median")
        }
        if rel:
            out[key] = rel
    return out


def _side_record(runs: list) -> dict:
    return {
        "runs": [
            {k: r[k] for k in ("correct", "attempted", "failed", "metrics")} for r in runs
        ],
        "correct": all(r["correct"] for r in runs),
        "failed": sorted({r["failed"] for r in runs}),
        "summary": summarize(runs),
    }


def _print_rows(key: str, entry: dict) -> None:
    sides = [s for s in ("parent", "change") if s in entry]
    for name in entry[sides[-1]]["summary"]:
        cells = []
        for side in sides:
            q = entry[side]["summary"][name]
            cells.append(f"{side} {q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]")
        cmp_ = entry.get("comparison", {}).get(name)
        if cmp_ is not None and not cmp_["measured"]:
            cells.append("not measured")
        elif cmp_ is not None:
            rel = cmp_["relative_change"]
            cells.append(
                ("n/a" if rel is None else f"{rel:+.1%}")
                + f" wins {cmp_['wins']}/{cmp_['pairs']}"
                + (" claimable" if cmp_["gain_claimable"] else "")
            )
        print(f"{key:<16} {name:<20} " + "  ".join(cells))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--parent", metavar="REV", help="measure REV against this checkout")
    ap.add_argument("--out", type=Path, help="write the results to this JSON file")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file():
        print(f"no perfbench/run.py under {root}; run from a checkout root", file=sys.stderr)
        return 2
    better = better_of(root, args.trace)
    report = {
        "settings": {
            "workloads": args.workloads,
            "seeds": args.seeds,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "trace": args.trace,
            "parent": args.parent,
        },
        "results": {},
    }
    failed_run = None
    with tempfile.TemporaryDirectory(prefix="lnegerm-bench-") as tmp:
        where = {"side": "parent", "workload": None, "seed": None, "pair": None}
        try:
            roots = {"change": root}
            if args.parent:
                roots["parent"] = export_rev(root, args.parent, Path(tmp))
            for workload in args.workloads:
                for seed in args.seeds:
                    runs = {side: [] for side in roots}
                    for index in range(args.pairs):
                        for side in pair_order(index):
                            if side in roots:
                                where = {
                                    "side": side, "workload": workload, "seed": seed, "pair": index
                                }
                                runs[side].append(
                                    run_once(roots[side], workload, seed, args.seconds, args.trace)
                                )
                    entry = {side: _side_record(r) for side, r in runs.items()}
                    if args.parent:
                        entry["comparison"] = compare(runs["parent"], runs["change"], better)
                        entry["same_bytes"] = all(
                            p["sha256"] == c["sha256"]
                            for p, c in zip(runs["parent"], runs["change"])
                        )
                    report["machine"] = runs["change"][0]["machine"]
                    key = f"{workload}:{seed}"
                    report["results"][key] = entry
                    _print_rows(key, entry)
        except BenchError as exc:
            print(f"bench failed: {exc}", file=sys.stderr)
            failed_run = dict(
                where, exit_code=exc.code, stderr_tail=exc.stderr.splitlines()[-STDERR_LINES:]
            )
            report["failed_run"] = failed_run
    if failed_run is None and not args.parent:
        found = previous_bench(root, report["machine"], args.out)
        if found is None:
            print("no earlier BENCH file from this machine: no comparison applies")
        else:
            path, data = found
            changes = against_previous(report["results"], data.get("results", {}))
            report["compared_with"] = {"file": path.name, "relative_change": changes}
            for key, rel in changes.items():
                for name, value in rel.items():
                    print(f"{key:<16} {name:<20} {value:+.1%} against {path.name}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if failed_run is None else 1


if __name__ == "__main__":
    sys.exit(main())
