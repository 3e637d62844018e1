"""scripts/bench.py: parsing run.py's output and the pair statistics, on
canned output.  No benchmark process is started."""

import json
from pathlib import Path

import pytest

from conftest import load_module

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


bench = load_module("scripts/bench.py")

MACHINE = {
    "affinity": 2,
    "cpu_model": "Example CPU",
    "nproc": 2,
    "numpy": "2.4.6",
    "python": "3.11.7",
    "scipy": "1.17.1",
    "seed": 0,
    "thread_pins": {"OMP_NUM_THREADS": "1"},
}


def _canned(wall, rss=70.0, correct=True, failed=0, sha="ab" * 32):
    """run.py's standard output, shortened: the detail line, the summary
    lines and the result line."""
    detail = {
        "germs": [{"name": "arc_fan", "sha256": sha, "timed": True, "failures": []}],
        "grade": {"grade.failed_frac": 0.0},
        "machine": MACHINE,
        "setup_samples_s": [0.25, 0.26, 0.24],
    }
    result = {
        "correct": correct,
        "attempted": 1,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return "\n".join(
        [
            "detail " + json.dumps(detail, sort_keys=True),
            "workload arc_fan  seed 0  trace 0  passes 24  germs analysed 1",
            f"  germ arc_fan                timed  wall 0.020 s  ref 0.020 s  sha256 {sha}",
            f"  wall_s                                       {wall:.6g} s",
            json.dumps(result),
        ]
    ) + "\n"


def test_parse_run_reads_result_and_detail():
    run = bench.parse_run(_canned(0.02, failed=1, correct=False))
    assert run["correct"] is False and run["failed"] == 1 and run["attempted"] == 1
    assert run["metrics"] == {"wall_s": 0.02, "peak_rss_mb": 70.0}
    # the machine block without the run's seed
    assert run["machine"] == {k: v for k, v in MACHINE.items() if k != "seed"}
    assert run["sha256"] == {"arc_fan": "ab" * 32}


def test_parse_run_rejects_output_without_result():
    with pytest.raises(bench.BenchError):
        bench.parse_run("benchmark failed: worker exited with code 1\n")


def test_quartiles():
    assert bench.quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}
    q = bench.quartiles([5.0, 1.0, 4.0, 2.0, 3.0])
    assert q == {"q1": 2.0, "median": 3.0, "q3": 4.0}


def test_compare_counts_wins_and_claims():
    parent = [bench.parse_run(_canned(w)) for w in (0.024, 0.023, 0.025, 0.024, 0.0235)]
    change = [bench.parse_run(_canned(w, rss=r)) for w, r in zip(
        (0.020, 0.021, 0.020, 0.024, 0.019), (70.0, 71.0, 69.0, 70.0, 70.0)
    )]
    out = bench.compare(parent, change, {"wall_s": "lower", "peak_rss_mb": "lower", "x": "lower"})
    assert set(out) == {"wall_s", "peak_rss_mb"}
    wall = out["wall_s"]
    assert (wall["wins"], wall["losses"], wall["ties"], wall["pairs"]) == (4, 0, 1, 5)
    assert wall["relative_change"] == pytest.approx(0.020 / 0.024 - 1.0)
    assert wall["parent_iqr"] == pytest.approx(0.024 - 0.0235)
    # 4 of 5 pairs is below nine tenths: no claim, however large the gain
    assert wall["gain_claimable"] is False
    rss = out["peak_rss_mb"]
    assert (rss["wins"], rss["losses"], rss["ties"]) == (1, 1, 3)
    assert rss["relative_change"] == 0.0
    # a higher-is-better metric counts the other way
    up = bench.compare(parent, change, {"wall_s": "higher"})["wall_s"]
    assert (up["wins"], up["losses"]) == (0, 4)


def test_claim_needs_the_gain_beyond_the_parent_spread():
    parent = [bench.parse_run(_canned(w)) for w in (0.020, 0.030) * 5]
    change = [bench.parse_run(_canned(w - 0.001)) for w in (0.020, 0.030) * 5]
    wall = bench.compare(parent, change, {"wall_s": "lower"})["wall_s"]
    assert wall["wins"] == 10
    assert wall["gain_claimable"] is False  # 0.001 against a spread of 0.01
    change = [bench.parse_run(_canned(0.015)) for _ in range(10)]
    assert bench.compare(parent, change, {"wall_s": "lower"})["wall_s"]["gain_claimable"]
    # fewer than ten pairs claim nothing, however clear
    short = bench.compare(parent[:9], change[:9], {"wall_s": "lower"})["wall_s"]
    assert short["wins"] == 9 and short["gain_claimable"] is False


def test_pairs_alternate_which_side_runs_first():
    assert [bench.pair_order(i) for i in range(4)] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
        ("change", "parent"),
    ]


def test_previous_file_must_match_the_machine(tmp_path):
    machine = {k: v for k, v in MACHINE.items() if k != "seed"}
    runs = [bench.parse_run(_canned(0.02))]
    results = {"arc_fan:0": {"change": bench._side_record(runs)}}
    other = dict(machine, cpu_model="Other CPU")
    (tmp_path / "BENCH_3.json").write_text(json.dumps({"machine": machine, "results": results}))
    (tmp_path / "BENCH_12.json").write_text(json.dumps({"machine": other, "results": {}}))
    path, data = bench.previous_bench(tmp_path, machine, None)
    assert path.name == "BENCH_3.json"
    assert bench.previous_bench(tmp_path, machine, tmp_path / "BENCH_3.json") is None
    newer = {"arc_fan:0": {"change": bench._side_record([bench.parse_run(_canned(0.018))])}}
    rel = bench.against_previous(newer, data["results"])
    assert rel["arc_fan:0"]["wall_s"] == pytest.approx(0.018 / 0.02 - 1.0)
    assert rel["arc_fan:0"]["peak_rss_mb"] == 0.0


def test_metric_the_change_no_longer_reaches_is_not_measured(capsys):
    # a traced layer the change stops calling reads 0: not a gain
    parent = [bench.parse_run(_canned(w)) for w in (0.024, 0.023, 0.025, 0.024, 0.0235) * 2]
    change = [bench.parse_run(_canned(0.0)) for _ in range(10)]
    wall = bench.compare(parent, change, {"wall_s": "lower"})["wall_s"]
    assert wall["wins"] == 10
    assert wall["measured"] is False and wall["gain_claimable"] is False
    # 0 on both sides is measured: nothing changed
    both = bench.compare(change, change, {"wall_s": "lower"})["wall_s"]
    assert both["measured"] is True and both["gain_claimable"] is False
    entry = {
        "parent": bench._side_record(parent),
        "change": bench._side_record(change),
        "comparison": bench.compare(parent, change, {"wall_s": "lower"}),
    }
    bench._print_rows("arc_fan:0", entry)
    row = [line for line in capsys.readouterr().out.splitlines() if "wall_s" in line]
    assert row and row[0].endswith("not measured")


def test_failed_run_keeps_the_finished_entries(monkeypatch, tmp_path, capsys):
    # the third run fails: the first workload:seed entry (one pair) is
    # written, with a record of the failed run, and the script exits 1
    calls = []
    stderr = "".join(f"line {k}\n" for k in range(30))

    def run_once(root, workload, seed, seconds, trace):
        calls.append((workload, seed))
        if len(calls) == 3:
            raise bench.BenchError("run.py exited with code 1", 1, stderr)
        return bench.parse_run(_canned(0.02))

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "export_rev", lambda repo, rev, dest: dest)
    monkeypatch.chdir(SCRIPTS.parent)
    out = tmp_path / "BENCH.json"
    argv = ["--workloads", "arc_fan", "--seeds", "0", "7", "--pairs", "1", "--parent", "HEAD"]
    assert bench.main(argv + ["--out", str(out)]) == 1
    assert calls == [("arc_fan", 0), ("arc_fan", 0), ("arc_fan", 7)]
    data = json.loads(out.read_text())
    assert list(data["results"]) == ["arc_fan:0"]
    entry = data["results"]["arc_fan:0"]
    assert len(entry["parent"]["runs"]) == len(entry["change"]["runs"]) == 1
    assert data["failed_run"] == {
        "side": "parent",
        "workload": "arc_fan",
        "seed": 7,
        "pair": 0,
        "exit_code": 1,
        "stderr_tail": [f"line {k}" for k in range(10, 30)],
    }
    assert "bench failed: run.py exited with code 1" in capsys.readouterr().err


def test_unreadable_result_is_a_failed_run(monkeypatch):
    # a run that exits 0 with a cut result line fails as a run, with its
    # exit code and standard error kept
    class Proc:
        returncode = 0
        stdout = _canned(0.02)[:-40]
        stderr = "warning\n"

    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: Proc())
    with pytest.raises(bench.BenchError, match="no readable result") as info:
        bench.run_once(SCRIPTS.parent, "arc_fan", 0, 1, 0)
    assert (info.value.code, info.value.stderr) == (0, "warning\n")
