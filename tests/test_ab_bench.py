"""The A/B benchmark summariser (tools/ab_bench.py) on canned perfbench result lines.

No benchmark runs here: the runs are the last lines perfbench/run.py prints,
written out by hand, and the summary is checked against figures worked out
from them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

END_TO_END = [
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _line(pass_s, rss, failed=0):
    """The last line of one perfbench/run.py --trace 0 run."""
    metrics = {"pass_s": {"value": pass_s, "unit": "s"}}
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    result = {"correct": failed == 0, "attempted": 40, "failed": failed, "metrics": metrics}
    return json.dumps({"workload": "w", "seed": 1}) + "\n" + json.dumps(result) + "\n"


def test_parse_result_reads_the_last_line():
    assert ab_bench.parse_result(_line(0.015, 22.5, failed=2)) == {
        "correct": False,
        "failed": 2,
        "attempted": 40,
        "pass_s": 0.015,
        "peak_rss_mb": 22.5,
    }


def _runs(parent, change, rss=(22.0, 22.0)):
    return [
        {
            "seed": 7 + i,
            "first": "parent" if i % 2 == 0 else "change",
            "parent": ab_bench.parse_result(_line(p, rss[0])),
            "change": ab_bench.parse_result(_line(c, rss[1], failed=int(i == 0))),
        }
        for i, (p, c) in enumerate(zip(parent, change))
    ]


def test_summary_counts_wins_quartiles_and_the_bound():
    parent = [0.010, 0.012, 0.011, 0.013, 0.014]
    change = [0.009, 0.012, 0.010, 0.012, 0.015]  # wins pairs 0, 2 and 3; pair 1 is a tie
    summary = ab_bench.summarise(_runs(parent, change, rss=(22.0, 24.5)), END_TO_END)
    assert summary["pass_s"] == {
        "parent": {"q1": 0.011, "median": 0.012, "q3": 0.013},
        "change": {"q1": 0.01, "median": 0.012, "q3": 0.012},
        "change_wins": 3,
        "pairs": 5,
        "median_ratio": 1.0,
        "bound": 0.2,
        "within_bound": True,
    }
    # 24.5 / 22 = 1.1136 is past the 10% bound, and a tie wins nothing
    rss = summary["peak_rss_mb"]
    assert (rss["median_ratio"], rss["within_bound"], rss["change_wins"]) == (1.1136, False, 0)
    assert summary["failed"] == {"parent": 0, "change": 1}


@pytest.mark.parametrize("better, expect", (("lower", (0, False)), ("higher", (4, True))))
def test_the_direction_of_a_metric_decides_wins_and_bound(better, expect):
    metric = [{"name": "pass_s", "unit": "s", "better": better, "bound": 0.2}]
    summary = ab_bench.summarise(_runs([1.0] * 4, [1.5] * 4), metric)["pass_s"]
    assert (summary["change_wins"], summary["within_bound"]) == expect
    assert summary["median_ratio"] == 1.5


def _failed_run(returncode, stderr):
    """A stand-in for subprocess.run that ends as a failing run does."""

    def run(command, **kwargs):
        assert "check" not in kwargs  # a failing run must not raise
        return ab_bench.subprocess.CompletedProcess(command, returncode, "", stderr)

    return run


def test_a_failed_run_is_recorded_with_its_exit_code_and_last_stderr_line(monkeypatch, tmp_path):
    stderr = "Traceback (most recent call last):\n  ...\nMemoryError: out of memory\n"
    monkeypatch.setattr(ab_bench.subprocess, "run", _failed_run(1, stderr))
    record = ab_bench.run_side(tmp_path, "w", 3, 1)
    assert record == {"exit_code": 1, "error": "MemoryError: out of memory"}
    monkeypatch.setattr(ab_bench.subprocess, "run", _failed_run(-9, ""))
    assert ab_bench.run_side(tmp_path, "w", 3, 1) == {"exit_code": -9, "error": ""}


def test_a_failed_run_counts_as_failed_and_stays_out_of_the_quartiles():
    runs = _runs([0.010, 0.012, 0.011, 0.013], [0.009, 0.012, 0.010, 0.012])
    runs[3]["change"] = {"exit_code": 1, "error": "MemoryError: out of memory"}
    summary = ab_bench.summarise(runs, END_TO_END)
    # the change's quartiles come from its three runs, and pair 3 counts for neither side
    assert summary["pass_s"]["change"] == {"q1": 0.0095, "median": 0.01, "q3": 0.011}
    assert summary["pass_s"]["parent"] == {"q1": 0.01075, "median": 0.0115, "q3": 0.01225}
    assert (summary["pass_s"]["pairs"], summary["pass_s"]["change_wins"]) == (3, 2)
    # pair 0's change run failed one operation; pair 3's change run failed as a whole
    assert summary["failed"] == {"parent": 0, "change": 2}
    for run in runs:
        run["change"] = {"exit_code": 2, "error": "error: bad"}
    summary = ab_bench.summarise(runs, END_TO_END)["pass_s"]
    assert (summary["change"], summary["median_ratio"], summary["within_bound"]) == (None, None, None)


def test_the_session_goes_on_past_a_failed_run_and_writes_its_output(monkeypatch, tmp_path):
    config = {"workloads": [{"name": "w"}], "end_to_end": END_TO_END}

    def fresh_copy(source, into):
        into.mkdir()
        (into / "BENCHMARK.json").write_text(json.dumps(config))
        return into

    def run_side(root, workload, seed, seconds):
        if root.name == "change" and seed == 5:
            return {"exit_code": 1, "error": "ValueError: boom"}
        return ab_bench.parse_result(_line(0.01 if root.name == "parent" else 0.011, 22.0))

    monkeypatch.setattr(ab_bench, "fresh_copy", fresh_copy)
    monkeypatch.setattr(ab_bench, "run_side", run_side)
    out = tmp_path / "bench.json"
    argv = ["a", "b", "--pairs", "3", "--seconds", "1", "--first-seed", "4", "--out", str(out)]
    assert ab_bench.main(argv) == 0
    workload = json.loads(out.read_text())["workloads"]["w"]
    assert [run["change"].get("exit_code") for run in workload["runs"]] == [None, 1, None]
    assert workload["summary"]["failed"] == {"parent": 0, "change": 1}
    assert workload["summary"]["pass_s"]["pairs"] == 2


def _three_workloads(monkeypatch, ran):
    """fresh_copy and run_side stand-ins over workloads a, b and c; ran collects each run."""
    config = {"workloads": [{"name": n} for n in ("a", "b", "c")], "end_to_end": END_TO_END}

    def fresh_copy(source, into):
        into.mkdir()
        (into / "BENCHMARK.json").write_text(json.dumps(config))
        return into

    def run_side(root, workload, seed, seconds):
        ran.append((root.name, workload))
        return ab_bench.parse_result(_line(0.01, 22.0))

    monkeypatch.setattr(ab_bench, "fresh_copy", fresh_copy)
    monkeypatch.setattr(ab_bench, "run_side", run_side)


def test_workload_runs_only_the_named_workloads_in_benchmark_order(monkeypatch, tmp_path):
    ran: list = []
    _three_workloads(monkeypatch, ran)
    out = tmp_path / "bench.json"
    argv = ["p", "c", "--pairs", "2", "--seconds", "1", "--first-seed", "1", "--out", str(out)]
    assert ab_bench.main(argv + ["--workload", "c", "--workload", "a"]) == 0
    assert list(json.loads(out.read_text())["workloads"]) == ["a", "c"]
    assert sorted(set(ran)) == [(side, w) for side in ("change", "parent") for w in ("a", "c")]
    assert len(ran) == 2 * 2 * 2  # two pairs of two sides on each named workload
    ran.clear()
    assert ab_bench.main(argv) == 0  # by default, every workload
    assert list(json.loads(out.read_text())["workloads"]) == ["a", "b", "c"] and len(ran) == 12


def test_an_unknown_workload_is_a_usage_error(monkeypatch, tmp_path, capsys):
    ran: list = []
    _three_workloads(monkeypatch, ran)
    out = tmp_path / "bench.json"
    argv = ["p", "c", "--pairs", "1", "--seconds", "1", "--first-seed", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(argv + ["--workload", "a", "--workload", "scale"])
    assert exit_info.value.code == 2
    assert "unknown workload scale; choose from a, b, c" in capsys.readouterr().err
    assert ran == [] and not out.exists()
