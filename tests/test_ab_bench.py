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
