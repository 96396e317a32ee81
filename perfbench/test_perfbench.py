"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import spans  # noqa: E402
import speedclock  # noqa: E402
import vertexcalc  # noqa: E402
from vertexcalc import cli  # noqa: E402

PATCHED_CLASSES = (
    vertexcalc.algebra.AlgebraStructure,
    vertexcalc.linalg.CoordSpan,
    vertexcalc.series.Distribution,
)


def _bindings() -> dict:
    """Every attribute of every vertexcalc module and of the patched classes."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "vertexcalc":
            out.update({(name, k): v for k, v in vars(module).items()})
    for cls in PATCHED_CLASSES:
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def _check_json(fixture: str) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", str(ROOT / "fixtures" / f"{fixture}.json"), "--format", "json"])
    assert code == 0
    return buf.getvalue().encode()


def test_every_patched_binding_is_restored():
    before = _bindings()
    with spans.Recorder() as rec:
        # the copy made by `from .series import mul` is patched, not only the original
        assert vertexcalc.algebra.mul.perfbench_span == "series.mul"
        assert vertexcalc.check_jacobi.perfbench_span == "algebra.check_jacobi"
        assert vertexcalc.algebra.AlgebraStructure.mode_map.perfbench_span == "algebra.mode_map"
        _check_json("a3")
        patched = len(rec.patched)
    assert patched > len(spans.WRAPPED)
    assert rec.names, "the traced run recorded no spans"
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert not [k for k, v in after.items() if hasattr(v, "perfbench_span")]


def test_traced_run_leaves_report_bytes_unchanged():
    plain = {name: _check_json(name) for name in ("a3", "ut2")}
    with spans.Recorder() as rec:
        traced = {name: _check_json(name) for name in ("a3", "ut2")}
    assert traced == plain
    metrics = spans.layer_metrics(rec)
    assert metrics["fileio.report_bytes"] == sum(len(b) for b in plain.values())
    assert metrics["algebra.find_locality_k.calls"] > metrics["algebra.find_locality_k.distinct"] > 0


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    rec.names.extend(["outer", "inner", "inner"])
    rec.parents.extend([-1, 0, 0])
    rec.starts.extend([0.0, 1.0, 3.0])
    rec.ends.extend([10.0, 2.0, 6.0])
    calls, self_s = rec.self_times()
    assert calls == {"outer": 1, "inner": 2}
    assert self_s == {"outer": 6.0, "inner": 4.0}


def _marks(slowdowns: list[float], stretch: float) -> list[tuple[float, float]]:
    marks, t = [], 0.0
    for slow in slowdowns:
        marks.append((t, t + slow * speedclock.PROBE_NOMINAL_S))
        t = marks[-1][1] + stretch
    return marks


def test_normalised_time_divides_each_stretch_by_the_slowdown():
    normal, wall = speedclock.normalised_seconds(_marks([2.0] * 5, 1.0))
    assert wall == pytest.approx(4.0)
    assert normal == pytest.approx(2.0)
    # the median of neighbours drops one preempted probe
    normal, wall = speedclock.normalised_seconds(_marks([1.0, 1.0, 9.0, 1.0, 1.0], 1.0))
    assert normal == pytest.approx(wall) == pytest.approx(4.0)


def test_speed_clock_returns_the_result_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speedclock.SpeedClock() as clock:
        normal, wall, probes, result = clock.measure(sum, range(10))
    assert result == 45 and probes == 2 and normal > 0 and wall > 0
    assert signal.getsignal(signal.SIGALRM) is before


def test_flipped_verdict_fails_the_oracle():
    pinned = oracles.load_pinned()
    payload = _check_json("a3")
    assert oracles.check_fixture_report("a3", 0, payload, pinned["a3"]) == []
    report = json.loads(payload)
    record = next(r for r in report["records"] if r["id"] == "locality/summary")
    record["verdict"] = "nonlocal"
    flipped = json.dumps(report).encode()
    assert oracles.check_fixture_report("a3", 0, flipped, pinned["a3"]) != []


def test_nonlocal_pair_recount_matches_the_stated_facts():
    # 6 nonzero monomial products in Q[t]/(t^3) times the non-commuting
    # ordered pairs of the adapted matrix basis: 6 for 2x2, 34 for 3x3
    assert len(oracles.expected_nonlocal_pairs(2)) == oracles.LOCALITY_FACTS["m2a3"][1] == 36
    assert len(oracles.expected_nonlocal_pairs(3)) == 204


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
