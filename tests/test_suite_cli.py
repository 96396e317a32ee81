"""Suite orchestration and the command-line surface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from vertexcalc.algebra import AlgebraStructure
from vertexcalc.fileio import algebra_to_data, parse_algebra_file, write_algebra_file
from vertexcalc.linalg import unit_vec
from vertexcalc.suite import SuiteOptions, emit_report, run_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, expect: int = 0):
    proc = subprocess.run(
        [sys.executable, "-m", "vertexcalc.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc.stdout


@pytest.fixture(scope="module")
def a3_bundle():
    return parse_algebra_file(FIXTURES / "a3.json")


@pytest.fixture(scope="module")
def ut2_bundle():
    return parse_algebra_file(FIXTURES / "ut2.json")


def test_all_suite_passes_on_a3(a3_bundle):
    report = run_suite(a3_bundle, "all")
    assert report.exit_code == 0
    assert report.summary["failures"] == 0
    ids = {r.id for r in report.records}
    assert "axioms/weak-associativity" in ids
    assert "closure/status" in ids


def test_locality_suite_classifies_ut2_without_failing(ut2_bundle):
    report = run_suite(ut2_bundle, "locality")
    assert report.exit_code == 0
    verdicts = {r.id: r.verdict for r in report.records}
    assert verdicts["locality/e11,e12"] == "nonlocal"
    assert verdicts["locality/one,one"] == "local(k=0)"
    assert verdicts["locality/summary"] == "nonlocal"


def test_skew_suite_equivalence_records(ut2_bundle):
    report = run_suite(ut2_bundle, "skew")
    assert report.exit_code == 0
    skew_fails = [
        r for r in report.records if r.id.startswith("skew/") and r.verdict == "fails"
    ]
    assert skew_fails  # the nonlocal pairs fail skew-symmetry, as classified


def test_from_cocycle_scalars():
    bundle = parse_algebra_file(FIXTURES / "z22_twist.json")
    report = run_suite(bundle, "jacobi", SuiteOptions(q="from-cocycle"))
    assert report.exit_code == 0
    hold = [r for r in report.records if r.id.startswith("jacobi/") and r.kind == "classification"]
    assert all(r.verdict == "holds" for r in hold)


def test_jacobi_like_suite_uses_declared_rmap():
    bundle = parse_algebra_file(FIXTURES / "m2a3.json")
    report = run_suite(bundle, "jacobi-like")
    assert report.exit_code == 0
    rec = next(r for r in report.records if r.id == "jacobi-like/identity")
    assert rec.verdict == "pass"


def test_closure_suite_embeds_algebra(a3_bundle):
    report = run_suite(a3_bundle, "closure")
    assert report.exit_code == 0
    embedded = report.embedded["closure_algebra"]
    from vertexcalc.fileio import parse_algebra_data

    back = parse_algebra_data(embedded)
    inner = run_suite(back, "axioms")
    assert inner.exit_code == 0


def test_json_reports_are_deterministic(a3_bundle):
    r1 = emit_report(run_suite(a3_bundle, "all"), "json")
    r2 = emit_report(run_suite(a3_bundle, "all"), "json")
    assert r1 == r2


def test_text_report_contains_summary(a3_bundle):
    text = emit_report(run_suite(a3_bundle, "axioms"), "text").decode()
    assert "summary:" in text
    assert "axioms/structure" in text


def test_failing_text_report_carries_witnesses(tmp_path):
    # corrupt the vacuum action and render the failing report: the witness
    # line must expose the exponent and both side vectors
    import json as _json

    data = _json.loads((FIXTURES / "ut2.json").read_text())
    data["entries"] = [
        e
        for e in data["entries"]
        if not (e["u"] == "one" and e["v"] == "e12")
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(_json.dumps(data))
    bundle = parse_algebra_file(bad)
    report = run_suite(bundle, "axioms")
    assert report.exit_code == 1
    text = emit_report(report, "text").decode()
    assert "witness:" in text
    assert "exponent (-1,)" in text


def _shift_chain_table(path: Path) -> Path:
    # ten basis vectors, a clean vacuum row, and (e_j)_(-2) 1 = e_(j+1): the
    # translation operator shifts e1 -> e2 -> ... -> e9, so e^{xD} e1 has
    # degree 8 while exp_radius is 1
    basis = ["one"] + [f"e{j}" for j in range(1, 10)]
    alg = AlgebraStructure(
        basis=basis,
        vacuum=0,
        y_data={
            **{(0, j): {-1: unit_vec(10, j)} for j in range(10)},
            **{
                (j, 0): {-1: unit_vec(10, j), **({-2: unit_vec(10, j + 1)} if j < 9 else {})}
                for j in range(1, 10)
            },
        },
    )
    write_algebra_file(path, algebra_to_data(alg))
    return path


def test_long_translation_chain_fails_creation_instead_of_erroring(tmp_path):
    # e^{xD} e1 reaches x^8, past any window sized from exp_radius 1; the
    # creation check must fail with a witness (exit 1), not error (exit 2)
    target = _shift_chain_table(tmp_path / "chain.json")
    out = run_cli("check", str(target), "--suite", "axioms", "--format", "json", expect=1)
    out = json.loads(out)
    records = {r["id"]: r for r in out["records"]}
    creation = records["axioms/creation-exponential"]
    assert creation["verdict"] == "fail"
    assert "exponent (2,)" in creation["witnesses"][0]
    skew = run_suite(parse_algebra_file(target), "skew")
    assert {r.verdict for r in skew.records if r.kind == "classification"} <= {"holds", "fails"}
    assert len(skew.records) == 2 * 10 * 10


# -- command line -----------------------------------------------------------------


def test_cli_check_exits_zero_on_pass():
    out = run_cli("check", str(FIXTURES / "a3.json"), "--suite", "axioms")
    assert "axioms/structure" in out


def test_cli_check_json_output(tmp_path):
    out_path = tmp_path / "rep.json"
    run_cli(
        "check",
        str(FIXTURES / "ut2.json"),
        "--suite",
        "locality",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    data = json.loads(out_path.read_text())
    assert data["summary"]["failures"] == 0


def test_cli_check_multiple_targets():
    run_cli(
        "check",
        str(FIXTURES / "a3.json"),
        str(FIXTURES / "ut2.json"),
        "--suite",
        "axioms",
    )


def test_cli_nonlocal_classification_exit_zero():
    run_cli("check", str(FIXTURES / "ut2.json"), "--suite", "locality")


def test_cli_construct_twist_matches_shipped(tmp_path):
    out = tmp_path / "tw.json"
    run_cli("construct", "twist", str(FIXTURES / "z22_base.json"), "-o", str(out))
    built = parse_algebra_file(out)
    shipped = parse_algebra_file(FIXTURES / "z22_twist.json")
    assert built.alg.y_data == shipped.alg.y_data


def test_cli_construct_matrix_matches_shipped(tmp_path):
    out = tmp_path / "m.json"
    run_cli("construct", "matrix", str(FIXTURES / "a3.json"), "-n", "2", "-o", str(out))
    built = parse_algebra_file(out)
    shipped = parse_algebra_file(FIXTURES / "m2a3.json")
    assert built.alg.y_data == shipped.alg.y_data


def test_cli_construct_cross_matches_shipped(tmp_path):
    out = tmp_path / "c.json"
    run_cli("construct", "cross", str(FIXTURES / "a2_base.json"), "-o", str(out))
    built = parse_algebra_file(out)
    shipped = parse_algebra_file(FIXTURES / "cross_a2z2.json")
    assert built.alg.y_data == shipped.alg.y_data


def test_cli_construct_tensor(tmp_path):
    out = tmp_path / "t.json"
    run_cli(
        "construct",
        "tensor",
        str(FIXTURES / "a3.json"),
        str(FIXTURES / "ut2.json"),
        "-o",
        str(out),
    )
    built = parse_algebra_file(out)
    assert built.alg.dim == 9


def test_cli_closure_round_trip(tmp_path):
    closed = tmp_path / "closed.json"
    run_cli(
        "closure",
        str(FIXTURES / "a3.json"),
        "--emit-algebra",
        str(closed),
        "--format",
        "json",
        "--out",
        str(tmp_path / "rep.json"),
    )
    back = parse_algebra_file(closed)
    report = run_suite(back, "axioms")
    assert report.exit_code == 0


def test_cli_report_rerenders(tmp_path):
    rep_path = tmp_path / "rep.json"
    run_cli(
        "check",
        str(FIXTURES / "a3.json"),
        "--suite",
        "axioms",
        "--format",
        "json",
        "--out",
        str(rep_path),
    )
    out = run_cli("report", str(rep_path))
    assert "axioms/structure" in out


def test_cli_window_flag_is_rejected():
    # the Jacobi-type checks are exact term comparisons and take no window
    run_cli("check", str(FIXTURES / "a3.json"), "--suite", "jacobi", "--window", "5", expect=2)


def test_cli_error_exit_code(tmp_path):
    missing = tmp_path / "missing.json"
    run_cli("check", str(missing), expect=2)
    run_cli("report", str(missing), expect=2)
    not_json = tmp_path / "report.txt"
    not_json.write_text("target: a3   suite: all\n")
    run_cli("report", str(not_json), expect=2)
    not_a_report = tmp_path / "list.json"
    not_a_report.write_text("[1, 2]\n")
    run_cli("report", str(not_a_report), expect=2)
