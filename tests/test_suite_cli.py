"""Suite orchestration and the command-line surface."""

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fileio import JUNK as WRONG_TYPES
from reference_tables import index_from_dense, table_of
from test_fileio import _paths

from vertexcalc import cli
from vertexcalc import suite as suite_module
from vertexcalc.algebra import AlgebraStructure
from vertexcalc.errors import InvalidArgument
from vertexcalc.fileio import (
    algebra_to_data,
    operators_section,
    parse_algebra_file,
    write_algebra_file,
)
from vertexcalc.linalg import unit_vec
from vertexcalc.operators import VertexOperator, operator_from_structure
from vertexcalc.suite import SuiteOptions, emit_report, run_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, expect: int = 0):
    proc = subprocess.run(
        [sys.executable, "-m", "vertexcalc.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    if expect == 2:
        assert "error: " in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
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


@pytest.mark.parametrize("suite", ["locality", "skew", "jacobi", "modules"])
def test_from_cocycle_without_grading_is_an_error(suite):
    run_cli("check", str(FIXTURES / "a3.json"), "--suite", suite, "--q", "from-cocycle", expect=2)


def test_from_cocycle_is_not_read_by_the_axioms_suite():
    run_cli("check", str(FIXTURES / "a3.json"), "--suite", "axioms", "--q", "from-cocycle")


def test_q_is_resolved_once_per_suite(monkeypatch):
    calls = []
    fixed = suite_module._fixed_q

    def counting(options):
        calls.append(options.q)
        return fixed(options)

    monkeypatch.setattr(suite_module, "_fixed_q", counting)
    report = run_suite(parse_algebra_file(FIXTURES / "m2a3.json"), "all", SuiteOptions(q="1/3"))
    # once in run_suite, then once in each of locality, skew, jacobi and modules
    assert calls == ["1/3"] * 5
    golden = json.loads((FIXTURES.parent / "tests" / "golden_reports.json").read_text())
    digest = hashlib.sha256(emit_report(report, "json")).hexdigest()
    assert digest == golden["q"]["1/3"]["json"]["m2a3"]


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
        mode_index=index_from_dense(
            {
                **{(0, j): {-1: unit_vec(10, j)} for j in range(10)},
                **{
                    (j, 0): {-1: unit_vec(10, j), **({-2: unit_vec(10, j + 1)} if j < 9 else {})}
                    for j in range(1, 10)
                },
            },
            10,
        ),
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
    assert table_of(built.alg) == table_of(shipped.alg)


def test_cli_construct_matrix_matches_shipped(tmp_path):
    out = tmp_path / "m.json"
    run_cli("construct", "matrix", str(FIXTURES / "a3.json"), "-n", "2", "-o", str(out))
    built = parse_algebra_file(out)
    shipped = parse_algebra_file(FIXTURES / "m2a3.json")
    assert table_of(built.alg) == table_of(shipped.alg)


def test_cli_construct_cross_matches_shipped(tmp_path):
    out = tmp_path / "c.json"
    run_cli("construct", "cross", str(FIXTURES / "a2_base.json"), "-o", str(out))
    built = parse_algebra_file(out)
    shipped = parse_algebra_file(FIXTURES / "cross_a2z2.json")
    assert table_of(built.alg) == table_of(shipped.alg)


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


def test_in_process_main_reuses_one_parser(capsys):
    # the parser is built on the first call and shared: repeated in-process
    # calls print the same bytes, and a usage error after a success exits 2
    argv = ["check", str(FIXTURES / "a3.json"), "--suite", "all", "--format", "json"]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["summary"]["failures"] == 0
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", str(FIXTURES / "a3.json"), "--window", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --window" in capsys.readouterr().err
    assert cli.main(argv) == 0 and capsys.readouterr().out == outputs[0]


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
    a3 = str(FIXTURES / "a3.json")
    # a dim cap below 1, in the closure suite and subcommand
    run_cli("check", a3, "--suite", "closure", "--dim-cap", "-1", expect=2)
    run_cli("closure", a3, "--dim-cap", "-1", expect=2)
    # a malformed --q is rejected whichever suite runs
    for q in ("1/0", "abc", "1e5000", "1e-5000"):
        run_cli("check", a3, "--q", q, expect=2)
        run_cli("check", a3, "--suite", "closure", "--q", q, expect=2)
    # outputs that cannot be written
    unwritable = str(tmp_path / "no-such-dir" / "x.json")
    run_cli("check", a3, "--suite", "axioms", "--out", unwritable, expect=2)
    run_cli("closure", a3, "--out", unwritable, expect=2)
    report = str(tmp_path / "rep.txt")
    run_cli("closure", a3, "--out", report, "--emit-algebra", unwritable, expect=2)
    run_cli("construct", "matrix", a3, "-o", unwritable, expect=2)


@pytest.mark.parametrize("command", ["check", "report", "construct", "closure"])
def test_cli_refuses_an_integer_literal_past_the_digit_limit(command, tmp_path):
    # json.loads converts the literal with int(), which refuses it past the limit
    path = tmp_path / "big.json"
    path.write_text('{"format_version": 1' + "0" * 4999 + "}")
    args = [str(path)]
    if command == "construct":
        args = ["matrix", str(path), "-o", str(tmp_path / "out.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "vertexcalc.cli", command, *args], capture_output=True, text=True
    )
    limit = sys.get_int_max_str_digits()
    assert proc.returncode == 2
    message = f"error: {path}: an integer literal has more than {limit} digits"
    assert proc.stderr.splitlines() == [message]


@pytest.mark.parametrize("command", ["check", "report"])
def test_cli_refuses_a_file_it_cannot_decode(command, tmp_path):
    # bytes that are not UTF-8, and an array nested past the decoder's recursion limit
    not_utf8 = tmp_path / "bytes.json"
    not_utf8.write_bytes(b"\xff\xfe")
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    run_cli(command, str(not_utf8), expect=2)
    run_cli(command, str(nested), expect=2)


@pytest.mark.parametrize("value", ["1e5000", "1e-5000", "1e100000000"])
def test_cli_refuses_a_coefficient_past_the_int_digit_limit(value, tmp_path, capsys):
    # 10^5000 cannot be printed in a report, and 10^(10^8) would take minutes
    # to build: both are refused from the exponent, before Fraction builds them
    doc = json.loads((FIXTURES / "a3.json").read_text())
    entry = doc["entries"][0]
    entry["result"] = {name: value for name in entry["result"]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    run_cli("check", str(path), expect=2)
    start = time.perf_counter()
    assert cli.main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(f"error: bad rational {value!r}")


@pytest.mark.parametrize("value", ["1e" + "7" * 5000, "1e4300", list(range(3000))])
def test_cli_refuses_a_long_or_huge_coefficient_in_one_short_line(value, tmp_path):
    # the error quotes at most 40 characters of the value, with its length, and
    # says the limit in the program's own words, not Python's advice
    doc = json.loads((FIXTURES / "a3.json").read_text())
    (entry,) = [e for e in doc["entries"] if (e["u"], e["v"], e["n"]) == ("one", "one", -1)]
    entry["result"]["one"] = value
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "vertexcalc.cli", "check", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and len(line) < 200, line
    assert "Traceback" not in proc.stderr and "set_int_max_str_digits" not in line


@pytest.mark.parametrize("q", ["1e5000", "7" * 6000])
def test_a_huge_or_long_q_is_refused_in_one_short_line(q, capsys):
    # --q is read by the file format's rational reader, whose error quotes at
    # most 40 characters of the value
    assert cli.main(["check", str(FIXTURES / "a3.json"), "--suite", "axioms", "--q", q]) == 2
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and line.startswith("error: --q must be") and len(line) < 200, line


@pytest.mark.parametrize("suite", ["locality", "all", "closure"])
@pytest.mark.parametrize("cap", ["-5", "0"])
def test_a_dim_cap_below_one_is_refused_before_any_check(suite, cap, capsys):
    # m2a3 declares no operators, so no closure ever reads the cap
    argv = ["check", str(FIXTURES / "m2a3.json"), "--suite", suite, "--dim-cap", cap]
    assert cli.main(argv + ["--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: the dim cap must be at least 1, not {cap}\n"
    with pytest.raises(InvalidArgument):
        run_suite(parse_algebra_file(FIXTURES / "m2a3.json"), suite, SuiteOptions(dim_cap=int(cap)))


def _stored_axioms_report(capsys) -> dict:
    assert cli.main(["check", str(FIXTURES / "a3.json"), "--suite", "axioms", "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def _break_witnesses(doc):
    doc["records"][0]["witnesses"] = "at (1,) : 1 != 0"


def _break_notes(doc):
    doc["records"][0]["notes"] = ["ok", 3]


def _break_exact(doc):
    doc["records"][0]["exact"] = "yes"


def _break_orders(doc):
    doc["records"][0]["orders"] = [["n_min", -2]]


def _stale_options(doc):
    doc["options"]["depth_cap"] = 8


def _missing_option(doc):
    del doc["options"]["local_products"]


def _bogus_suite(doc):
    doc["suite"] = "bogus"


def _target_not_a_string(doc):
    doc["target"] = 3


def _id_not_a_string(doc):
    doc["records"][0]["id"] = ["axioms", "structure"]


def _identity_not_a_string(doc):
    doc["records"][0]["identity"] = None


def _verdict_not_a_string(doc):
    doc["records"][0]["verdict"] = ["x"]


def _unknown_kind(doc):
    doc["records"][0]["kind"] = "nonsense"


@pytest.mark.parametrize("damage", [_break_witnesses, _break_notes, _break_exact, _break_orders,
                                    _stale_options, _missing_option, _bogus_suite,
                                    _target_not_a_string, _id_not_a_string, _identity_not_a_string,
                                    _verdict_not_a_string, _unknown_kind])
def test_cli_report_refuses_a_malformed_stored_report(damage, tmp_path, capsys):
    doc = _stored_axioms_report(capsys)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == doc
    damage(doc)
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(path), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: not a vertexcalc report")


def test_cli_negative_values_parse_with_a_space():
    # argparse reads "-1/2" after a flag as a flag of its own
    a3 = str(FIXTURES / "a3.json")
    out = run_cli("check", a3, "--suite", "axioms", "--q", "-1/2", "--format", "json")
    assert json.loads(out)["options"]["q"] == "-1/2"
    assert cli.build_parser().parse_args(["check", a3, "--q", "-.5"]).q == "-.5"


def test_cli_closure_says_why_it_emits_no_algebra(tmp_path, capsys):
    # E11 at mode 0 composes with 1_W to nonzero: no finite span closes, so
    # there is no algebra to write, and stderr says so
    doc = json.loads((FIXTURES / "a3.json").read_text())
    e11 = VertexOperator(3, {0: {0: {0: 1}}}, name="e11")
    doc["operators"] = operators_section([e11], ("w1", "w2", "w3"))
    source, emitted = tmp_path / "a3-e11.json", tmp_path / "closed.json"
    source.write_text(json.dumps(doc))
    argv = ["closure", str(source), "--emit-algebra", str(emitted), "--format", "json"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["records"][0]["verdict"] == "infinite-dimensional"
    assert err == f"closure status 'infinite-dimensional': no algebra file written to {emitted}\n"
    assert not emitted.exists()


def _parser_flags() -> dict[str, list[str]]:
    """Each subcommand with its option strings, help left out."""
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }


PARSER_FLAGS = _parser_flags()
# flags the README names that belong to other programs: pip's, in the install line
FOREIGN_FLAGS = {"--no-build-isolation"}


def test_every_flag_the_readme_names_exists():
    readme = (FIXTURES.parent / "README.md").read_text()
    named = set(re.findall(r"--[a-z][a-z-]*", readme)) - FOREIGN_FLAGS
    known = {flag for flags in PARSER_FLAGS.values() for flag in flags}
    assert named and named <= known, sorted(named - known)


# small fixtures only: a drawn construct matrix -n is at most 4, dim 48 on a3
FUZZ_TARGETS = (str(FIXTURES / "a3.json"), str(FIXTURES / "ut2.json"))
JUNK = ("abc", "1/0", "", "5:1", "-3:0", "3:-3", "missing.json", "no-dir/x.json") + tuple(
    str(k) for k in range(-4, 5)
)


def test_cli_argv_fuzz_never_tracebacks(tmp_path, monkeypatch):
    # relative junk paths (an --out of "5:1") land in tmp_path
    monkeypatch.chdir(tmp_path)
    assert cli.main(["check", FUZZ_TARGETS[0], "--suite", "axioms", "--format", "json",
                     "--out", "report.json"]) == 0

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def run(data):
        command = data.draw(st.sampled_from(sorted(PARSER_FLAGS)))
        target = data.draw(st.sampled_from(FUZZ_TARGETS))
        if command == "construct":
            kind = data.draw(st.sampled_from(("from-assoc", "tensor", "matrix", "twist", "cross")))
            base = ["construct", kind, target, "-o", "built.json"]
        elif command == "report":
            base = ["report", "report.json"]
        else:
            base = [command, target]
        flag = data.draw(st.sampled_from(PARSER_FLAGS[command]))
        argv = base + [flag, data.draw(st.sampled_from(JUNK))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert "Traceback" not in err.getvalue(), argv
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert "error: " in err.getvalue(), argv
        if code == 1:
            emitted = out.getvalue()
            if flag == "--out":
                emitted += Path(argv[-1]).read_text()
            assert re.search(r'[1-9]\d* failures|"failures":\s*[1-9]', emitted), argv

    run()


# -- file contents ---------------------------------------------------------------

FILE_FUZZ_FIXTURES = ("a2_base", "cross_a2z2", "ut2")
MUTATIONS = ("drop-action", "resize-action", "duplicate-entry", "drop-key", "wrong-type")


def _mutate(doc: dict, kind: str, rng) -> None:
    """Apply one mutation of the given kind to a decoded fixture, in place."""
    if kind == "drop-action":
        action = doc["group"]["action"]
        del action[rng.choice(sorted(action))]
    elif kind == "resize-action":
        action = doc["group"]["action"]
        rows = action[rng.choice(sorted(action))]
        resize = rng.choice(("add-column", "drop-column", "add-row", "drop-row"))
        if resize == "add-column":
            for row in rows:
                row.append("0")
        elif resize == "drop-column":
            for row in rows:
                row.pop()
        elif resize == "add-row":
            rows.append(["0"] * len(rows[0]))
        else:
            rows.pop()
    elif kind == "duplicate-entry":
        entries = doc["entries"]
        copy_ = json.loads(json.dumps(rng.choice(entries)))
        if rng.random() < 0.5:  # a conflicting value, not only a repeated one
            copy_["result"] = {doc["basis"][0]: "1/3"}
        entries.insert(rng.randrange(len(entries) + 1), copy_)
    else:
        paths = list(_paths(doc))
        if kind == "drop-key":
            paths = [p for p in paths if isinstance(p[-1], str)]
        path = rng.choice(paths)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop-key":
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(rng.choice(WRONG_TYPES)))


def test_file_content_fuzz_never_tracebacks(tmp_path):
    # seeded mutations of small fixtures through check --suite all and
    # construct cross: each run ends with exit code 0, 1 or 2, never with an
    # exception, and exit code 2 names the error
    rng = random.Random(20260419)
    drawn = set()
    for seed in range(48):
        name = FILE_FUZZ_FIXTURES[seed % len(FILE_FUZZ_FIXTURES)]
        doc = json.loads((FIXTURES / f"{name}.json").read_text())
        kinds = MUTATIONS if "group" in doc else MUTATIONS[2:]
        kind = kinds[seed // len(FILE_FUZZ_FIXTURES) % len(kinds)]
        _mutate(doc, kind, rng)
        drawn.add(kind)
        path = tmp_path / f"{seed}-{name}-{kind}.json"
        path.write_text(json.dumps(doc))
        for argv in (
            ["check", str(path), "--suite", "all", "--format", "json"],
            ["construct", "cross", str(path), "-o", str(tmp_path / "built.json")],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2), (path.name, argv[0], code)
            if code == 2:
                assert err.getvalue().startswith("error: "), (path.name, argv[0])
            if code == 1:
                assert re.search(r'"failures":\s*[1-9]', out.getvalue()), (path.name, argv[0])
    assert drawn == set(MUTATIONS)


def _group_mutant(tmp_path, name: str, mutate) -> str:
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    mutate(doc["group"])
    path = tmp_path / f"{name}-mutant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _add_column(group):
    for row in group["action"]["g"]:
        row.append("0")


_ONE, _FLIP = [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]]

GROUP_MUTANTS = {
    "element-without-action": lambda group: group["action"].pop("g"),
    "2x3-matrix": _add_column,
    "1x2-matrix": lambda group: group["action"]["g"].pop(),
    # the cases below are no group action; construct cross accepted each of them
    "g-scales-t-by-2": lambda group: group["action"].update(g=[["1", "0"], ["0", "2"]]),
    "identity-acts-by-the-flip": lambda group: group["action"].update(e=_FLIP, g=_FLIP),
    "table-row-with-an-extra-entry": lambda group: group["table"][0].append("e"),
    "table-not-associative": lambda group: group.update(
        elements=["e", "a", "b"],
        table=[["e", "a", "b"], ["a", "e", "e"], ["b", "e", "a"]],
        action={"e": _ONE, "a": _ONE, "b": _ONE},
    ),
    "g-without-an-inverse": lambda group: group.update(
        table=[["e", "g"], ["g", "g"]], action={"e": _ONE, "g": _ONE}
    ),
}


@pytest.mark.parametrize("case", sorted(GROUP_MUTANTS))
def test_malformed_group_actions_exit_2(case, tmp_path):
    # a missing action ended in a KeyError traceback; a 2x3 matrix on the
    # 2-dim base was accepted, as mat_vec's zip cut it to 2x2; a table of
    # matrices that is no group action went into the cross product, which
    # then failed its own axioms.  The parser refuses them all, so a suite
    # that never reads the group refuses them too
    base = _group_mutant(tmp_path, "a2_base", GROUP_MUTANTS[case])
    run_cli("construct", "cross", base, "-o", str(tmp_path / "built.json"), expect=2)
    assert not (tmp_path / "built.json").exists()
    run_cli("check", base, "--suite", "axioms", expect=2)
    cross = _group_mutant(tmp_path, "cross_a2z2", GROUP_MUTANTS[case])
    run_cli("check", cross, "--suite", "jacobi-like", expect=2)
    run_cli("check", cross, "--suite", "all", expect=2)


def _identity_second(group):
    group["elements"].reverse()
    group["table"] = [row[::-1] for row in group["table"][::-1]]


def test_a_group_that_lists_its_identity_second_builds_its_cross_product(tmp_path):
    # the identity was taken to be the first element, so this valid group
    # was refused as "identity row/column of the group table is wrong"
    base = _group_mutant(tmp_path, "a2_base", _identity_second)
    assert parse_algebra_file(base).group.identity == 1
    out = tmp_path / "built.json"
    run_cli("construct", "cross", base, "-o", str(out))
    built = parse_algebra_file(out).alg
    assert built.basis[built.vacuum] == "one|e"
    assert built.basis == ("one|g", "one|e", "t|g", "t|e")


def test_cross_of_a_cross_product_names_the_matrix_shape(tmp_path, capsys):
    # the group of cross_a2z2 acts on its 2-dim base, not on the 4-dim file;
    # this was refused only because a cut-down image of the vacuum differed
    built = tmp_path / "built.json"
    assert cli.main(["construct", "cross", str(FIXTURES / "cross_a2z2.json"), "-o", str(built)]) == 2
    assert capsys.readouterr().err == "error: the action matrix of e is not 4x4\n"
    assert not built.exists()


def _pad(rows):
    """Append a zero column and a zero row to a dense matrix of rational strings."""
    for row in rows:
        row.append("0")
    rows.append(["0"] * len(rows[0]))


def _padded_mode(doc):
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    doc["operators"] = operators_section([operator_from_structure(a3, 1)], a3.basis)
    _pad(doc["operators"]["ops"][0]["modes"]["-1"])


# a matrix padded with a zero row and a zero column has every nonzero entry
# inside the basis, so only the shape of its dense rows refuses it (the
# padded derivation is a DERIVATION_MUTANTS case)
PADDED = {
    "group-action": (
        "a2_base",
        lambda doc: _pad(doc["group"]["action"]["e"]),
        "the action matrix of e is not 2x2",
    ),
    "operator-mode": ("a3", _padded_mode, "operator matrix shape mismatch"),
}


@pytest.mark.parametrize("case", sorted(PADDED))
def test_a_padded_matrix_is_refused_by_its_shape(case, tmp_path, capsys):
    name, mutate, message = PADDED[case]
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    mutate(doc)
    path = tmp_path / f"{name}-padded.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path), "--suite", "axioms"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name", ["a3", "ut2", "z22_twist"])
def test_an_explicit_operator_section_closes_as_its_basis_names(name, tmp_path, capsys):
    # every shipped fixture names its generators by operators.from_basis; the
    # same operators written out as an operators.ops section of dense modes
    # must give the same closure report, all but the target
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    alg = parse_algebra_file(FIXTURES / f"{name}.json").alg
    ops = [operator_from_structure(alg, alg.basis_index(nm)) for nm in doc["operators"]["from_basis"]]
    doc["operators"] = operators_section(ops, alg.basis)
    path = tmp_path / f"{name}-ops.json"
    path.write_text(json.dumps(doc))
    reports = []
    for target in (FIXTURES / f"{name}.json", path):
        assert cli.main(["closure", str(target), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("target") == target.stem
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["records"][0]["verdict"] == "closed"


def _operators_file(tmp_path, ops, space) -> Path:
    """a3 with its operators section replaced by ops on the named space."""
    doc = json.loads((FIXTURES / "a3.json").read_text())
    doc["operators"] = operators_section(ops, space)
    path = tmp_path / "a3-ops.json"
    path.write_text(json.dumps(doc))
    return path


def test_a_repeated_operator_space_name_exits_2(tmp_path, capsys):
    a3 = parse_algebra_file(FIXTURES / "a3.json").alg
    path = _operators_file(tmp_path, [operator_from_structure(a3, 1)], ("w", "w", "u"))
    assert cli.main(["closure", str(path)]) == 2
    assert capsys.readouterr().err == "error: duplicate operators space names\n"


def test_a_closure_with_an_endless_tail_is_exactly_infinite_dimensional(tmp_path, capsys):
    # an operator with the nonnegative mode 0, whose coefficient composes with
    # the identity to nonzero: the closure is infinite-dimensional, an exact
    # classification, so the exit code is 0 and no record is window-sound
    jsonschema = pytest.importorskip("jsonschema")
    op = VertexOperator(3, {0: {0: {1: 1}}}, "a")
    path = _operators_file(tmp_path, [op], ("w1", "w2", "w3"))
    assert cli.main(["closure", str(path)]) == 0
    text = capsys.readouterr().out
    assert " infinite-dimensional " in text and "[window-sound]" not in text
    assert "note: modes (0, -1) of (a, 1_W) compose to nonzero" in text
    assert cli.main(["closure", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    schema = json.loads((FIXTURES.parent / "docs" / "report_schema.json").read_text())
    jsonschema.validate(report, schema)
    (record,) = report["records"]
    assert (record["verdict"], record["exact"]) == ("infinite-dimensional", True)


def test_a_non_nilpotent_derivation_is_refused_by_the_builder(tmp_path, capsys):
    # the Euler derivation t d/dt on the dual numbers satisfies Leibniz, but
    # e^{xd} t never terminates; exp_sparse in the builder decides it, and
    # the refusal names the basis vector whose iterates survive
    doc = json.loads((FIXTURES / "a2_base.json").read_text())
    doc["assoc"]["derivation"] = [["0", "0"], ["0", "1"]]
    path = tmp_path / "euler.json"
    path.write_text(json.dumps(doc))
    built = tmp_path / "built.json"
    assert cli.main(["construct", "from-assoc", str(path), "-o", str(built)]) == 2
    message = "error: the derivation is not nilpotent: its iterates on t never vanish\n"
    assert capsys.readouterr().err == message
    assert not built.exists()


def test_readme_library_example_runs(monkeypatch):
    # the example shows the public return types; it reads fixtures/ relatively
    readme = (FIXTURES.parent / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    monkeypatch.chdir(FIXTURES.parent)
    exec(compile(example.split("```", 1)[0], "README.md", "exec"), {})


def _assoc_mutant(tmp_path, case: str, mutate) -> str:
    doc = json.loads((FIXTURES / "a3.json").read_text())
    mutate(doc["assoc"]["derivation"])
    path = tmp_path / f"a3-{case}.json"
    path.write_text(json.dumps(doc))
    return str(path)


DERIVATION_MUTANTS = {
    "4x4-padded": _pad,
    "3x2": lambda rows: [row.pop() for row in rows],
    "3x4": lambda rows: [row.append("0") for row in rows],
    "2x3": lambda rows: rows.pop(),
}


@pytest.mark.parametrize("case", sorted(DERIVATION_MUTANTS))
def test_a_derivation_that_is_not_dim_by_dim_exits_2(case, tmp_path, capsys):
    # 3x2 and 3x4 were accepted, as mat_vec's zip cut the matrix; 2x3 was
    # refused with a Leibniz failure between vectors of different lengths.
    # The refusal happens at parse time, so a check of the file refuses too.
    path = _assoc_mutant(tmp_path, case, DERIVATION_MUTANTS[case])
    built = tmp_path / "built.json"
    assert cli.main(["construct", "from-assoc", path, "-o", str(built)]) == 2
    assert capsys.readouterr().err == "error: the derivation is not 3x3\n"
    assert not built.exists()
    assert cli.main(["check", path, "--suite", "axioms"]) == 2
    assert capsys.readouterr().err == "error: the derivation is not 3x3\n"


@pytest.mark.parametrize("degree", [[0, 3], [-1, 0]])
def test_grading_degrees_outside_the_group_exit_2(degree, tmp_path, capsys):
    # a degree used to be reduced modulo the order, so g01 at (0, 3) sat at
    # (0, 1) and the file passed check --q from-cocycle
    doc = json.loads((FIXTURES / "z22_base.json").read_text())
    doc["grading"]["degrees"]["g01"] = degree
    path = tmp_path / "z22_base-mutant.json"
    path.write_text(json.dumps(doc))
    message = f"error: degree {tuple(degree)} is outside the group of orders (2, 2)\n"
    built = tmp_path / "built.json"
    assert cli.main(["construct", "twist", str(path), "-o", str(built)]) == 2
    assert capsys.readouterr().err == message
    assert not built.exists()
    assert cli.main(["check", str(path), "--suite", "all", "--q", "from-cocycle"]) == 2
    assert capsys.readouterr().err == message


def _cocycle_mutant(tmp_path, key: str) -> str:
    doc = json.loads((FIXTURES / "z22_base.json").read_text())
    doc["cocycle"]["table"][key] = "1"
    path = tmp_path / "z22_base-mutant.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "key,named",
    [
        ("0,0,0|0,0", "(0, 0, 0), (0, 0)"),
        ("0,2|0,0", "(0, 2), (0, 0)"),
        ("3,0|1,1", "(3, 0), (1, 1)"),
    ],
)
def test_cocycle_keys_outside_the_group_exit_2(key, named, tmp_path, capsys):
    # each key was accepted, and construct twist wrote it into the output's
    # cocycle section; now the parser refuses the file
    path = _cocycle_mutant(tmp_path, key)
    message = f"error: cocycle key ({named}) is not a pair of group elements\n"
    built = tmp_path / "built.json"
    assert cli.main(["construct", "twist", path, "-o", str(built)]) == 2
    assert capsys.readouterr().err == message
    assert not built.exists()
    assert cli.main(["check", path, "--suite", "all", "--q", "from-cocycle"]) == 2
    assert capsys.readouterr().err == message


def _order_mutant(tmp_path, fixture: str, orders: list, edit=None) -> str:
    doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    doc["grading"] = {**doc.get("grading", {}), "orders": orders}
    if edit is not None:
        edit(doc)
    path = tmp_path / f"{fixture}-mutant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _traced_peak(argvs, capsys) -> tuple[list, int]:
    """The exit codes and stderr of cli.main on each argv, and the peak traced allocation."""
    tracemalloc.start()
    try:
        outcomes = [(cli.main(argv), capsys.readouterr().err) for argv in argvs]
        return outcomes, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "fixture, order", [("z22_twist", 10**9), ("z22_base", 10**30), ("z22_twist", 10**30)]
)
def test_a_huge_group_order_exits_2_without_listing_the_group(fixture, order, tmp_path, capsys):
    # the parser built the set of every group element to check the cocycle
    # keys: 2 * 10^9 elements ran out of memory, and 2 * 10^30 ended in
    # itertools.product's OverflowError.  Under these orders the group
    # algebra's products leave their graded pieces, which the parser refuses
    path = _order_mutant(tmp_path, fixture, [order, 2])
    built = tmp_path / "built.json"
    argvs = [["check", path, "--suite", suite] for suite in ("axioms", "skew", "all")]
    outcomes, peak = _traced_peak(argvs + [["construct", "twist", path, "-o", str(built)]], capsys)
    message = "error: mode product (g10)_-1(g10) leaves the graded piece (2, 0)\n"
    assert outcomes == [(2, message)] * 4
    assert not built.exists()
    assert peak < 4 * 2**20


def test_a_cocycle_table_short_of_a_huge_group_exits_2(tmp_path, capsys):
    # a3 graded trivially by a group of order 10^30 with one cocycle entry:
    # the file is well graded, so check runs, and construct twist refuses the
    # table by its size before it lists the group
    def trivial_grading(doc):
        doc["grading"]["degrees"] = {name: [0] for name in doc["basis"]}
        doc["cocycle"] = {"table": {"0|0": "1"}}

    path = _order_mutant(tmp_path, "a3", [10**30], trivial_grading)
    built = tmp_path / "built.json"
    argvs = [["check", path, "--suite", "all"], ["construct", "twist", path, "-o", str(built)]]
    (check, twist), peak = _traced_peak(argvs, capsys)
    assert check == (0, "")
    assert twist == (2, f"error: the cocycle table has 1 of {10**30}^2 entries\n")
    assert not built.exists()
    assert peak < 4 * 2**20
