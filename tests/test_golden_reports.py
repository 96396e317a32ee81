"""Byte-identity gate: the `--suite all` reports of every shipped fixture.

`golden_reports.json` pins the sha256 of each report in both formats:
under "json" the digest of `emit_report(run_suite(parse_algebra_file(path),
"all"), "json")`, under "text" that of the same report emitted as text.  A
refactor must leave every digest unchanged; a change that alters a report on
purpose updates the digest and says why.

The JSON digests were re-pinned when the search bound was removed: each is
the earlier report with `options["bound"]` (always null) deleted and the rest
re-emitted by `fileio.canonical_json`, so every record is byte-identical to
the one the order scans produced.  The text digests were pinned from the same
code before the change and did not move.

They were re-pinned again when the Jacobi-type checks became exact term
comparisons and `--window` went.  The earlier reports were saved first, and
a script checked the new ones against them: `options["window"]` (always
null) is gone from every JSON report; a2_base, a3 and z22_base are otherwise
byte-identical in both formats; cross_a2z2, m2a3, ut2 and z22_twist differ
only in the witness strings of failing `jacobi/<pair>` classification
records, which now name the failing half ("commutation" or "associativity")
and its first differing exponent, with the same number of witnesses.  Every
verdict and every `exact` flag is unchanged.

Under "q" the same two digests are pinned for `--q` 0, -1 and 1/3 on every
fixture, and for `--q from-cocycle` on the fixtures that declare a grading
and a cocycle: q = 1 never reaches the scaling of the reversed product, and
q = 0 drops it.  They were pinned before the term comparisons moved onto
sparse vectors.

Under "matrix_algebra(a3,3)" the two digests of the axioms, locality, skew,
jacobi and modules reports on the dim-27 structure built in process, as the
benchmark's scale workload builds it, are pinned for q = 1 and 1/3, one report
per suite.  They were pinned before the sparse kernel moved to integer
coefficients.  The q = -1 reports, under which q(u,v) q(v,u) = 1 and the skew
suite decides each unordered pair once, were pinned later, from the code
before that reuse, and with them their verdict digests.

Under "verdicts" one more digest is pinned for every report above: the
sha256 of its JSON report with each record's `witnesses` replaced by their
number, so it covers every other field (ids, identities, kinds, verdicts,
`exact` flags, orders, notes, summary, options and embedded data).  They
were pinned before witnesses became sparse, and that change left them
unmoved.

The byte digests were re-pinned when witnesses became sparse vectors
printed by basis name ("1 e12 != 0" in place of the tuples of
`Fraction(...)` reprs).  The earlier reports were saved first, and a
script checked the new ones against them: in all 40 pinned reports (both
formats) every record is unchanged outside its witnesses, the text reports
are unchanged outside their witness lines, and each of the 3,821 witnesses
has the same basis tuple and exponent as before, with each side parsing to
the nonzero entries of the earlier dense tuple, named by basis.

The JSON and "verdicts" digests were re-pinned again when `dim_cap` became
the closure's one cap and `--depth-cap` and `--n-range` went.  The earlier
reports were saved first, and a script checked the new ones against them:
each of the 40 JSON reports is the earlier one with `options["depth_cap"]`
(always 8) and `options["n_range"]` (always null) deleted, byte for byte,
and each of the 40 text reports is byte-identical, so no text digest moved.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from vertexcalc.construct import matrix_algebra
from vertexcalc.fileio import AlgebraBundle, canonical_json, parse_algebra_file
from vertexcalc.suite import SuiteOptions, emit_report, run_suite

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden_reports.json").read_text())


@functools.cache
def _report(name: str, q: str):
    # one run per fixture and q serves both formats; emit_report only reads it
    bundle = parse_algebra_file(ROOT / "fixtures" / f"{name}.json")
    return run_suite(bundle, "all", SuiteOptions(q=q))


def _digest(name: str, format: str, q: str = "1") -> str:
    return hashlib.sha256(emit_report(_report(name, q), format)).hexdigest()


def test_every_fixture_is_pinned():
    fixtures = sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))
    assert sorted(GOLDEN["json"]) == fixtures
    assert sorted(GOLDEN["text"]) == fixtures


@pytest.mark.parametrize("name", sorted(GOLDEN["json"]))
def test_all_suite_json_report_is_byte_identical(name):
    assert _digest(name, "json") == GOLDEN["json"][name]


@pytest.mark.parametrize("name", sorted(GOLDEN["text"]))
def test_all_suite_text_report_is_byte_identical(name):
    assert _digest(name, "text") == GOLDEN["text"][name]


def test_every_fixture_is_pinned_under_each_q():
    paths = sorted((ROOT / "fixtures").glob("*.json"))
    fixtures = [p.stem for p in paths]
    graded = [p.stem for p in paths if {"grading", "cocycle"} <= json.loads(p.read_text()).keys()]
    assert sorted(GOLDEN["q"]) == ["-1", "0", "1/3", "from-cocycle"]
    for q, formats in GOLDEN["q"].items():
        expect = graded if q == "from-cocycle" else fixtures
        assert sorted(formats["json"]) == sorted(formats["text"]) == expect


@pytest.mark.parametrize(
    "q,name,format",
    [
        (q, name, format)
        for q, formats in sorted(GOLDEN["q"].items())
        for format, digests in sorted(formats.items())
        for name in sorted(digests)
    ],
)
def test_all_suite_report_under_q_is_byte_identical(q, name, format):
    assert _digest(name, format, q) == GOLDEN["q"][q][format][name]


BUILT = GOLDEN["matrix_algebra(a3,3)"]


@functools.cache
def _m3a3():
    return matrix_algebra(parse_algebra_file(ROOT / "fixtures" / "a3.json").alg, 3)


def test_the_built_structure_is_pinned_for_each_suite():
    suites = ["axioms", "jacobi", "locality", "modules", "skew"]
    assert sorted(BUILT) == ["-1", "1", "1/3"]
    assert all(sorted(by_suite) == suites for by_suite in BUILT.values())


@functools.cache
def _built_report(q: str, suite: str):
    return run_suite(AlgebraBundle(alg=_m3a3(), name="m3a3"), suite, SuiteOptions(q=q))


@pytest.mark.parametrize(
    "q,suite", [(q, suite) for q, by_suite in sorted(BUILT.items()) for suite in sorted(by_suite)]
)
def test_built_structure_reports_are_byte_identical(q, suite):
    report = _built_report(q, suite)
    for format, digest in BUILT[q][suite].items():
        assert hashlib.sha256(emit_report(report, format)).hexdigest() == digest, format


VERDICTS = GOLDEN["verdicts"]


def _verdict_digest(report) -> str:
    """sha256 of the JSON report with each record's witnesses replaced by their count."""
    data = json.loads(emit_report(report, "json"))
    for record in data["records"]:
        record["witnesses"] = len(record["witnesses"])
    return hashlib.sha256(canonical_json(data)).hexdigest()


def test_every_pinned_report_has_a_verdict_digest():
    fixtures = VERDICTS["fixtures"]
    assert sorted(fixtures) == sorted(["1", *GOLDEN["q"]])
    assert sorted(fixtures["1"]) == sorted(GOLDEN["json"])
    for q, formats in GOLDEN["q"].items():
        assert sorted(fixtures[q]) == sorted(formats["json"])
    built = VERDICTS["matrix_algebra(a3,3)"]
    assert {q: sorted(by_suite) for q, by_suite in built.items()} == {
        q: sorted(by_suite) for q, by_suite in BUILT.items()
    }


@pytest.mark.parametrize(
    "q,name",
    [(q, name) for q, digests in sorted(VERDICTS["fixtures"].items()) for name in sorted(digests)],
)
def test_fixture_report_verdicts_are_unchanged(q, name):
    assert _verdict_digest(_report(name, q)) == VERDICTS["fixtures"][q][name]


@pytest.mark.parametrize(
    "q,suite",
    [
        (q, suite)
        for q, digests in sorted(VERDICTS["matrix_algebra(a3,3)"].items())
        for suite in sorted(digests)
    ],
)
def test_built_structure_verdicts_are_unchanged(q, suite):
    assert _verdict_digest(_built_report(q, suite)) == VERDICTS["matrix_algebra(a3,3)"][q][suite]
