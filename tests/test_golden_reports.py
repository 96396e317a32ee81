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
coefficients.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from vertexcalc.construct import matrix_algebra
from vertexcalc.fileio import AlgebraBundle, parse_algebra_file
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
    assert sorted(BUILT) == ["1", "1/3"]
    assert all(sorted(by_suite) == suites for by_suite in BUILT.values())


@pytest.mark.parametrize(
    "q,suite", [(q, suite) for q, by_suite in sorted(BUILT.items()) for suite in sorted(by_suite)]
)
def test_built_structure_reports_are_byte_identical(q, suite):
    report = run_suite(AlgebraBundle(alg=_m3a3(), name="m3a3"), suite, SuiteOptions(q=q))
    for format, digest in BUILT[q][suite].items():
        assert hashlib.sha256(emit_report(report, format)).hexdigest() == digest, format
