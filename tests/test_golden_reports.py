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
"""

import hashlib
import json
from pathlib import Path

import pytest

from vertexcalc.fileio import parse_algebra_file
from vertexcalc.suite import emit_report, run_suite

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden_reports.json").read_text())


def _digest(name: str, format: str) -> str:
    bundle = parse_algebra_file(ROOT / "fixtures" / f"{name}.json")
    return hashlib.sha256(emit_report(run_suite(bundle, "all"), format)).hexdigest()


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
