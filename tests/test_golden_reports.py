"""Byte-identity gate: the canonical `--suite all` JSON report of every shipped fixture.

`golden_reports.json` pins the sha256 of each report, that is of
`emit_report(run_suite(parse_algebra_file(path), "all"), "json")`.  A refactor
must leave every digest unchanged; a change that alters a report on purpose
updates the digest and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from vertexcalc.fileio import parse_algebra_file
from vertexcalc.suite import emit_report, run_suite

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden_reports.json").read_text())


def test_every_fixture_is_pinned():
    assert sorted(GOLDEN) == sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_all_suite_json_report_is_byte_identical(name):
    bundle = parse_algebra_file(ROOT / "fixtures" / f"{name}.json")
    payload = emit_report(run_suite(bundle, "all"), "json")
    assert hashlib.sha256(payload).hexdigest() == GOLDEN[name]
