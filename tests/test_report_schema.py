"""The report format: the JSON schema, and witnesses as sparse linear combinations.

Every JSON report the command line emits must validate against
`docs/report_schema.json`: `check --suite all` on each shipped fixture, and
one `closure` report.  A witness side prints as its nonzero "c name" terms,
or "0", so no report holds a Python repr of a rational.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from vertexcalc.cli import main
from vertexcalc.report import Witness, combination

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))


def _emit(tmp_path, *args: str) -> dict[str, str]:
    """The text and JSON reports of one command-line run, by format."""
    out = {}
    for format in ("json", "text"):
        path = tmp_path / f"report.{format}"
        assert main([*args, "--format", format, "--out", str(path)]) in (0, 1)
        out[format] = path.read_text()
    return out


RUNS = [(f"check-{p.stem}", ("check", str(p), "--suite", "all")) for p in FIXTURES]
RUNS.append(("closure-a3", ("closure", str(ROOT / "fixtures" / "a3.json"))))


@pytest.mark.parametrize("name,args", RUNS, ids=[name for name, _args in RUNS])
def test_every_emitted_report_validates_and_holds_no_repr(name, args, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((ROOT / "docs" / "report_schema.json").read_text())
    reports = _emit(tmp_path, *args)
    jsonschema.validate(json.loads(reports["json"]), schema)
    for format, text in reports.items():
        assert "Fraction(" not in text, (name, format)


def test_a_witness_prints_its_nonzero_coordinates_by_basis_name():
    basis = ("one", "e11", "e12")
    w = Witness(("e11", "e12", "one"), (0, 0), {2: 1}, {}, basis)
    assert w.describe() == "at (e11,e12,one) exponent (0, 0): 1 e12 != 0"
    w = Witness(("t",), None, {2: Fraction(-1, 3), 0: 2}, {1: Fraction(4, 2)}, basis)
    assert w.describe() == "at (t): 2 one + -1/3 e12 != 2 e11"


def test_a_string_side_prints_as_it_is():
    w = Witness(("faithfulness",), None, "rank-deficient action", "injective")
    assert w.describe() == "at (faithfulness): rank-deficient action != injective"
    assert combination("needs k >= 2", ()) == "needs k >= 2"
    assert combination({}, ()) == "0"
