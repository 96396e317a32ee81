"""File format: parsing, validation errors, canonical emission, round-trips."""

import json
from pathlib import Path

import pytest

from vertexcalc.cli import main
from vertexcalc.errors import ParseError, ValidationError
from vertexcalc.fileio import (
    algebra_to_data,
    canonical_json,
    format_rational,
    module_section,
    parse_algebra_data,
    parse_algebra_file,
    parse_rational,
    write_algebra_file,
)
from vertexcalc.fixtures import (
    all_fixture_builders,
    cross_a2_z2,
    klein_twist,
    truncated_poly_3,
)
from vertexcalc.modules import adjoint_module

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_parse_rational_values():
    from fractions import Fraction

    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    assert format_rational(Fraction(-7, 3)) == "-7/3"
    assert format_rational(Fraction(4)) == "4"


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_bool_is_not_a_rational():
    with pytest.raises(ParseError):
        parse_rational(True)


def test_shipped_fixtures_parse_and_match_builders():
    for name, build in all_fixture_builders().items():
        bundle = parse_algebra_file(FIXTURES / f"{name}.json")
        alg = build()
        assert bundle.alg.basis == alg.basis
        assert bundle.alg.vacuum == alg.vacuum
        assert bundle.alg.y_data == alg.y_data


def test_a3_file_has_dim_and_vacuum():
    bundle = parse_algebra_file(FIXTURES / "a3.json")
    assert bundle.alg.dim == 3
    assert bundle.alg.basis[bundle.alg.vacuum] == "one"
    assert bundle.operator_names == ["t"]


def test_unknown_basis_name_is_a_validation_error():
    data = algebra_to_data(truncated_poly_3())
    data["entries"][0]["result"] = {"nope": "1"}
    with pytest.raises(ValidationError):
        parse_algebra_data(data)


def test_unknown_vacuum_rejected():
    data = algebra_to_data(truncated_poly_3())
    data["vacuum"] = "zero"
    with pytest.raises(ValidationError):
        parse_algebra_data(data)


def test_wrong_version_rejected():
    data = algebra_to_data(truncated_poly_3())
    data["format_version"] = 99
    with pytest.raises(ParseError):
        parse_algebra_data(data)


def test_dim_mismatch_rejected():
    data = algebra_to_data(truncated_poly_3())
    data["dim"] = 7
    with pytest.raises(ParseError):
        parse_algebra_data(data)


def _drop_module_v(data):
    a3 = truncated_poly_3()
    data["module"] = module_section(adjoint_module(a3), a3)
    del data["module"]["entries"][0]["v"]


def _unknown_group_element(data):
    data["group"]["table"][0][1] = "h"


MALFORMED = {
    "entries-not-a-list": ("a3", lambda d: d.update(entries=5)),
    "grading-without-orders": ("z22_base", lambda d: d["grading"].pop("orders")),
    "module-entry-without-v": ("a3", _drop_module_v),
    "group-table-unknown-element": ("cross_a2z2", _unknown_group_element),
    "operator-without-modes": (
        "a3",
        lambda d: d.update(operators={"space": ["w1"], "ops": [{"name": "a"}]}),
    ),
    "dim-not-an-integer": ("a3", lambda d: d.update(dim="x")),
    "basis-a-string": ("a3", lambda d: d.update(basis="abc", vacuum="a", entries=[])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_sections_are_parse_errors(case, tmp_path):
    fixture, mutate = MALFORMED[case]
    data = json.loads((FIXTURES / f"{fixture}.json").read_text())
    mutate(data)
    with pytest.raises(ParseError):
        parse_algebra_data(data)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--suite", "axioms"]) == 2


def test_emit_parse_round_trip(tmp_path):
    alg = truncated_poly_3()
    path = tmp_path / "a3.json"
    write_algebra_file(path, algebra_to_data(alg))
    back = parse_algebra_file(path)
    assert back.alg.basis == alg.basis
    assert back.alg.y_data == alg.y_data


def test_canonical_json_is_stable():
    data = algebra_to_data(truncated_poly_3())
    assert canonical_json(data) == canonical_json(json.loads(canonical_json(data)))


def test_twist_bundle_resolves_rmap():
    bundle = parse_algebra_file(FIXTURES / "z22_twist.json")
    rmap = bundle.resolve_rmap()
    assert rmap is not None
    tw, grading, cocycle = klein_twist()
    i10, i01 = tw.basis_index("g10"), tw.basis_index("g01")
    # the scalar on (g01 tensor g10 tensor anything) is c(deg g10, deg g01) = -1
    terms = rmap.image((i01, i10, 0))
    assert terms == [(parse_rational("-1"), (i01, i10, 0))]


def test_cross_bundle_resolves_rmap():
    bundle = parse_algebra_file(FIXTURES / "cross_a2z2.json")
    rmap = bundle.resolve_rmap()
    assert rmap is not None
    cross, base, act = cross_a2_z2()
    # R(t|g tensor t|e tensor w) = g(t)|g tensor t|e tensor w = -(t|g) tensor ...
    tg = cross.basis_index("t|g")
    te = cross.basis_index("t|e")
    terms = rmap.image((tg, te, 0))
    assert terms == [(parse_rational("-1"), (tg, te, 0))]


def test_module_section_round_trip(tmp_path):
    from vertexcalc.fileio import module_section
    from vertexcalc.modules import adjoint_module

    alg = truncated_poly_3()
    mod = adjoint_module(alg)
    data = algebra_to_data(alg, {"module": module_section(mod, alg)})
    path = tmp_path / "with_module.json"
    write_algebra_file(path, data)
    back = parse_algebra_file(path)
    assert back.module is not None
    assert back.module.basis == mod.basis
    assert back.module.action == mod.action


def test_operator_section_round_trip(tmp_path):
    from vertexcalc.fileio import operators_section
    from vertexcalc.operators import operator_from_structure

    alg = truncated_poly_3()
    ops = [operator_from_structure(alg, 1)]
    data = algebra_to_data(alg, {"operators": operators_section(ops, alg.basis)})
    path = tmp_path / "with_ops.json"
    write_algebra_file(path, data)
    back = parse_algebra_file(path)
    assert back.operators is not None
    assert back.operators[0].modes == ops[0].modes
