"""File format: parsing, validation errors, canonical emission, round-trips."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_tables import table_of

from vertexcalc.cli import main
from vertexcalc.errors import (
    GradingInvalid,
    MalformedStructure,
    ParseError,
    ValidationError,
    VertexCalcError,
)
from vertexcalc.fileio import (
    algebra_to_data,
    canonical_json,
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
from vertexcalc.linalg import format_rational
from vertexcalc.modules import adjoint_module
from vertexcalc.suite import run_suite

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
        assert table_of(bundle.alg) == table_of(alg)


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


def _with_module(mutate):
    """Give a3 its adjoint module section, then apply mutate to that section."""

    def apply(data):
        a3 = truncated_poly_3()
        data["module"] = module_section(adjoint_module(a3), a3)
        mutate(data["module"])

    return apply


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
    "basis-duplicate": ("a3", lambda d: d.update(basis=["one", "t", "t"], entries=[])),
    # a repeated name read its coordinates from one position and its target
    # from another, and a repeated assoc name wrote past the end of its vector
    "module-basis-duplicate": ("a3", _with_module(lambda m: m.update(basis=["one", "t", "t"]))),
    "assoc-basis-duplicate": ("a3", lambda d: d["assoc"].update(basis=["one", "t", "t"])),
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


# the file forms of the structure constructor's refusals: an acting or target
# index, or an image coordinate, that names no basis vector, and an empty basis
# (the algebra's fails first on its vacuum, which must be a basis name)
MALFORMED_STRUCTURES = {
    "entry-acting-name-unknown": lambda d: d["entries"][0].update(u="x"),
    "entry-target-name-unknown": lambda d: d["entries"][0].update(v="x"),
    "entry-coordinate-unknown": lambda d: d["entries"][0]["result"].update(x="1"),
    "empty-basis": lambda d: [d.update(basis=[], entries=[]), d.pop("dim")],
    "module-acting-name-unknown": _with_module(lambda m: m["entries"][0].update(v="x")),
    "module-target-name-unknown": _with_module(lambda m: m["entries"][0].update(w="x")),
    "module-coordinate-unknown": _with_module(lambda m: m["entries"][0]["result"].update(x="1")),
    "module-empty-basis": _with_module(lambda m: m.update(basis=[], entries=[])),
    # an assoc table cell is sparse: a row or a column past the basis has no product
    "assoc-row-beyond-basis": lambda d: d["assoc"]["table"].append([{}, {}, {}]),
    "assoc-column-beyond-basis": lambda d: d["assoc"]["table"][0].append({"t": "1"}),
    "assoc-coordinate-unknown": lambda d: d["assoc"]["table"][0][0].update(x="1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STRUCTURES))
def test_structure_defects_in_a_file_exit_2(case, tmp_path, capsys):
    data = json.loads((FIXTURES / "a3.json").read_text())
    MALFORMED_STRUCTURES[case](data)
    with pytest.raises((ValidationError, MalformedStructure)):
        parse_algebra_data(data)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--suite", "axioms"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


MALFORMED_GRADINGS = {
    "order-zero": ("z22_base", lambda d: d["grading"].update(orders=[0, 2])),
    "no-orders": ("z22_base", lambda d: d["grading"].update(orders=[])),
    "short-degree": ("z22_twist", lambda d: d["grading"]["degrees"].update(g00=[1])),
    "degree-beyond-order": ("z22_base", lambda d: d["grading"]["degrees"].update(g01=[0, 3])),
    "negative-degree": ("z22_base", lambda d: d["grading"]["degrees"].update(g01=[-1, 0])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRADINGS))
def test_malformed_gradings_are_invalid(case, tmp_path):
    # a group order below 1 used to divide by zero, zip silently truncated
    # degree tuples of the wrong length, and a degree outside range(order)
    # was reduced modulo the order
    fixture, mutate = MALFORMED_GRADINGS[case]
    data = json.loads((FIXTURES / f"{fixture}.json").read_text())
    mutate(data)
    with pytest.raises(GradingInvalid):
        parse_algebra_data(data)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--suite", "axioms"]) == 2


def _swap(**dims):
    return lambda d: d.update(rmap={"kind": "tensor-swap", **dims})


MALFORMED_RMAPS = {
    "swap-without-dims": ("m2a3", ParseError, lambda d: d.update(rmap={"kind": "tensor-swap"})),
    "swap-dim-a-string": ("m2a3", ParseError, _swap(left_dim="x", right_dim=4)),
    "swap-negative-dims": ("m2a3", ParseError, _swap(left_dim=-3, right_dim=-4)),
    "swap-dim-a-boolean": ("m2a3", ParseError, _swap(left_dim=True, right_dim=12)),
    "swap-dim-a-float": ("m2a3", ParseError, _swap(left_dim=3.5, right_dim=4)),
    "swap-dims-do-not-multiply-up": ("m2a3", ValidationError, _swap(left_dim=3, right_dim=3)),
    "section-a-list-of-pairs": (
        "m2a3",
        ParseError,
        lambda d: d.update(rmap=[["kind", "tensor-swap"], ["left_dim", 3], ["right_dim", 4]]),
    ),
    "unknown-kind": ("m2a3", ValidationError, lambda d: d.update(rmap={"kind": "swap"})),
    "cross-abelian-without-group": ("cross_a2z2", ValidationError, lambda d: d.pop("group")),
    "cross-abelian-without-base-basis": (
        "cross_a2z2",
        ValidationError,
        lambda d: d["group"].pop("base_basis"),
    ),
    "commutator-without-cocycle": ("z22_twist", ValidationError, lambda d: d.pop("cocycle")),
    "commutator-without-grading-or-cocycle": (
        "z22_twist",
        ValidationError,
        lambda d: [d.pop("grading"), d.pop("cocycle")],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RMAPS))
def test_malformed_rmap_sections_are_refused_at_parse(case, tmp_path):
    # these ended in a KeyError or ValueError traceback (exit code 1) in the
    # jacobi-like suite, or were accepted and ran as a trivial or wrong swap;
    # an R-map missing the sections it reads passed every other suite
    fixture, error, mutate = MALFORMED_RMAPS[case]
    data = json.loads((FIXTURES / f"{fixture}.json").read_text())
    mutate(data)
    with pytest.raises(error):
        parse_algebra_data(data)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--suite", "jacobi-like"]) == 2


def test_rmap_without_its_section_fails_every_suite(tmp_path, capsys):
    # the axioms suite never reads the R-map, and exited 0 on this file
    data = json.loads((FIXTURES / "cross_a2z2.json").read_text())
    del data["group"]
    path = tmp_path / "cross_without_group.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--suite", "axioms"]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "group section" in err and "Traceback" not in err


def _duplicate_entry(data):
    # the same (u, v, n) with another result; the second silently replaced the first
    data["entries"].append({**data["entries"][0], "result": {data["basis"][0]: "2"}})


def _duplicate_module_entry(data):
    alg = parse_algebra_data(data).alg
    data["module"] = module_section(adjoint_module(alg), alg)
    data["module"]["entries"].append(dict(data["module"]["entries"][-1]))


@pytest.mark.parametrize("mutate", [_duplicate_entry, _duplicate_module_entry])
@pytest.mark.parametrize("name", ["a3", "ut2"])
def test_duplicate_entries_are_refused(name, mutate, tmp_path, capsys):
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    mutate(data)
    with pytest.raises(ValidationError, match="duplicate"):
        parse_algebra_data(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--suite", "all"]) == 2
    assert capsys.readouterr().err.startswith("error: duplicate ")


def _with_adjoint_module(data):
    alg = parse_algebra_data(copy.deepcopy(data)).alg
    data["module"] = module_section(adjoint_module(alg), alg)
    return data["module"]


NON_INTEGERS = {
    "dim-3.9": ("ut2", lambda d: d.update(dim=3.9)),
    "dim-3.0": ("ut2", lambda d: d.update(dim=3.0)),
    "dim-string": ("ut2", lambda d: d.update(dim="3")),
    "entry-n-float": ("ut2", lambda d: d["entries"][0].update(n=-1.5)),
    "entry-n-true": ("ut2", lambda d: d["entries"][0].update(n=True)),
    "entry-n-string": ("ut2", lambda d: d["entries"][0].update(n="-1")),
    "module-entry-n-float": ("ut2", lambda d: _with_adjoint_module(d)["entries"][0].update(n=-1.5)),
    "module-entry-n-true": ("ut2", lambda d: _with_adjoint_module(d)["entries"][0].update(n=True)),
    "grading-order-float": ("z22_base", lambda d: d["grading"].update(orders=[2.0, 2])),
    "grading-degree-true": ("z22_base", lambda d: d["grading"]["degrees"].update(g01=[0, True])),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGERS))
def test_integers_must_be_json_integers(case, tmp_path, capsys):
    # int() used to truncate: "n": -1.5 was stored as mode -1, "n": true as
    # mode 1, and "dim": 3.9 passed for a three-vector basis
    fixture, mutate = NON_INTEGERS[case]
    data = json.loads((FIXTURES / f"{fixture}.json").read_text())
    mutate(data)
    with pytest.raises(ParseError, match="expected an integer"):
        parse_algebra_data(data)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--suite", "all"]) == 2
    assert capsys.readouterr().err.startswith("error: malformed ")


SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}
DROP = object()
JUNK = (None, 5, -1, "x", "1/0", [], {}, 1.5, True, 0)


def _paths(node, path=()):
    """Every dict key and list position below node, as a path from it."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_mutated_fixtures_fail_only_as_vertexcalc_errors(tmp_path_factory, data):
    # one dropped key or list element, or one value replaced by junk, in a
    # shipped fixture: parsing and the axioms suite either succeed or raise a
    # VertexCalcError, and the CLI turns that error into exit code 2
    name = data.draw(st.sampled_from(sorted(SHIPPED)))
    doc = copy.deepcopy(SHIPPED[name])
    path = data.draw(st.sampled_from(list(_paths(doc))))
    junk = data.draw(st.sampled_from((DROP,) + JUNK))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if junk is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(junk)
    try:
        run_suite(parse_algebra_data(doc, name=name), "axioms")
    except VertexCalcError:
        target = tmp_path_factory.getbasetemp() / f"{name}.json"
        target.write_text(json.dumps(doc))
        assert main(["check", str(target), "--suite", "axioms"]) == 2


def test_emit_parse_round_trip(tmp_path):
    alg = truncated_poly_3()
    path = tmp_path / "a3.json"
    write_algebra_file(path, algebra_to_data(alg))
    back = parse_algebra_file(path)
    assert back.alg.basis == alg.basis
    assert table_of(back.alg) == table_of(alg)


def test_canonical_json_is_stable():
    data = algebra_to_data(truncated_poly_3())
    assert canonical_json(data) == canonical_json(json.loads(canonical_json(data)))


def test_twist_bundle_resolves_rmap():
    bundle = parse_algebra_file(FIXTURES / "z22_twist.json")
    rmap = bundle.resolve_rmap()
    assert rmap is not None
    tw, grading, cocycle = klein_twist()
    i10, i01 = tw.basis_index("g10"), tw.basis_index("g01")
    # the scalar on g01 tensor g10 is c(deg g10, deg g01) = -1
    terms = rmap.image((i01, i10))
    assert terms == [(parse_rational("-1"), (i01, i10))]


def test_cross_bundle_resolves_rmap():
    bundle = parse_algebra_file(FIXTURES / "cross_a2z2.json")
    rmap = bundle.resolve_rmap()
    assert rmap is not None
    cross, base, act = cross_a2_z2()
    # R(t|g tensor t|e) = g(t)|g tensor t|e = -(t|g tensor t|e)
    tg = cross.basis_index("t|g")
    te = cross.basis_index("t|e")
    terms = rmap.image((tg, te))
    assert terms == [(parse_rational("-1"), (tg, te))]


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
    assert table_of(back.module) == table_of(mod)


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


def test_fixture_generator_reproduces_shipped_fixtures(tmp_path, monkeypatch):
    # tools/gen_fixtures.py rebuilds every shipped fixture from the library
    # builders; the files it writes must equal the shipped ones byte for byte
    path = FIXTURES.parent / "tools" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT", tmp_path)
    gen.main()
    shipped = sorted(p.name for p in FIXTURES.glob("*.json"))
    assert len(shipped) == 7 and sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
