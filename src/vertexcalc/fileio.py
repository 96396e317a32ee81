"""The JSON algebra-file format: parsing, validation, and canonical emission.

A file carries the structure table (sparse mode products with rationals as
strings, "p/q" or "p"), and optional sections: a grading, a cocycle table, a
group action, the associative source data, a module, an operator set, and an
R-map descriptor.  Omitted entries are zero; every name must resolve against
the declared basis.  Emission is canonical: keys sorted, entries ordered by
(u, v, n), no floats anywhere, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import AlgebraStructure, ModeIndex
from .construct import (
    AssocAlgebraData,
    CocycleData,
    GradedTag,
    GroupActionData,
    RMap,
    rmap_cross_abelian,
    rmap_from_commutator,
    rmap_identity,
    rmap_tensor_swap,
)
from .errors import OutputError, ParseError, ValidationError
from .linalg import Mat, Support, format_rational
from .modules import ModuleStructure
from .operators import VertexOperator

FORMAT_VERSION = 1
RMAP_KINDS = ("identity", "cocycle-commutator", "tensor-swap", "cross-abelian")


def parse_rational(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ParseError(f"rational values must be strings or integers, got {s!r}")
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from None


def _coords(data: dict, index: dict[str, int], what: str) -> Support:
    """The (k, c) pairs of a sparse {basis name: rational} object, in file order."""
    out = []
    for name, val in data.items():
        if name not in index:
            raise ValidationError(f"{what}: unknown basis name {name!r}")
        out.append((index[name], parse_rational(val)))
    return out


def _sparse_from_coords(img: Support, names: tuple[str, ...]) -> dict:
    return {names[k]: format_rational(c) for k, c in img}


def _mat_from_rows(rows) -> Mat:
    return tuple(tuple(parse_rational(x) for x in row) for row in rows)


def _rows_from_mat(m: Mat) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m]


@dataclass
class AlgebraBundle:
    """A parsed file: the structure plus whatever optional sections it carried."""

    alg: AlgebraStructure
    grading: GradedTag | None = None
    cocycle: CocycleData | None = None
    group: GroupActionData | None = None
    group_base_basis: tuple[str, ...] | None = None
    assoc: AssocAlgebraData | None = None
    module: ModuleStructure | None = None
    operator_names: list[str] | None = None
    operators: list[VertexOperator] | None = None
    rmap_spec: dict | None = None
    name: str = ""

    def resolve_rmap(self) -> RMap | None:
        """Instantiate the R-map named by the file, if any."""
        spec = self.rmap_spec
        if spec is None:
            return None
        kind = spec["kind"]
        if kind == "identity":
            return rmap_identity(self.alg.dim)
        if kind == "cocycle-commutator":
            return rmap_from_commutator(self.alg, self.grading, self.cocycle)
        if kind == "tensor-swap":
            return rmap_tensor_swap(spec["left_dim"], spec["right_dim"])
        return rmap_cross_abelian(len(self.group_base_basis), self.group)


# ---------------------------------------------------------------------------
# parsing


def parse_algebra_data(data: dict, name: str = "") -> AlgebraBundle:
    """Build the bundle from decoded JSON.

    This is the one parse boundary: a missing field, a value of the wrong
    type or an unknown group element in any section ends as a ParseError
    that names the section.
    """
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    section = "basis"
    try:
        if not isinstance(data["basis"], list):
            raise ParseError("basis must be a list of names")
        basis = tuple(str(x) for x in data["basis"])
        vacuum_name = data["vacuum"]
        index = _name_index(basis, "basis")
        if "dim" in data and _json_int(data["dim"]) != len(basis):
            raise ParseError("declared dim disagrees with the basis length")
        if vacuum_name not in basis:
            raise ValidationError(f"vacuum {vacuum_name!r} is not a basis name")

        section = "entries"
        mode_index: ModeIndex = {}
        for entry in data.get("entries", []):
            u, v, n = entry["u"], entry["v"], _json_int(entry["n"])
            result = entry["result"]
            if u not in index or v not in index:
                raise ValidationError(f"entry references unknown basis name: {entry!r}")
            what = f"entry ({u},{v},{n})"
            img = _coords(result, index, what)
            _put_once(mode_index.setdefault((index[u], index[v]), {}), n, img, what)

        section = "variant"
        variant = data.get("variant", "strong")
        if variant not in ("strong", "weak"):
            raise ParseError(f"unknown associativity variant {variant!r}")
        alg = AlgebraStructure(
            basis=basis, vacuum=index[vacuum_name], mode_index=mode_index, assoc_variant=variant
        )
        bundle = AlgebraBundle(alg=alg, name=name or data.get("name", ""))

        if "grading" in data:
            section = "grading"
            g = data["grading"]
            orders = tuple(_json_int(x) for x in g["orders"])
            try:
                degrees = tuple(tuple(_json_int(x) for x in g["degrees"][nm]) for nm in basis)
            except KeyError as exc:
                raise ValidationError(f"grading misses a degree for {exc}") from None
            bundle.grading = GradedTag(orders=orders, degrees=degrees)

        if "cocycle" in data:
            section = "cocycle"
            if bundle.grading is None:
                raise ValidationError("a cocycle table needs a grading section")
            table = {}
            for key, val in data["cocycle"]["table"].items():
                left, right = key.split("|")
                gtup = tuple(int(x) for x in left.split(","))
                htup = tuple(int(x) for x in right.split(","))
                table[(gtup, htup)] = parse_rational(val)
            bundle.cocycle = CocycleData(grading=bundle.grading, table=table)

        if "group" in data:
            section = "group"
            g = data["group"]
            elements = tuple(str(x) for x in g["elements"])
            el_index = {nm: i for i, nm in enumerate(elements)}
            table = {}
            rows = g["table"]
            for i, row in enumerate(rows):
                for j, val in enumerate(row):
                    table[(i, j)] = el_index[val]
            action = {
                el_index[nm]: _mat_from_rows(mat_rows) for nm, mat_rows in g["action"].items()
            }
            bundle.group = GroupActionData(elements=elements, table=table, action=action)
            if "base_basis" in g:
                bundle.group_base_basis = tuple(str(x) for x in g["base_basis"])

        if "assoc" in data:
            section = "assoc"
            a = data["assoc"]
            a_basis = tuple(str(x) for x in a["basis"])
            a_index = _name_index(a_basis, "assoc basis")
            table = {}
            for i, row in enumerate(a["table"]):
                for j, cell in enumerate(row):
                    table[(i, j)] = dict(_coords(cell, a_index, f"assoc ({i},{j})"))
            bundle.assoc = AssocAlgebraData(
                basis=a_basis,
                table=table,
                identity=a_basis.index(a["identity"]),
                derivation=_mat_from_rows(a["derivation"]),
            )

        if "module" in data:
            section = "module"
            m = data["module"]
            w_basis = tuple(str(x) for x in m["basis"])
            w_index = _name_index(w_basis, "module basis")
            action: ModeIndex = {}
            for entry in m.get("entries", []):
                v, w, n = entry["v"], entry["w"], _json_int(entry["n"])
                if v not in index or w not in w_index:
                    raise ValidationError(f"module entry references unknown name: {entry!r}")
                what = f"module entry ({v},{w},{n})"
                img = _coords(entry["result"], w_index, what)
                _put_once(action.setdefault((index[v], w_index[w]), {}), n, img, what)
            bundle.module = ModuleStructure(basis=w_basis, mode_index=action)

        if "operators" in data:
            section = "operators"
            o = data["operators"]
            if "from_basis" in o:
                bundle.operator_names = [str(x) for x in o["from_basis"]]
                for nm in bundle.operator_names:
                    if nm not in index:
                        raise ValidationError(f"operators.from_basis names unknown {nm!r}")
            else:
                space = tuple(str(x) for x in o["space"])
                ops = []
                for spec in o["ops"]:
                    modes = {int(n): _mat_from_rows(rows) for n, rows in spec["modes"].items()}
                    for m_ in modes.values():
                        if len(m_) != len(space) or any(len(r) != len(space) for r in m_):
                            raise ValidationError("operator matrix shape mismatch")
                    ops.append(
                        VertexOperator(len(space), modes, name=str(spec.get("name", "")))
                    )
                bundle.operators = ops

        if "rmap" in data:
            section = "rmap"
            bundle.rmap_spec = _rmap_spec(data["rmap"], bundle)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {section!r} section: {exc!r}") from None
    if bundle.group is not None:
        # the group acts on its base_basis, or else on the file's own basis
        bundle.group.validate_group(len(bundle.group_base_basis or basis))
    return bundle


def _json_int(x) -> int:
    """x itself when it is a JSON integer; a float, a boolean or a string is a TypeError.

    int() would truncate 3.9 to 3 and read true as 1, so it is not used here.
    """
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _name_index(names: tuple[str, ...], what: str) -> dict[str, int]:
    """{name: position}, refusing a name that occurs twice."""
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise ParseError(f"duplicate {what} names")
    return index


def _put_once(modes: dict, n: int, img: Support, what: str) -> None:
    """modes[n] = img, refusing a second entry for the same key."""
    if n in modes:
        raise ValidationError(f"duplicate {what}")
    modes[n] = img


def _rmap_spec(spec, bundle: AlgebraBundle) -> dict:
    """The rmap section after its checks: an object with a known kind.

    tensor-swap needs two factor dimensions that are JSON integers of at
    least 1, not booleans, whose product is the dimension.  cocycle-commutator
    needs the grading and cocycle sections, and cross-abelian the group
    section with its base_basis, so resolve_rmap finds what it reads.
    """
    if not isinstance(spec, dict):
        raise ParseError("the rmap section must be an object")
    kind = spec.get("kind")
    if kind not in RMAP_KINDS:
        raise ValidationError(f"unknown R-map kind {kind!r}")
    if kind == "tensor-swap":
        dims = [spec.get("left_dim"), spec.get("right_dim")]
        if not all(type(d) is int and d >= 1 for d in dims):
            raise ParseError(f"tensor-swap factor dimensions must be integers >= 1, got {dims}")
        if dims[0] * dims[1] != bundle.alg.dim:
            raise ValidationError("tensor-swap factor dimensions do not multiply up")
    if kind == "cocycle-commutator" and (bundle.grading is None or bundle.cocycle is None):
        raise ValidationError("cocycle-commutator R-map needs grading + cocycle")
    if kind == "cross-abelian" and bundle.group_base_basis is None:
        raise ValidationError("cross-abelian R-map needs the group section with base_basis")
    return dict(spec)


def read_json(path: str | Path):
    """Decoded JSON from a file; an unreadable or invalid file is a ParseError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def parse_algebra_file(path: str | Path) -> AlgebraBundle:
    return parse_algebra_data(read_json(path), name=Path(path).stem)


# ---------------------------------------------------------------------------
# emission


def algebra_to_data(alg: AlgebraStructure, sections: dict | None = None) -> dict:
    entries = []
    for (i, j), modes in sorted(alg.mode_index.items()):
        for n, img in sorted(modes.items()):
            entries.append(
                {
                    "u": alg.basis[i],
                    "v": alg.basis[j],
                    "n": n,
                    "result": _sparse_from_coords(img, alg.basis),
                }
            )
    data = {
        "format_version": FORMAT_VERSION,
        "basis": list(alg.basis),
        "dim": alg.dim,
        "vacuum": alg.basis[alg.vacuum],
        "variant": alg.assoc_variant,
        "entries": entries,
    }
    data.update(sections or {})
    return data


def grading_section(grading: GradedTag, basis: tuple[str, ...]) -> dict:
    return {
        "orders": list(grading.orders),
        "degrees": {nm: list(deg) for nm, deg in zip(basis, grading.degrees)},
    }


def cocycle_section(cocycle: CocycleData) -> dict:
    table = {}
    for (g, h), val in sorted(cocycle.table.items()):
        key = ",".join(str(x) for x in g) + "|" + ",".join(str(x) for x in h)
        table[key] = format_rational(val)
    return {"table": table}


def group_section(act: GroupActionData, base_basis: tuple[str, ...]) -> dict:
    n = len(act.elements)
    return {
        "elements": list(act.elements),
        "table": [[act.elements[act.table[(i, j)]] for j in range(n)] for i in range(n)],
        "action": {act.elements[g]: _rows_from_mat(m) for g, m in sorted(act.action.items())},
        "base_basis": list(base_basis),
    }


def module_section(mod: ModuleStructure, alg: AlgebraStructure) -> dict:
    entries = []
    for (i, j), modes in sorted(mod.mode_index.items()):
        for n, img in sorted(modes.items()):
            entries.append(
                {
                    "v": alg.basis[i],
                    "w": mod.basis[j],
                    "n": n,
                    "result": _sparse_from_coords(img, mod.basis),
                }
            )
    return {"basis": list(mod.basis), "entries": entries}


def operators_section(ops: list[VertexOperator], space: tuple[str, ...]) -> dict:
    out = []
    for op in ops:
        out.append(
            {
                "name": op.name,
                "modes": {str(n): _rows_from_mat(m) for n, m in sorted(op.modes.items())},
            }
        )
    return {"space": list(space), "ops": out}


def canonical_json(data) -> bytes:
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_bytes(path: str | Path, payload: bytes) -> None:
    """Write payload to a file; a failed write is an OutputError."""
    path = Path(path)
    try:
        path.write_bytes(payload)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_algebra_file(path: str | Path, data: dict) -> None:
    write_bytes(path, (json.dumps(data, sort_keys=True, indent=1) + "\n").encode())
