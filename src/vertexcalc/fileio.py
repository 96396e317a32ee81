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
import re
import sys
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
    validate_grading,
)
from .errors import OutputError, ParseError, ValidationError
from .linalg import Support, format_rational, integral
from .modules import ModuleStructure
from .operators import Rows, VertexOperator

FORMAT_VERSION = 1
RMAP_KINDS = ("identity", "cocycle-commutator", "tensor-swap", "cross-abelian")
# the exponent of a decimal rational string, as Fraction reads it (and a few strings it refuses)
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")
_DIGITS = re.compile(r"[\d_]+")


def _quoted(text: str) -> str:
    """text as its repr, or its first 40 characters and its length when it is longer."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _past_limit(text: str, limit: int) -> bool:
    """Whether text has a run of over limit digits, or an exponent past limit by over len(text).

    int() refuses the first, and the second builds a power of ten past the limit.
    """
    if any(len(run.replace("_", "")) > limit for run in _DIGITS.findall(text)):
        return True
    exp = _EXPONENT.search(text)
    return exp is not None and abs(int(exp[1])) > limit + len(text)


def parse_rational(s) -> int | Fraction:
    """s as an int when int() reads it, else as Fraction(str(s)); any other value is a ParseError.

    So is a numerator or denominator with more digits than sys.get_int_max_str_digits(): an
    exponent past it by more than len(s) is refused before Fraction builds its power of ten.
    The error quotes at most 40 characters of s, with its length, and names the type of a
    value that is not a string or an integer.
    """
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ParseError(f"rational values must be strings or integers, got {type(s).__name__}")
    try:
        return int(s)  # Fraction reads every integer string int() does, with the same value
    except ValueError:
        pass
    text, limit = str(s), sys.get_int_max_str_digits()
    try:
        value = None if limit and _past_limit(text, limit) else Fraction(text)
    except ValueError:
        raise ParseError(f"bad rational {_quoted(text)}: not a rational number") from None
    except ZeroDivisionError:
        raise ParseError(f"bad rational {_quoted(text)}: zero denominator") from None
    try:
        str(value)  # a numerator or denominator past the limit is refused here, not when printed
    except ValueError:
        value = None
    if value is None:
        raise ParseError(f"bad rational {_quoted(text)}: more than {limit} digits")
    return value


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


def _sparse_rows(rows, dim: int, refusal: str) -> Rows:
    """The nonzero-only rows of a file's dense dim x dim matrix; another shape is refused.

    The refusal is a ValidationError with the given message.  The nonzero
    entries alone would not show a matrix padded with a zero row or column.
    """
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValidationError(refusal)
    if any(not isinstance(row, list) or len(row) != dim for row in rows):
        raise ValidationError(refusal)
    out: Rows = {}
    for r, row in enumerate(rows):
        if nz := {c: x for c, s in enumerate(row) if (x := integral(parse_rational(s)))}:
            out[r] = nz
    return out


def _sparse_columns(rows, dim: int, refusal: str) -> list[Support]:
    """The dense matrix read by _sparse_rows, as the nonzero (r, c) of each column."""
    cols: list[Support] = [[] for _ in range(dim)]
    for r, row in _sparse_rows(rows, dim, refusal).items():
        for c, x in row.items():
            cols[c].append((r, x))
    return cols


def _dense_rows(dim: int, entries) -> list[list[str]]:
    """The dim x dim matrix of the given nonzero (r, c, x) entries, as rows of rational strings."""
    rows = [["0"] * dim for _ in range(dim)]
    for r, c, x in entries:
        rows[r][c] = format_rational(x)
    return rows


def _key_int(key: str) -> int:
    """The integer a key spells canonically; int() would read "1_0" as 10 and "-01" as -1."""
    n = int(key)
    if str(n) != key:
        raise ValueError(f"non-canonical integer key {key!r}")
    return n


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
        mode_index = _read_table(data.get("entries", []), ("u", "v"), index, index, "entry")

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
            validate_grading(alg, bundle.grading)

        if "cocycle" in data:
            section = "cocycle"
            if bundle.grading is None:
                raise ValidationError("a cocycle table needs a grading section")
            table = {}
            for key, val in data["cocycle"]["table"].items():
                left, right = key.split("|")
                gtup = tuple(_key_int(x) for x in left.split(","))
                htup = tuple(_key_int(x) for x in right.split(","))
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
            if "base_basis" in g:
                bundle.group_base_basis = tuple(str(x) for x in g["base_basis"])
            # the group acts on its base_basis, or else on the file's own basis
            base_dim = len(bundle.group_base_basis or basis)
            action = {
                el_index[nm]: _sparse_columns(
                    m, base_dim, f"the action matrix of {nm} is not {base_dim}x{base_dim}"
                )
                for nm, m in g["action"].items()
            }
            bundle.group = GroupActionData(elements=elements, table=table, action=action)

        if "assoc" in data:
            section = "assoc"
            a = data["assoc"]
            a_basis = tuple(str(x) for x in a["basis"])
            a_index = _name_index(a_basis, "assoc basis")
            table = {}
            for i, row in enumerate(a["table"]):
                for j, cell in enumerate(row):
                    table[(i, j)] = dict(_coords(cell, a_index, f"assoc ({i},{j})"))
            dim = len(a_basis)
            bundle.assoc = AssocAlgebraData(
                basis=a_basis,
                table=table,
                identity=a_basis.index(a["identity"]),
                derivation=_sparse_columns(
                    a["derivation"], dim, f"the derivation is not {dim}x{dim}"
                ),
            )

        if "module" in data:
            section = "module"
            m = data["module"]
            w_basis = tuple(str(x) for x in m["basis"])
            w_index = _name_index(w_basis, "module basis")
            action = _read_table(m.get("entries", []), ("v", "w"), index, w_index, "module entry")
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
                dim = len(_name_index(tuple(str(x) for x in o["space"]), "operators space"))
                ops = []
                for spec in o["ops"]:
                    modes = {}
                    for key, rows in spec["modes"].items():
                        n = _key_int(key)
                        if m := _sparse_rows(rows, dim, "operator matrix shape mismatch"):
                            modes[n] = m
                    ops.append(VertexOperator(dim, modes, str(spec.get("name", ""))))
                bundle.operators = ops

        if "rmap" in data:
            section = "rmap"
            bundle.rmap_spec = _rmap_spec(data["rmap"], bundle)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {section!r} section: {exc!r}") from None
    if bundle.group is not None:
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


def _read_table(entries, keys: tuple[str, str], acting: dict, target: dict, what: str) -> ModeIndex:
    """The mode index of a file's mode-table entries {keys[0], keys[1], "n", "result"}.

    keys name the acting and the target basis vector; an unknown name or a
    second entry for the same (acting, target, n) is a ValidationError.
    """
    a, b = keys
    table: ModeIndex = {}
    for entry in entries:
        x, y, n, result = entry[a], entry[b], _json_int(entry["n"]), entry["result"]
        if x not in acting or y not in target:
            raise ValidationError(f"{what} references unknown basis name: {entry!r}")
        where = f"{what} ({x},{y},{n})"
        img = _coords(result, target, where)
        modes = table.setdefault((acting[x], target[y]), {})
        if n in modes:
            raise ValidationError(f"duplicate {where}")
        modes[n] = img
    return table


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
    """Decoded JSON from a file; a file that cannot be read, decoded or parsed is a ParseError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError:  # json.loads converts an integer literal past the digit limit with int()
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{path}: an integer literal has more than {limit} digits") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None


def parse_algebra_file(path: str | Path) -> AlgebraBundle:
    return parse_algebra_data(read_json(path), name=Path(path).stem)


# ---------------------------------------------------------------------------
# emission


def _table_entries(index: ModeIndex, keys: tuple[str, str], acting: tuple, target: tuple) -> list:
    """The file entries of a mode index in (acting, target, n) order, as _read_table reads them."""
    a, b = keys
    return [
        {a: acting[i], b: target[j], "n": n, "result": _sparse_from_coords(img, target)}
        for (i, j), modes in sorted(index.items())
        for n, img in sorted(modes.items())
    ]


def algebra_to_data(alg: AlgebraStructure, sections: dict | None = None) -> dict:
    data = {
        "format_version": FORMAT_VERSION,
        "basis": list(alg.basis),
        "dim": alg.dim,
        "vacuum": alg.basis[alg.vacuum],
        "variant": alg.assoc_variant,
        "entries": _table_entries(alg.mode_index, ("u", "v"), alg.basis, alg.basis),
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
        "action": {
            act.elements[g]: _dense_rows(
                len(cols), ((r, c, x) for c, col in enumerate(cols) for r, x in col)
            )
            for g, cols in sorted(act.action.items())
        },
        "base_basis": list(base_basis),
    }


def assoc_section(data: AssocAlgebraData) -> dict:
    dim, names = data.dim, data.basis
    return {
        "basis": list(names),
        "identity": names[data.identity],
        "table": [
            [_sparse_from_coords(data.table.get((i, j), {}).items(), names) for j in range(dim)]
            for i in range(dim)
        ],
        "derivation": _dense_rows(
            dim, ((r, c, x) for c, col in enumerate(data.derivation) for r, x in col)
        ),
    }


def module_section(mod: ModuleStructure, alg: AlgebraStructure) -> dict:
    entries = _table_entries(mod.mode_index, ("v", "w"), alg.basis, mod.basis)
    return {"basis": list(mod.basis), "entries": entries}


def operators_section(ops: list[VertexOperator], space: tuple[str, ...]) -> dict:
    out = []
    for op in ops:
        modes = {}
        for n, m in sorted(op.rows.items()):
            entries = ((r, c, x) for r, row in m.items() for c, x in row.items())
            modes[str(n)] = _dense_rows(op.dim, entries)
        out.append({"name": op.name, "modes": modes})
    return {"space": list(space), "ops": out}


def canonical_json(data) -> bytes:
    """data as sorted-key compact JSON; data is a tree built for emission, so no cycle check."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), check_circular=False)
    return (text + "\n").encode()


def write_bytes(path: str | Path, payload: bytes) -> None:
    """Write payload to a file; a failed write is an OutputError."""
    path = Path(path)
    try:
        path.write_bytes(payload)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_algebra_file(path: str | Path, data: dict) -> None:
    write_bytes(path, (json.dumps(data, sort_keys=True, indent=1) + "\n").encode())
