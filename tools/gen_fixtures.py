#!/usr/bin/env python3
"""Regenerate the shipped fixture files from the library builders."""

from pathlib import Path

from vertexcalc.fileio import (
    algebra_to_data,
    cocycle_section,
    grading_section,
    group_section,
    write_algebra_file,
)
from vertexcalc.fixtures import (
    cross_a2_z2,
    dual_numbers,
    klein_cocycle,
    klein_group_algebra,
    klein_twist,
    matrix_over_a3,
    sign_flip_action,
    truncated_poly_3,
    upper_triangular_2,
)
from vertexcalc.construct import AssocAlgebraData
from vertexcalc.linalg import format_rational

OUT = Path(__file__).resolve().parent.parent / "fixtures"


def assoc_section(data: AssocAlgebraData) -> dict:
    dim = data.dim
    table = [
        [
            {data.basis[k]: format_rational(c) for k, c in data.table.get((i, j), {}).items()}
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return {
        "basis": list(data.basis),
        "identity": data.basis[data.identity],
        "table": table,
        "derivation": [[format_rational(x) for x in row] for row in data.derivation],
    }


def a3_assoc_data() -> AssocAlgebraData:
    from fractions import Fraction as F

    # sparse products; the missing cells are zero
    table = {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (0, 2): {2: 1},
        (1, 0): {1: 1},
        (1, 1): {2: 1},
        (2, 0): {2: 1},
    }
    derivation = ((F(0),) * 3, (F(0),) * 3, (F(0), F(1), F(0)))
    return AssocAlgebraData(
        basis=("one", "t", "t2"), table=table, identity=0, derivation=derivation
    )


def ut2_assoc_data() -> AssocAlgebraData:
    from fractions import Fraction as F

    table = {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (0, 2): {2: 1},
        (1, 0): {1: 1},
        (1, 1): {1: 1},
        (1, 2): {2: 1},
        (2, 0): {2: 1},
    }
    zero = tuple((F(0),) * 3 for _ in range(3))
    return AssocAlgebraData(basis=("one", "e11", "e12"), table=table, identity=0, derivation=zero)


def a2_assoc_data() -> AssocAlgebraData:
    from fractions import Fraction as F

    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    zero = ((F(0), F(0)), (F(0), F(0)))
    return AssocAlgebraData(basis=("one", "t"), table=table, identity=0, derivation=zero)


def main() -> None:
    OUT.mkdir(exist_ok=True)

    a3 = truncated_poly_3()
    write_algebra_file(
        OUT / "a3.json",
        algebra_to_data(
            a3,
            {
                "assoc": assoc_section(a3_assoc_data()),
                "operators": {"from_basis": ["t"]},
                "rmap": {"kind": "identity"},
            },
        ),
    )

    ut2 = upper_triangular_2()
    write_algebra_file(
        OUT / "ut2.json",
        algebra_to_data(
            ut2,
            {
                "assoc": assoc_section(ut2_assoc_data()),
                "operators": {"from_basis": ["e11", "e12"]},
            },
        ),
    )

    base, grading = klein_group_algebra()
    cocycle = klein_cocycle(grading)
    write_algebra_file(
        OUT / "z22_base.json",
        algebra_to_data(
            base,
            {
                "grading": grading_section(grading, base.basis),
                "cocycle": cocycle_section(cocycle),
            },
        ),
    )

    tw, grading, cocycle = klein_twist()
    write_algebra_file(
        OUT / "z22_twist.json",
        algebra_to_data(
            tw,
            {
                "grading": grading_section(grading, tw.basis),
                "cocycle": cocycle_section(cocycle),
                "rmap": {"kind": "cocycle-commutator"},
                "operators": {"from_basis": ["g10", "g01"]},
            },
        ),
    )

    m2a3 = matrix_over_a3()
    write_algebra_file(
        OUT / "m2a3.json",
        algebra_to_data(m2a3, {"rmap": {"kind": "tensor-swap", "left_dim": 3, "right_dim": 4}}),
    )

    a2 = dual_numbers()
    act = sign_flip_action()
    write_algebra_file(
        OUT / "a2_base.json",
        algebra_to_data(
            a2,
            {
                "assoc": assoc_section(a2_assoc_data()),
                "group": group_section(act, a2.basis),
            },
        ),
    )

    cross, a2_, act_ = cross_a2_z2()
    write_algebra_file(
        OUT / "cross_a2z2.json",
        algebra_to_data(
            cross,
            {
                "group": group_section(act_, a2_.basis),
                "rmap": {"kind": "cross-abelian"},
            },
        ),
    )
    print("wrote fixtures to", OUT)


if __name__ == "__main__":
    main()
