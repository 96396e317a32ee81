#!/usr/bin/env python3
"""Regenerate the shipped fixture files from the library builders."""

from pathlib import Path

from vertexcalc.fileio import (
    algebra_to_data,
    assoc_section,
    cocycle_section,
    grading_section,
    group_section,
    write_algebra_file,
)
from vertexcalc.fixtures import (
    a2_assoc_data,
    a3_assoc_data,
    cross_a2_z2,
    dual_numbers,
    klein_cocycle,
    klein_group_algebra,
    klein_twist,
    matrix_over_a3,
    sign_flip_action,
    truncated_poly_3,
    upper_triangular_2,
    ut2_assoc_data,
)

OUT = Path(__file__).resolve().parent.parent / "fixtures"


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
