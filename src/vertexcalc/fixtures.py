"""Canonical finite-dimensional structures used by the tests and demos.

All fixtures have rational structure constants and nilpotent translation
operators, so every checker verdict on them is coefficient-exact.

`truncated_poly_3` deserves a remark.  A natural first guess for a
3-dimensional commutative example is the truncated polynomial ring on
{1, t, t^2} with d = d/dt, but d/dt is not a derivation there: the Leibniz
rule on (t, t^2) would need d(t^3) = 3t^2, and t^3 is already zero.  In fact
no derivation of a finite-dimensional algebra in characteristic zero can hit
the identity (apply d to a minimal polynomial), so any valid small example
must lower degrees by at least one step.  The fixture therefore uses the
honest nilpotent derivation d = t^2 d/dt, under which Y(t,x)1 = t + x t^2
still exercises nontrivial x-dependence.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraStructure
from .construct import (
    AssocAlgebraData,
    CocycleData,
    GradedTag,
    GroupActionData,
    cocycle_twist,
    cross_product,
    from_assoc_with_derivation,
    group_algebra,
    matrix_algebra,
)
F = Fraction


def truncated_poly_3() -> AlgebraStructure:
    """Q[t]/(t^3) with the nilpotent derivation t^2 d/dt (fixture "a3")."""
    basis = ("one", "t", "t2")
    # sparse products e_i e_j; t t2, t2 t and t2 t2 are zero
    table = {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (0, 2): {2: 1},
        (1, 0): {1: 1},
        (1, 1): {2: 1},
        (2, 0): {2: 1},
    }
    derivation = (
        (F(0), F(0), F(0)),
        (F(0), F(0), F(0)),
        (F(0), F(1), F(0)),  # t -> t^2, everything else -> 0
    )
    data = AssocAlgebraData(basis=basis, table=table, identity=0, derivation=derivation)
    alg = from_assoc_with_derivation(data)
    alg.meta["fixture"] = "a3"
    return alg


def upper_triangular_2() -> AlgebraStructure:
    """Upper-triangular 2x2 matrices on the basis (one, E11, E12), d = 0.

    The pair (E11, E12) multiplies one way but not the other, giving the
    standard nonlocal example: the operators Y(E11,x1) and Y(E12,x2) differ
    by the constant E12 on the vacuum, which no power of (x1-x2) removes.
    """
    basis = ("one", "e11", "e12")
    # sparse products e_i e_j; E12 E11 and E12 E12 are zero
    table = {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (0, 2): {2: 1},
        (1, 0): {1: 1},
        (1, 1): {1: 1},
        (1, 2): {2: 1},
        (2, 0): {2: 1},
    }
    zero_mat = tuple(tuple(F(0) for _ in range(3)) for _ in range(3))
    data = AssocAlgebraData(basis=basis, table=table, identity=0, derivation=zero_mat)
    alg = from_assoc_with_derivation(data)
    alg.meta["fixture"] = "ut2"
    return alg


def klein_group_algebra() -> tuple[AlgebraStructure, GradedTag]:
    """The group algebra of Z2 x Z2, graded by itself (basis g00..g11)."""
    alg, grading = group_algebra((2, 2))
    alg.meta["fixture"] = "z22"
    return alg, grading


def klein_cocycle(grading: GradedTag) -> CocycleData:
    """The bilinear cocycle (-1)^(a2 b1) on Z2 x Z2."""
    table = {}
    for g in grading.elements():
        for h in grading.elements():
            table[(g, h)] = F(-1) if (g[1] * h[0]) % 2 else F(1)
    return CocycleData(grading=grading, table=table)


def klein_twist() -> tuple[AlgebraStructure, GradedTag, CocycleData]:
    """The cocycle-twisted Klein group algebra (fixture "z22_twist")."""
    alg, grading = klein_group_algebra()
    cocycle = klein_cocycle(grading)
    twisted = cocycle_twist(alg, grading, cocycle)
    twisted.meta["fixture"] = "z22_twist"
    return twisted, grading, cocycle


def matrix_over_a3() -> AlgebraStructure:
    """2x2 matrices over the a3 fixture (fixture "m2a3")."""
    alg = matrix_algebra(truncated_poly_3(), 2)
    alg.meta["fixture"] = "m2a3"
    return alg


def dual_numbers() -> AlgebraStructure:
    """Q[t]/(t^2) with zero derivation, the base of the cross-product fixture."""
    basis = ("one", "t")
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}  # t t is zero
    zero_mat = ((F(0), F(0)), (F(0), F(0)))
    data = AssocAlgebraData(basis=basis, table=table, identity=0, derivation=zero_mat)
    return from_assoc_with_derivation(data)


def sign_flip_action() -> GroupActionData:
    """Z2 acting on the dual numbers by t -> -t."""
    identity = ((F(1), F(0)), (F(0), F(1)))
    flip = ((F(1), F(0)), (F(0), F(-1)))
    return GroupActionData(
        elements=("e", "g"),
        table={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        action={0: identity, 1: flip},
    )


def cross_a2_z2() -> tuple[AlgebraStructure, AlgebraStructure, GroupActionData]:
    """The skew product of the dual numbers with the sign flip (fixture "cross")."""
    base = dual_numbers()
    act = sign_flip_action()
    alg = cross_product(base, act)
    alg.meta["fixture"] = "cross_a2z2"
    return alg, base, act


def all_fixture_builders():
    """Name -> zero-argument builder for every shipped structure."""
    return {
        "a3": truncated_poly_3,
        "ut2": upper_triangular_2,
        "z22_twist": lambda: klein_twist()[0],
        "m2a3": matrix_over_a3,
        "cross_a2z2": lambda: cross_a2_z2()[0],
    }
