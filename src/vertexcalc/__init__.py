"""Exact verifier for nonlocal vertex algebras over the rationals.

The package checks finite-dimensional vertex-algebra-like structures (with
and without the locality axiom) coefficient by coefficient: truncation,
vacuum, creation and weak associativity, the translation identities,
q-locality, skew-symmetry, and the q-Jacobi and Jacobi-like identities.  It
builds such structures (cocycle twists, matrix and tensor algebras, cross
products), checks modules over them, and generates them by closure from
compatible vertex operators acting on a finite-dimensional space.

Every verdict is exact: a scalar is an int where it is integral and a
Fraction otherwise, and there is no floating point anywhere.  Structure data
is Laurent-polynomial, so each identity, the Jacobi-type ones included, is
decided by comparing finite term dictionaries, and each refutation carries
a witness that reproduces it.  The windowed distribution kernel lives in
vertexcalc.series; no verdict reads it.
"""

from .algebra import (
    AlgebraStructure,
    check_creation_exponential,
    check_d_bracket,
    check_jacobi,
    check_skew_symmetry,
    find_locality_k,
    find_weak_assoc_l,
    generate_subalgebra,
    localizer,
    stabilizer,
    validate_structure,
    weak_assoc_triple,
)
from .construct import (
    AssocAlgebraData,
    CocycleData,
    GradedTag,
    GroupActionData,
    RMap,
    check_jacobi_like,
    cocycle_twist,
    cross_product,
    from_assoc_with_derivation,
    full_matrix_algebra,
    group_algebra,
    matrix_algebra,
    tensor_product,
)
from .errors import (
    CapExceeded,
    CocycleInvalid,
    ExponentOutsideWindow,
    GradingInvalid,
    InvalidArgument,
    MalformedStructure,
    NonNilpotentD,
    NonSummableProduct,
    NotADerivation,
    NotAnAutomorphism,
    NotCompatible,
    OutputError,
    ParseError,
    ValidationError,
    VertexCalcError,
)
from .fileio import AlgebraBundle, algebra_to_data, parse_algebra_file, write_algebra_file
from .linalg import binom
from .modules import (
    ModuleStructure,
    adjoint_module,
    check_locality_transfer,
    check_module,
    check_product_compatibility,
    tensor_module,
    wn_module,
)
from .operators import (
    ClosureResult,
    OperatorSpan,
    VertexOperator,
    closure,
    find_compat_order,
    identity_operator,
    nth_product,
    nth_product_local,
    operator_from_structure,
    verify_module_structure,
)
from .report import CheckReport, Witness
from .suite import SuiteOptions, SuiteReport, emit_report, run_suite

__all__ = [
    "AlgebraBundle",
    "AlgebraStructure",
    "AssocAlgebraData",
    "CapExceeded",
    "CheckReport",
    "ClosureResult",
    "CocycleData",
    "CocycleInvalid",
    "ExponentOutsideWindow",
    "GradedTag",
    "GradingInvalid",
    "GroupActionData",
    "InvalidArgument",
    "MalformedStructure",
    "ModuleStructure",
    "NonNilpotentD",
    "NonSummableProduct",
    "NotADerivation",
    "NotAnAutomorphism",
    "NotCompatible",
    "OperatorSpan",
    "OutputError",
    "ParseError",
    "RMap",
    "SuiteOptions",
    "SuiteReport",
    "ValidationError",
    "VertexCalcError",
    "VertexOperator",
    "Witness",
    "adjoint_module",
    "algebra_to_data",
    "binom",
    "check_creation_exponential",
    "check_d_bracket",
    "check_jacobi",
    "check_jacobi_like",
    "check_locality_transfer",
    "check_module",
    "check_product_compatibility",
    "check_skew_symmetry",
    "closure",
    "cocycle_twist",
    "cross_product",
    "emit_report",
    "find_compat_order",
    "find_locality_k",
    "find_weak_assoc_l",
    "from_assoc_with_derivation",
    "full_matrix_algebra",
    "generate_subalgebra",
    "group_algebra",
    "identity_operator",
    "localizer",
    "matrix_algebra",
    "nth_product",
    "nth_product_local",
    "operator_from_structure",
    "parse_algebra_file",
    "run_suite",
    "stabilizer",
    "tensor_product",
    "validate_structure",
    "verify_module_structure",
    "weak_assoc_triple",
    "wn_module",
    "write_algebra_file",
]
