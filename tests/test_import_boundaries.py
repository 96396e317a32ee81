"""Import boundaries between the window kernel and the verdict paths.

The verdicts and the closure engine compute on exact term dictionaries and
sparse rows; the windowed distribution kernel (vertexcalc.series) is kept
for the tests and for the product and iterate series of vertexcalc.algebra,
and the package root does not re-export it.  These checks read the sources
with ast, so a window-kernel import that creeps back into a verdict path or
the package root fails here, and so does a second commutation-profile rule,
a per-triple product in the Jacobi-like check, a per-triple product kernel
anywhere in the package, a dense product or action in the builders, a
dense mode table in any module or a densified table in a builder, a
densified vector in a check that builds a witness, and any way for a float
to arise in the package.  A relation check answers with its witness or
None, so no module holds an order object, and the suite runs no loop over a
stated invariant.  The core imports in one direction, linalg, then pairs,
then algebra, and no module imports inside a function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vertexcalc"


def series_imports(module: str) -> set[str]:
    """The names a module imports from vertexcalc.series, "*" for a whole-module import."""
    return series_imports_in((SRC / f"{module}.py").read_text())


def series_imports_in(source: str) -> set[str]:
    """The names the source imports from vertexcalc.series, "*" for a whole-module import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module == "series":
                names.update(alias.name for alias in node.names)
            elif node.level == 1 and node.module is None:
                names.update("*" for alias in node.names if alias.name == "series")
            elif node.module == "vertexcalc.series":
                names.update(alias.name for alias in node.names)
            elif node.module == "vertexcalc":
                names.update("*" for alias in node.names if alias.name == "series")
        elif isinstance(node, ast.Import):
            names.update("*" for alias in node.names if alias.name == "vertexcalc.series")
    return names


def test_operators_imports_nothing_from_series():
    assert series_imports("operators") == set()


def test_algebra_imports_only_the_product_series_names():
    # Distribution, Window, from_terms: product_series and iterate_series;
    # mul: the binding the benchmark's tracer patches
    assert series_imports("algebra") == {"Distribution", "Window", "from_terms", "mul"}


def test_the_package_root_imports_nothing_from_series():
    # the window kernel is imported from vertexcalc.series, not re-exported
    assert series_imports("__init__") == set()


def test_the_reader_finds_series_imports():
    # each import form the reader handles, at module level and in a function
    cases = {
        "from .series import Window, mul as m": {"Window", "mul"},
        "from . import series": {"*"},
        "from . import linalg, series as s": {"*"},
        "from vertexcalc.series import window_equal": {"window_equal"},
        "from vertexcalc import series": {"*"},
        "import vertexcalc.series": {"*"},
        "def f():\n    from .series import from_terms": {"from_terms"},
        "from .linalg import series\nfrom vertexcalc import algebra\nimport series": set(),
    }
    for source, names in cases.items():
        assert series_imports_in(source) == names, source


def names_used(module: str) -> set[str]:
    """Every name a module defines, imports, reads or reads as an attribute."""
    return names_in((SRC / f"{module}.py").read_text())


def names_in(source: str) -> set[str]:
    """Every name the source defines, imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# the per-triple product kernel, kept as the scatter's oracle in tests/reference_pairs.py
PER_TRIPLE_KERNEL = {
    "outer_product",
    "product_sparse",
    "reversed_sparse",
    "commutation_sparse",
    "scale_terms",
    "iterate_sparse",
    "outer_iterate",
    "assoc_search",
}


def test_one_profile_rule_decides_every_ordered_pair():
    # pair_profiles decides the diagonal u = v too; the second rule is gone
    assert "commutation_profile" not in names_used("pairs")
    assert "pair_profiles" in names_used("pairs")


def test_no_module_holds_the_per_triple_kernel():
    # every two-variable product in the library comes from the scatter of
    # vertexcalc.pairs; the row-wise kernel it replaced lives only in the oracle
    found = {path.name: names_in(path.read_text()) & PER_TRIPLE_KERNEL 
             for path in SRC.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}
    assert "algebra.py" in found
    oracle = ast.parse((Path(__file__).parent / "reference_pairs.py").read_text())
    defined = {node.name for node in oracle.body if isinstance(node, ast.FunctionDef)}
    assert PER_TRIPLE_KERNEL <= defined


def test_jacobi_like_builds_no_product_per_triple():
    # check_jacobi_like reads both sides of each triple off the pair
    # analysis's scatter of one w (PairAnalysis.products); a per-triple
    # product, a per-call product_terms, or a scatter of its own, would bypass it
    forbidden = PER_TRIPLE_KERNEL | {"product_terms", "iterate_terms", "scatter_products"}
    assert names_used("construct") & forbidden == set()


def test_the_name_reader_finds_imports_calls_and_attributes():
    # algebra imports both scatters and calls the mode product; construct
    # imports pair_analysis and reads the analysis's products attribute
    assert {"scatter_products", "scatter_iterates", "sparse_modes"} <= names_used("algebra")
    assert {"pair_analysis", "products"} <= names_used("construct")


# the dense builder helpers, kept as the builders' oracle in tests/reference_builders.py
DENSE_BUILDER_NAMES = {
    "mult_vec",
    "mat_vec",
    "vec_add",
    "is_zero_vec",
    "zero_vec",
    "mode_map",
    "table_index",
}


def test_the_builders_compute_on_the_sparse_kernel():
    # products go through sparse_modes on a constant index, derivations and
    # group elements are their sparse columns, applied by d_sparse, and
    # e^{xd} goes through exp_sparse; the dense copies live only in the oracle
    assert names_used("construct") & DENSE_BUILDER_NAMES == set()
    assert {"sparse_modes", "exp_sparse", "d_sparse", "constant_index"} <= names_used(
        "construct"
    )
    oracle = names_in((Path(__file__).parent / "reference_builders.py").read_text())
    assert {"mult_vec", "from_assoc_with_derivation", "validate_action"} <= oracle


# the dense table a structure stored beside its sparse index, and its converters
DENSE_TABLE_NAMES = {"y_data", "clean_table", "table_index"}

# the functions that build a mode table, by module: each hands its sparse
# accumulator to the structure constructor, which normalises it once
TABLE_BUILDERS = {
    "construct": ("from_assoc_with_derivation", "table_tensor", "cocycle_twist", "cross_product"),
    "operators": ("closure", "closure_module"),
    "fileio": ("parse_algebra_data",),
}


def function_names(module: str, function: str) -> set[str]:
    """Every name one top-level function of a module defines, imports, reads or reads as an attribute.

    The names are read from that function's source alone.
    """
    source = (SRC / f"{module}.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return names_in(ast.get_source_segment(source, node))
    raise AssertionError(f"{module}.{function} not found")


def test_no_module_stores_a_dense_mode_table():
    # a structure stores only its sparse image index, normalised by
    # algebra.normal_index; the dense table and its converters live in
    # tests/reference_tables.py
    found = {
        path.name: names_in(path.read_text()) & DENSE_TABLE_NAMES for path in SRC.glob("*.py")
    }
    assert {name: names for name, names in found.items() if names} == {}
    assert "normal_index" in names_used("algebra")
    for module, functions in TABLE_BUILDERS.items():
        for function in functions:
            assert "densify" not in function_names(module, function), (module, function)
    oracle = names_in((Path(__file__).parent / "reference_tables.py").read_text())
    assert {"dense_table", "index_from_dense"} <= oracle


def verdict_functions(module: str) -> set[str]:
    """The top-level functions of a module that build a CheckReport or a Witness."""
    source = (SRC / f"{module}.py").read_text()
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and {"CheckReport", "Witness"} & names_in(ast.get_source_segment(source, node))
    }


def test_no_verdict_path_densifies_a_witness():
    # a witness holds the kernel's sparse vectors, printed by basis name in
    # report.Witness.describe; the dense differences, D v and the vacuum
    # vector live only in tests/reference_tables.py or nowhere
    assert "densify" not in names_used("pairs")
    for module in ("algebra", "construct", "modules"):
        for function in verdict_functions(module):
            assert "densify" not in function_names(module, function), (module, function)
    gone = {"term_differences", "apply_columns", "vacuum_vec", "_vec_from_sparse"}
    found = {path.name: names_in(path.read_text()) & gone for path in SRC.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}
    oracle = names_in((Path(__file__).parent / "reference_tables.py").read_text())
    assert {"term_differences", "apply_columns", "dense_witness"} <= oracle


def test_the_verdict_reader_finds_the_checks():
    assert {"validate_structure", "check_d_bracket", "check_skew_symmetry", "check_jacobi",
            "find_locality_k", "weak_assoc_triple"} <= verdict_functions("algebra")
    assert "check_jacobi_like" in verdict_functions("construct")
    assert {"check_module", "check_locality_transfer"} <= verdict_functions("modules")
    assert "generate_subalgebra" not in verdict_functions("algebra")


def test_the_function_reader_sees_only_its_function():
    # linalg.py densifies in row_reduce, not in rank
    assert "densify" in names_used("linalg")
    assert "densify" not in function_names("linalg", "rank")
    assert {"normal_index", "MalformedStructure"} <= function_names("algebra", "normal_index")


# the dense copies of the derivation, the group elements and the operator
# modes, and the dense nilpotency search beside exp_sparse
DENSE_MAP_NAMES = {"nilpotency_index", "_mat_from_rows", "_dense"}


def imported_names(module: str) -> set[str]:
    """The names a module imports, as its source spells them before any alias."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_each_linear_map_is_stored_once_in_sparse_form():
    # a derivation or a group element is its sparse columns and an operator
    # its sparse rows from the parse boundary on; the dense matrices of the
    # file format are read and written in fileio's own helpers
    found = {path.name: names_in(path.read_text()) & DENSE_MAP_NAMES for path in SRC.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}
    for module in ("construct", "operators", "fileio"):
        assert "Mat" not in imported_names(module), module
    assert "Mat" in imported_names("algebra")
    assert "nilpotency_index" in names_in((Path(__file__).parent / "reference_builders.py").read_text())


def test_modules_holds_no_check_without_a_caller():
    # the embedded-actions check had no caller in the package; its tests hold it
    assert "check_embedded_actions_commute" not in names_used("modules")


ORDER_OBJECTS = {"OrderSearch", "FOUND", "REFUTED"}


def order_object_names(source: str) -> set[str]:
    """The order-object names the source defines, imports, reads or spells as a string."""
    strings = {n.value for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Constant)}
    return (names_in(source) | strings) & ORDER_OBJECTS


def test_no_module_holds_an_order_object():
    # each relation check returns its refuting witness or None; an order
    # object whose order is always 0, with its found/refuted status, is gone
    found = {path.name: order_object_names(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
    assert "report.py" in found


def test_the_suite_runs_no_loop_over_the_compatibility_invariant():
    # check_product_compatibility states an invariant and returns None; the
    # modules suite records it as a literal instead of calling it d^2 times
    assert "check_product_compatibility" not in names_used("suite")
    assert "check_locality_transfer" in names_used("suite")


def test_the_order_reader_finds_definitions_imports_reads_and_strings():
    cases = {
        "class OrderSearch:\n    pass": {"OrderSearch"},
        "FOUND = 'found'": {"FOUND"},
        "from .report import REFUTED, Witness": {"REFUTED"},
        "x = report.OrderSearch(status)": {"OrderSearch"},
        "__all__ = ['FOUND', 'Witness']": {"FOUND"},
        "def REFUTED(): pass": {"REFUTED"},
        "found = refuted = 'order_search'": set(),
    }
    for source, names in cases.items():
        assert order_object_names(source) == names, source


def _exact_dividend(node: ast.expr) -> bool:
    """A Fraction(...) call or ONE: a true division by it is Fraction division."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "Fraction"
    return isinstance(node, ast.Name) and node.id == "ONE"


def float_sites(source: str) -> list[tuple[int, str]]:
    """(line, what) of each way the source can make a float.

    The name float, a float or imaginary literal, a /= and a true division
    whose left operand is not a Fraction(...) call or ONE: once both
    operands can be int, such a division returns a float.
    """
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "float":
            sites.append((node.lineno, "float"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append((node.lineno, "float literal"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not _exact_dividend(node.left):
                sites.append((node.lineno, "division"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            sites.append((node.lineno, "division"))
    return sites


def test_no_float_can_arise_in_the_package():
    found = {path.name: float_sites(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {}
    assert "linalg.py" in found


def test_the_float_reader_finds_each_way_to_a_float():
    bad = {
        "x = float(y)": "float",
        "xs = map(float, ys)": "float",
        "x = 0.5": "float literal",
        "x = 1e3": "float literal",
        "x = 2j": "float literal",
        "q = a.get(k, ZERO) / c": "division",
        "inv = 1 / fact": "division",
        "x = Fraction(a) + b / c": "division",
        "x /= 2": "division",
    }
    for source, what in bad.items():
        assert float_sites(source) == [(1, what)], source
    good = [
        "x = Fraction(1, fact)",
        "inv = ONE / w[pivot]",
        "c = Fraction(g) / h",
        "k = n // 2",
        "s = '0.5 / 2'",
    ]
    for source in good:
        assert float_sites(source) == [], source


# -- one direction of import in the core -------------------------------------------------


def nested_imports(source: str) -> list[int]:
    """The lines of the imports the source makes inside a function or a class."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = ast.walk(node)
            lines.update(n.lineno for n in inner if isinstance(n, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


def package_imports(module: str) -> tuple[set[str], set[str]]:
    """(run time, TYPE_CHECKING only): the package modules a module imports, as ".name"."""
    return package_imports_in((SRC / f"{module}.py").read_text())


def package_imports_in(source: str) -> tuple[set[str], set[str]]:
    """(run time, TYPE_CHECKING only): the package modules the source imports, as ".name"."""
    tree = ast.parse(source)
    guarded = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            guarded.update(id(n) for n in ast.walk(node))
    found: tuple[set[str], set[str]] = (set(), set())
    for node in ast.walk(tree):
        side = found[id(node) in guarded]
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                side.update("." + alias.name for alias in node.names)
            else:
                side.add("." + node.module)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vertexcalc"):
            side.add(node.module[len("vertexcalc"):] or ".")
        elif isinstance(node, ast.Import):
            side.update(a.name[len("vertexcalc"):] for a in node.names if a.name.startswith("vertexcalc"))
    return found


def test_no_module_imports_inside_a_function():
    # each import is at the top of its module, so the order of import is the
    # order of the modules, and a cycle shows as an ImportError at once
    found = {path.name: nested_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert "algebra.py" in found


def test_the_core_imports_in_one_direction():
    # linalg -> pairs -> algebra: pairs builds on the sparse kernel alone and
    # names the structures only in annotations; algebra imports pairs
    assert package_imports("linalg") == (set(), set())
    assert package_imports("pairs") == ({".linalg", ".report"}, {".algebra", ".modules"})
    assert ".pairs" in package_imports("algebra")[0]
    assert ".pairs" not in package_imports("linalg")[0] | package_imports("report")[0]


def test_the_import_readers_find_nested_and_guarded_imports():
    nested = {
        "import os\ndef f():\n    import sys": [3],
        "class A:\n    from . import pairs": [2],
        "if TYPE_CHECKING:\n    from .algebra import A\nfrom .linalg import B": [],
        "def f():\n    def g():\n        from .pairs import h": [3],
    }
    for source, lines in nested.items():
        assert nested_imports(source) == lines, source
    guarded = "if TYPE_CHECKING:\n    from .algebra import A\n"
    packaged = {
        "from .linalg import add_term\n" + guarded: ({".linalg"}, {".algebra"}),
        "from . import pairs, report as r": ({".pairs", ".report"}, set()),
        "from vertexcalc.pairs import x\nimport vertexcalc.algebra": ({".pairs", ".algebra"}, set()),
        "import os\nfrom fractions import Fraction\ndef f():\n    from .suite import g": (
            {".suite"},
            set(),
        ),
    }
    for source, found in packaged.items():
        assert package_imports_in(source) == found, source
