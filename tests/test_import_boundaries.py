"""Import boundaries between the window kernel and the verdict paths.

The verdicts and the closure engine compute on exact term dictionaries and
sparse rows; the windowed distribution kernel (vertexcalc.series) is kept
for the tests and for the product and iterate series of vertexcalc.algebra.
These checks read the sources with ast, so a window-kernel import that
creeps back into a verdict path fails here, and so does a per-triple product
in the Jacobi-like check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vertexcalc"


def series_imports(module: str) -> set[str]:
    """The names a module imports from vertexcalc.series, "*" for a whole-module import."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
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


def test_the_reader_finds_series_imports():
    # the package root re-exports the kernel, so the reader must see it there
    assert {"Distribution", "Window", "mul", "window_equal"} <= series_imports("__init__")


def names_used(module: str) -> set[str]:
    """Every name a module imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_jacobi_like_builds_no_product_per_triple():
    # check_jacobi_like reads both sides of each triple off the pair
    # analysis's scatter of one w (PairAnalysis.products); a per-triple
    # product, or a scatter of its own, would bypass it
    forbidden = {"product_sparse", "reversed_sparse", "scatter_products"}
    assert names_used("construct") & forbidden == set()


def test_the_name_reader_finds_imports_calls_and_attributes():
    # algebra calls both products; construct imports pair_analysis and reads
    # the analysis's products attribute
    assert {"product_sparse", "reversed_sparse"} <= names_used("algebra")
    assert {"pair_analysis", "products"} <= names_used("construct")
