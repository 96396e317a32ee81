"""Import boundaries between the window kernel and the verdict paths.

The verdicts and the closure engine compute on exact term dictionaries and
sparse rows; the windowed distribution kernel (vertexcalc.series) is kept
for the tests and for the product and iterate series of vertexcalc.algebra.
These checks read the sources with ast, so a window-kernel import that
creeps back into a verdict path fails here, and so does a per-triple product
in the Jacobi-like check, and so does any way for a float to arise in the
package.
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
