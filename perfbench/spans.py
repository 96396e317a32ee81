"""Outside-in span recorder for the vertexcalc benchmark.

The recorder wraps chosen vertexcalc callables from outside the package.
A module-level function is replaced at *every* ``vertexcalc.*`` module
attribute that binds it, because ``from .series import mul`` copies the
binding into the importing module; a method is replaced on its class.  Each
call records a span (name, parent span, start, end) in memory, and self time
is a span's duration minus the durations of its direct children.  Leaving
the ``with`` block restores every original binding.

Only layer-boundary functions are wrapped.  Small helpers (vector addition,
coefficient arithmetic) run millions of times per pass; their time is
charged to the self time of the wrapped function that called them.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name).  A dotted attribute is a method on a class.
WRAPPED = (
    ("series", "mul", "series.mul"),
    # sub delegates to add through the module binding, so series.add counts both
    ("series", "add", "series.add"),
    ("series", "window_equal", "series.window_equal"),
    ("series", "subst_with_power", "series.subst_with_power"),
    ("series", "delta_three_term", "series.delta_three_term"),
    ("series", "residue", "series.residue"),
    ("series", "derivative", "series.derivative"),
    ("series", "taylor_shift", "series.taylor_shift"),
    ("series", "power_expand", "series.power_expand"),
    ("series", "binom_expand", "series.binom_expand"),
    ("series", "lift_vars", "series.lift_vars"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "mat_vec", "linalg.mat_vec"),
    ("linalg", "mat_pow", "linalg.mat_pow"),
    ("linalg", "row_reduce", "linalg.row_reduce"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "CoordSpan.insert", "linalg.coordspan.insert"),
    ("linalg", "CoordSpan.solve", "linalg.coordspan.solve"),
    ("algebra", "AlgebraStructure.mode_map", "algebra.mode_map"),
    ("algebra", "AlgebraStructure.exp_radius", "algebra.exp_radius"),
    ("algebra", "AlgebraStructure.mode_matrix", "algebra.mode_matrix"),
    ("algebra", "product_series", "algebra.product_series"),
    ("algebra", "iterate_series", "algebra.iterate_series"),
    ("algebra", "validate_structure", "algebra.validate_structure"),
    ("algebra", "check_d_bracket", "algebra.check_d_bracket"),
    ("algebra", "check_creation_exponential", "algebra.check_creation_exponential"),
    ("algebra", "find_locality_k", "algebra.find_locality_k"),
    ("algebra", "check_skew_symmetry", "algebra.check_skew_symmetry"),
    ("algebra", "weak_assoc_triple", "algebra.weak_assoc_triple"),
    ("algebra", "find_weak_assoc_l", "algebra.find_weak_assoc_l"),
    ("algebra", "check_jacobi", "algebra.check_jacobi"),
    ("algebra", "generate_subalgebra", "algebra.generate_subalgebra"),
    ("construct", "check_jacobi_like", "construct.check_jacobi_like"),
    ("construct", "matrix_algebra", "construct.matrix_algebra"),
    ("construct", "tensor_product", "construct.tensor_product"),
    ("modules", "is_faithful", "modules.is_faithful"),
    ("modules", "check_locality_transfer", "modules.check_locality_transfer"),
    ("modules", "check_module", "modules.check_module"),
    ("modules", "check_product_compatibility", "modules.check_product_compatibility"),
    ("modules", "generating_basis_vectors", "modules.generating_basis_vectors"),
    ("operators", "operator_from_structure", "operators.operator_from_structure"),
    ("operators", "find_compat_order", "operators.find_compat_order"),
    ("operators", "nth_product", "operators.nth_product"),
    ("operators", "nth_product_local", "operators.nth_product_local"),
    ("operators", "closure", "operators.closure"),
    ("operators", "verify_module_structure", "operators.verify_module_structure"),
    ("fileio", "parse_algebra_file", "fileio.parse_algebra_file"),
    ("fileio", "algebra_to_data", "fileio.algebra_to_data"),
    ("fileio", "canonical_json", "fileio.canonical_json"),
    ("suite", "run_suite", "suite.run_suite"),
    ("suite", "emit_report", "suite.emit_report"),
    ("cli", "main", "cli.main"),
)

# span names whose argument keys are collected, to count repeated answers
KEYED = ("algebra.find_locality_k", "algebra.weak_assoc_triple", "modules.is_faithful")

_PLAIN = (int, str, Fraction, type(None))


class Recorder:
    """Context manager that patches vertexcalc, records spans, then restores."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.patched: list[tuple[object, str, object]] = []
        self._stack = [-1]
        self._serials: dict[int, tuple[object, int]] = {}
        self._signatures: dict[str, inspect.Signature] = {}

    # -- patching -------------------------------------------------------------

    def __enter__(self) -> "Recorder":
        try:
            self._patch()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "vertexcalc"]
        bindings: dict[int, list[tuple[object, str]]] = defaultdict(list)
        for module in modules:
            for attr, value in vars(module).items():
                bindings[id(value)].append((module, attr))
        for mod_name, attr, span in WRAPPED:
            module = sys.modules[f"vertexcalc.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, original, self._wrap(span, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for owner, name in bindings[id(original)]:
                self._set(owner, name, original, wrapper)
        self._wrap_init(sys.modules["vertexcalc.series"].Distribution, "series.distributions")

    def _set(self, owner, attr: str, original, replacement) -> None:
        self.patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every original binding, newest first."""
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)
        self._serials.clear()

    def _wrap(self, span: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        observe = _OBSERVERS.get(span)
        if span in KEYED:
            self._signatures[span] = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(span)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.perfbench_span = span
        return wrapper

    def _wrap_init(self, cls, counter: str) -> None:
        original = cls.__dict__["__init__"]
        counts = self.counts

        def __init__(obj, *args, **kwargs):
            counts[counter] += 1
            original(obj, *args, **kwargs)

        __init__.__wrapped__ = original
        __init__.perfbench_span = counter
        self._set(cls, "__init__", original, __init__)

    # -- argument keys ----------------------------------------------------------

    def _serial(self, obj) -> int:
        # holds a reference so that an id is never reused while recording
        entry = self._serials.get(id(obj))
        if entry is None:
            entry = self._serials[id(obj)] = (obj, len(self._serials))
        return entry[1]

    def key(self, span: str, args, kwargs) -> tuple:
        bound = self._signatures[span].bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(
            v if isinstance(v, _PLAIN) else ("obj", self._serial(v))
            for v in bound.arguments.values()
        )

    # -- results ------------------------------------------------------------------

    def self_times(self) -> tuple[Counter, dict[str, float]]:
        """Calls and summed self seconds per span name."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        return calls, self_s


def _observe_mul(rec: Recorder, span, args, kwargs, result) -> None:
    rec.counts["series.mul.terms_out"] += len(result.coeffs)


def _observe_row_reduce(rec: Recorder, span, args, kwargs, result) -> None:
    rows = args[0] if args else kwargs["rows"]
    rec.counts["linalg.row_reduce.rows_in"] += len(rows)


def _observe_insert(rec: Recorder, span, args, kwargs, result) -> None:
    if result is None:  # None means the vector was independent and kept
        rec.counts["linalg.coordspan.insert.accepted"] += 1


def _observe_nth_product(rec: Recorder, span, args, kwargs, result) -> None:
    if result.is_zero():
        rec.counts["operators.nth_product.zero"] += 1


def _observe_closure(rec: Recorder, span, args, kwargs, result) -> None:
    rec.counts["operators.closure.rounds"] += result.rounds


def _observe_json(rec: Recorder, span, args, kwargs, result) -> None:
    rec.counts["fileio.report_bytes"] += len(result)


def _observe_key(rec: Recorder, span, args, kwargs, result) -> None:
    rec.keys[span].add(rec.key(span, args, kwargs))


_OBSERVERS = {
    "series.mul": _observe_mul,
    "linalg.row_reduce": _observe_row_reduce,
    "linalg.coordspan.insert": _observe_insert,
    "operators.nth_product": _observe_nth_product,
    "operators.closure": _observe_closure,
    "fileio.canonical_json": _observe_json,
    **{span: _observe_key for span in KEYED},
}

SUITE_NAMES = ("axioms", "locality", "skew", "jacobi", "jacobi-like", "modules", "closure")

# every per-layer metric, in BENCHMARK.json order, with its unit
PER_LAYER = (
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.mul.terms_out", "count"),
    ("series.window_equal.calls", "count"),
    ("series.window_equal.self_s", "s"),
    ("series.subst_with_power.calls", "count"),
    ("series.subst_with_power.self_s", "s"),
    ("series.add.calls", "count"),
    ("series.add.self_s", "s"),
    ("series.delta_three_term.calls", "count"),
    ("series.distributions", "count"),
    ("series.self_s", "s"),
    ("linalg.mat_mul.calls", "count"),
    ("linalg.mat_mul.self_s", "s"),
    ("linalg.row_reduce.calls", "count"),
    ("linalg.row_reduce.rows_in", "count"),
    ("linalg.row_reduce.self_s", "s"),
    ("linalg.mat_vec.calls", "count"),
    ("linalg.mat_vec.self_s", "s"),
    ("linalg.coordspan.insert.calls", "count"),
    ("linalg.coordspan.insert.accepted", "count"),
    ("linalg.coordspan.insert.accepted_ratio", "ratio"),
    ("linalg.coordspan.solve.calls", "count"),
    ("linalg.self_s", "s"),
    ("algebra.mode_map.calls", "count"),
    ("algebra.mode_map.self_s", "s"),
    ("algebra.exp_radius.calls", "count"),
    ("algebra.exp_radius.self_s", "s"),
    ("algebra.product_series.calls", "count"),
    ("algebra.find_locality_k.calls", "count"),
    ("algebra.find_locality_k.distinct", "count"),
    ("algebra.weak_assoc_triple.calls", "count"),
    ("algebra.weak_assoc_triple.distinct", "count"),
    ("algebra.check_jacobi.calls", "count"),
    ("algebra.check_jacobi.self_s", "s"),
    ("algebra.check_d_bracket.self_s", "s"),
    ("algebra.self_s", "s"),
    ("construct.check_jacobi_like.calls", "count"),
    ("construct.check_jacobi_like.self_s", "s"),
    ("construct.matrix_algebra.self_s", "s"),
    ("modules.is_faithful.calls", "count"),
    ("modules.is_faithful.distinct", "count"),
    ("modules.is_faithful.self_s", "s"),
    ("modules.check_locality_transfer.calls", "count"),
    ("modules.check_locality_transfer.self_s", "s"),
    ("modules.check_module.self_s", "s"),
    ("operators.nth_product.calls", "count"),
    ("operators.nth_product.self_s", "s"),
    ("operators.nth_product.zero_ratio", "ratio"),
    ("operators.closure.self_s", "s"),
    ("operators.closure.rounds", "count"),
    ("fileio.parse_algebra_file.self_s", "s"),
    ("fileio.canonical_json.self_s", "s"),
    ("fileio.report_bytes", "bytes"),
    *((f"suite.{name}.s", "s") for name in SUITE_NAMES),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("failed_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer values derived from the recorded spans and counters.

    Suite times, the tracing overhead and the failure ratio are measured by
    the caller and are not part of the result.
    """
    calls, self_s = rec.self_times()
    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "calls":
            out[name] = calls[head]
        elif tail == "self_s" and head in ("series", "linalg", "algebra"):
            out[name] = sum((t for span, t in self_s.items() if span.startswith(head + ".")), 0.0)
        elif tail == "self_s":
            out[name] = self_s.get(head, 0.0)
        elif tail == "distinct":
            out[name] = len(rec.keys[head])
    for name in (
        "series.mul.terms_out",
        "series.distributions",
        "linalg.row_reduce.rows_in",
        "linalg.coordspan.insert.accepted",
        "operators.closure.rounds",
        "fileio.report_bytes",
    ):
        out[name] = rec.counts[name]
    out["linalg.coordspan.insert.accepted_ratio"] = _ratio(
        rec.counts["linalg.coordspan.insert.accepted"], calls["linalg.coordspan.insert"]
    )
    out["operators.nth_product.zero_ratio"] = _ratio(
        rec.counts["operators.nth_product.zero"], calls["operators.nth_product"]
    )
    return out
