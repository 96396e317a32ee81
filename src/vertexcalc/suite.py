"""Suite orchestration and report emission.

Records come in two kinds.  Checks assert an identity and can fail the run;
classifications report a computed fact (local vs nonlocal, which vectors
generate, closure status) and never affect the exit code.  The JSON emission
is canonical and timing-free, so identical inputs and options give identical
bytes; the text emission is a readable table of the same records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgebraStructure,
    check_creation_exponential,
    check_d_bracket,
    check_jacobi,
    check_skew_symmetry,
    find_locality_k,
    find_weak_assoc_l,
    validate_structure,
    weak_assoc_triple,
)
from .construct import check_jacobi_like
from .errors import InvalidArgument, ValidationError
from .fileio import AlgebraBundle, algebra_to_data, canonical_json
from .modules import (
    adjoint_module,
    check_locality_transfer,
    check_module,
    check_product_compatibility,
    generating_basis_vectors,
    is_faithful,
)
from .operators import closure, operator_from_structure, verify_module_structure
from .report import FAIL, INCONCLUSIVE, PASS, CheckReport

SUITES = ("axioms", "locality", "jacobi", "skew", "modules", "jacobi-like", "closure", "all")

CHECK = "check"
CLASSIFICATION = "classification"

# witnesses kept per record in the report
MAX_WITNESSES = 3


@dataclass
class SuiteOptions:
    q: str = "1"
    dim_cap: int = 64
    depth_cap: int = 8
    n_range: tuple[int, int] | None = None
    local_products: bool = False

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "dim_cap": self.dim_cap,
            "depth_cap": self.depth_cap,
            "n_range": list(self.n_range) if self.n_range else None,
            "local_products": self.local_products,
        }


@dataclass
class SuiteRecord:
    id: str
    identity: str
    kind: str
    verdict: str
    exact: bool = True
    orders: dict = field(default_factory=dict)
    witnesses: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "identity": self.identity,
            "kind": self.kind,
            "verdict": self.verdict,
            "exact": self.exact,
            "orders": {k: v for k, v in sorted(self.orders.items())},
            "witnesses": list(self.witnesses),
            "notes": list(self.notes),
        }


@dataclass
class SuiteReport:
    target: str
    suite: str
    options: dict
    records: list[SuiteRecord] = field(default_factory=list)
    embedded: dict = field(default_factory=dict)

    def add(self, record: SuiteRecord) -> None:
        self.records.append(record)

    def add_check(self, rid: str, identity: str, rep: CheckReport) -> None:
        self.add(
            SuiteRecord(
                id=rid,
                identity=identity,
                kind=CHECK,
                verdict=rep.verdict,
                exact=rep.exact,
                orders=dict(rep.found_orders),
                witnesses=[w.describe() for w in rep.witnesses[:MAX_WITNESSES]],
                notes=list(rep.notes),
            )
        )

    @property
    def summary(self) -> dict:
        checks = [r for r in self.records if r.kind == CHECK]
        return {
            "records": len(self.records),
            "checks": len(checks),
            "failures": sum(1 for r in checks if r.verdict == FAIL),
            "inconclusive": sum(1 for r in checks if r.verdict == INCONCLUSIVE),
        }

    @property
    def exit_code(self) -> int:
        return 1 if self.summary["failures"] else 0

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "suite": self.suite,
            "options": self.options,
            "records": [r.as_dict() for r in self.records],
            "summary": self.summary,
            "embedded": self.embedded,
        }


def _fixed_q(options: SuiteOptions) -> Fraction | None:
    """The commutation scalar as a rational, or None for 'from-cocycle'."""
    if options.q == "from-cocycle":
        return None
    try:
        return Fraction(options.q)
    except (ValueError, ZeroDivisionError):
        raise InvalidArgument(
            f"--q must be a rational number or 'from-cocycle', not {options.q!r}"
        ) from None


def _pair_q(bundle: AlgebraBundle, options: SuiteOptions):
    """The commutation scalar of each basis pair (i, j), with --q parsed once per suite."""
    q = _fixed_q(options)
    if q is not None:
        return lambda i, j: q
    if bundle.grading is None or bundle.cocycle is None:
        raise ValidationError("--q from-cocycle needs grading and cocycle sections")
    degrees, cocycle = bundle.grading.degrees, bundle.cocycle
    return lambda i, j: cocycle.commutator(degrees[i], degrees[j])


# ---------------------------------------------------------------------------
# individual suites


def _suite_axioms(bundle: AlgebraBundle, options: SuiteOptions, report: SuiteReport):
    alg = bundle.alg
    report.add_check("axioms/structure", "truncation, vacuum, creation", validate_structure(alg))
    report.add_check(
        "axioms/translation-bracket",
        "translation commutator and derivative",
        check_d_bracket(alg),
    )
    report.add_check(
        "axioms/creation-exponential",
        "state from vacuum via the translation exponential",
        check_creation_exponential(alg),
    )
    uniform = alg.assoc_variant == "strong"
    if uniform:
        identity, note = "uniform weak associativity", "variant: uniform over middle arguments"
    else:
        identity = "three-argument weak associativity"
        note = "variant: per-triple (the construction only guarantees this)"
    report.add(_assoc_record("axioms/weak-associativity", identity, alg, uniform, [note]))


def _assoc_record(
    rid: str,
    identity: str,
    alg: AlgebraStructure,
    uniform: bool,
    notes: list[str],
) -> SuiteRecord:
    """One weak-associativity check over every (u, w) pair or every triple.

    Each relation holds at order 0 or at none, so max_l is 0; it is kept as
    the record's order.
    """
    basis = range(alg.dim)
    if uniform:
        searches = [find_weak_assoc_l(alg, u, w) for u in basis for w in basis]
    else:
        searches = [weak_assoc_triple(alg, u, v, w) for u in basis for v in basis for w in basis]
    failed = [s.witness for s in searches if not s.found]
    return SuiteRecord(
        id=rid,
        identity=identity,
        kind=CHECK,
        verdict=FAIL if failed else PASS,
        orders={"max_l": 0},
        witnesses=[w.describe() for w in failed[:MAX_WITNESSES]],
        notes=notes,
    )


def _suite_locality(bundle: AlgebraBundle, options: SuiteOptions, report: SuiteReport):
    alg = bundle.alg
    pair_q = _pair_q(bundle, options)
    nonlocal_pairs = 0
    for i in range(alg.dim):
        for j in range(alg.dim):
            q = pair_q(i, j)
            search = find_locality_k(alg, i, j, q)
            if search.found:
                verdict = f"local(k={search.order})"
            else:
                verdict = "nonlocal"
                nonlocal_pairs += 1
            report.add(
                SuiteRecord(
                    id=f"locality/{alg.basis[i]},{alg.basis[j]}",
                    identity="damped commutation of operator pairs",
                    kind=CLASSIFICATION,
                    verdict=verdict,
                    orders={"q": str(q)},
                    witnesses=[search.witness.describe()] if search.witness else [],
                )
            )
    report.add(
        SuiteRecord(
            id="locality/summary",
            identity="damped commutation of operator pairs",
            kind=CLASSIFICATION,
            verdict="nonlocal" if nonlocal_pairs else "local",
            orders={"nonlocal_pairs": nonlocal_pairs},
        )
    )


def _suite_skew(bundle: AlgebraBundle, options: SuiteOptions, report: SuiteReport):
    alg = bundle.alg
    pair_q = _pair_q(bundle, options)
    for i in range(alg.dim):
        for j in range(alg.dim):
            q = pair_q(i, j)
            skew = check_skew_symmetry(alg, i, j, q)
            # the skew report records locality_k exactly when the pair is local
            local = "locality_k" in skew.found_orders
            report.add(
                SuiteRecord(
                    id=f"skew/{alg.basis[i]},{alg.basis[j]}",
                    identity="skew-symmetry with truncation",
                    kind=CLASSIFICATION,
                    verdict="holds" if skew.passed else "fails",
                    exact=skew.exact,
                    orders=dict(skew.found_orders),
                )
            )
            agree = skew.passed == local
            report.add(
                SuiteRecord(
                    id=f"skew/equivalence/{alg.basis[i]},{alg.basis[j]}",
                    identity="locality equivalent to skew-symmetry with truncation",
                    kind=CHECK,
                    verdict=PASS if agree else FAIL,
                    witnesses=[]
                    if agree
                    else [f"skew={skew.passed} locality={local}"],
                )
            )


def _suite_jacobi(bundle: AlgebraBundle, options: SuiteOptions, report: SuiteReport):
    alg = bundle.alg
    pair_q = _pair_q(bundle, options)
    for i in range(alg.dim):
        for j in range(alg.dim):
            q = pair_q(i, j)
            rep = check_jacobi(alg, i, j, q)
            report.add(
                SuiteRecord(
                    id=f"jacobi/{alg.basis[i]},{alg.basis[j]}",
                    identity="q-Jacobi identity",
                    kind=CLASSIFICATION,
                    verdict="holds" if rep.passed else "fails",
                    # decided exactly; perfbench/pinned_records.json pins false
                    exact=False,
                    orders={"q": str(q)},
                    witnesses=[w.describe() for w in rep.witnesses[:MAX_WITNESSES]],
                )
            )
            # the equivalence is the invariant check_jacobi is decided by
            report.add(
                SuiteRecord(
                    id=f"jacobi/round-trip/{alg.basis[i]},{alg.basis[j]}",
                    identity="Jacobi equivalent to locality plus associativity",
                    kind=CHECK,
                    verdict=PASS if rep.found_orders["lemma_equivalence"] else FAIL,
                )
            )


def _suite_jacobi_like(bundle: AlgebraBundle, options: SuiteOptions, report: SuiteReport):
    rmap = bundle.resolve_rmap()
    if rmap is None:
        report.add(
            SuiteRecord(
                id="jacobi-like/skipped",
                identity="Jacobi-like identity with an R-map",
                kind=CLASSIFICATION,
                verdict="no R-map declared",
            )
        )
        return
    rep = check_jacobi_like(bundle.alg, rmap)
    rep.exact = False  # decided exactly; perfbench/pinned_records.json pins false
    report.add_check("jacobi-like/identity", "Jacobi-like identity with an R-map", rep)


def _suite_modules(bundle: AlgebraBundle, options: SuiteOptions, report: SuiteReport):
    alg = bundle.alg
    pair_q = _pair_q(bundle, options)
    mod = bundle.module or adjoint_module(alg)
    source = "file" if bundle.module is not None else "adjoint"
    rep = check_module(alg, mod)
    rep.notes.append(f"module source: {source}")
    report.add_check("modules/axioms", "module axioms with derivative property", rep)
    faithful = is_faithful(alg, mod)
    report.add(
        SuiteRecord(
            id="modules/faithful",
            identity="injectivity of the action map",
            kind=CLASSIFICATION,
            verdict="faithful" if faithful else "unfaithful",
        )
    )
    transfer_fail = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            q = pair_q(i, j)
            t = check_locality_transfer(alg, mod, i, j, q, faithful=faithful)
            transfer_fail.extend(t.witnesses)
    report.add(
        SuiteRecord(
            id="modules/locality-transfer",
            identity="locality transfers to modules and back on faithful ones",
            kind=CHECK,
            verdict=FAIL if transfer_fail else PASS,
            witnesses=[w.describe() for w in transfer_fail[:MAX_WITNESSES]],
        )
    )
    compat_bad = 0
    for i in range(alg.dim):
        for j in range(alg.dim):
            if not check_product_compatibility(alg, mod, [i, j]).found:
                compat_bad += 1
    report.add(
        SuiteRecord(
            id="modules/product-compatibility",
            identity="damped multi-products stay lower-truncated",
            kind=CHECK,
            verdict=FAIL if compat_bad else PASS,
            orders={"pairs_failing": compat_bad},
        )
    )
    gens = generating_basis_vectors(alg, mod)
    report.add(
        SuiteRecord(
            id="modules/generation",
            identity="which basis vectors generate the module",
            kind=CLASSIFICATION,
            verdict=",".join(
                mod.basis[k] for k, g in enumerate(gens) if g
            )
            or "none",
            orders={"generators": sum(gens), "dim": mod.dim},
        )
    )


def _suite_closure(bundle: AlgebraBundle, options: SuiteOptions, report: SuiteReport):
    alg = bundle.alg
    if bundle.operators is not None:
        gens = bundle.operators
    elif bundle.operator_names is not None:
        gens = [
            operator_from_structure(alg, alg.basis_index(nm), bundle.module)
            for nm in bundle.operator_names
        ]
    else:
        report.add(
            SuiteRecord(
                id="closure/skipped",
                identity="span generated by compatible operators",
                kind=CLASSIFICATION,
                verdict="no operator set declared",
            )
        )
        return
    result = closure(
        gens,
        n_range=options.n_range,
        dim_cap=options.dim_cap,
        depth_cap=options.depth_cap,
        local_products=options.local_products,
        dim=gens[0].dim if gens else (bundle.module.dim if bundle.module else alg.dim),
    )
    report.add(
        SuiteRecord(
            id="closure/status",
            identity="span generated by compatible operators",
            kind=CLASSIFICATION,
            verdict=result.status,
            exact=result.certified,
            orders={"rank": result.span.rank, "rounds": result.rounds},
            notes=list(result.notes),
        )
    )
    if result.status != "closed":
        return
    st = result.structure
    report.add_check(
        "closure/structure-axioms", "closed span satisfies the axioms", validate_structure(st)
    )
    identity = "uniform weak associativity of the closed span"
    report.add(_assoc_record("closure/weak-associativity", identity, st, True, []))
    report.add_check(
        "closure/module",
        "the underlying space is a faithful module of the span",
        verify_module_structure(result),
    )
    report.embedded["closure_algebra"] = algebra_to_data(st)


_RUNNERS = {
    "axioms": _suite_axioms,
    "locality": _suite_locality,
    "skew": _suite_skew,
    "jacobi": _suite_jacobi,
    "jacobi-like": _suite_jacobi_like,
    "modules": _suite_modules,
    "closure": _suite_closure,
}


def run_suite(
    bundle: AlgebraBundle, suite: str = "all", options: SuiteOptions | None = None
) -> SuiteReport:
    if suite not in SUITES:
        raise ValidationError(f"unknown suite {suite!r}; choose from {SUITES}")
    options = options or SuiteOptions()
    _fixed_q(options)  # a malformed --q is an error before any check runs
    report = SuiteReport(target=bundle.name, suite=suite, options=options.as_dict())
    names = (
        ["axioms", "locality", "skew", "jacobi", "jacobi-like", "modules", "closure"]
        if suite == "all"
        else [suite]
    )
    for name in names:
        _RUNNERS[name](bundle, options, report)
    return report


# ---------------------------------------------------------------------------
# emission


def emit_report(report: SuiteReport, format: str = "text") -> bytes:
    if format == "json":
        return canonical_json(report.as_dict())
    if format != "text":
        raise ValidationError(f"unknown format {format!r}")
    lines = [f"target: {report.target}   suite: {report.suite}"]
    for rec in report.records:
        tag = "" if rec.exact else "  [window-sound]"
        orders = (
            "  " + ", ".join(f"{k}={v}" for k, v in sorted(rec.orders.items()))
            if rec.orders
            else ""
        )
        lines.append(f"  {rec.kind:14s} {rec.id:44s} {rec.verdict}{orders}{tag}")
        for w in rec.witnesses:
            lines.append(f"      witness: {w}")
        for note in rec.notes:
            lines.append(f"      note: {note}")
    s = report.summary
    lines.append(
        f"summary: {s['checks']} checks, {s['failures']} failures, "
        f"{s['inconclusive']} inconclusive, {s['records']} records"
    )
    return ("\n".join(lines) + "\n").encode()
