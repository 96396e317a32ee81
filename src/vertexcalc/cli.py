"""Command-line interface: check, construct, closure, report.

Everything is driven by flags (no environment variables), outputs are
deterministic, and the exit code is nonzero only for failed checks or
errors; classification outcomes such as "nonlocal" exit zero.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .construct import cocycle_twist, cross_product, from_assoc_with_derivation, matrix_algebra, tensor_product
from .errors import ParseError, VertexCalcError
from .fileio import (
    algebra_to_data,
    cocycle_section,
    grading_section,
    group_section,
    parse_algebra_file,
    read_json,
    write_algebra_file,
    write_bytes,
)
from .suite import SuiteOptions, SuiteReport, SuiteRecord, SUITES, emit_report, run_suite


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected n-range as LO:HI") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertexcalc",
        description="Exact checkers and builders for nonlocal vertex structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite on an algebra file")
    check.add_argument("target", nargs="+", help="algebra file(s) to check")
    check.add_argument("--suite", choices=SUITES, default="all")
    check.add_argument("--q", default="1", help="commutation scalar, or 'from-cocycle'")
    check.add_argument("--dim-cap", type=int, default=64)
    check.add_argument("--depth-cap", type=int, default=8)
    check.add_argument("--n-range", type=_parse_n_range, default=None, metavar="LO:HI")
    check.add_argument("--local-products", action="store_true",
                       help="use the commutator-style product in closures")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--out", type=Path, default=None, help="write the report here")

    construct = sub.add_parser("construct", help="build a new algebra file")
    construct.add_argument(
        "kind", choices=("from-assoc", "tensor", "matrix", "twist", "cross")
    )
    construct.add_argument("inputs", nargs="+", help="input algebra file(s)")
    construct.add_argument("-n", "--size", type=int, default=2, help="matrix size")
    construct.add_argument("-o", "--out", type=Path, required=True)

    clos = sub.add_parser("closure", help="generate a span from a declared operator set")
    clos.add_argument("target", help="algebra file with an operators section")
    clos.add_argument("--n-range", type=_parse_n_range, default=None, metavar="LO:HI")
    clos.add_argument("--dim-cap", type=int, default=64)
    clos.add_argument("--depth-cap", type=int, default=8)
    clos.add_argument("--local-products", action="store_true")
    clos.add_argument("--format", choices=("text", "json"), default="text")
    clos.add_argument("--out", type=Path, default=None)
    clos.add_argument("--emit-algebra", type=Path, default=None,
                      help="write the closed structure as an algebra file")
    # argparse takes a token after a flag for an option unless it looks like a
    # negative number; "-3:0", "-5:-2" and "-1/2" are values of --n-range and
    # --q (also under an abbreviated flag), and no option here starts "-<digit>".
    check._negative_number_matcher = clos._negative_number_matcher = re.compile(r"^-\.?\d")

    rep = sub.add_parser("report", help="re-render a stored JSON report")
    rep.add_argument("report", type=Path)
    rep.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _deliver(payload: bytes, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(payload.decode())
    else:
        write_bytes(out, payload)


def _cmd_check(args) -> int:
    options = SuiteOptions(
        q=args.q,
        dim_cap=args.dim_cap,
        depth_cap=args.depth_cap,
        n_range=args.n_range,
        local_products=args.local_products,
    )
    worst = 0
    chunks = []
    for target in args.target:
        bundle = parse_algebra_file(target)
        report = run_suite(bundle, args.suite, options)
        chunks.append(emit_report(report, args.format))
        worst = max(worst, report.exit_code)
    _deliver(b"".join(chunks), args.out)
    return worst


def _cmd_construct(args) -> int:
    bundles = [parse_algebra_file(p) for p in args.inputs]
    sections: dict = {}
    if args.kind == "from-assoc":
        src = bundles[0]
        if src.assoc is None:
            raise VertexCalcError("from-assoc needs an 'assoc' section in the input")
        alg = from_assoc_with_derivation(src.assoc)
    elif args.kind == "tensor":
        alg = tensor_product([b.alg for b in bundles])
    elif args.kind == "matrix":
        alg = matrix_algebra(bundles[0].alg, args.size)
        sections["rmap"] = {
            "kind": "tensor-swap",
            "left_dim": bundles[0].alg.dim,
            "right_dim": alg.dim // bundles[0].alg.dim,
        }
    elif args.kind == "twist":
        src = bundles[0]
        if src.grading is None or src.cocycle is None:
            raise VertexCalcError("twist needs grading and cocycle sections")
        alg = cocycle_twist(src.alg, src.grading, src.cocycle)
        sections["grading"] = grading_section(src.grading, alg.basis)
        sections["cocycle"] = cocycle_section(src.cocycle)
        sections["rmap"] = {"kind": "cocycle-commutator"}
    else:  # cross
        src = bundles[0]
        if src.group is None:
            raise VertexCalcError("cross needs a group section")
        alg = cross_product(src.alg, src.group)
        sections["group"] = group_section(src.group, src.alg.basis)
        if src.group.is_abelian():
            sections["rmap"] = {"kind": "cross-abelian"}
    write_algebra_file(args.out, algebra_to_data(alg, sections))
    return 0


def _cmd_closure(args) -> int:
    bundle = parse_algebra_file(args.target)
    options = SuiteOptions(
        n_range=args.n_range,
        dim_cap=args.dim_cap,
        depth_cap=args.depth_cap,
        local_products=args.local_products,
    )
    report = run_suite(bundle, "closure", options)
    _deliver(emit_report(report, args.format), args.out)
    if args.emit_algebra is not None and "closure_algebra" in report.embedded:
        write_algebra_file(args.emit_algebra, report.embedded["closure_algebra"])
    return report.exit_code


def _cmd_report(args) -> int:
    data = read_json(args.report)
    try:
        report = SuiteReport(
            target=data.get("target", ""),
            suite=data.get("suite", ""),
            options=data.get("options", {}),
            records=[
                SuiteRecord(
                    id=r["id"],
                    identity=r.get("identity", ""),
                    kind=r.get("kind", "check"),
                    verdict=r.get("verdict", ""),
                    exact=r.get("exact", True),
                    orders=r.get("orders", {}),
                    witnesses=r.get("witnesses", []),
                    notes=r.get("notes", []),
                )
                for r in data.get("records", [])
            ],
            embedded=data.get("embedded", {}),
        )
        payload = emit_report(report, args.format)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{args.report}: not a vertexcalc report ({exc!r})") from None
    sys.stdout.write(payload.decode())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "closure":
            return _cmd_closure(args)
        return _cmd_report(args)
    except VertexCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
