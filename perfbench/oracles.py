"""Correctness oracles for the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
correct.  The oracles do not trust the code under test: fixture reports are
compared against the verdicts pinned from the seed code and against facts
stated in the README and the paper, closure ranks against an independent
code path, and the dim-27 nonlocal pairs are recomputed with plain integer
matrices.

Run ``python3 perfbench/oracles.py --pin`` from the repository root to
rewrite the pinned fixture verdicts from the current code.  Do that only
when a change to the report contract is intended and reviewed.
"""

from __future__ import annotations

import json
from pathlib import Path

PINNED_PATH = Path(__file__).resolve().parent / "pinned_records.json"

FIXTURES = ("a2_base", "a3", "cross_a2z2", "m2a3", "ut2", "z22_base", "z22_twist")

# (verdict, nonlocal pairs) of the locality summary, from the README and paper
LOCALITY_FACTS = {
    "a3": ("local", 0),
    "a2_base": ("local", 0),
    "z22_base": ("local", 0),
    "ut2": ("nonlocal", 2),
    "m2a3": ("nonlocal", 36),
}


def load_pinned() -> dict[str, list[list]]:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def record_keys(report: dict) -> list[list]:
    return [[r["id"], r["kind"], r["verdict"], r["exact"]] for r in report["records"]]


def _failures(report: dict) -> int:
    return sum(1 for r in report["records"] if r["kind"] == "check" and r["verdict"] == "fail")


def check_fixture_report(name: str, exit_code: int, payload: bytes, pinned: list[list]) -> list[str]:
    """Problems with one `check --suite all --format json` run on a fixture."""
    problems = []
    if exit_code != 0:
        problems.append(f"{name}: exit code {exit_code}")
    try:
        report = json.loads(payload)
    except ValueError as exc:
        return problems + [f"{name}: report is not JSON ({exc})"]
    if report["summary"]["failures"] != 0 or _failures(report) != 0:
        problems.append(f"{name}: report lists failed checks")
    got = record_keys(report)
    if got != pinned:
        diff = [g for g, p in zip(got, pinned) if g != p][:3]
        problems.append(
            f"{name}: records differ from the pinned verdicts "
            f"({len(got)} vs {len(pinned)} records; first changes {diff})"
        )
    if name in LOCALITY_FACTS:
        verdict, pairs = LOCALITY_FACTS[name]
        summary = [r for r in report["records"] if r["id"] == "locality/summary"]
        if not summary or summary[0]["verdict"] != verdict:
            problems.append(f"{name}: locality summary is not {verdict!r}")
        elif summary[0]["orders"].get("nonlocal_pairs") != pairs:
            problems.append(f"{name}: expected {pairs} nonlocal pairs")
    return problems


def check_closure(names, result, expected_rank: int, validate_structure) -> list[str]:
    """Problems with one operator closure; expected_rank comes from generate_subalgebra."""
    label = ",".join(names)
    problems = []
    if result.status != "closed":
        return [f"closure {label}: status {result.status!r}"]
    if not result.certified:
        problems.append(f"closure {label}: not certified")
    if result.span.rank != expected_rank or result.structure.dim != expected_rank:
        problems.append(
            f"closure {label}: rank {result.span.rank}, generated subalgebra has {expected_rank}"
        )
    if not validate_structure(result.structure).passed:
        problems.append(f"closure {label}: closed structure fails validate_structure")
    return problems


# -- the dim-27 scaling structure ------------------------------------------------

# exponents of the monomials named by the a3 basis: a3 = Q[t]/(t^3)
A3_EXPONENTS = {"one": 0, "t": 1, "t2": 2}


def _adapted_matrix_basis(n: int) -> dict[str, list[list[int]]]:
    """The identity and every matrix unit except Enn, as integer matrices."""
    out = {"one": [[int(i == j) for j in range(n)] for i in range(n)]}
    for i in range(n):
        for j in range(n):
            if (i, j) != (n - 1, n - 1):
                out[f"E{i + 1}{j + 1}"] = [
                    [int((r, c) == (i, j)) for c in range(n)] for r in range(n)
                ]
    return out


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def expected_nonlocal_pairs(n: int = 3) -> set[tuple[str, str]]:
    """Ordered basis pairs (t^a*M, t^b*N) of matrix_algebra(a3, n) that are nonlocal.

    Such a pair fails to commute exactly when t^a t^b is nonzero in
    Q[t]/(t^3) and the integer matrices M and N do not commute.
    """
    mats = _adapted_matrix_basis(n)
    pairs = set()
    for va, a in A3_EXPONENTS.items():
        for vb, b in A3_EXPONENTS.items():
            if a + b >= 3:
                continue
            for ma, m in mats.items():
                for mb, k in mats.items():
                    if _matmul(m, k) != _matmul(k, m):
                        pairs.add((f"{va}*{ma}", f"{vb}*{mb}"))
    return pairs


def check_scale_report(suite: str, report, expected_pairs: set[tuple[str, str]]) -> list[str]:
    """Problems with one suite report on matrix_algebra(a3, 3)."""
    data = report.as_dict()
    problems = []
    if data["summary"]["failures"] != 0 or _failures(data) != 0:
        problems.append(f"m3a3 {suite}: report lists failed checks")
    if suite == "locality":
        found = {
            tuple(r["id"].split("/", 1)[1].split(","))
            for r in data["records"]
            if r["verdict"] == "nonlocal" and r["id"] != "locality/summary"
        }
        summary = [r for r in data["records"] if r["id"] == "locality/summary"]
        pairs = summary[0]["orders"].get("nonlocal_pairs") if summary else None
        if found != expected_pairs or pairs != len(expected_pairs):
            problems.append(
                f"m3a3 locality: {len(found)} nonlocal pairs (summary {pairs}), "
                f"expected {len(expected_pairs)}"
            )
    return problems


def pin(root: Path) -> None:
    """Write the (id, kind, verdict, exact) of every fixture record from the current code."""
    import contextlib
    import io
    import sys

    sys.path.insert(0, str(root / "src"))
    from vertexcalc import cli

    pinned = {}
    for name in FIXTURES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["check", str(root / "fixtures" / f"{name}.json"), "--format", "json"])
        pinned[name] = record_keys(json.loads(buf.getvalue()))
    blocks = [
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(r) for r in recs) + "\n]"
        for name, recs in pinned.items()
    ]
    PINNED_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python3 perfbench/oracles.py --pin")
    pin(Path(__file__).resolve().parent.parent)
