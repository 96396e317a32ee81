"""Verdict containers shared by all checkers.

Every failed check carries at least one witness that reproduces the failure:
which basis tuple, which exponent, and the two values that disagree.  The
values are the kernel's sparse vectors {k: c}, or a plain string where the
failure is not a vector equation; `basis` names the coordinates k, and
`describe` is the one place that turns them into text.  The
`exact` flag distinguishes exact-complete verdicts (support-certified, no
window truncation in play) from window-sound ones (refutations are still
conclusive; confirmations hold on the observed window only).

A single relation (the locality or weak associativity of given basis
vectors) is answered by its refuting Witness, or None when it holds.  Its
order, the power of (x1-x2) or (x0+x2), is then 0: on finitely supported
data that is a stated invariant, not a search result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import SparseVec, format_rational

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def combination(v: SparseVec | str, basis: tuple[str, ...]) -> str:
    """A witness side as text: a string as it is, a vector as its "c name" terms or "0".

    The terms come in increasing k, joined by " + ", with c in the rational
    format of the file format (format_rational).
    """
    if isinstance(v, str):
        return v
    return " + ".join(f"{format_rational(v[k])} {basis[k]}" for k in sorted(v)) or "0"


@dataclass(frozen=True)
class Witness:
    where: tuple
    exponent: tuple | None
    lhs: SparseVec | str
    rhs: SparseVec | str
    basis: tuple[str, ...] = ()  # the names of the coordinates k of a vector side

    def describe(self) -> str:
        loc = ",".join(str(x) for x in self.where)
        at = f"at ({loc})" if self.exponent is None else f"at ({loc}) exponent {self.exponent}"
        return f"{at}: {combination(self.lhs, self.basis)} != {combination(self.rhs, self.basis)}"


@dataclass
class CheckReport:
    name: str
    verdict: str = PASS
    exact: bool = True
    witnesses: list[Witness] = field(default_factory=list)
    found_orders: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def fail(self, witness: Witness) -> None:
        self.verdict = FAIL
        self.witnesses.append(witness)

    def merge(self, other: "CheckReport") -> None:
        if other.verdict == FAIL:
            self.verdict = FAIL
        elif other.verdict == INCONCLUSIVE and self.verdict == PASS:
            self.verdict = INCONCLUSIVE
        self.exact = self.exact and other.exact
        self.witnesses.extend(other.witnesses)
        self.found_orders.update(other.found_orders)
        self.notes.extend(other.notes)

    def __repr__(self) -> str:
        tag = "" if self.exact else " (window-sound)"
        return f"CheckReport({self.name}: {self.verdict}{tag})"
