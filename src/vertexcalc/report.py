"""Verdict containers shared by all checkers.

Every failed check carries at least one witness that reproduces the failure:
which basis tuple, which exponent, and the two values that disagree.  The
`exact` flag distinguishes exact-complete verdicts (support-certified, no
window truncation in play) from window-sound ones (refutations are still
conclusive; confirmations hold on the observed window only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

FOUND = "found"
REFUTED = "refuted"


@dataclass(frozen=True)
class Witness:
    where: tuple
    exponent: tuple | None = None
    lhs: object | None = None
    rhs: object | None = None

    def describe(self) -> str:
        loc = ",".join(str(x) for x in self.where)
        if self.exponent is None:
            return f"at ({loc}): {self.lhs} != {self.rhs}"
        return f"at ({loc}) exponent {self.exponent}: {self.lhs} != {self.rhs}"


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


@dataclass
class OrderSearch:
    """Outcome of a locality, associativity or compatibility order question.

    At finite dimension each of these orders is a stated invariant, not the
    result of a search: the relation holds at order 0 (FOUND) or at no order
    (REFUTED, with a witness).
    """

    status: str  # FOUND | REFUTED
    order: int | None = None
    exact: bool = True
    witness: Witness | None = None

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def __repr__(self) -> str:
        if self.found:
            tag = "" if self.exact else ", window-sound"
            return f"Found({self.order}{tag})"
        return "Refuted()"
