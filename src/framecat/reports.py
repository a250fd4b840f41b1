"""Validation and check reports.

Every validator returns a Report listing the violated laws, each with a
small witness (an element, pair or triple of indices).  Validation is
layered: composite validators stop at the first failing layer so the
witnesses stay meaningful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional


class WorkbenchError(Exception):
    """Base error for the workbench."""


class BoundExceeded(WorkbenchError):
    """A size guard was hit before running a check."""


class InternalError(Exception):
    """An invariant that holds for every valid input failed: a fault of the
    program, not of the input or of a checked law."""


# hard limit on the side of a table built from outside input: the arrows of
# a document's category, the elements of a generated corpus; also the
# default max_elements of every builder, which --max-elements cannot pass
MAX_TABLE_SIDE = 4096
# hard limit on the arrows a hom-set or isomorphism search maps, which
# --max-arrows cannot pass: adjunction II lists up to 2^max_arrows S-filter
# opens; also the default max_arrows of every search and adjunction check
MAX_ARROWS = 16


def require_at_most(count: int, bound: int, what: str, name: str = "max_elements") -> None:
    """The one refusal past a bound: of every builder past its max_elements
    and of every arrow search past its max_arrows.  `what` names the object
    and what is counted, with the count at {} ("at least" while a listing
    grows), and the message ends "> <name>=<bound>"."""
    if count > bound:
        raise BoundExceeded(f"{what.format(count)} > {name}={bound}")


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.law} witness={self.witness}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


@dataclass
class Report:
    subject: str
    violations: list[Violation] = field(default_factory=list)
    layers_run: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, witness: tuple, detail: str = "") -> None:
        self.violations.append(Violation(law, tuple(witness), detail))

    def extend(self, other: "Report") -> None:
        self.violations.extend(other.violations)
        self.layers_run.extend(other.layers_run)

    def laws(self) -> list[str]:
        return [v.law for v in self.violations]


@dataclass(frozen=True)
class CheckReport:
    """One named check over one instance, as streamed by the CLI."""

    instance: str
    check: str
    status: str  # "pass" | "fail" | "skipped"
    witness: Optional[tuple] = None
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.status]
        msg = f"[{tag}] {self.instance} :: {self.check} ({self.seconds:.3f}s)"
        if self.status == "fail":
            msg += f" witness={self.witness}"
        if self.detail:
            msg += f" {self.detail}"
        return msg

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "instance": self.instance,
            "check": self.check,
            "status": self.status,
            "seconds": round(self.seconds, 6),
        }
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


def run_check(instance: str, check: str, fn: Callable[[], tuple[bool, Optional[tuple], str]]) -> CheckReport:
    t0 = time.perf_counter()
    ok, witness, detail = fn()
    dt = time.perf_counter() - t0
    return CheckReport(instance, check, "pass" if ok else "fail", witness, detail, dt)


def sort_reports(reports: Iterable[CheckReport]) -> list[CheckReport]:
    return sorted(reports, key=lambda r: (r.instance, r.check))
