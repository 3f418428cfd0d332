"""Shared report record and error types for bound verification."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any


class ResourceLimitError(ValueError):
    """A requested dimension exceeds the configured table caps."""


class BoundViolationError(Exception):
    """A checked inequality failed beyond its tolerance."""

    def __init__(self, message: str, report: "BoundReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class BoundReport:
    """Record of one checked inequality lhs <= rhs, with slack = rhs - lhs."""

    claim: str
    lhs: float
    rhs: float
    slack: float
    params: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def of(cls, claim: str, lhs: float, rhs: float, params: dict[str, Any] | None = None) -> "BoundReport":
        lhs = float(lhs)
        rhs = float(rhs)
        return cls(claim=claim, lhs=lhs, rhs=rhs, slack=rhs - lhs, params=dict(params or {}))

    def holds(self, tol: float = 0.0) -> bool:
        return self.slack >= -tol

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)
