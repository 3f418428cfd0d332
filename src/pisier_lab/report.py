"""The tolerance of every checked claim, the report of one check, and the resource error."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


class ResourceLimitError(ValueError):
    """A requested dimension exceeds the configured table caps."""


# Each claim's tolerance, keyed by claim name; "name[i]" is the i-th claim of one kind and reads
# the tolerance of "name".  An equality a = b is checked as |a - b| <= 0.
TOLERANCES: dict[str, float] = {
    # the proxy construction; the geometric sums are the kernel's self-check, which raises
    "grid-geometric-sum": 1e-10,
    "kernel-moment": 1e-10,
    "kernel-l1-bound": 0.0,
    "proxy-l1-bound": 0.0,
    "proxy-low-level-match": 1e-10,
    "proxy-level-deviation": 0.0,
    # the projection audit and its sandwich gate (a precondition)
    "sandwich-attained": 1e-9,  # the larger |least slack| of the two sides
    "proxy-term-bound": 1e-9,
    "remainder-term-bound": 1e-9,
    "split-triangle-inequality": 1e-9,
    "projection-derived-bound": 1e-9,
    # the witnesses
    "product-witness-sup": 0.0,
    "truncation-tail": 1e-15,
    "singleton-coefficient": 1e-12,
    "singleton-spread": 1e-12,
    "singleton-roundtrip": 1e-12,
    "singleton-mass-floor": 1e-12,  # equality for the Chebyshev witness at n <= 8, the truncated at n <= 2
    "sparsity-exact": 0.0,
    "chebyshev-witness-sup": 1e-12,
    # the lower-bound instance's invariants; each column of the instance holds one nonzero coefficient,
    # so its butterfly adds only exact zeros and the embedding and the linear spectrum are exact
    "instance-field-norm": 1e-10,
    "instance-embedding": 0.0,
    "instance-linear-spectrum": 0.0,
    "instance-linear-norm": 1e-10,
    # the sparsity record: a function above sup norm 1 by more than this is rescaled or rejected;
    # the record asserts no constant between its two sides
    "unit-sup-norm": 1e-9,
    "log-sparsity-vs-singleton-mass": math.inf,
}


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs <= rhs: it holds iff slack = rhs - lhs >= -tol, so a NaN fails."""

    claim: str
    lhs: float
    rhs: float
    tol: float
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -self.tol

    def to_dict(self) -> dict[str, Any]:
        """The entry of a payload's checks array."""
        return {"claim": self.claim, "lhs": self.lhs, "rhs": self.rhs, "slack": self.slack,
                "tol": self.tol, "holds": self.holds}


def check(claim: str, lhs: float, rhs: float, **params: Any) -> BoundReport:
    """The report of lhs <= rhs at the claim's tolerance from TOLERANCES; params record its context."""
    return BoundReport(claim, float(lhs), float(rhs), TOLERANCES[claim.partition("[")[0]], params)
