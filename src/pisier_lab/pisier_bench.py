"""End-to-end operator-norm audits of the Rademacher projection.

The projection lin f is the convolution of f with the linear function L.
Splitting through the proxy P gives lin f = f*P + f*(L-P); the first term is
controlled by E|P| <= 8 ell, the second through the norm's Euclidean sandwich
by the per-level deviation 8 ell / 2^ell, yielding the audited constant
8 ell (1 + d / 2^ell) with d the sandwich's distortion.

L and P are symmetric, so convolving with either scales each spectrum level:
an audit runs two batched transforms, for f and f*P, and no more.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .cube_fourier import _check_dim, inverse_fwht, level_multiply
from .linear_proxy import ProxyKernel, proxy_level_coeffs
from .report import BoundReport, check
from .vector_field import (
    MAX_SUP_FUNCTIONAL_DIM,
    Norm,
    VectorFunction,
    rademacher_projection,
    sandwich_validate,
)

MAX_AUDIT_DIM = 16


@dataclass(frozen=True)
class PisierAudit:
    """One audited instance: both sides, both split terms, and the derived constant."""

    n: int
    m: int
    ell: int
    norm: str
    distortion: float
    lhs: float
    rhs_raw: float
    term_proxy: float
    term_remainder: float
    derived_constant: float

    @property
    def ratio(self) -> float:
        if self.rhs_raw == 0.0 and self.lhs == 0.0:
            return 0.0
        return self.lhs / self.rhs_raw

    @property
    def slack(self) -> float:
        return self.derived_constant * self.rhs_raw - self.lhs

    @property
    def checks(self) -> tuple[BoundReport, ...]:
        """The four claims of the split, each a report: both term bounds, the triangle inequality, the derived bound."""
        level = 8.0 * self.ell
        return (
            check("proxy-term-bound", self.term_proxy, level * self.rhs_raw),
            check("remainder-term-bound", self.term_remainder,
                  (level * self.distortion / 2.0**self.ell) * self.rhs_raw),
            check("split-triangle-inequality", self.lhs, self.term_proxy + self.term_remainder),
            check("projection-derived-bound", self.lhs, self.derived_constant * self.rhs_raw),
        )

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "ratio": self.ratio, "slack": self.slack}


def choose_ell(m: int) -> int:
    """Smallest odd integer strictly greater than log2(m) / 2."""
    if m < 1:
        raise ValueError(f"target dimension must be positive, got {m}")
    k = math.floor(0.5 * math.log2(m)) + 1
    return k if k % 2 else k + 1


def decomposition_audit(f: VectorFunction, norm: Norm, ell: int | None = None) -> PisierAudit:
    """Split lin f through the proxy and measure every step; the audit's checks report its four claims.

    Rejects the norm's sandwich on R^m up front, a ValueError, if it does not validate.
    """
    _check_dim(f.n, MAX_SUP_FUNCTIONAL_DIM if norm.kind == "sup_functional" else MAX_AUDIT_DIM)
    gate = sandwich_validate(norm, f.m)
    if not gate.holds:
        raise ValueError(
            f"sandwich of {norm.name} rejected: worst slack {gate.slack:.3e} on the "
            f"{gate.params['worst_side']} side"
        )
    if ell is None:
        ell = choose_ell(f.m)

    kernel = ProxyKernel(ell)
    rhs_raw = norm.mean_square(f.values_matrix())
    # f*P in value space; its (2^n, m) spectrum is dropped once transformed
    coeffs = proxy_level_coeffs(kernel, f.n)
    split = inverse_fwht(level_multiply(f.spectrum, coeffs))
    term_proxy = norm.mean_square(split)
    linear = rademacher_projection(f).values_matrix()
    lhs = norm.mean_square(linear)
    # convolution is linear: f*(L-P) = lin f - f*P, formed in the f*P buffer
    np.subtract(linear, split, out=split)
    term_remainder = norm.mean_square(split)

    _, d = norm.sandwich(f.m)
    derived = 8.0 * ell * (1.0 + d / 2.0**ell)
    return PisierAudit(
        n=f.n,
        m=f.m,
        ell=int(ell),
        norm=norm.name,
        distortion=d,
        lhs=lhs,
        rhs_raw=rhs_raw,
        term_proxy=term_proxy,
        term_remainder=term_remainder,
        derived_constant=derived,
    )
