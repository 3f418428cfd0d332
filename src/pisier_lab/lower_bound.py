"""Bounded witnesses with a large linear part, and the tailored norm instance.

The product witness takes the imaginary part of prod_j (1 + i x_j / sqrt(n)):
bounded by 3 in sup norm, every singleton coefficient equal to 1/sqrt(n),
level-k coefficients of size n^(-k/2) vanishing at even levels.  Truncating
at level floor(3 sqrt(n)) preserves boundedness up to an explicit binomial
tail while shrinking the spectrum support to quasipolynomially many subsets.
A Chebyshev variant evaluates T_k of the coordinate average instead.

Feeding a witness F into the vector function (f(x))_S = Fhat(S) chi_S(x),
measured in the sup-functional norm over the support family, makes ||f(x)||
constant at ||F||_inf while ||lin f(x)|| stays at the full singleton mass,
which is how the projection's blow-up is exhibited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cube_fourier import (SPARSITY_THRESHOLD, CubeFunction, _require_one_function,
                           spectrum_sparsity, spectrum_support, subset_levels)
from .report import BoundReport, BoundViolationError, ResourceLimitError
from .vector_field import (
    MAX_SUP_FUNCTIONAL_DIM as MAX_INSTANCE_DIM,
    Norm,
    VectorFunction,
    rademacher_projection,
)

MAX_WITNESS_DIM = 20
# CLI cap for the lower-bound and sparsity records: SPARSITY_THRESHOLD drops
# genuine coefficients from n = 19 on, so counted sparsity is not trusted up to 20.
MAX_RECORD_DIM = 16
WITNESS_VARIANTS = ("truncated", "chebyshev")
_INSTANCE_TOL = 1e-10

# imaginary part of i^k by k mod 4, exact
_IM_UNIT_POWERS = (0.0, 1.0, 0.0, -1.0)


def _check_witness_dim(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_WITNESS_DIM:
        raise ValueError(f"witness dimension must lie in 1..{MAX_WITNESS_DIM}, got {n!r}")


def _product_level_coeffs(n: int) -> np.ndarray:
    """Im(i^k) n^(-k/2) for k = 0..n, the product witness's coefficient at every level-k subset."""
    _check_witness_dim(n)
    k = np.arange(n + 1)
    signs = np.asarray(_IM_UNIT_POWERS, dtype=np.float64)[k % 4]
    return signs * (1.0 / math.sqrt(n)) ** k.astype(np.float64)


def build_product_witness(n: int) -> CubeFunction:
    """Im prod_j (1 + i x_j / sqrt(n)), constructed level-exactly from its spectrum."""
    return CubeFunction.from_spectrum(int(n), _product_level_coeffs(n)[subset_levels(n)])


def truncation_level(n: int) -> int:
    """floor(3 sqrt(n)), via integer isqrt so no float floor is trusted."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    return math.isqrt(9 * n)


def build_truncated_witness(n: int) -> CubeFunction:
    """The product witness with all levels above floor(3 sqrt(n)) removed."""
    coeffs = _product_level_coeffs(n)
    coeffs[truncation_level(n) + 1 :] = 0.0
    return CubeFunction.from_spectrum(int(n), coeffs[subset_levels(n)])


def build_chebyshev_witness(n: int) -> CubeFunction:
    """T_k((x_1 + ... + x_n) / n) with k = floor(sqrt(n)).

    Bounded by 1 since the argument stays in [-1, 1].  Evaluated once per
    Hamming-weight class through the three-term recurrence, then spread to
    the 2^n value table.
    """
    _check_witness_dim(n)
    k = math.isqrt(n)
    by_weight = np.empty(n + 1)
    for a in range(n + 1):
        t = (n - 2 * a) / n
        prev, cur = 1.0, t
        if k == 0:
            cur = 1.0
        for _ in range(2, k + 1):
            prev, cur = cur, 2.0 * t * cur - prev
        by_weight[a] = cur
    return CubeFunction.from_values(int(n), by_weight[subset_levels(n)])


def truncation_tail_bound(n: int) -> float:
    """Exact sum of binom(n, k) n^(-k/2) over the removed levels k > floor(3 sqrt(n))."""
    cut = truncation_level(n)
    return math.fsum(math.comb(n, k) * float(n) ** (-k / 2.0) for k in range(cut + 1, n + 1))


def truncation_tail_chain(n: int) -> float:
    """The coarser per-term bound sum of (e sqrt(n) / k)^k over the same levels."""
    cut = truncation_level(n)
    return math.fsum((math.e * math.sqrt(n) / k) ** k for k in range(cut + 1, n + 1))


@dataclass(frozen=True)
class LowerBoundInstance:
    """A witness, its spectrum support family, and the tailored norm instance.

    Both defining invariants are verified point-by-point at construction:
    the norm of f(x) is the witness sup norm for every x, and the norm of
    lin f(x) is the total singleton coefficient mass for every x.
    """

    n: int
    variant: str
    witness: CubeFunction
    family: tuple[int, ...]
    vector: VectorFunction
    norm: Norm
    witness_sup: float
    field_norm_value: float
    linear_norm_value: float

    @property
    def ratio(self) -> float:
        return self.linear_norm_value / self.field_norm_value


def build_witness(n: int, variant: str) -> CubeFunction:
    """The witness named by one of WITNESS_VARIANTS."""
    if variant == "truncated":
        return build_truncated_witness(n)
    if variant == "chebyshev":
        return build_chebyshev_witness(n)
    raise ValueError(f"unknown witness variant {variant!r}")


def _require_constant(claim: str, failure: str, per_point: np.ndarray, target: float,
                      n: int, variant: str) -> None:
    """Raise BoundViolationError, reporting the worst point, unless every norm is target."""
    worst = int(np.argmax(np.abs(per_point - target)))
    spread = abs(float(per_point[worst]) - target)
    if not spread <= _INSTANCE_TOL:  # a NaN norm fails too
        raise BoundViolationError(
            f"instance invariant failed: {failure} by {spread:.3e}",
            BoundReport.of(claim, per_point[worst], target,
                           {"n": n, "variant": variant, "point": worst, "tol": _INSTANCE_TOL}),
        )


def lower_bound_instance(n: int, variant: str = "truncated") -> LowerBoundInstance:
    """Build the witness instance and verify its two invariants by enumeration.

    A point where either invariant fails raises BoundViolationError.
    """
    if n > MAX_INSTANCE_DIM:
        raise ResourceLimitError(
            f"instance mode capped at n={MAX_INSTANCE_DIM} (sup-functional scans cost n*4^n)"
        )
    witness = build_witness(n, variant)
    spectrum = witness.spectrum
    family = spectrum_support(witness)
    if family.size == 0:
        raise ValueError("witness spectrum is empty at this threshold")

    # coordinate S has the single coefficient Fhat(S) at S, so f(x)_S = Fhat(S) chi_S(x)
    spectra = np.zeros((1 << n, family.size))
    spectra[family, np.arange(family.size)] = spectrum[family]
    vector = VectorFunction.from_spectrum_matrix(n, spectra)
    del spectra  # the vector holds its own copy; do not keep a second one alive
    norm = Norm.sup_functional(n, family)

    witness_sup = witness.sup_norm()
    per_point = norm.evaluate_rows(vector.values_matrix())
    _require_constant("instance-field-norm", "||f(x)|| deviates from ||F||_inf",
                      per_point, witness_sup, n, variant)

    lin_rows = rademacher_projection(vector).values_matrix()
    lin_per_point = norm.evaluate_rows(lin_rows)
    singleton_mass = math.fsum(
        abs(float(spectrum[mask])) for mask in family if int(mask).bit_count() == 1
    )
    _require_constant("instance-linear-norm", "||lin f(x)|| deviates from the singleton mass",
                      lin_per_point, singleton_mass, n, variant)

    return LowerBoundInstance(
        n=int(n),
        variant=variant,
        witness=witness,
        family=tuple(int(m) for m in family),
        vector=vector,
        norm=norm,
        witness_sup=witness_sup,
        field_norm_value=float(per_point[0]),
        linear_norm_value=float(lin_per_point[0]),
    )


def structural_sparsity(n: int, variant: str = "truncated") -> int:
    """Count of subsets that survive by construction, with no numerics involved.

    Truncated witness: odd levels up to floor(3 sqrt(n)).  Chebyshev witness:
    levels of the parity of floor(sqrt(n)) up to that degree (an upper bound
    that is exact unless a coefficient vanishes accidentally).
    """
    if variant == "truncated":
        cut = truncation_level(n)
        return sum(math.comb(n, k) for k in range(1, min(cut, n) + 1, 2))
    if variant == "chebyshev":
        k = math.isqrt(n)
        return sum(math.comb(n, j) for j in range(k % 2, k + 1, 2))
    raise ValueError(f"unknown witness variant {variant!r}")


def sparsity_inequality_check(f: CubeFunction, rescale: bool = False) -> BoundReport:
    """Record log2 of the spectrum sparsity next to the singleton coefficient mass.

    Record only: the two quantities and their ratio are reported, and no
    universal constant relating them is asserted.  The function must be
    bounded by 1 in sup norm; pass rescale=True to divide it down first.
    """
    _require_one_function(f)
    sup = f.sup_norm()
    scale = 1.0
    checked = f
    if sup > 1.0 + 1e-9:
        if not rescale:
            raise ValueError(
                f"sup norm {sup:.6g} exceeds 1; pass rescale=True to normalize first"
            )
        scale = sup
        # scale the spectrum, so a function held as values is transformed once
        checked = CubeFunction.from_spectrum(f.n, f.spectrum * (1.0 / sup))

    sparsity = spectrum_sparsity(checked)
    if sparsity == 0:
        raise ValueError("zero function: the spectrum has no support to count")
    singletons = [1 << j for j in range(f.n)]
    level1_sum = math.fsum(abs(float(checked.spectrum[s])) for s in singletons)
    level1_sum_raw = math.fsum(abs(float(f.spectrum[s])) for s in singletons)
    log2_sparsity = math.log2(sparsity)
    ratio = log2_sparsity / level1_sum if level1_sum > 0 else 0.0
    return BoundReport.of(
        "log-sparsity-vs-singleton-mass",
        log2_sparsity,
        level1_sum,
        params={
            "n": f.n,
            "sparsity": int(sparsity),
            "level1_sum": level1_sum,
            "level1_sum_raw": level1_sum_raw,
            "scale": scale,
            "ratio": ratio,
            "threshold": SPARSITY_THRESHOLD,
        },
    )
