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
which is how the projection's blow-up is exhibited.  Both are group
identities: row x embeds as the translate z -> F(x . z), and lin f(x) as the
translate of lin F.  The instance is verified through that structure: each
norm is evaluated once, at x = 0, and every row is checked against the
character formula, so no per-point norm scan runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .cube_fourier import (SPARSITY_THRESHOLD, CubeFunction, _check_dim, _finite,
                           _require_one_function, fwht, popcount, spectrum_sparsity, spectrum_support,
                           subset_levels)
from .report import BoundReport, check
from .vector_field import (
    _SUP_CHUNK_DOUBLES,
    MAX_SUP_FUNCTIONAL_DIM as MAX_INSTANCE_DIM,
    Norm,
    VectorFunction,
)

# cap for the witnesses and the lower-bound and sparsity records built on them:
# SPARSITY_THRESHOLD drops genuine coefficients from n = 19 on, so counted sparsity fails there.
MAX_RECORD_DIM = 16
WITNESS_VARIANTS = ("truncated", "chebyshev")

# imaginary part of i^k by k mod 4, exact
_IM_UNIT_POWERS = (0.0, 1.0, 0.0, -1.0)


def _product_level_coeffs(n: int) -> np.ndarray:
    """Im(i^k) n^(-k/2) for k = 0..n, the product witness's coefficient at every level-k subset."""
    _check_dim(n, MAX_RECORD_DIM)
    k = np.arange(n + 1)
    signs = np.asarray(_IM_UNIT_POWERS, dtype=np.float64)[k % 4]
    return signs * (1.0 / math.sqrt(n)) ** k.astype(np.float64)


def build_product_witness(n: int) -> CubeFunction:
    """Im prod_j (1 + i x_j / sqrt(n)), constructed level-exactly from its spectrum."""
    return CubeFunction.from_spectrum(int(n), _product_level_coeffs(n)[subset_levels(n)])


def truncation_level(n: int) -> int:
    """floor(3 sqrt(n)), via integer isqrt so no float floor is trusted."""
    _check_dim(n, None)
    return math.isqrt(9 * n)


def build_truncated_witness(n: int) -> CubeFunction:
    """The product witness with all levels above floor(3 sqrt(n)) removed."""
    coeffs = _product_level_coeffs(n)
    coeffs[truncation_level(n) + 1 :] = 0.0
    return CubeFunction.from_spectrum(int(n), coeffs[subset_levels(n)])


def _chebyshev_degree(n: int) -> int:
    """The largest odd k <= floor(sqrt(n)): an even k makes T_k even, and the witness's whole level 1 vanish."""
    _check_dim(n, None)
    k = math.isqrt(n)
    return k if k % 2 else k - 1


def build_chebyshev_witness(n: int) -> CubeFunction:
    """T_k((x_1 + ... + x_n) / n) with k the largest odd integer at most sqrt(n).

    Bounded by 1 since the argument stays in [-1, 1].  Evaluated once per
    Hamming-weight class through the three-term recurrence, then spread to
    the 2^n value table.
    """
    _check_dim(n, MAX_RECORD_DIM)
    k = _chebyshev_degree(n)
    by_weight = np.empty(n + 1)
    for a in range(n + 1):
        t = (n - 2 * a) / n
        prev, cur = 1.0, t  # T_0 and T_1; k is odd, so k >= 1
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
    """A witness, its spectrum support family, the tailored norm instance, and the checks of its invariants.

    Both defining invariants are checked structurally at construction: the
    norm of f(0) is the witness sup norm and every row f(x) is exactly the
    translate Fhat(S) chi_S(x) of f(0), so the norm of f(x) is that sup norm
    for every x; the singleton rows of the spectrum hold Fhat({j}) alone, so
    lin f(x) is a translate of lin f(0), whose norm is the total singleton
    coefficient mass.  checks holds one report for each of those four facts.
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
    checks: tuple[BoundReport, ...]

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


def _embedding_check(values: np.ndarray, family: np.ndarray, coeffs: np.ndarray) -> BoundReport:
    """Check values[x, j] == Fhat(S_j) chi_{S_j}(x) at every x, reporting the worst entry.

    The character signs come from popcount(x & S_j), in row blocks of about
    _SUP_CHUNK_DOUBLES doubles, so no full-table temporary is formed.
    """
    masks = family.astype(np.uint32)
    rows = max(1, _SUP_CHUNK_DOUBLES // masks.size)
    worst, where = -1.0, (0, 0)  # |values[x, j] - its character formula|, and (x, j)
    for start in range(0, values.shape[0], rows):
        block = values[start : start + rows]
        points = np.arange(start, start + block.shape[0], dtype=np.uint32)
        odd = (popcount(np.bitwise_and.outer(points, masks)) & 1).astype(bool)
        deviation = np.where(odd, -coeffs, coeffs)
        np.subtract(block, deviation, out=deviation)
        np.abs(deviation, out=deviation)
        x, j = divmod(int(np.argmax(deviation)), masks.size)  # argmax stops at a NaN
        if not deviation[x, j] <= worst:
            worst, where = float(deviation[x, j]), (start + x, j)
            if math.isnan(worst):
                break
    x, j = where
    return check("instance-embedding", worst, 0.0, point=x, subset=int(family[j]))


def lower_bound_instance(n: int, variant: str = "truncated") -> LowerBoundInstance:
    """Build the witness instance and check its invariants through its translation structure."""
    _check_dim(n, MAX_INSTANCE_DIM)
    witness = build_witness(n, variant)
    spectrum = witness.spectrum
    family = spectrum_support(witness)
    if family.size == 0:
        raise ValueError("witness spectrum is empty at this threshold")
    coeffs = spectrum[family]

    # coordinate S has the single coefficient Fhat(S) at S, so f(x)_S = Fhat(S) chi_S(x)
    spectra = np.zeros((1 << n, family.size))
    spectra[family, np.arange(family.size)] = coeffs
    spectra.flags.writeable = False  # read-only, so the vector adopts it rather than copying it
    vector = VectorFunction.from_spectrum(n, spectra)
    norm = Norm.sup_functional(n, family)
    witness_sup = witness.sup_norm()
    values = vector.values_matrix()

    field_norm_value = float(norm.evaluate_rows(values[:1])[0])
    # with every row the translate of row 0, ||f(x)|| = ||f(0)|| at every x
    checks = [check("instance-field-norm", abs(field_norm_value - witness_sup), 0.0, point=0),
              _embedding_check(values, family, coeffs)]

    # lin f(x) = sum_j x_j fhat({j}); fhat({j}) is Fhat({j}) at {j} when {j} is in the
    # family and zero otherwise, so lin f(x) is the translate of lin f(0) too
    singletons = 1 << np.arange(n)
    linear_spectrum = vector.spectrum[singletons]
    misplaced = np.abs(linear_spectrum - np.where(family == singletons[:, None], coeffs, 0.0))
    j, c = np.unravel_index(int(np.argmax(misplaced)), misplaced.shape)
    singleton_mass = math.fsum(
        abs(float(spectrum[mask])) for mask in family if int(mask).bit_count() == 1
    )
    linear_norm_value = float(norm.evaluate_rows(linear_spectrum.sum(axis=0, keepdims=True))[0])
    checks += [check("instance-linear-spectrum", misplaced[j, c], 0.0, subset=int(singletons[j]),
                     coordinate=int(family[c])),
               check("instance-linear-norm", abs(linear_norm_value - singleton_mass), 0.0, point=0)]

    return LowerBoundInstance(
        n=int(n),
        variant=variant,
        witness=witness,
        family=tuple(int(m) for m in family),
        vector=vector,
        norm=norm,
        witness_sup=witness_sup,
        field_norm_value=field_norm_value,
        linear_norm_value=linear_norm_value,
        checks=tuple(checks),
    )


def witness_properties(witness: CubeFunction, variant: str) -> tuple[dict[str, Any], list[BoundReport]]:
    """The witness's measured properties, and a report for each one its construction claims.

    Truncated: the product witness is bounded by 3, truncation moves it by at
    most the binomial tail, and every singleton coefficient is 1/sqrt(n), before
    and after a transform round trip.  Chebyshev: the witness is bounded by 1 and
    its singleton coefficients agree.  Both: the singleton mass is at least the
    witness's sup norm, so the blow-up ratio is at least 1, and the counted
    sparsity is the structural count.
    """
    n = witness.n
    singletons = [1 << j for j in range(n)]
    singles = witness.spectrum[singletons]
    counted = spectrum_sparsity(witness)
    structural = structural_sparsity(n, variant)
    measured: dict[str, Any] = {
        "witness_sup": witness.sup_norm(),
        "singleton_coefficient": float(singles[0]),
        "singleton_spread": float(np.abs(singles - singles[0]).max()),
        "singleton_roundtrip_dev": float(np.abs(fwht(witness.values)[singletons] - singles).max()),
        "sparsity_counted": int(counted),
        "sparsity_structural": int(structural),
        "family_log": math.log(max(counted, 1)),
        "family_loglog_ratio": math.log(counted) / math.log(math.log(counted)) if counted > 3 else 0.0,
    }
    spread = check("singleton-spread", measured["singleton_spread"], 0.0)
    both = [check("singleton-mass-floor", measured["witness_sup"], math.fsum(np.abs(singles).tolist())),
            check("sparsity-exact", abs(counted - structural), 0.0)]
    if variant == "chebyshev":
        return measured, [check("chebyshev-witness-sup", measured["witness_sup"], 1.0), spread, *both]

    product = build_product_witness(n)
    measured.update({
        "product_sup": product.sup_norm(),
        "diff_sup": (product - witness).sup_norm(),
        "tail_exact": truncation_tail_bound(n),
        "tail_chain": truncation_tail_chain(n),
        "truncation_level": truncation_level(n),
    })
    return measured, [
        check("product-witness-sup", measured["product_sup"], 3.0),
        check("truncation-tail", measured["diff_sup"], measured["tail_exact"]),
        check("singleton-coefficient", abs(measured["singleton_coefficient"] - 1.0 / math.sqrt(n)), 0.0),
        spread,
        check("singleton-roundtrip", measured["singleton_roundtrip_dev"], 0.0),
        *both,
    ]


def structural_sparsity(n: int, variant: str = "truncated") -> int:
    """Count of subsets that survive by construction, with no numerics involved.

    Both witnesses are odd, so their support is the odd levels up to the top
    one: floor(3 sqrt(n)) for the truncated witness, the degree of T_k for the
    Chebyshev witness.
    """
    _check_dim(n, None)
    if variant == "truncated":
        top = truncation_level(n)
    elif variant == "chebyshev":
        top = _chebyshev_degree(n)
    else:
        raise ValueError(f"unknown witness variant {variant!r}")
    return sum(math.comb(n, k) for k in range(1, min(top, n) + 1, 2))


def sparsity_inequality_check(f: CubeFunction, rescale: bool = False) -> BoundReport:
    """Record log2 of the spectrum sparsity next to the singleton coefficient mass.

    Record only: the two quantities and their ratio are reported, and no
    universal constant relating them is asserted.  The function must be
    bounded by 1 in sup norm; pass rescale=True to divide it down first.
    A spectrum that overflowed to +-inf is rejected before anything is counted.
    """
    _require_one_function(f)
    _finite(f.spectrum, "spectrum")
    sup = f.sup_norm()
    scale = 1.0
    checked = f
    if not check("unit-sup-norm", sup, 1.0).holds:
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
    return check("log-sparsity-vs-singleton-mass", log2_sparsity, level1_sum, n=f.n,
                 sparsity=int(sparsity), level1_sum=level1_sum, level1_sum_raw=level1_sum_raw,
                 scale=scale, ratio=ratio, threshold=SPARSITY_THRESHOLD)
