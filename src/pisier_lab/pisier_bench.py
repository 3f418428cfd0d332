"""End-to-end operator-norm audits of the Rademacher projection.

The projection lin f is the convolution of f with the linear function L.
Splitting through the proxy P gives lin f = f*P + f*(L-P); the first term is
controlled by E|P| <= 8 ell, the second through the norm's Euclidean sandwich
by the per-level deviation 8 ell / 2^ell, yielding the audited constant
8 ell (1 + d / 2^ell) with d the sandwich's distortion.

L and P are symmetric, so convolving with either scales each spectrum level.
An lp audit with p != 2 measures each term point by point in one (2^(n-1), m)
table of its own: f's values are f's own, one transform if they fit a cache
block, or else two half transforms after the butterfly's first pass,
s[2i] +- s[2i + 1].  P and L live on odd levels, so f*P, lin f and f*(L-P) are
odd, g(x ^ (2^n - 1)) = -g(x), and each is computed at the 2^(n-1) even points
alone: f*P folded from rows 2i and 2i + 1 of the level-multiplied spectrum,
lin f a cache block at a time through _projection_passes, the loop
rademacher_projection runs on the whole cube, and f*(L-P) over f*P.  An l2
audit needs no value table: by Parseval each term is the root of a
level-weighted sum of the spectrum's masses M_k = sum_{|S|=k} ||fhat(S)||_2^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Iterator

import numpy as np

from .cube_fourier import _block_rows, _blocks, _check_dim, _levels, _transform_in_place, inverse_fwht
from .linear_proxy import ProxyKernel, proxy_level_coeffs
from .report import BoundReport, check
from .vector_field import Norm, VectorFunction, _root_mean_square, _square_scale, sandwich_validate


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
    """Smallest odd integer strictly greater than log2(m) / 2: the smallest odd ell with 4^ell > m, in integers."""
    if m < 1:
        raise ValueError(f"target dimension must be positive, got {m}")
    return (int(m).bit_length() + 1) // 2 | 1  # 4^k > m iff 4^k > floor(m) iff 2k >= its bit length


def _projection_passes(start: float | np.ndarray, singles: np.ndarray) -> np.ndarray:
    """sum_j singles[j] x_j + start at the 2^k points x of the k-cube, k = len(singles), as row x of a new table:
    the butterfly's passes on singleton rows, less the additions of zero rows.  Row 0 holds 0.0 + start (a -0.0
    start reads 0.0, as in the butterfly); pass j fills rows 2^j .. 2^(j+1) - 1 with the rows below less singles[j],
    then adds singles[j] to the rows below, so each entry sums its terms in ascending j, as inverse_fwht does."""
    table = np.empty((1 << len(singles), *singles.shape[1:]))
    table[0] = 0.0 + start
    for j, single in enumerate(singles):
        np.subtract(table[: 1 << j], single, out=table[1 << j : 2 << j])
        table[: 1 << j] += single
    return table


def rademacher_projection(f: VectorFunction) -> VectorFunction:
    """lin f(x) = sum_j fhat({j}) x_j as one table, which the vector adopts read-only rather than copying."""
    table = _projection_passes(0.0, f.spectrum[1 << np.arange(f.n)])
    table.flags.writeable = False
    return VectorFunction.from_values(f.n, table)


def _projection_blocks(spec: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """lin f at the even points x = 2i, x_0 = +1, as (rows, block) over aligned power-of-two blocks of rows i, each
    at most a cache block, the block valid until the next is yielded: the passes from fhat({0}) over the low bits of
    i run once, and each block then adds +-fhat({j + 1}) for its high bits j in ascending j, so row i has the bits
    of rademacher_projection's row 2i."""
    count, m = spec.shape[0] // 2, spec.shape[1]
    singles = spec[2 << np.arange(count.bit_length() - 1)]
    rows = _block_rows(count, m)
    low = _projection_passes(spec[1], singles[: rows.bit_length() - 1])
    high = np.empty_like(low)
    for block in _blocks(count, m, rows * m):
        linear = low
        for j in range(rows.bit_length() - 1, len(singles)):
            linear = (np.subtract if block.start >> j & 1 else np.add)(linear, singles[j], out=high)
        yield block, linear


def _parseval_terms(spec: np.ndarray, c: np.ndarray) -> list[float]:
    """The l2 terms lhs, rhs_raw, term_proxy and term_remainder by Parseval: the roots of the level masses M_k =
    sum_{|S|=k} ||fhat(S)||_2^2 weighted by [k=1], 1, c_k^2 and ([k=1] - c_k)^2.  Each row's squares are summed
    alone, and np.add.at adds the row sums into their masses in row order, so no block size changes a bit."""
    scale = _square_scale(max(spec.max(), -spec.min()))
    masses = np.zeros(c.size)
    for rows in _blocks(*spec.shape):
        block = spec[rows] / scale  # exact: a power of two
        np.add.at(masses, _levels(rows), np.add.reduce(np.square(block, out=block), axis=1))
    linear = np.arange(c.size) == 1
    return [scale * math.sqrt(math.fsum(w * masses)) for w in (linear, 1.0, c**2, (linear - c) ** 2)]


def decomposition_audit(f: VectorFunction, norm: Norm, ell: int | None = None) -> PisierAudit:
    """Split lin f through the proxy and measure every step; the audit's checks report its four claims.

    Rejects the norm's sandwich on R^m up front, a ValueError, if it does not validate.
    """
    _check_dim(f.n)
    gate = sandwich_validate(norm, f.m)
    if not gate.holds:
        raise ValueError(
            f"sandwich of {norm.name} rejected: least slack {gate.params['least_slack']:.3e} on the "
            f"{gate.params['worst_side']} side, not 0"
        )
    if ell is None:
        ell = choose_ell(f.m)

    coeffs = proxy_level_coeffs(ProxyKernel(ell), f.n)
    if norm.p == 2.0:
        lhs, rhs_raw, term_proxy, term_remainder = _parseval_terms(f.spectrum, coeffs)
    else:
        # f*P, lin f and f*(L-P) live on odd levels, so each is odd and is measured at the 2^(n-1) even points
        if coeffs[0::2].any():
            raise ValueError(f"the proxy's even levels must vanish, got {coeffs[0::2].tolist()}")
        # Beside f's spectrum the route holds one (2^(n-1), m) table of its own, half, and one 2^n vector of
        # row norms, refilled for each term; an odd term's odd points are the complements of its even ones
        # reversed, x = 2i + 1 of 2(K - 1 - i), K = 2^(n-1), so their norms are the even points' reversed.
        pairs = f.spectrum.reshape(f.size // 2, 2, f.m)
        whole = f.holds_values or _block_rows(f.size, f.m) == f.size  # f's values are its own, or fit a cache block
        if whole:
            rhs_raw = norm.mean_square(f.values_matrix() if f.holds_values else inverse_fwht(f.spectrum))
        half = np.empty(pairs[:, 0].shape)
        norms = np.empty(f.size)
        if not whole:
            # the butterfly's first pass leaves s[2i] + s[2i + 1] at the even points and s[2i] - s[2i + 1] at
            # the odd ones, and its other passes transform each half alone
            for parity, first_pass in enumerate((np.add, np.subtract)):
                first_pass(pairs[:, 0], pairs[:, 1], out=half)
                _transform_in_place(half)
                norms[parity::2] = norm.evaluate_rows(half)
            rhs_raw = _root_mean_square(norms)

        def odd_mean_square() -> float:
            norms[1::2] = norms[-2::-2]
            return _root_mean_square(norms)

        # f*P at the even points: the butterfly's first pass on the level-multiplied spectrum, rows 2i and
        # 2i + 1 at levels |i| and |i| + 1 added as the whole transform adds them, then the other passes
        for rows in _blocks(*half.shape):
            levels = _levels(rows)
            np.multiply(pairs[rows, 0], coeffs[levels, None], out=half[rows])
            half[rows] += pairs[rows, 1] * coeffs[levels + 1, None]
        _transform_in_place(half)
        norms[0::2] = norm.evaluate_rows(half)
        term_proxy = odd_mean_square()
        # convolution is linear: f*(L-P) = lin f - f*P, formed over f*P a block of lin f at a time
        for rows, linear in _projection_blocks(f.spectrum):
            norms[2 * rows.start : 2 * rows.stop : 2] = norm.evaluate_rows(linear)
            np.subtract(linear, half[rows], out=half[rows])
        del linear  # the last lin f block, not held through the remainder's norms
        lhs = odd_mean_square()
        norms[0::2] = norm.evaluate_rows(half)
        term_remainder = odd_mean_square()

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
