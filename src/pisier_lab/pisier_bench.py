"""End-to-end operator-norm audits of the Rademacher projection.

The projection lin f is the convolution of f with the linear function L.
Splitting through the proxy P gives lin f = f*P + f*(L-P); the first term is
controlled by E|P| <= 8 ell, the second through the norm's Euclidean sandwich
by the per-level deviation 8 ell / 2^ell, yielding the audited constant
8 ell (1 + d / 2^ell) with d the sandwich's distortion.

L and P are symmetric, so convolving with either scales each spectrum level.
An lp audit with p != 2 measures each term point by point: f through one
batched transform of its spectrum, unless f holds its values.  P and L live
on odd levels, so f*P, lin f and f*(L-P) are odd, g(x ^ (2^n - 1)) = -g(x),
and each is computed at the 2^(n-1) even points alone: f*P through one
half-size transform, lin f through _projection_passes, the loop
rademacher_projection runs on the whole cube.  An l2 audit needs no value
table: by Parseval each term is the root of a level-weighted sum of the
spectrum's masses M_k = sum_{|S|=k} ||fhat(S)||_2^2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .cube_fourier import _blocks, _check_dim, _levels, inverse_fwht, level_multiply
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


def _projection_at_even_points(spec: np.ndarray) -> np.ndarray:
    """lin f at the even points x = 2i, x_0 = +1, as row i of a new (2^(n-1), m) table: fhat({0}) is pass 0's sum
    at x = 0, and the passes j = 1 .. n-1 run from it, so row i has the bits of rademacher_projection's row 2i."""
    return _projection_passes(spec[1], spec[2 << np.arange(spec.shape[0].bit_length() - 2)])


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


def _odd_mean_square(norm: Norm, half: np.ndarray) -> float:
    """(E ||g(x)||^2)^(1/2) over the cube of an odd g, g(x ^ (2^n - 1)) = -g(x), from its rows at the even points,
    row i at x = 2i.  x = 2i + 1 is the complement of 2(K - 1 - i), K = 2^(n-1), so the odd points' norms are the
    even ones reversed, and the mean adds all 2^n norms in point order, as Norm.mean_square does."""
    even = norm.evaluate_rows(half)
    norms = np.empty(2 * even.size)
    norms[0::2] = even
    norms[1::2] = even[::-1]
    return _root_mean_square(norms)


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
        # At most f's spectrum and one (2^n, m) table live at once.  f's value table is used if f
        # holds it, else it is transformed into a table of the audit's own, dropped after its norm,
        # so that f is left as it came.
        rhs_raw = norm.mean_square(f.values_matrix() if f.holds_values else inverse_fwht(f.spectrum))
        # the butterfly's first pass, + half: rows 2i and 2i + 1 of the level-multiplied spectrum, at levels |i|
        # and |i| + 1, added as the whole transform adds them; the other passes never leave the even rows
        pairs = f.spectrum.reshape(f.size // 2, 2, f.m)
        fold = level_multiply(pairs[:, 0], coeffs[:-1])
        fold += level_multiply(pairs[:, 1], coeffs[1:])
        split = inverse_fwht(fold)  # f*P at the even points
        del fold
        term_proxy = _odd_mean_square(norm, split)
        linear = _projection_at_even_points(f.spectrum)
        lhs = _odd_mean_square(norm, linear)
        # convolution is linear: f*(L-P) = lin f - f*P, formed in the f*P buffer
        np.subtract(linear, split, out=split)
        term_remainder = _odd_mean_square(norm, split)

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
