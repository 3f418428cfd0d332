"""Vector-valued cube functions, the norm suite, and convolution facts.

A VectorFunction is a CubeFunction whose table is (2^n, m): row x is the
vector f(x), row S the vector coefficient fhat(S).  Norms on the target
space come in two kinds: the lp family and the sup-functional norm (the sup
norm of the function whose spectrum is the vector, over a fixed subset
family).  All cube averages are exact enumerations over the 2^n
points; sampling appears only in sandwich validation, where the inequality
ranges over all of R^m and cannot be enumerated.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .cube_fourier import CubeFunction, _check_dim, character_values, inverse_fwht
from .cube_fourier import inverse_fwht_rows  # noqa: F401 - re-exported, the row view of inverse_fwht
from .report import BoundReport, check

# cap for sup-functional norms: an audit's per-point scan runs 2^n inverse transforms of
# 2^n points, n * 4^n in all; the lower-bound instance holds a (2^n, |family|) table,
# 8,192 x 4,017 doubles (263 MB) for the truncated witness at n = 13
MAX_SUP_FUNCTIONAL_DIM = 12
# doubles per row block of the sup-functional scan and the instance check: 512 KB, cache-sized
_SUP_CHUNK_DOUBLES = 1 << 16
GATE_SAMPLES = 64  # random directions of the sandwich gate, besides the 2m signed basis vectors


class VectorFunction(CubeFunction):
    """Function from the cube to R^m: a CubeFunction whose tables are (2^n, m)."""

    __slots__ = ()
    _RANKS = (2,)

    @property
    def m(self) -> int:
        return self.shape[1]

    def values_matrix(self) -> np.ndarray:
        return self.values


class Norm:
    """Norm on R^m: lp, or sup-functional over a subset family."""

    def __init__(self, kind: str, *, p=None, n_dual=None, family=None):
        if kind == "lp":
            p, n_dual, family = float(p), None, None
            if not p >= 1.0:  # also rejects NaN
                raise ValueError(f"lp norms need p >= 1, got {p}")
        elif kind == "sup_functional":
            _check_dim(n_dual)
            family = np.asarray(family, dtype=np.int64)
            if family.size == 0:
                raise ValueError("subset family is empty")
            if family.size > 1 and not np.all(family[1:] > family[:-1]):
                # silent reordering would reinterpret coefficient vectors
                raise ValueError("subset family must be strictly ascending by bitmask")
            if family.min() < 0 or family.max() >= (1 << n_dual):
                raise ValueError(f"subset family has masks out of range for n_dual={n_dual}")
            family.flags.writeable = False
            p, n_dual = None, int(n_dual)
        else:
            raise ValueError(f"unknown norm kind {kind!r}")
        self.kind = kind
        self.p = p
        self.n_dual = n_dual
        self.family = family

    @classmethod
    def lp(cls, p: float) -> "Norm":
        return cls("lp", p=p)

    @classmethod
    def sup_functional(cls, n_dual: int, family: Sequence[int]) -> "Norm":
        """Vectors indexed by the family, measured as the sup norm of g_v.

        The family is held in ascending bitmask order so coefficient vectors
        mean the same thing across runs.
        """
        return cls("sup_functional", n_dual=n_dual, family=family)

    @property
    def dim(self) -> int | None:
        """m for a sup-functional norm, which lives on R^|family|; None for lp, which fits any m."""
        return None if self.family is None else int(self.family.size)

    @property
    def name(self) -> str:
        if self.kind == "sup_functional":
            return f"sup_functional(n={self.n_dual},|family|={self.dim})"
        if math.isinf(self.p):
            return "linf"
        return f"l{int(self.p)}" if self.p == int(self.p) else f"lp({self.p:g})"

    def sandwich(self, m: int) -> tuple[float, float]:
        """(s, d) with s ||x||_2 <= ||x|| <= d s ||x||_2 on R^m: the Euclidean sandwich of the audit.

        lp: the sharp lp-vs-l2 constants.  Sup-functional, by Parseval on the
        dual cube: ||v||_2 = ||g_v||_2 <= ||g_v||_inf <= ||v||_1 <= sqrt(m) ||v||_2,
        so s = 1 and d = sqrt(m).
        """
        if self.kind == "sup_functional":
            return 1.0, math.sqrt(m)
        inv_p = 1.0 / self.p  # 0 at p = inf
        if self.p >= 2.0:
            scale = m ** (inv_p - 0.5)
            distortion = m ** (0.5 - inv_p)
        else:
            scale = 1.0
            distortion = m ** (inv_p - 0.5)
        return scale, max(1.0, distortion)

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """Norms of the rows of a (k, m) matrix."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("evaluate_rows expects a 2-D array")
        if self.dim is not None and rows.shape[1] != self.dim:
            raise ValueError(f"norm is on R^{self.dim}, got vectors in R^{rows.shape[1]}")
        if self.kind == "lp":
            return np.linalg.norm(rows, ord=self.p, axis=1)
        return self._sup_functional_rows(rows)

    def _sup_functional_rows(self, rows: np.ndarray) -> np.ndarray:
        size = 1 << self.n_dual
        out = np.empty(rows.shape[0])
        chunk = max(1, _SUP_CHUNK_DOUBLES // size)
        for start in range(0, rows.shape[0], chunk):
            block = rows[start : start + chunk]
            embedded = np.zeros((size, block.shape[0]))
            embedded[self.family] = block.T
            # column j is g_v for v the j-th row of the block
            out[start : start + chunk] = np.abs(inverse_fwht(embedded)).max(axis=0)
        return out

    def mean_square(self, table) -> float:
        """(E ||row||^2)^(1/2) over the rows of a value table, one row per cube point."""
        return float(np.sqrt(np.mean(self.evaluate_rows(table) ** 2)))

    def __repr__(self):
        return f"Norm({self.name})"


def sandwich_validate(norm: Norm, m: int) -> BoundReport:
    """Check the norm's sandwich on R^m on GATE_SAMPLES random unit directions plus signed basis vectors.

    A violation beyond the claim's tolerance makes the returned report fail;
    it does not raise, so callers can surface the worst direction.
    """
    scale, distortion = norm.sandwich(m)
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((GATE_SAMPLES, m))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    points = np.vstack([dirs, np.eye(m), -np.eye(m)])
    euclid = scale * np.linalg.norm(points, axis=1)
    target = norm.evaluate_rows(points)
    lower_slack = target - euclid
    upper_slack = distortion * euclid - target
    if lower_slack.min() <= upper_slack.min():
        worst = int(np.argmin(lower_slack))
        lhs, rhs = float(euclid[worst]), float(target[worst])
        side = "lower"
    else:
        worst = int(np.argmin(upper_slack))
        lhs, rhs = float(target[worst]), float(distortion * euclid[worst])
        side = "upper"
    return check("sandwich-two-sided-comparison", lhs, rhs, m=m, distortion=distortion, norm=norm.name,
                 worst_side=side)


def rademacher_projection(f: VectorFunction) -> VectorFunction:
    """lin f(x) = sum_j fhat({j}) x_j, formed as a (2^n, n) by (n, m) product with no transform."""
    singletons = 1 << np.arange(f.n)
    coordinates = character_values(f.n, singletons)  # column j is x_j
    return VectorFunction.from_values(f.n, coordinates @ f.spectrum[singletons])


def young_bound_check(f: VectorFunction, g: CubeFunction, norm: Norm) -> BoundReport:
    """Convolution contraction: msn(f * g) <= E|g| * msn(f) for any norm."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    lhs = norm.mean_square(inverse_fwht(f.spectrum * g.spectrum[:, None]))
    g_l1 = float(np.mean(np.abs(g.values)))
    rhs = g_l1 * norm.mean_square(f.values_matrix())
    return check("convolution-l1-contraction", lhs, rhs, n=f.n, m=f.m, norm=norm.name, g_l1=g_l1)

