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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cube_fourier import CubeFunction, _check_dim, character_values, inverse_fwht
from .cube_fourier import inverse_fwht_rows  # noqa: F401 - re-exported, the row view of inverse_fwht
from .report import BoundReport, BoundViolationError

# cap for sup-functional norms: an audit's per-point scan runs 2^n inverse transforms of
# 2^n points, n * 4^n in all; the lower-bound instance holds a (2^n, |family|) table,
# 8,192 x 4,017 doubles (263 MB) for the truncated witness at n = 13
MAX_SUP_FUNCTIONAL_DIM = 12
# doubles per row block of the sup-functional scan and the instance check: 512 KB, cache-sized
_SUP_CHUNK_DOUBLES = 1 << 16
_YOUNG_TOL = 1e-9


def _check_p(p: float) -> float:
    """p as a float in [1, inf]: the one rule for lp norms and their transforms."""
    p = float(p)
    if not p >= 1.0:  # also rejects NaN
        raise ValueError(f"lp norms need p >= 1, got {p}")
    return p


class VectorFunction(CubeFunction):
    """Function from the cube to R^m: a CubeFunction whose tables are (2^n, m)."""

    __slots__ = ()
    _RANKS = (2,)

    @property
    def m(self) -> int:
        return self.shape[1]

    @classmethod
    def from_values_matrix(cls, n: int, values) -> "VectorFunction":
        """Row x of a (2^n, m) matrix is the vector f(x)."""
        return cls(n, values=values)

    @classmethod
    def from_spectrum_matrix(cls, n: int, spectra) -> "VectorFunction":
        """Row S of a (2^n, m) matrix is the vector coefficient fhat(S)."""
        return cls(n, spectrum=spectra)

    def values_matrix(self) -> np.ndarray:
        return self.values

    def spectrum_matrix(self) -> np.ndarray:
        return self.spectrum


class Norm:
    """Norm on R^m: lp, or sup-functional over a subset family."""

    def __init__(self, kind: str, *, p=None, n_dual=None, family=None, dim=None, name=None):
        self.kind = kind
        self.p = p
        self.n_dual = n_dual
        self.family = family
        self.dim = dim
        self._name = name

    @classmethod
    def lp(cls, p: float) -> "Norm":
        p = _check_p(p)
        if math.isinf(p):
            name = "linf"
        elif p == int(p):
            name = f"l{int(p)}"
        else:
            name = f"lp({p:g})"
        return cls("lp", p=p, name=name)

    @classmethod
    def sup_functional(cls, n_dual: int, family: Sequence[int]) -> "Norm":
        """Vectors indexed by the family, measured as the sup norm of g_v.

        The family is held in ascending bitmask order so coefficient vectors
        mean the same thing across runs.
        """
        _check_dim(n_dual)
        fam = np.asarray(family, dtype=np.int64)
        if fam.size == 0:
            raise ValueError("subset family is empty")
        if fam.size > 1 and not np.all(fam[1:] > fam[:-1]):
            # silent reordering would reinterpret coefficient vectors
            raise ValueError("subset family must be strictly ascending by bitmask")
        if fam.min() < 0 or fam.max() >= (1 << n_dual):
            raise ValueError(f"subset family has masks out of range for n_dual={n_dual}")
        fam.flags.writeable = False
        return cls(
            "sup_functional",
            n_dual=int(n_dual),
            family=fam,
            dim=int(fam.size),
            name=f"sup_functional(n={n_dual},|family|={fam.size})",
        )

    @property
    def name(self) -> str:
        return self._name or self.kind

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


@dataclass(frozen=True)
class SandwichTransform:
    """Invertible T with ||T x||_2 <= ||x|| <= d ||T x||_2 for the target norm."""

    matrix: np.ndarray
    distortion: float

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("transform matrix must be square")
        cond = np.linalg.cond(matrix)
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError("transform matrix must be invertible")
        if self.distortion < 1.0:
            raise ValueError("distortion must be at least 1")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "distortion", float(self.distortion))

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def for_lp(cls, p: float, m: int) -> "SandwichTransform":
        """Diagonal transform with the sharp lp-vs-l2 comparison constants."""
        p = _check_p(p)
        inv_p = 1.0 / p  # 0 at p = inf
        if p >= 2.0:
            scale = m ** (inv_p - 0.5)
            distortion = m ** (0.5 - inv_p)
        else:
            scale = 1.0
            distortion = m ** (inv_p - 0.5)
        return cls(matrix=scale * np.eye(m), distortion=max(1.0, distortion))


def sandwich_validate(
    transform: SandwichTransform,
    norm: Norm,
    sample_count: int = 64,
    seed: int = 0,
    tol: float = 1e-9,
) -> BoundReport:
    """Check the two-sided comparison on random unit directions plus signed basis vectors.

    A violation beyond the tolerance makes the returned report fail; it does
    not raise, so callers can surface the worst direction.
    """
    m = transform.m
    if norm.dim not in (None, m):
        raise ValueError(f"norm is on R^{norm.dim}, transform on R^{m}")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((max(0, int(sample_count)), m))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    points = np.vstack([dirs, np.eye(m), -np.eye(m)])
    euclid = np.linalg.norm(points @ transform.matrix.T, axis=1)
    target = norm.evaluate_rows(points)
    lower_slack = target - euclid
    upper_slack = transform.distortion * euclid - target
    slack = float(min(lower_slack.min(), upper_slack.min()))
    if lower_slack.min() <= upper_slack.min():
        worst = int(np.argmin(lower_slack))
        lhs, rhs = float(euclid[worst]), float(target[worst])
        side = "lower"
    else:
        worst = int(np.argmin(upper_slack))
        lhs, rhs = float(target[worst]), float(transform.distortion * euclid[worst])
        side = "upper"
    return BoundReport(
        claim="sandwich-two-sided-comparison",
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        params={
            "m": m,
            "distortion": float(transform.distortion),
            "norm": norm.name,
            "sample_count": int(sample_count),
            "seed": int(seed),
            "tol": tol,
            "worst_side": side,
        },
    )


def rademacher_projection(f: VectorFunction) -> VectorFunction:
    """lin f(x) = sum_j fhat({j}) x_j, formed as a (2^n, n) by (n, m) product with no transform."""
    singletons = 1 << np.arange(f.n)
    coordinates = character_values(f.n, singletons)  # column j is x_j
    return VectorFunction.from_values_matrix(f.n, coordinates @ f.spectrum_matrix()[singletons])


def young_bound_check(f: VectorFunction, g: CubeFunction, norm: Norm) -> BoundReport:
    """Convolution contraction: msn(f * g) <= E|g| * msn(f) for any norm."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    lhs = norm.mean_square(inverse_fwht(f.spectrum_matrix() * g.spectrum[:, None]))
    g_l1 = float(np.mean(np.abs(g.values)))
    rhs = g_l1 * norm.mean_square(f.values_matrix())
    report = BoundReport.of(
        "convolution-l1-contraction",
        lhs,
        rhs,
        params={"n": f.n, "m": f.m, "norm": norm.name, "g_l1": g_l1},
    )
    if not report.holds(_YOUNG_TOL):
        raise BoundViolationError(
            f"convolution contraction violated: {lhs} > {rhs} + {_YOUNG_TOL}", report
        )
    return report

