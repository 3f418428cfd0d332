"""Vector-valued cube functions, the lp norms and their sandwich gate.

A VectorFunction is a CubeFunction whose table is (2^n, m): row x is the
vector f(x), row S the vector coefficient fhat(S).  The norms on the target
space are the lp norms; a norm that reads a vector through a map, as the
lower-bound instance reads its family vectors through the characters, maps
the vectors first.  All cube averages are exact enumerations over the 2^n
points, and the sandwich gate evaluates only the vectors at which each
side of a sandwich is attained, so nothing samples.
"""

from __future__ import annotations

import math

import numpy as np

from .cube_fourier import CubeFunction, _blocks
from .cube_fourier import inverse_fwht_rows  # noqa: F401 - re-exported, the row view of inverse_fwht
from .report import BoundReport, check


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
    """The lp norm on R^m, for p >= 1."""

    def __init__(self, p):
        self.p = float(p)
        if not self.p >= 1.0:  # also rejects NaN
            raise ValueError(f"lp norms need p >= 1, got {self.p}")

    @classmethod
    def lp(cls, p: float) -> "Norm":
        return cls(p)

    @property
    def name(self) -> str:
        return f"l{int(self.p) if self.p.is_integer() else self.p!r}"  # l1, l2, l2.5, linf

    def sandwich(self, m: int) -> tuple[float, float]:
        """(s, d) with s ||x||_2 <= ||x|| <= d s ||x||_2 on R^m: the sharp lp-vs-l2 constants, the Euclidean
        sandwich of the audit."""
        inv_p = 1.0 / self.p  # 0 at p = inf
        if self.p >= 2.0:
            scale = m ** (inv_p - 0.5)
            distortion = m ** (0.5 - inv_p)
        else:
            scale = 1.0
            distortion = m ** (inv_p - 0.5)
        return scale, max(1.0, distortion)

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """Norms of the rows of a (k, m) matrix, a row block at a time, so no temporary grows with k.

        Each row is reduced alone, so on a C-contiguous matrix every norm has the bits of one whole-matrix
        np.linalg.norm; a finite row whose sum of |x|^p is not a normal double is measured by scaling instead.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("evaluate_rows expects a 2-D array")
        out = np.empty(rows.shape[0])
        for block in _blocks(rows.shape[0], rows.shape[1]):
            out[block] = self._lp_rows(rows[block])
        return out

    def _lp_rows(self, block: np.ndarray) -> np.ndarray:
        floor = np.finfo(np.float64).tiny ** (1.0 / self.p)  # below it, the sum of |x|^p is not a normal double
        with np.errstate(over="ignore"):  # a row whose sum overflows, or falls below floor, is measured again
            norms = np.linalg.norm(block, ord=self.p, axis=1)
            if self.p < math.inf and not (norms.min() >= floor and norms.max() < math.inf):  # the k norms test it
                peaks = np.abs(block).max(axis=1, initial=0.0)  # NaN on a row with a NaN
                redo = ((norms < floor) | (norms == math.inf)) & (peaks > 0.0) & (peaks < math.inf)
                # max|x| * ||x / max|x|||_p: the scaled row's sum lies in [1, m]
                norms[redo] = peaks[redo] * np.linalg.norm(block[redo] / peaks[redo, None], ord=self.p, axis=1)
        return norms

    def mean_square(self, table) -> float:
        """(E ||row||^2)^(1/2) over the rows of a value table, one row per cube point."""
        return _root_mean_square(self.evaluate_rows(table))

    def __repr__(self):
        return f"Norm({self.name})"


def _square_scale(peak: float) -> float:
    """2^e, peak's binade, for a peak outside [2^-500, 2^500], else 1.0: the exact divisor that keeps its squares,
    and a sum of them, from overflow and underflow; the root is multiplied back."""
    return 1.0 if 2.0**-500 <= peak <= 2.0**500 else math.ldexp(1.0, math.frexp(peak)[1])


def _root_mean_square(norms: np.ndarray) -> float:
    """(E norms^2)^(1/2) of the row norms, one per cube point, squared in place over _square_scale's power of two."""
    scale = _square_scale(norms.max(initial=0.0))
    return float(np.sqrt(np.mean(np.square(np.divide(norms, scale, out=norms), out=norms)))) * scale


def _gate_points(m: int):
    """The gate's unit vectors: +-ones/sqrt(m), then +-e_1 .. +-e_m a row block at a time, never a (2m, m) table."""
    yield np.outer([1.0, -1.0], np.full(m, 1.0 / math.sqrt(m)))
    for rows in _blocks(m, 2 * m):
        basis = np.arange(rows.start, rows.stop)
        block = np.zeros((2 * basis.size, m))  # e_j for j in the block, then -e_j
        block[np.arange(basis.size), basis] = 1.0
        block[np.arange(basis.size, 2 * basis.size), basis] = -1.0
        yield block


def sandwich_validate(norm: Norm, m: int) -> BoundReport:
    """Check that the norm's sandwich on R^m is attained on both sides, at +-e_j and +-ones/sqrt(m).

    At a unit vector the sandwich reads s <= ||x|| <= d s.  For every lp norm each side is attained
    at e_j or at the flat vector (Hoelder): the least slack of each side is 0.  An s too large or a d
    too small leaves a negative least slack, an s too small or a d too large a positive one, so the
    claim's lhs is the larger |least slack|.  A failed claim makes the returned report fail; it does
    not raise, so callers can surface the side.
    """
    scale, distortion = norm.sandwich(m)
    values = np.concatenate([norm.evaluate_rows(points) for points in _gate_points(m)])
    least = np.array([values.min() - scale, distortion * scale - values.max()])  # lower side, upper side
    worst = int(np.argmax(np.abs(least)))  # argmax stops at a NaN
    return check("sandwich-attained", abs(least[worst]), 0.0, m=m, distortion=distortion, norm=norm.name,
                 worst_side=("lower", "upper")[worst], least_slack=float(least[worst]))
