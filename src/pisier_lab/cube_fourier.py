"""Fourier analysis of real functions on the discrete cube {+1, -1}^n.

Points and subsets share the bitmask index space [0, 2^n): bit j of a point
mask means x_j = -1, bit j of a subset mask means j belongs to the subset.
Under this encoding chi_S(x) = (-1)^popcount(S & x), the coordinate-wise
product of points is XOR of masks, and a single Walsh-Hadamard butterfly
along axis 0, the cube axis of every table, converts between the value table
and the spectrum in both directions.

Spectra are stored in expectation normalization: spectrum[S] = E[f(X) chi_S(X)],
so that values[x] = sum_S spectrum[S] chi_S(x) with no extra scaling.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .report import ResourceLimitError

MAX_DIM = 24  # 2^24 doubles = 128 MB per value table
SPARSITY_THRESHOLD = 1e-8
# Doubles per butterfly block: 512 KB, so a block and its scratch partner fit a 2 MiB L2.
_BLOCK_DOUBLES = 1 << 16

_HEADER = np.dtype("<u4")  # each binary record opens with n as a u32 little-endian


def _check_dim(n: int, cap: int | None = MAX_DIM) -> None:
    """The one dimension precondition: n a positive integer, and no larger than cap unless it is None."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if cap is not None and n > cap:
        raise ResourceLimitError(f"dimension {n} exceeds the cap {cap}")


def popcount(masks) -> np.ndarray:
    """Number of set bits, elementwise."""
    return np.bitwise_count(np.asarray(masks, dtype=np.uint32))


def subset_levels(n: int) -> np.ndarray:
    """|S| for every subset mask S in mask order; equally, the Hamming weight of every point."""
    return popcount(np.arange(1 << n, dtype=np.uint32))


def _walsh_butterfly(a) -> np.ndarray:
    # Radix-2 passes along axis 0, trailing axes a batch (Fino & Algazi, IEEE Trans.
    # Computers, 1976): out[s] = sum_x a[x] (-1)^popcount(s & x).  A table of at most
    # _BLOCK_DOUBLES doubles ping-pongs between a fresh C-order copy and one scratch
    # table.  A larger one is blocked so that every pass runs in cache (the locality
    # idea of the FFHT, Andoni et al., NeurIPS 2015): with c the most rows that fit a
    # block, phase 1 runs strides 1 .. c/2 inside each contiguous run of c rows, and
    # phase 2 strides c .. size/2 over column strips of the (size/c, c*width) view, each
    # block transformed in one of two scratch blocks and copied back.  Every entry sees
    # the same additions with the strides in ascending order, so the result is
    # bit-identical to unblocked passes; peak memory is one table plus two blocks.
    table = np.array(a, dtype=np.float64, order="C")
    size = table.shape[0] if table.ndim else 0
    _check_power_of_two(size, "a Walsh transform")
    if table.size <= _BLOCK_DOUBLES:
        return _radix2_passes(table, np.empty_like(table))
    width = table.size // size
    c = min(size, 1 << max(0, (_BLOCK_DOUBLES // width).bit_length() - 1))
    rows = table.reshape(size // c, c * width)
    strip = max(1, _BLOCK_DOUBLES // rows.shape[0])
    blocks = [*table.reshape(size // c, c, width)] if c > 1 else []
    blocks += [rows[:, j : j + strip] for j in range(0, rows.shape[1], strip)]
    scratch = np.empty((2, max(block.size for block in blocks)))
    for block in blocks:
        src, dst = (s[: block.size].reshape(block.shape) for s in scratch)
        np.copyto(src, block)
        np.copyto(block, _radix2_passes(src, dst))
    return table


def _radix2_passes(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Full Walsh transform along axis 0 of src, ping-ponging src and dst; returns whichever holds it."""
    size = src.shape[0]
    h = 1
    while h < size:
        pairs = src.reshape(size // (2 * h), 2, h, *src.shape[1:])
        out = dst.reshape(pairs.shape)
        np.add(pairs[:, 0], pairs[:, 1], out=out[:, 0])
        np.subtract(pairs[:, 0], pairs[:, 1], out=out[:, 1])
        src, dst = dst, src
        h *= 2
    return src


def _check_power_of_two(size: int, what: str) -> None:
    if size < 1 or size & (size - 1):
        raise ValueError(f"{what} needs a length that is a power of two, got {size}")


def fwht(values) -> np.ndarray:
    """Spectrum of a value table along axis 0: out[S] = E_x[f(x) chi_S(x)]."""
    out = _walsh_butterfly(values)
    out /= out.shape[0]
    return out


def inverse_fwht(spectrum) -> np.ndarray:
    """Value table of a spectrum along axis 0: out[x] = sum_S spectrum[S] chi_S(x)."""
    return _walsh_butterfly(spectrum)


def inverse_fwht_rows(spectra: np.ndarray) -> np.ndarray:
    """Inverse transform along the last axis (every row of a 2-D array), through the transposed view."""
    return _walsh_butterfly(np.asarray(spectra).T).T


def character_values(n: int, s_masks) -> np.ndarray:
    """Value table of chi_S over the whole cube; an array of masks gives one column per mask."""
    _check_dim(n)
    points = np.arange(1 << n, dtype=np.uint32)
    parity = popcount(np.bitwise_and.outer(points, np.asarray(s_masks, dtype=np.uint32))) & 1
    return 1.0 - 2.0 * parity.astype(np.float64)


def level_multiply(spec, c) -> np.ndarray:
    """spec[S] * c[|S|] along axis 0, for a 2^n spectrum or a (2^n, m) spectrum table.

    Convolving with a function whose coefficients depend only on the level,
    such as L, the proxy P or L - P, is exactly this operator.
    """
    spec = np.asarray(spec, dtype=np.float64)
    _check_power_of_two(spec.shape[0], "level_multiply")
    n = spec.shape[0].bit_length() - 1
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (n + 1,):
        raise ValueError(f"need one multiplier per level 0..{n}, got shape {c.shape}")
    factor = c[subset_levels(n)]
    return spec * factor.reshape(factor.shape + (1,) * (spec.ndim - 1))


class CubeFunction:
    """Real function on the cube, built from its value table or from its spectrum.

    A (2^n,) table is one function; a (2^n, m) table holds m functions, one
    per column, so row x is the vector f(x) and row S the vector fhat(S).
    Immutable after construction; the other representation is computed
    lazily through the transform and cached (idempotent fill, safe under
    concurrent readers).
    """

    __slots__ = ("n", "_values", "_spectrum")
    _RANKS = (1, 2)  # numbers of table axes accepted

    def __init__(self, n: int, values=None, spectrum=None):
        _check_dim(n)
        if (values is None) == (spectrum is None):
            raise ValueError("need exactly one of a value table and a spectrum")
        self.n = n
        self._values = self._own(values)
        self._spectrum = self._own(spectrum)

    def _own(self, arr):
        if arr is None:
            return None
        a = np.array(arr, dtype=np.float64, order="C")
        if a.ndim not in self._RANKS or a.shape[0] != self.size or a.size == 0:
            ranks = " or ".join(map(str, self._RANKS))
            raise ValueError(f"expected 2^{self.n} rows, {ranks} axes and m >= 1 columns, got shape {a.shape}")
        a.flags.writeable = False
        return a

    @classmethod
    def from_values(cls, n: int, values) -> "CubeFunction":
        return cls(n, values=values)

    @classmethod
    def from_spectrum(cls, n: int, spectrum) -> "CubeFunction":
        return cls(n, spectrum=spectrum)

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def shape(self) -> tuple[int, ...]:
        """(2^n,) or (2^n, m), the shape of both tables."""
        return (self._values if self._values is not None else self._spectrum).shape

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            v = _walsh_butterfly(self._spectrum)
            v.flags.writeable = False
            self._values = v
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            s = _walsh_butterfly(self._values)
            s /= self.size
            s.flags.writeable = False
            self._spectrum = s
        return self._spectrum

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def __sub__(self, other):
        if not isinstance(other, CubeFunction):
            return NotImplemented
        if self.shape != other.shape:  # a (2^n,) and a (2^n, m) table would broadcast wrongly
            raise ValueError(f"table shape mismatch: {self.shape} vs {other.shape}")
        return type(self)(self.n, spectrum=self.spectrum - other.spectrum)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, shape={self.shape})"


def convolve(f: CubeFunction, g: CubeFunction) -> CubeFunction:
    """Convolution E_Z[g(Z) f(x . Z)], realized as the pointwise spectrum product."""
    if f.shape != g.shape:
        raise ValueError(f"table shape mismatch: {f.shape} vs {g.shape}")
    return type(f)(f.n, spectrum=f.spectrum * g.spectrum)


def spectrum_support(f: CubeFunction) -> np.ndarray:
    """Ascending masks S with |fhat(S)| > SPARSITY_THRESHOLD: the support every count and family uses."""
    return np.nonzero(np.abs(f.spectrum) > SPARSITY_THRESHOLD)[0]


def spectrum_sparsity(f: CubeFunction) -> int:
    """Size of the spectrum support."""
    return int(spectrum_support(f).size)


def _record(n: int) -> np.dtype:
    """One binary record: the header n, then the 2^n value-table doubles, little-endian."""
    return np.dtype([("n", _HEADER), ("values", "<f8", (1 << n,))])


def _finite(table: np.ndarray, what: str) -> np.ndarray:
    """The table, unless it holds NaN or +-inf: then no count, norm or JSON number means anything."""
    finite = np.isfinite(table)
    if not finite.all():
        bad = ", ".join(map(str, np.unique(table[~finite]).tolist()))
        raise ValueError(f"{what} holds non-finite values: {bad}")
    return table


def _require_one_function(f: CubeFunction) -> None:
    if len(f.shape) != 1:
        raise ValueError(f"expected one function, a (2^n,) table, got shape {f.shape}")


def to_bytes(f: CubeFunction) -> bytes:
    """Flat binary form, one record: u32 little-endian n, then 2^n IEEE doubles in value order."""
    _require_one_function(f)
    return np.array((f.n, f.values), dtype=_record(f.n)).tobytes()


def from_bytes(blob: bytes) -> CubeFunction:
    if len(blob) < _HEADER.itemsize:
        raise ValueError("truncated cube-function blob")
    n = int(np.frombuffer(blob, dtype=_HEADER, count=1)[0])
    _check_dim(n)
    record = _record(n)
    if len(blob) != record.itemsize:
        raise ValueError(f"blob length {len(blob)} does not match n={n} (expected {record.itemsize})")
    values = np.frombuffer(blob, dtype=record)["values"][0]
    return CubeFunction.from_values(n, _finite(values, "value table"))


def write_binary(f: CubeFunction, path) -> None:
    Path(path).write_bytes(to_bytes(f))


def read_binary(path) -> CubeFunction:
    return from_bytes(Path(path).read_bytes())


def to_spectrum_json(f: CubeFunction, threshold: float = 0.0) -> str:
    """Sparse JSON spectrum: subset bitmask (as a decimal string key) to coefficient."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if not np.isfinite(threshold):  # NaN would keep every nonzero coefficient, inf none
        raise ValueError(f"threshold must be finite, got {threshold}")
    _require_one_function(f)
    spec = _finite(f.spectrum, "spectrum")
    keep = np.nonzero(np.abs(spec) > threshold)[0]
    payload = {"n": f.n, "spectrum": {str(int(m)): float(spec[m]) for m in keep}}
    return json.dumps(payload, indent=2, sort_keys=True)
