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

import os
import stat
from pathlib import Path
from typing import Iterator

import numpy as np

from .report import ResourceLimitError

MAX_DIM = 24  # 2^24 doubles = 128 MB per value table
SPARSITY_THRESHOLD = 1e-8
# Doubles per cache block, 512 KB, so a block and its scratch partner fit a 2 MiB L2: through _blocks, the size of
# every blocked scan's step: the butterfly's strips, norm rows, gate rows, level-multiplier rows, the l2 route's mass
# rows, the embedding check (whose aligned row blocks need it a power of two) and the sparsity count.
_BLOCK_DOUBLES = 1 << 16
# numpy's ufunc buffer, in elements, while a block's passes run: at its default of 8192, passes over runs of under 4096
# doubles (a wide block's low strides, the strips) go through three 64 KB iterator buffers, at about half the speed.
# Elementwise add, subtract and multiply give the same bits at any buffer size, so no reduction runs under it.
_UFUNC_BUFFER = 256

# Threads per butterfly phase, at most: the CPUs this process may run on, so taskset or a
# cpuset narrows it.  A phase never uses more threads than it has blocks.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_JSON_ENTRIES = 1 << 16  # spectrum entries per piece of JSON text

_HEADER = np.dtype("<u4")  # each binary record opens with n as a u32 little-endian


def _check_dim(n: int, cap: int | None = MAX_DIM) -> None:
    """The one dimension precondition: n a positive integer, not a bool, and no larger than cap unless it is None."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    if cap is not None and n > cap:
        raise ResourceLimitError(f"dimension {n} exceeds the cap {cap}")


def _blocks(count: int, width: int, budget: int | None = None) -> Iterator[slice]:
    """Consecutive slices of range(count), each of at most max(1, budget // max(1, width)) items of width doubles:
    the one walk of every blocked scan.  budget is _BLOCK_DOUBLES unless given, read at each call."""
    step = max(1, (_BLOCK_DOUBLES if budget is None else budget) // max(1, width))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def popcount(masks) -> np.ndarray:
    """Number of set bits, elementwise."""
    return np.bitwise_count(np.asarray(masks, dtype=np.uint32))


def subset_levels(n: int) -> np.ndarray:
    """|S| for every subset mask S in mask order; equally, the Hamming weight of every point."""
    return _levels(slice(0, 1 << n))


def _levels(rows: slice) -> np.ndarray:
    """|S| for every mask S of the slice, in mask order: the levels of a cache block of spectrum rows."""
    return popcount(np.arange(rows.start, rows.stop, dtype=np.uint32))


def _odd_parity(points: slice, masks) -> np.ndarray:
    """Whether chi_S(x) = -1, popcount(x & S) odd, as a bool table: a row per point x of the slice, a column per S."""
    x = np.arange(points.start, points.stop, dtype=np.uint32)
    return (popcount(np.bitwise_and.outer(x, np.asarray(masks, dtype=np.uint32))) & 1).view(bool)


def _walsh_butterfly(a, normalize: bool = False) -> np.ndarray:
    # Radix-2 passes along axis 0, trailing axes a batch (Fino & Algazi, IEEE Trans.
    # Computers, 1976): out[s] = sum_x a[x] (-1)^popcount(s & x), divided by the length
    # when normalize is set.  The table is blocked so that every pass runs in cache (the
    # locality idea of the FFHT, Andoni et al., NeurIPS 2015): with c the most rows that
    # fit a block, phase 1 runs strides 1 .. c/2 inside each contiguous run of c rows,
    # and phase 2 strides c .. size/2 over column strips of the (size/c, c*width)
    # view.  A table of at most _BLOCK_DOUBLES doubles is phase 1 alone, one block;
    # phase 2 runs when strides remain, and alone when c == 1 (no two rows fit a block,
    # or the table has one row).  A block's first pass reads its source, the passes
    # between run in two scratch blocks, and its last pass writes its destination, or,
    # when normalize is set, the last phase's end in scratch and are divided into it.
    # A block of +0.0 alone runs no pass (see _run_share), and the blocks of a phase are
    # disjoint.  The first phase reads the input, which is neither copied (unless it is
    # not C-contiguous float64) nor written, into a new table, and phase 2 after phase 1
    # runs in place on that table.  The blocks of a phase are dealt to up to _WORKERS
    # threads, so a table of one block runs on the calling thread.  Every entry sees the
    # same additions in the same order as in unblocked ascending-stride passes (see
    # _radix2_passes), and dividing by a power of two is one correctly rounded step
    # wherever it happens, so the result is bit-identical to those passes at any thread
    # count; peak memory is the input and the new table plus two blocks per worker.
    a = np.asarray(a, dtype=np.float64)
    size = a.shape[0] if a.ndim else 0
    _check_power_of_two(size, "a Walsh transform")
    scale = 1.0 / size if normalize else None
    src = np.ascontiguousarray(a)
    out = np.empty_like(src)
    if not src.size:  # an empty batch: no entry to add
        return out
    width = src.size // size
    c = min(size, 1 << max(0, (_BLOCK_DOUBLES // width).bit_length() - 1))
    if c > 1:
        _run_phase([*zip(src.reshape(size // c, c, width), out.reshape(size // c, c, width))],
                   scale if c == size else None)
    if c < size or c == 1:
        rows_in = (out if c > 1 else src).reshape(size // c, c * width)
        rows_out = out.reshape(rows_in.shape)
        _run_phase([(rows_in[:, strip], rows_out[:, strip])
                    for strip in _blocks(rows_in.shape[1], rows_in.shape[0])], scale)
    return out


def _run_phase(blocks: list[tuple[np.ndarray, np.ndarray]], scale: float | None) -> None:
    """Transform each (source, destination) block pair, the pairs dealt round-robin to the workers.

    Each block is multiplied by scale on its way out, unless scale is None.  The
    calling thread runs share 0 and a pool of the other workers runs the rest; the
    pool joins them all before this returns or raises, and a share's error is raised here.
    """
    workers = min(_WORKERS, len(blocks))
    if workers == 1:  # one share needs no pool, and ThreadPoolExecutor(0) is an error
        return _run_share(blocks, scale)
    # imported here, not at the top: with the logging it loads it costs ~9 ms of start-up (2 vCPU),
    # which a process that opens no pool need not pay
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers - 1) as pool:
        shares = [pool.submit(_run_share, blocks[k::workers], scale) for k in range(1, workers)]
        _run_share(blocks[::workers], scale)
    for share in shares:
        share.result()


def _run_share(blocks: list[tuple[np.ndarray, np.ndarray]], scale: float | None) -> None:
    """One worker's blocks, each from its source to its destination through the worker's two scratch blocks.

    A block of +0.0 (the first entry read first, then the bits: -0.0 and NaN have bits set) writes +0.0 and runs
    no pass.  The last pass stays in scratch when scale is set, or when it is a strip's one pass in place."""
    scratch = np.empty((2, max(src.size for src, _ in blocks)))
    for src, dst in blocks:
        if src[0, 0] == 0 and not src.view(np.int64).any():
            dst[...] = 0.0
            continue
        a, b = (s[: src.size].reshape(src.shape) for s in scratch)
        last = None if scale is not None or (src.shape[0] == 2 and np.may_share_memory(src, dst)) else dst
        with np.errstate():  # restores numpy's buffer size on the way out; no reduction runs inside
            np.setbufsize(_UFUNC_BUFFER)
            held = _radix2_passes(src, a, b, last)
            if scale is not None:
                np.multiply(held, scale, out=dst)
            elif held is not dst:
                np.copyto(dst, held)


def _radix2_passes(src: np.ndarray, a: np.ndarray, b: np.ndarray, dst: np.ndarray | None) -> np.ndarray:
    """Full Walsh transform along axis 0 of src; returns the array that holds it.

    The first pass reads src, the passes after it alternate between the scratch blocks a and b of its shape, and the
    last writes dst, which may be src unless that pass is also the first, or scratch when dst is None.

    Pass k adds and subtracts the entries 2^(k-1) rows apart, in ascending k.  A
    multi-column block pairs them in place, at stride 2^(k-1).  A one-column block
    runs constant-geometry passes instead (Pease, J. ACM 15(2), 1968): each pass
    takes rows 2i and 2i+1 to rows i and i + size/2, which performs the same
    additions with the rows stored rotated by one bit, back in natural order after
    all log2(size) passes.  There every operand is 1-D, so numpy runs one inner loop
    and allocates no iterator buffers.  (Wider blocks keep the strided pairing: the
    same geometry reads them in runs of only one row.)
    """
    size = src.shape[0]
    h = 1
    while h < size:
        out = dst if dst is not None and 2 * h == size else a
        if src.size == size:
            lo, hi = src.reshape(size // 2, 2).T
            out_lo, out_hi = out.reshape(2, size // 2)
        else:
            pairs = src.reshape(size // (2 * h), 2, h, *src.shape[1:])
            into = out.reshape(pairs.shape)
            lo, hi, out_lo, out_hi = pairs[:, 0], pairs[:, 1], into[:, 0], into[:, 1]
        np.add(lo, hi, out=out_lo)
        np.subtract(lo, hi, out=out_hi)
        src, a, b = out, b, a
        h *= 2
    return src


def _check_power_of_two(size: int, what: str) -> None:
    if size < 1 or size & (size - 1):
        raise ValueError(f"{what} needs a length that is a power of two, got {size}")


def fwht(values) -> np.ndarray:
    """Spectrum of a value table along axis 0: out[S] = E_x[f(x) chi_S(x)]."""
    return _walsh_butterfly(values, normalize=True)


def inverse_fwht(spectrum) -> np.ndarray:
    """Value table of a spectrum along axis 0, a new table: out[x] = sum_S spectrum[S] chi_S(x)."""
    return _walsh_butterfly(spectrum)


def inverse_fwht_rows(spectra: np.ndarray) -> np.ndarray:
    """Inverse transform along the last axis (every row of a 2-D array), through the transposed view."""
    return _walsh_butterfly(np.asarray(spectra).T).T


def level_multiply(spec, c) -> np.ndarray:
    """spec[S] * c[|S|] along axis 0, for a 2^n spectrum or a (2^n, m) spectrum table, into a new table.

    Convolving with a function whose coefficients depend only on the level,
    such as L, the proxy P or L - P, is exactly this operator, run a cache block of rows at a time.
    """
    spec = np.asarray(spec, dtype=np.float64)
    size = spec.shape[0] if spec.ndim else 0
    _check_power_of_two(size, "level_multiply")
    n = size.bit_length() - 1
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (n + 1,):
        raise ValueError(f"need one multiplier per level 0..{n}, got shape {c.shape}")
    out = np.empty(spec.shape)
    for rows in _blocks(size, spec.size // size):
        factor = c[_levels(rows)]
        np.multiply(spec[rows], factor.reshape(factor.shape + (1,) * (spec.ndim - 1)), out=out[rows])
    return out


class CubeFunction:
    """Real function on the cube, built from its value table or from its spectrum.

    A (2^n,) table is one function; a (2^n, m) table holds m functions, one
    per column, so row x is the vector f(x) and row S the vector fhat(S).
    Immutable after construction; the other representation is computed
    lazily through the transform and cached (idempotent fill, safe under
    concurrent readers).  A given table is copied, unless it is a read-only,
    aligned, C-contiguous float64 array: that one is adopted as it is, so pass
    one only if nothing writes its memory afterwards (read_binary's table).
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
        a = np.asarray(arr, dtype=np.float64)
        if a.flags.writeable or not (a.flags.c_contiguous and a.flags.aligned):
            a = np.array(a, order="C")
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
    def holds_values(self) -> bool:
        """Whether the value table is held, so that reading values runs no transform."""
        return self._values is not None

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
            s = _walsh_butterfly(self._values, normalize=True)  # not fwht, so a traced fill is one transform
            s.flags.writeable = False
            self._spectrum = s
        return self._spectrum

    def sup_norm(self) -> float:
        v = self.values  # max |v| without an |v| table; + 0.0 turns a -0.0 maximum into 0.0, and NaN propagates
        return max(float(v.max()), -float(v.min())) + 0.0

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
    _require_one_function(f)  # a (2^n, m) table's nonzero entries are no set of masks
    return _above(f.spectrum, SPARSITY_THRESHOLD)


def _above(spec: np.ndarray, threshold: float) -> np.ndarray:
    """Ascending indices where |spec| > threshold >= 0, tested on the signed table so no |spec| table is built."""
    return np.nonzero((spec > threshold) | (spec < -threshold))[0]


def spectrum_sparsity(f: CubeFunction) -> int:
    """Size of the spectrum support."""
    return int(spectrum_support(f).size)


def _record(n: int) -> np.dtype:
    """One binary record: the header n, then the 2^n value-table doubles, little-endian."""
    return np.dtype([("n", _HEADER), ("values", "<f8", (1 << n,))])


def _finite(table: np.ndarray, what: str) -> np.ndarray:
    """The table, unless it holds NaN or +-inf: then no count, norm or JSON number means anything.

    The extremes carry the test (NaN propagates through both), so no mask of the table is built
    unless it fails.
    """
    if not (np.isfinite(table.min()) and np.isfinite(table.max())):
        bad = ", ".join(map(str, np.unique(table[~np.isfinite(table)]).tolist()))
        raise ValueError(f"{what} holds non-finite values: {bad}")
    return table


def _require_one_function(f: CubeFunction) -> None:
    if len(f.shape) != 1:
        raise ValueError(f"expected one function, a (2^n,) table, got shape {f.shape}")


def to_bytes(f: CubeFunction) -> bytes:
    """Flat binary form, one record: u32 little-endian n, then 2^n IEEE doubles in value order."""
    _require_one_function(f)
    return np.array((f.n, f.values), dtype=_record(f.n)).tobytes()


def _header_dim(head) -> int:
    """n from a record's header, its first 4 bytes, checked by _check_dim."""
    if len(head) < _HEADER.itemsize:
        raise ValueError("truncated cube-function blob")
    n = int(np.frombuffer(head, dtype=_HEADER, count=1)[0])
    _check_dim(n)
    return n


def _record_dim(head, length: int) -> int:
    """n from a record's header, after checking the record's whole length in bytes against it."""
    n = _header_dim(head)
    expected = _record(n).itemsize
    if length != expected:
        raise ValueError(f"blob length {length} does not match n={n} (expected {expected})")
    return n


def from_bytes(blob) -> CubeFunction:
    """One record from a bytes-like blob; a read-only blob that holds the table aligned lends it without a copy."""
    n = _record_dim(blob, len(blob))
    values = np.frombuffer(blob, dtype=_record(n))["values"][0]
    return CubeFunction.from_values(n, _finite(values, "value table"))


def write_binary(f: CubeFunction, path) -> None:
    Path(path).write_bytes(to_bytes(f))


def read_binary(path) -> CubeFunction:
    """One record, read in place: once the header is checked, the file goes straight into one aligned
    table, its header into the 4 bytes before the first double, and from_bytes adopts that table
    read-only.  A regular file's length is checked against the header before the read; a pipe, which
    has no length to check first, is read to at most one byte past its record, so one that runs on
    fails the length check too.
    """
    with open(path, "rb") as file:
        info = os.fstat(file.fileno())
        head = file.read(_HEADER.itemsize)
        n = _record_dim(head, info.st_size) if stat.S_ISREG(info.st_mode) else _header_dim(head)
        # two spare doubles: the record starts at byte 4, so its header fills bytes 4-7 and its doubles
        # start aligned, and the last one holds the byte read past the record
        record = np.empty(2 + (1 << n)).view(np.uint8)[8 - len(head) :]
        record[: len(head)] = np.frombuffer(head, dtype=np.uint8)
        got = file.readinto(record[len(head) : _record(n).itemsize + 1])
    record.flags.writeable = False
    return from_bytes(record[: len(head) + got])  # a file that changed since fstat fails the length check


def to_spectrum_json(f: CubeFunction, threshold: float = 0.0) -> str:
    """Sparse JSON spectrum: subset bitmask (as a decimal string key) to coefficient."""
    return "".join(spectrum_json_pieces(f, threshold))


def spectrum_json_pieces(f: CubeFunction, threshold: float = 0.0) -> Iterator[str]:
    """to_spectrum_json's text as consecutive pieces of at most _JSON_ENTRIES entries, for file.writelines.

    Every check runs in this call, so nothing is written when one fails.  The text is
    json.dumps(payload, indent=2, sort_keys=True) byte for byte: keys in the order of their
    decimal strings, each coefficient in float.__repr__, and "spectrum": {} when none is kept.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if not np.isfinite(threshold):  # NaN would keep every nonzero coefficient, inf none
        raise ValueError(f"threshold must be finite, got {threshold}")
    _require_one_function(f)
    spec = _finite(f.spectrum, "spectrum")
    keep = _decimal_order(_above(spec, threshold))
    return _json_pieces(f.n, spec, keep)


def _json_pieces(n: int, spec: np.ndarray, keep: np.ndarray) -> Iterator[str]:
    yield f'{{\n  "n": {n},\n  "spectrum": {{'
    for piece in _blocks(keep.size, 1, _JSON_ENTRIES):
        masks = keep[piece]
        entries = ",\n".join(f'    "{mask}": {coeff!r}' for mask, coeff in zip(masks.tolist(), spec[masks].tolist()))
        yield ("\n" if piece.start == 0 else ",\n") + entries
    yield "\n  }\n}" if keep.size else "}\n}"


def _decimal_order(masks: np.ndarray) -> np.ndarray:
    """The masks sorted as their decimal strings are, by one lexsort: first on the digits left-aligned
    (zero-padded on the right to a common width), then on the length, so "1" < "10" < "100" < "2"."""
    masks = masks.astype(np.int64)
    width = len(str(int(masks.max(initial=0))))
    digits = np.ones_like(masks)
    for k in range(1, width):
        digits += masks >= 10**k
    return masks[np.lexsort((digits, masks * 10 ** (width - digits)))]
