"""Reference oracles for the tests: direct constructions the package itself does not need.

Import from a test module as ``from oracles import ...``; pytest puts this
directory on ``sys.path``.
"""

import math

import numpy as np

from pisier_lab import BoundReport, CubeFunction, Norm, ProxyKernel, ResourceLimitError, proxy_level_coeffs
from pisier_lab.cube_fourier import (_blocks, _check_dim, _check_power_of_two, _odd_parity, _require_one_function,
                                     inverse_fwht, subset_levels)

MAX_PROXY_DIM = 20


def character_eval(s_mask: int, x_mask: int) -> int:
    """chi_S(x), the product of x_j over j in S: +-1 by parity of popcount(S & x)."""
    return -1 if (s_mask & x_mask).bit_count() & 1 else 1


def character_table(n: int, s_masks) -> np.ndarray:
    """chi_S(x) over the whole cube, a column per mask of an array (one column for one mask): the parity of
    x & S summed a bit at a time, with no popcount."""
    _check_dim(n)
    common = np.bitwise_and.outer(np.arange(1 << n), np.asarray(s_masks))
    return 1.0 - 2.0 * (sum((common >> j) & 1 for j in range(n)) & 1)


def character_sums(n: int, masks, rows) -> np.ndarray:
    """sum_j rows[:, j] chi_{masks[j]}(z) at every point z, a (k, 2^n) table: the character map of each row, summed
    column by column over a whole character table, with no transform."""
    rows = np.asarray(rows, dtype=np.float64)
    table = character_table(n, np.asarray(masks)).reshape(1 << n, -1)
    out = np.zeros((rows.shape[0], 1 << n))
    for j in range(table.shape[1]):
        out += rows[:, j, None] * table[:, j]
    return out


def characters_by_columns(n: int, masks, rows) -> np.ndarray:
    """sum_j rows[:, j] chi_{masks[j]}(z) at every point z, a (k, 2^n) table: the rows embedded as the columns of a
    zero (2^n, k) table, transformed along axis 0 and transposed, the column route of the character map."""
    rows = np.asarray(rows, dtype=np.float64)
    embedded = np.zeros((1 << n, rows.shape[0]))
    embedded[np.asarray(masks)] = rows.T
    return inverse_fwht(embedded).T


def rademacher_projection_whole(spectrum: np.ndarray) -> np.ndarray:
    """lin f from f's (2^n, m) spectrum as the sum of chi_{j}(x) fhat({j}) over the whole cube, in ascending j
    from 0.0, with no matrix product: the whole-table formula."""
    n = spectrum.shape[0].bit_length() - 1
    characters = character_table(n, 1 << np.arange(n))
    out = np.zeros(spectrum.shape)
    for j in range(n):
        out += characters[:, j, None] * spectrum[1 << j]
    return out


def level_multiply_whole(spec, c) -> np.ndarray:
    """spec[S] * c[|S|] along axis 0 through one whole-cube table of levels: the whole-table formula."""
    spec = np.asarray(spec, dtype=np.float64)
    factor = np.asarray(c, dtype=np.float64)[subset_levels(spec.shape[0].bit_length() - 1)]
    return spec * factor.reshape(factor.shape + (1,) * (spec.ndim - 1))


def constant_function(n: int, c: float) -> CubeFunction:
    """The constant c: the spectrum c at the empty set and zero elsewhere."""
    _check_dim(n)
    spec = np.zeros(1 << n)
    spec[0] = c
    return CubeFunction.from_spectrum(n, spec)


def linear_function(n: int) -> CubeFunction:
    """L(x) = x_1 + ... + x_n, the function whose spectrum is the level-1 indicator."""
    _check_dim(n)
    spec = np.zeros(1 << n)
    spec[[1 << j for j in range(n)]] = 1.0
    return CubeFunction.from_spectrum(n, spec)


def proxy_as_cube_function(kernel: ProxyKernel, n: int) -> CubeFunction:
    """Materialize the proxy on the n-cube from its level coefficients."""
    _check_dim(n)
    if n > MAX_PROXY_DIM:
        raise ResourceLimitError(f"proxy tables capped at n={MAX_PROXY_DIM}, got {n}")
    return CubeFunction.from_spectrum(n, proxy_level_coeffs(kernel, n)[subset_levels(n)])


def walsh_butterfly_unblocked(a) -> np.ndarray:
    """The unblocked radix-2 butterfly: one full pass over the table per stride, the blocked one's reference."""
    src = np.array(a, dtype=np.float64, order="C")
    size = src.shape[0] if src.ndim else 0
    _check_power_of_two(size, "a Walsh transform")
    dst = np.empty_like(src)
    h = 1
    while h < size:
        pairs = src.reshape(size // (2 * h), 2, -1)
        out = dst.reshape(pairs.shape)
        np.add(pairs[:, 0], pairs[:, 1], out=out[:, 0])
        np.subtract(pairs[:, 0], pairs[:, 1], out=out[:, 1])
        src, dst = dst, src
        h *= 2
    return src


def embedding_check_by_rows(values: np.ndarray, masks: np.ndarray, coeffs: np.ndarray,
                            worst: tuple[float, int, int]) -> tuple[float, int, int]:
    """lower_bound._embedding_check's worst tuple with each row block's signs built whole: +-Fhat(S) from the
    parity of x & S at every point x of blocks of budget // |masks| rows, with no split of x into high and low bits."""
    for rows in _blocks(values.shape[0], masks.size):
        deviation = np.where(_odd_parity(rows, masks), -coeffs, coeffs)
        np.subtract(values[rows], deviation, out=deviation)
        np.abs(deviation, out=deviation)
        x, j = divmod(int(np.argmax(deviation)), masks.size)  # argmax stops at a NaN
        if not (math.isnan(worst[0]) or deviation[x, j] <= worst[0]):
            worst = (float(deviation[x, j]), rows.start + x, int(masks[j]))
    return worst


# the convolution contraction's tolerance, as report.TOLERANCES held it while the package checked it
CONVOLUTION_TOL = 1e-9


def young_bound_check(f, g: CubeFunction, norm: Norm) -> BoundReport:
    """Convolution contraction: msn(f * g) <= E|g| * msn(f) for any norm, f a VectorFunction."""
    _require_one_function(g)  # a (2^n, m) g would broadcast into a (2^n, 2^n, m) product
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    lhs = norm.mean_square(inverse_fwht(f.spectrum * g.spectrum[:, None]))
    g_l1 = float(np.mean(np.abs(g.values)))
    rhs = g_l1 * norm.mean_square(f.values_matrix())
    return BoundReport("convolution-l1-contraction", float(lhs), float(rhs), CONVOLUTION_TOL,
                       {"n": f.n, "m": f.m, "norm": norm.name, "g_l1": g_l1})
