"""Reference oracles for the tests: direct constructions the package itself does not need.

Import from a test module as ``from oracles import ...``; pytest puts this
directory on ``sys.path``.
"""

import numpy as np

from pisier_lab import CubeFunction, ProxyKernel, ResourceLimitError, proxy_level_coeffs
from pisier_lab.cube_fourier import _check_dim, _check_power_of_two, subset_levels

MAX_PROXY_DIM = 20


def character_eval(s_mask: int, x_mask: int) -> int:
    """chi_S(x), the product of x_j over j in S: +-1 by parity of popcount(S & x)."""
    return -1 if (s_mask & x_mask).bit_count() & 1 else 1


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
