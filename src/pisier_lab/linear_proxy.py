"""Explicit construction of a near-linear cube function with small l1 norm.

Fix an odd ell and put the trigonometric kernel

    phi(theta) = ((2 ell - 1) / ell) * sin(ell theta) / sin^2(theta)

on the 4 ell equally spaced angles of [0, 2 pi) with 0 and pi removed.
Averaging phi against powers of sin over that support gives

    E[phi sin^k] = 1 for k = 1,   0 for k in {0, 2, 3, ..., ell},

so the cube function whose Fourier coefficient at every subset S is

    c_k = 2 E[phi sin^k] / 2^k      with k = |S|

agrees with the linear function x_1 + ... + x_n on all levels up to ell,
deviates by at most 8 ell / 2^ell on the levels above, and keeps
E|P(X)| <= 8 ell.  The averages cancel through a geometric-sum identity on
the grid, so the identities hold with no asymptotics to trust.

Angles are carried as integer grid indices k (theta_k = 2 pi k / (4 ell)).
The sine table is built for the first quadrant only and mirrored, which
makes the theta -> 2 pi - theta antisymmetry of the kernel exact in floating
point; moments of even powers then cancel exactly instead of to roundoff.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .cube_fourier import _check_dim
from .report import TOLERANCES, BoundReport, check

MAX_ELL = 15  # beyond this the deviation 8 ell / 2^ell is below 1e-3 and adds nothing

# sin(k * pi / 2) by k mod 4, exact
_SIN_HALF_PI = (0.0, 1.0, 0.0, -1.0)


def _check_ell(ell: int) -> None:
    if not (isinstance(ell, (int, np.integer)) and 1 <= ell <= MAX_ELL and ell % 2 == 1):
        raise ValueError(f"ell must be odd in 1..{MAX_ELL}, got {ell!r}")


class ProxyKernel:
    """phi on the 4*ell-point angle grid, whose support leaves out the poles 0 and pi.

    support holds the grid indices k of the kept angles, sin_support and phi
    the sine and kernel values there, ready for moments and level coefficients.
    """

    def __init__(self, ell: int):
        _check_ell(ell)
        self.ell = int(ell)
        self.size = 4 * self.ell
        self._verify_geometric_sums()
        support = np.array([k for k in range(self.size) if k not in (0, 2 * self.ell)])
        sin_support = self._mirrored_sin_table(self.ell)[support]
        prefactor = (2 * self.ell - 1) / self.ell
        sin_ell_theta = np.asarray(_SIN_HALF_PI, dtype=np.float64)[support % 4]
        phi = prefactor * sin_ell_theta / sin_support**2
        for arr in (support, sin_support, phi):
            arr.flags.writeable = False
        self.support = support
        self.sin_support = sin_support
        self.phi = phi

    @staticmethod
    def _mirrored_sin_table(ell: int) -> np.ndarray:
        # First quadrant computed, the rest mirrored, so sin(theta_k)
        # satisfies s[4l - k] == -s[k] bit for bit.
        base = np.sin(np.pi * np.arange(ell + 1) / (2 * ell))
        half = np.concatenate([base, base[ell - 1 :: -1]])  # k = 0 .. 2l
        return np.concatenate([half, -half[2 * ell - 1 : 0 : -1]])  # k = 0 .. 4l-1

    def _verify_geometric_sums(self) -> None:
        # sum over the full grid of e^{i a theta} is 4l when 4l divides a, else 0;
        # row a of the (8l + 1, 4l) table holds the terms of one sum
        a = np.arange(-self.size, self.size + 1)
        k = np.arange(self.size)
        totals = np.exp(2j * np.pi * np.outer(a, k) / self.size).sum(axis=1)
        want = np.where(a % self.size == 0, float(self.size), 0.0)
        tol = TOLERANCES["grid-geometric-sum"]
        failed = np.nonzero(~(np.abs(totals - want) <= tol))[0]  # a NaN sum fails too
        if failed.size:
            i = failed[0]
            raise RuntimeError(
                f"grid geometric-sum identity failed at a={a[i]}: |{totals[i]:.3e} - {want[i]}| > {tol}"
            )


def kernel_moment(kernel: ProxyKernel, k: int) -> float:
    """E[phi(theta) sin^k(theta)] under the uniform distribution on the support."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    terms = kernel.phi * kernel.sin_support**k
    return math.fsum(terms) / terms.size


def kernel_l1(kernel: ProxyKernel) -> float:
    """E|phi(theta)|; never exceeds 4 ell."""
    return math.fsum(np.abs(kernel.phi)) / kernel.phi.size


def deviation_bound(ell: int) -> float:
    """8 ell / 2^ell, the per-coefficient gap between the proxy and the linear function."""
    _check_ell(ell)
    return 8.0 * ell / 2.0**ell


def proxy_level_coeffs(kernel: ProxyKernel, n: int) -> np.ndarray:
    """Level coefficients c_0..c_n with c_k = 2 E[phi sin^k] / 2^k.

    The proxy's Fourier coefficient at any subset S is c_{|S|}, so this
    array is the whole spectrum up to the level-counting map.
    """
    _check_dim(n)
    return np.array([2.0 * kernel_moment(kernel, k) / 2.0**k for k in range(n + 1)])


def proxy_eval_by_weight(kernel: ProxyKernel, n: int, a: int) -> float:
    """Proxy value at any point with exactly a coordinates equal to -1.

    The proxy is symmetric in the coordinates, so the Hamming weight
    determines the value: 2 E[phi (1 + s/2)^(n-a) (1 - s/2)^a], s = sin(theta).
    """
    _check_dim(n)
    if not 0 <= a <= n:
        raise ValueError(f"weight a={a} out of range [0, {n}]")
    # |sin theta| <= 1, so both factors lie in [1/2, 3/2]: every power stays positive
    plus = 1.0 + kernel.sin_support / 2.0
    minus = 1.0 - kernel.sin_support / 2.0
    terms = kernel.phi * plus ** (n - a) * minus**a
    return 2.0 * math.fsum(terms) / terms.size


def proxy_l1(kernel: ProxyKernel, n: int) -> float:
    """E|P(X)| as an exact weight-by-weight sum; never exceeds 8 ell."""
    _check_dim(n)
    total = math.fsum(
        math.comb(n, a) * abs(proxy_eval_by_weight(kernel, n, a)) for a in range(n + 1)
    )
    return total / 2.0**n


def proxy_properties(kernel: ProxyKernel, n: int) -> tuple[dict[str, Any], list[BoundReport]]:
    """The construction's measured properties at (ell, n), and a report for each claim it makes.

    The moments E[phi sin^k] are 1 at k = 1 and 0 at the other k <= ell,
    E|phi| <= 4 ell, E|P| <= 8 ell, P matches L on the levels up to ell, and
    no level deviates from L by more than 8 ell / 2^ell.
    """
    ell = kernel.ell
    moments = [kernel_moment(kernel, k) for k in range(ell + 1)]
    coeffs = proxy_level_coeffs(kernel, n)
    linear = np.zeros(n + 1)
    linear[1] = 1.0
    gaps = np.abs(coeffs - linear)
    measured: dict[str, Any] = {
        "moments": moments,
        "phi_l1": kernel_l1(kernel),
        "phi_l1_bound": 4.0 * ell,
        "proxy_l1": proxy_l1(kernel, n),
        "proxy_l1_bound": 8.0 * ell,
        "level_coeffs": [float(c) for c in coeffs],
        "deviation_bound": deviation_bound(ell),
        "max_deviation": float(gaps.max()),
        "mismatch_below_ell": float(gaps[: ell + 1].max()),
    }
    return measured, [
        *(check(f"kernel-moment[{k}]", abs(moment - (1.0 if k == 1 else 0.0)), 0.0)
          for k, moment in enumerate(moments)),
        check("kernel-l1-bound", measured["phi_l1"], measured["phi_l1_bound"]),
        check("proxy-l1-bound", measured["proxy_l1"], measured["proxy_l1_bound"]),
        check("proxy-low-level-match", measured["mismatch_below_ell"], 0.0),
        check("proxy-level-deviation", measured["max_deviation"], measured["deviation_bound"]),
    ]
