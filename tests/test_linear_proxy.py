"""Grid, kernel, moment, and proxy-bound checks for the explicit construction."""

import math

import numpy as np
import pytest

from pisier_lab import (
    ProxyKernel,
    ResourceLimitError,
    deviation_bound,
    kernel_l1,
    kernel_moment,
    proxy_eval_by_weight,
    proxy_l1,
    proxy_level_coeffs,
)
from pisier_lab.cube_fourier import popcount
from pisier_lab.linear_proxy import MAX_ELL, proxy_properties
from pisier_lab.report import TOLERANCES

from oracles import proxy_as_cube_function

ODD_ELLS = (1, 3, 5, 7, 9, 11, 13, 15)


def direct_moment(ell, k):
    # independent direct summation straight from the formulas
    terms = []
    for j in range(4 * ell):
        if j in (0, 2 * ell):
            continue
        theta = 2 * math.pi * j / (4 * ell)
        phi = (2 * ell - 1) / ell * math.sin(ell * theta) / math.sin(theta) ** 2
        terms.append(phi * math.sin(theta) ** k)
    return math.fsum(terms) / len(terms)


def grid_angles(kernel):
    """theta_k = 2 pi k / (4 ell) for every grid index k."""
    return 2.0 * math.pi * np.arange(kernel.size) / kernel.size


def phi_by_index(kernel):
    """Grid index k -> phi(theta_k), over the support."""
    return dict(zip(kernel.support.tolist(), kernel.phi.tolist()))


class TestAngleGrid:
    def test_ell_one_layout(self):
        kernel = ProxyKernel(1)
        assert np.allclose(grid_angles(kernel), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        assert kernel.support.tolist() == [1, 3]

    @pytest.mark.parametrize("ell", ODD_ELLS)
    def test_sizes_and_mirror_closure(self, ell):
        kernel = ProxyKernel(ell)
        assert kernel.size == 4 * ell
        assert kernel.support.size == kernel.phi.size == kernel.sin_support.size == 4 * ell - 2
        support = set(kernel.support.tolist())
        assert {(-k) % kernel.size for k in support} == support

    def test_geometric_sum_zero_case(self):
        # ell=3, a=5: the 12-term complex sum cancels
        kernel = ProxyKernel(3)
        total = sum(complex(math.cos(5 * t), math.sin(5 * t)) for t in grid_angles(kernel))
        assert abs(total) < 1e-10

    def test_geometric_sum_full_case(self):
        kernel = ProxyKernel(3)
        assert sum(complex(math.cos(0), math.sin(0)) for _ in grid_angles(kernel)) == 12.0

    @pytest.mark.parametrize("ell", [1, 5])
    def test_failed_geometric_sum_names_the_first_exponent(self, monkeypatch, ell):
        """The identity is checked for every a in -4 ell..4 ell; a failure names the first a."""
        monkeypatch.setitem(TOLERANCES, "grid-geometric-sum", -1.0)
        with pytest.raises(ValueError, match=f"identity failed at a={-4 * ell}:"):
            ProxyKernel(ell)

    @pytest.mark.parametrize("bad", [0, -1, 2, 4, 17])
    def test_rejects_bad_ell(self, bad):
        with pytest.raises(ValueError):
            ProxyKernel(bad)

    @pytest.mark.parametrize("bad", [0, 3.0, 17, True])
    def test_bad_ell_has_one_message(self, bad):
        with pytest.raises(ValueError, match=rf"^ell must be odd in 1\.\.{MAX_ELL}, got {bad!r}$"):
            ProxyKernel(bad)


class TestKernelValues:
    def test_ell_one_values(self):
        phi = phi_by_index(ProxyKernel(1))
        assert phi[1] == 1.0  # theta = pi/2
        assert phi[3] == -1.0  # theta = 3 pi/2

    def test_poles_rejected(self):
        """theta in {0, pi} are poles of phi and stay out of the support."""
        kernel = ProxyKernel(3)
        assert 0 not in kernel.support
        assert 6 not in kernel.support
        assert np.all(np.isfinite(kernel.phi))

    @pytest.mark.parametrize("ell", (1, 5, 11))
    def test_exact_antisymmetry(self, ell):
        """phi(2 pi - theta) = -phi(theta) holds bit for bit."""
        phi = phi_by_index(ProxyKernel(ell))
        for k, value in phi.items():
            assert phi[(-k) % (4 * ell)] == -value

    @pytest.mark.parametrize("ell", (3, 7))
    def test_matches_direct_formula(self, ell):
        kernel = ProxyKernel(ell)
        for k, value in phi_by_index(kernel).items():
            theta = 2 * math.pi * k / (4 * ell)
            direct = (2 * ell - 1) / ell * math.sin(ell * theta) / math.sin(theta) ** 2
            assert value == pytest.approx(direct, abs=1e-12)


class TestMoments:
    @pytest.mark.parametrize("ell", ODD_ELLS)
    def test_moment_table(self, ell):
        """E[phi sin^k] is 1 at k = 1 and 0 at k in {0, 2, ..., ell}."""
        kernel = ProxyKernel(ell)
        assert abs(kernel_moment(kernel, 1) - 1.0) < 1e-10
        for k in (0, *range(2, ell + 1)):
            assert abs(kernel_moment(kernel, k)) < 1e-10

    def test_ell_one_zeroth_moment_exact(self):
        assert kernel_moment(ProxyKernel(1), 0) == 0.0

    def test_ell_one_first_moment_exact(self):
        assert kernel_moment(ProxyKernel(1), 1) == 1.0

    def test_ell_five_fourth_moment(self):
        assert abs(kernel_moment(ProxyKernel(5), 4)) < 1e-10
        assert abs(direct_moment(5, 4)) < 1e-10

    @pytest.mark.parametrize("ell", (3, 9))
    @pytest.mark.parametrize("k", (0, 1, 2, 3, 5, 8))
    def test_matches_direct_summation(self, ell, k):
        assert kernel_moment(ProxyKernel(ell), k) == pytest.approx(direct_moment(ell, k), abs=1e-12)

    @pytest.mark.parametrize("ell", (3, 9, 15))
    def test_even_weight_cancellation(self, ell):
        """Averaging phi against any even grid function cancels to roundoff."""
        kernel = ProxyKernel(ell)
        assert math.fsum(kernel.phi * kernel.sin_support**2) == 0.0
        cosines = np.cos(2 * math.pi * kernel.support / (4 * ell))
        assert abs(math.fsum(kernel.phi * cosines)) < 1e-12

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            kernel_moment(ProxyKernel(1), -1)


class TestL1Bounds:
    def test_ell_one_value(self):
        assert kernel_l1(ProxyKernel(1)) == 1.0

    @pytest.mark.parametrize("ell", ODD_ELLS)
    def test_kernel_l1_bound(self, ell):
        value = kernel_l1(ProxyKernel(ell))
        assert value <= 4 * ell
        direct = math.fsum(
            abs((2 * ell - 1) / ell * math.sin(ell * t) / math.sin(t) ** 2)
            for t in (2 * math.pi * j / (4 * ell) for j in range(4 * ell) if j not in (0, 2 * ell))
        ) / (4 * ell - 2)
        assert value == pytest.approx(direct, rel=1e-13)

    def test_kernel_l1_violation_reports_the_measured_value(self):
        kernel = ProxyKernel(3)
        kernel.phi = 100.0 * kernel.phi
        measured = math.fsum(np.abs(kernel.phi)) / kernel.phi.size
        assert kernel_l1(kernel) == measured
        report = {c.claim: c for c in proxy_properties(kernel, 4)[1]}["kernel-l1-bound"]
        assert (report.lhs, report.rhs, report.holds) == (measured, 12.0, False)

    @pytest.mark.parametrize(("ell", "n"), [(1, 1), (3, 16), (5, 24), (15, 24)])
    def test_proxy_l1_bound(self, ell, n):
        assert proxy_l1(ProxyKernel(ell), n) <= 8 * ell

    def test_proxy_l1_two_point_cube(self):
        assert proxy_l1(ProxyKernel(1), 1) == 1.0

    def test_proxy_l1_matches_table_average(self):
        kernel = ProxyKernel(3)
        table = proxy_as_cube_function(kernel, 8)
        assert proxy_l1(kernel, 8) == pytest.approx(float(np.abs(table.values).mean()), abs=1e-10)


class TestLevelCoefficients:
    def test_ell_one_profile(self):
        coeffs = proxy_level_coeffs(ProxyKernel(1), 3)
        assert coeffs[0] == 0.0
        assert coeffs[1] == 1.0
        assert coeffs[2] == 0.0
        assert coeffs[3] == 0.25  # 2 E[phi sin^3] / 8 with E[phi sin^3] = 1

    @pytest.mark.parametrize("ell", ODD_ELLS)
    def test_even_levels_are_exactly_zero(self, ell):
        """phi is odd and sin^k even for even k, so c_k is 0.0 there, not np.power's rounding noise; each odd c_k
        has the bits of 2 E[phi sin^k] / 2^k."""
        kernel = ProxyKernel(ell)
        for n in range(1, 25):
            coeffs = proxy_level_coeffs(kernel, n)
            assert coeffs.shape == (n + 1,)
            assert all(coeffs[k] == 0.0 for k in range(0, n + 1, 2)), n
            odd = [2 * kernel_moment(kernel, k) / 2**k for k in range(1, n + 1, 2)]
            assert coeffs[1::2].tobytes() == np.array(odd).tobytes(), n

    @pytest.mark.parametrize("ell", ODD_ELLS)
    def test_deviation_above_ell(self, ell):
        """|c_k| stays below 8 ell / 2^ell for every level past ell."""
        coeffs = proxy_level_coeffs(ProxyKernel(ell), 24)
        assert np.abs(coeffs[ell + 1 :]).max() <= deviation_bound(ell)

    @pytest.mark.parametrize("ell", ODD_ELLS)
    def test_linear_match_below_ell(self, ell):
        coeffs = proxy_level_coeffs(ProxyKernel(ell), 24)
        target = np.zeros(ell + 1)
        target[1] = 1.0
        assert np.abs(coeffs[: ell + 1] - target).max() < 1e-10


class TestProxyEvaluation:
    def test_two_point_cube(self):
        kernel = ProxyKernel(1)
        assert proxy_eval_by_weight(kernel, 1, 0) == pytest.approx(1.0, abs=1e-14)
        assert proxy_eval_by_weight(kernel, 1, 1) == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("ell", range(1, MAX_ELL + 1, 2))
    def test_weight_factors_stay_in_half_to_three_halves(self, ell):
        """|sin| <= 1 on the support, so 1 +- sin/2 lies in [1/2, 3/2] and its powers stay positive."""
        sin = ProxyKernel(ell).sin_support
        assert np.abs(sin).max() <= 1.0
        for factor in (1.0 + sin / 2.0, 1.0 - sin / 2.0):
            assert factor.min() >= 0.5
            assert factor.max() <= 1.5

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            proxy_eval_by_weight(ProxyKernel(1), 4, 5)

    def test_matches_full_table(self):
        """Per-weight evaluation agrees with the materialized 2^8 table."""
        kernel = ProxyKernel(3)
        table = proxy_as_cube_function(kernel, 8)
        levels = popcount(np.arange(256, dtype=np.uint32))
        for a in range(9):
            want = proxy_eval_by_weight(kernel, 8, a)
            got = table.values[levels == a]
            assert np.abs(got - want).max() < 1e-10


class TestProxyCubeFunction:
    def test_small_spectrum(self):
        table = proxy_as_cube_function(ProxyKernel(1), 2)
        assert np.array_equal(table.spectrum, [0.0, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("ell", (1, 3, 5))
    def test_level_profile_is_exact(self, ell):
        """Coefficients agree exactly within each level."""
        table = proxy_as_cube_function(ProxyKernel(ell), 9)
        levels = popcount(np.arange(512, dtype=np.uint32))
        for level in range(10):
            group = table.spectrum[levels == level]
            assert np.all(group == group[0])

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            proxy_as_cube_function(ProxyKernel(1), 21)
