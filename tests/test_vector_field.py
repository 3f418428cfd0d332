"""Vector tables, the norm suite, level-operator convolution, and the norms' Euclidean sandwiches."""

import math

import numpy as np
import pytest

from pisier_lab import (
    CubeFunction,
    Norm,
    ProxyKernel,
    ResourceLimitError,
    VectorFunction,
    convolve,
    fwht,
    inverse_fwht,
    level_multiply,
    rademacher_projection,
    sandwich_validate,
    young_bound_check,
)
from pisier_lab.lower_bound import build_truncated_witness
from pisier_lab.vector_field import GATE_SAMPLES

from oracles import constant_function, linear_function, proxy_as_cube_function


def norm_of(norm, v):
    """The norm of a single vector, through the row-batched evaluator."""
    return float(norm.evaluate_rows(np.asarray(v, dtype=np.float64)[None, :])[0])


def random_vector(n, m, seed):
    rng = np.random.default_rng(seed)
    return VectorFunction.from_spectrum(n, rng.standard_normal((1 << n, m)))


def constant_vector(n, v):
    """The constant function x -> v, as a spectrum table with v on the empty set."""
    spectra = np.zeros((1 << n, len(v)))
    spectra[0] = v
    return VectorFunction.from_spectrum(n, spectra)


class TestVectorFunction:
    def test_rejects_mixed_dimensions(self):
        # a table needs exactly 2^n rows, two axes and at least one column
        with pytest.raises(ValueError):
            VectorFunction.from_values(3, np.zeros((16, 2)))
        with pytest.raises(ValueError):
            VectorFunction.from_spectrum(3, np.zeros((8, 0)))
        with pytest.raises(ValueError):
            VectorFunction.from_values(3, np.zeros(8))
        # a function is built from one table, as for CubeFunction, even from a consistent pair
        spectra = np.zeros((8, 2))
        spectra[0] = 1.0
        with pytest.raises(ValueError, match="exactly one"):
            VectorFunction(3, values=np.ones((8, 2)), spectrum=spectra)

    def test_coefficient_vector(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((16, 3))
        f = VectorFunction.from_values(4, values)
        want = np.array([fwht(values[:, j])[5] for j in range(3)])
        assert np.array_equal(f.spectrum[5], want)

    @pytest.mark.parametrize(("n", "m"), [(1, 1), (6, 3), (10, 8)])
    def test_batched_fills_match_per_column_transforms(self, n, m):
        """One batched fill per table, bit for bit what the 1-D transforms give."""
        rng = np.random.default_rng(n + m)
        table = rng.standard_normal((1 << n, m))
        from_spec = VectorFunction.from_spectrum(n, table).values_matrix()
        from_vals = VectorFunction.from_values(n, table).spectrum
        for j in range(m):
            assert np.array_equal(from_spec[:, j], inverse_fwht(table[:, j]))
            assert np.array_equal(from_vals[:, j], fwht(table[:, j]))
        for out in (from_spec, from_vals):
            assert out.flags.c_contiguous and not out.flags.writeable

    def test_tables_are_private_copies(self):
        table = np.ones((8, 2))
        f = VectorFunction.from_values(3, table)
        table[0, 0] = 5.0
        assert f.values_matrix()[0, 0] == 1.0
        with pytest.raises(ValueError):
            f.values_matrix()[0, 0] = 5.0

    def test_matrix_round_trips(self):
        f = random_vector(5, 2, 1)
        again = VectorFunction.from_values(5, f.values_matrix())
        assert np.abs(again.spectrum - f.spectrum).max() < 1e-12


def keep_level(n, level):
    """Level multipliers that keep one level of the spectrum and drop the rest."""
    c = np.zeros(n + 1)
    c[level] = 1.0
    return c


class TestMeanSquareNorm:
    def test_constant_function(self):
        f = constant_vector(4, [3.0, -4.0])
        assert Norm.lp(2).mean_square(f.values_matrix()) == pytest.approx(5.0, abs=1e-12)

    def test_single_coordinate_sign(self):
        f = VectorFunction.from_spectrum(1, linear_function(1).spectrum[:, None])
        assert Norm.lp(2).mean_square(f.values_matrix()) == pytest.approx(1.0, abs=1e-14)

    def test_euclidean_parseval(self):
        """The l2 mean square norm equals the coefficient energy."""
        f = random_vector(8, 4, 2)
        via_values = Norm.lp(2).mean_square(f.values_matrix())
        via_spectrum = math.sqrt(float(np.sum(f.spectrum ** 2)))
        assert via_values == pytest.approx(via_spectrum, rel=1e-12)

    def test_dimension_mismatch(self):
        f = random_vector(3, 2, 3)
        with pytest.raises(ValueError):
            Norm.sup_functional(3, [0, 1, 2]).mean_square(f.values_matrix())

    def test_sup_functional_instance_constant(self):
        """The witness instance at n=4 has constant point norms equal to the sup norm."""
        witness = build_truncated_witness(4)
        family = np.nonzero(np.abs(witness.spectrum) > 1e-8)[0]
        columns = witness.spectrum[family] * np.array(
            [[(-1) ** bin(int(s) & x).count("1") for s in family] for x in range(16)], dtype=float
        )
        f = VectorFunction.from_values(4, columns)
        norm = Norm.sup_functional(4, family)
        per_point = norm.evaluate_rows(columns)
        assert np.abs(per_point - witness.sup_norm()).max() < 1e-12
        assert norm.mean_square(f.values_matrix()) == pytest.approx(witness.sup_norm(), rel=1e-12)


class TestVectorConvolve:
    """Convolving a vector function with a symmetric g is level_multiply on its spectrum table."""

    def test_with_constant_one(self):
        f = random_vector(5, 3, 4)
        out = VectorFunction.from_spectrum(5, level_multiply(f.spectrum, keep_level(5, 0)))
        assert np.abs(out.values_matrix() - f.spectrum[0]).max() < 1e-12

    @pytest.mark.parametrize(("n", "m"), [(4, 2), (6, 3), (8, 4)])
    def test_linear_map_commutes(self, n, m):
        """T(f * g) = T(f) * g for a random linear map and a random symmetric g."""
        rng = np.random.default_rng(5 + n)
        f = random_vector(n, m, 6 + n)
        c = rng.standard_normal(n + 1)
        matrix = rng.standard_normal((m, m))

        def convolved(h):
            return VectorFunction.from_spectrum(n, level_multiply(h.spectrum, c))

        def mapped(h):  # T acts on every vector coefficient, so on the spectrum table's rows
            return VectorFunction.from_spectrum(n, h.spectrum @ matrix.T)

        left = mapped(convolved(f))
        right = convolved(mapped(f))
        assert np.abs(left.values_matrix() - right.values_matrix()).max() < 1e-12

    def test_linear_function_gives_projection(self):
        """The transform-free product for lin f agrees with convolving every column with L."""
        for n, m in ((1, 1), (7, 2), (10, 5)):
            f = random_vector(n, m, 7 + n)
            spectra = f.spectrum
            via_l = np.column_stack([
                convolve(CubeFunction.from_spectrum(n, spectra[:, j]), linear_function(n)).values
                for j in range(m)
            ])
            assert np.abs(via_l - rademacher_projection(f).values_matrix()).max() < 1e-12

    def test_dimension_mismatch(self):
        f = random_vector(3, 2, 8)
        with pytest.raises(ValueError):
            level_multiply(f.spectrum, np.ones(5))
        with pytest.raises(ValueError):
            young_bound_check(f, constant_function(4, 1.0), Norm.lp(2))


class TestRademacherProjection:
    def test_constant_maps_to_zero(self):
        f = constant_vector(4, [2.0, -1.0])
        assert np.all(rademacher_projection(f).values_matrix() == 0.0)

    def test_level_two_killed(self):
        spec = np.zeros((8, 1))
        spec[0b011] = 1.0
        f = VectorFunction.from_spectrum(3, spec)
        assert np.all(rademacher_projection(f).values_matrix() == 0.0)

    def test_euclidean_contraction(self):
        """Projection never increases the l2 mean square norm."""
        for seed in range(5):
            f = random_vector(8, 4, 100 + seed)
            norm = Norm.lp(2)
            lin = rademacher_projection(f)
            assert norm.mean_square(lin.values_matrix()) <= norm.mean_square(f.values_matrix()) + 1e-12


class TestYoungBound:
    def test_constant_kernel(self):
        f = random_vector(6, 3, 9)
        report = young_bound_check(f, constant_function(6, 1.0), Norm.lp(math.inf))
        assert report.holds
        assert report.lhs == pytest.approx(
            float(np.abs(f.spectrum[0]).max()), abs=1e-12
        )

    def test_with_proxy_kernel(self):
        f = random_vector(8, 3, 10)
        proxy = proxy_as_cube_function(ProxyKernel(3), 8)
        report = young_bound_check(f, proxy, Norm.lp(math.inf))
        assert report.holds

    def test_constant_vector_function(self):
        rng = np.random.default_rng(11)
        f = constant_vector(5, [1.0, -2.0])
        g = CubeFunction.from_values(5, rng.standard_normal(32))
        report = young_bound_check(f, g, Norm.lp(1))
        assert report.lhs == pytest.approx(abs(g.spectrum[0]) * 3.0, rel=1e-12)
        assert report.holds

    def test_nan_fails_the_report_instead_of_raising(self, monkeypatch):
        monkeypatch.setattr(Norm, "mean_square", lambda self, table: math.nan)
        report = young_bound_check(random_vector(4, 2, 12), constant_function(4, 1.0), Norm.lp(2))
        assert report.claim == "convolution-l1-contraction"
        assert math.isnan(report.slack) and not report.holds

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_randomized_suite_never_violates(self, seed, p):
        rng = np.random.default_rng(200 + seed)
        f = random_vector(6, 3, 300 + seed)
        g = CubeFunction.from_values(6, rng.standard_normal(64))
        assert young_bound_check(f, g, Norm.lp(p)).holds


class TestSupFunctionalNorm:
    def test_empty_set_indicator(self):
        assert norm_of(Norm.sup_functional(3, [0]), [1.0]) == 1.0

    def test_two_singletons(self):
        assert norm_of(Norm.sup_functional(3, [0b01, 0b10]), [1.0, 1.0]) == 2.0

    def test_witness_support_gives_sup_norm(self):
        witness = build_truncated_witness(4)
        family = np.nonzero(np.abs(witness.spectrum) > 1e-8)[0]
        value = norm_of(Norm.sup_functional(4, family), witness.spectrum[family])
        assert value == pytest.approx(witness.sup_norm(), abs=1e-14)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            Norm.sup_functional(25, [0])

    def test_homogeneity_exact_for_dyadic_scalars(self):
        # dyadic scaling is error-free in floating point
        rng = np.random.default_rng(12)
        norm = Norm.sup_functional(5, np.arange(32))
        v = rng.standard_normal(32)
        base = norm_of(norm, v)
        for alpha in (0.5, 2.0, -4.0, 0.25, -1.0):
            assert norm_of(norm, alpha * v) == abs(alpha) * base

    @pytest.mark.parametrize("seed", range(6))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(400 + seed)
        norm = Norm.sup_functional(6, np.arange(0, 64, 3))
        u = rng.standard_normal(norm.dim)
        v = rng.standard_normal(norm.dim)
        assert norm_of(norm, u + v) <= norm_of(norm, u) + norm_of(norm, v) + 1e-12

    def test_family_must_be_unique_and_in_range(self):
        # [-1] must not wrap around to mask 7; a duplicate mask must not drop a coefficient
        for n_dual, family in ((3, [1, 1, 2]), (2, [0, 4]), (3, [-1]), (3, [0b01, 0b01])):
            with pytest.raises(ValueError):
                Norm.sup_functional(n_dual, family)

    def test_family_must_be_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            Norm.sup_functional(3, [2, 1])

    def test_constructor_derives_name_and_dim(self):
        """The kind and its parameters make the norm; a parameter of the other kind is dropped."""
        norm = Norm("sup_functional", n_dual=3, family=[1, 2, 4], p=2.0)
        assert (norm.name, norm.dim, norm.p) == ("sup_functional(n=3,|family|=3)", 3, None)
        norm = Norm("lp", p=3, n_dual=3, family=[1])
        assert (norm.name, norm.dim, norm.family) == ("l3", None, None)
        assert [Norm.lp(p).name for p in (1, 2.0, 1.5, math.inf)] == ["l1", "l2", "lp(1.5)", "linf"]
        with pytest.raises(ValueError, match="unknown norm kind 'l2'"):
            Norm("l2")


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0, -math.inf, math.nan])
def test_lp_needs_p_at_least_one(p):
    """One rule for lp norms, and so for their sandwich: -inf would name min |v_i| linf, NaN no norm."""
    with pytest.raises(ValueError, match="lp norms need p >= 1"):
        Norm.lp(p)
    with pytest.raises(ValueError, match="lp norms need p >= 1"):
        Norm("lp", p=p)


SANDWICH_NORMS = {
    "linf": Norm.lp(math.inf),
    "l1": Norm.lp(1),
    "l2": Norm.lp(2),
    "lp(1.5)": Norm.lp(1.5),
    "l3": Norm.lp(3),
    "l7": Norm.lp(7),
    "sup_functional(n=4,|family|=7)": Norm.sup_functional(4, [1, 2, 3, 4, 7, 8, 11]),
}


class TestSandwich:
    @pytest.mark.parametrize("name", SANDWICH_NORMS)
    def test_gate_passes(self, name):
        norm = SANDWICH_NORMS[name]
        report = sandwich_validate(norm, norm.dim or 6)
        assert report.holds
        assert report.params["norm"] == name == norm.name

    @pytest.mark.parametrize("name", SANDWICH_NORMS)
    def test_holds_on_many_directions(self, name):
        """s ||x||_2 <= ||x|| <= d s ||x||_2 on 1,000 Gaussian vectors and the all-ones vector."""
        norm = SANDWICH_NORMS[name]
        m = norm.dim or 6
        scale, distortion = norm.sandwich(m)
        rng = np.random.default_rng(6)
        x = np.vstack([rng.standard_normal((1000, m)), np.ones(m)])
        euclid = scale * np.linalg.norm(x, axis=1)
        target = norm.evaluate_rows(x)
        assert np.all(euclid <= target * (1 + 1e-12))
        assert np.all(target <= distortion * euclid * (1 + 1e-12))

    def test_linf_analytic_constants(self):
        """x: ||x||_2 / sqrt(m) <= ||x||_inf <= ||x||_2."""
        assert Norm.lp(math.inf).sandwich(4) == (0.5, 2.0)

    def test_l1_analytic_constants(self):
        scale, distortion = Norm.lp(1).sandwich(5)
        assert scale == 1.0
        assert distortion == pytest.approx(math.sqrt(5))

    def test_sup_functional_parseval_constants(self):
        """||v||_2 = ||g_v||_2 <= ||g_v||_inf <= ||v||_1 <= sqrt(m) ||v||_2."""
        assert Norm.sup_functional(5, range(1, 17)).sandwich(16) == (1.0, 4.0)

    def test_l2_identity_zero_slack(self):
        report = sandwich_validate(Norm.lp(2), 3)
        assert report.slack == 0.0

    def test_violation_reports_instead_of_raising(self, monkeypatch):
        # d = 1 at scale 1 cannot sandwich the sup norm: report fails, no crash
        monkeypatch.setattr(Norm, "sandwich", lambda self, m: (1.0, 1.0))
        report = sandwich_validate(Norm.lp(math.inf), 4)
        assert not report.holds
        assert report.params["worst_side"] == "lower"

    def test_gate_table_size(self):
        """GATE_SAMPLES random directions and 2m signed basis vectors: one (GATE_SAMPLES + 2m, m) table."""
        rows = []
        norm = Norm.lp(2)
        original = norm.evaluate_rows
        norm.evaluate_rows = lambda points: rows.append(points.shape) or original(points)
        sandwich_validate(norm, 5)
        assert rows == [(GATE_SAMPLES + 10, 5)]

