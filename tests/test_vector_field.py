"""Vector tables, the norm suite, level-operator convolution, and the norms' Euclidean sandwiches."""

import math
import tracemalloc

import numpy as np
import pytest

from pisier_lab import (
    CubeFunction,
    Norm,
    ProxyKernel,
    VectorFunction,
    convolve,
    fwht,
    inverse_fwht,
    level_multiply,
    rademacher_projection,
    sandwich_validate,
)
from pisier_lab import cube_fourier, pisier_bench

from oracles import (
    constant_function,
    level_multiply_whole,
    linear_function,
    proxy_as_cube_function,
    rademacher_projection_whole,
    young_bound_check,
)


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


class TestRowBlocks:
    """evaluate_rows reduces each row alone, a row block at a time: the bits of one whole-table norm."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, math.inf])
    @pytest.mark.parametrize("m", [1, 3, 64, 70_000], ids=["m1", "m3", "m64", "wider-than-a-block"])
    @pytest.mark.parametrize("layout", ["c-order", "transposed"])
    def test_lp_rows_equal_the_whole_table_norm(self, p, m, layout):
        """Bit for bit on a C-contiguous table, the layout of every table a run measures.  On a strided
        one numpy picks its reduction order from the operand's shape, which a one-row block changes."""
        k = max(2, 3 * cube_fourier._BLOCK_DOUBLES // m + 7)  # several blocks and a partial one
        rng = np.random.default_rng(m)
        rows = rng.standard_normal((k, m)) if layout == "c-order" else rng.standard_normal((m, k)).T
        got, want = Norm.lp(p).evaluate_rows(rows), np.linalg.norm(rows, ord=p, axis=1)
        if layout == "c-order":
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(("p", "rows", "want"), [
        (1000.0, np.full((1, 64), 0.125), [0.125 * 64 ** 0.001]),  # 0.125^1000 underflows: unscaled, the norm reads 0
        (1000.0, np.full((3, 4), 3.0), [3.0 * 4 ** 0.001] * 3),  # 3^1000 overflows: unscaled, the norm reads inf
        (128.0, np.array([[0.0, 0.0], [1.0, 300.0]]), [0.0, 300.0]),  # a zero row beside an overflowing one
        (32.0, np.array([[1e-16, -3e-16]]), [3e-16]),  # rounding noise: (1e-16)^32 underflows
        (2.0, np.array([[1e200, 1.0]]), [1e200]),  # x * x overflows
        (2.0, np.array([[1e-200, 0.0]]), [1e-200]),  # x * x underflows
    ], ids=["l1000-underflow", "l1000-overflow", "l128-beside-a-zero-row", "l32-noise", "l2-overflow", "l2-underflow"])
    def test_an_lp_norm_out_of_double_range_is_measured_by_scaling(self, p, rows, want):
        """A finite row whose sum of |x|^p leaves double range is measured as max|x| * ||x / max|x|||_p, with no
        numpy warning, and a row in range beside it keeps the bits of the unscaled norm."""
        in_range = np.array([0.5, -0.75] + [0.0] * (rows.shape[1] - 2))
        got = Norm.lp(p).evaluate_rows(np.vstack([rows, in_range]))
        np.testing.assert_allclose(got[:-1], want, rtol=1e-15, atol=0.0)
        assert got[-1].tobytes() == np.linalg.norm(in_range, ord=p).tobytes()

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 1000.0, math.inf])
    def test_zero_and_non_finite_rows_keep_their_norms(self, p):
        """A zero row's norm is 0, a row with inf or NaN keeps the inf or NaN: no range error."""
        rows = np.array([[0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], [0.5, 0.5]])
        got = Norm.lp(p).evaluate_rows(rows)
        assert got[0] == 0.0 and got[1] == math.inf and math.isnan(got[2]) and 0.5 <= got[3] <= 1.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_lp_rows_need_no_table_sized_temporary(self, p):
        """The |x| or x*x temporary is one block: an 8 MB table's norms peak under a quarter of it."""
        table = np.random.default_rng(3).standard_normal((1 << 16, 16))
        tracemalloc.start()
        try:
            Norm.lp(p).evaluate_rows(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes / 4, peak / table.nbytes


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
        """The transform-free passes for lin f agree with convolving every column with L."""
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
    def test_adopts_its_product_table(self):
        """lin f holds its passes' own read-only table: the peak is one (2^n, m) table, not a copy besides."""
        f = random_vector(10, 64, 3)
        f.spectrum
        tracemalloc.start()
        try:
            table = rademacher_projection(f).values_matrix()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.shape == (1 << 10, 64) and not table.flags.writeable
        assert peak < 1.5 * table.nbytes

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

    @pytest.mark.parametrize(("n", "m"), [(1, 1), (1, 3), (2, 2), (3, 2), (8, 4), (10, 8), (12, 16), (14, 32),
                                          (16, 64), (16, 1), (16, 2), (5, 2895), (8, 2895)])
    def test_bit_identical_to_the_butterfly_route(self, monkeypatch, n, m):
        """lin f has the bits of the inverse transform of the level-1 spectrum, at 1 and 2 butterfly workers, and
        of the sum of the singleton characters in ascending j from 0.0: it runs the butterfly's own additions in
        the butterfly's order, so no matrix product picks a summation order.  The audit's lin f at the even points
        has the bits of the even rows."""
        f = random_vector(n, m, n + m)
        whole = rademacher_projection_whole(f.spectrum)
        want = whole.tobytes()
        for workers in (1, 2):
            monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
            assert rademacher_projection(f).values_matrix().tobytes() == want
            assert inverse_fwht(level_multiply(f.spectrum, keep_level(n, 1))).tobytes() == want
        assert pisier_bench._projection_at_even_points(f.spectrum).tobytes() == whole[0::2].tobytes()


class TestBlockedWalks:
    """The level multiplier walks the cube a cache block of rows at a time, with the bits of its whole-table
    formula; neither it nor the projection holds a whole-cube temporary."""

    SHAPES = [(16, 64), (12, 16), (16, 1), (5, 2895)]

    @staticmethod
    def case(n, m):
        return random_vector(n, m, n + m), np.random.default_rng(m).standard_normal(n + 1)

    @staticmethod
    def assert_level_bits(f, c):
        assert np.array_equal(level_multiply(f.spectrum, c), level_multiply_whole(f.spectrum, c))
        assert np.array_equal(level_multiply(f.spectrum[:, 0], c), level_multiply_whole(f.spectrum[:, 0], c))

    @pytest.mark.parametrize(("n", "m"), SHAPES)
    def test_bit_identical_to_the_whole_table(self, n, m):
        f, c = self.case(n, m)
        self.assert_level_bits(f, c)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(("n", "m"), SHAPES)
    def test_small_blocks_keep_the_level_bits(self, monkeypatch, n, m, workers):
        f, c = self.case(n, m)
        monkeypatch.setattr(cube_fourier, "_BLOCK_DOUBLES", 1 << 6)
        monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
        self.assert_level_bits(f, c)

    def test_peak_is_the_output_and_a_few_blocks(self):
        """At n = 20, m = 1 each walk peaks under its 8 MB output plus four 512 KB blocks; a (2^20, 20)
        coordinate table would be 160 MiB."""
        f = random_vector(20, 1, 20)
        walks = {"projection": lambda: rademacher_projection(f).values_matrix(),
                 "level multiplier": lambda: level_multiply(f.spectrum, np.ones(21))}
        for name, walk in walks.items():
            tracemalloc.start()
            try:
                out = walk()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.shape == (1 << 20, 1)
            assert peak <= out.nbytes + 4 * 8 * cube_fourier._BLOCK_DOUBLES, (name, peak - out.nbytes)


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

    def test_a_table_of_kernels_is_refused_before_the_product(self):
        """g is one function: a (2^n, m) g is refused by its shape before f * g is formed, which would broadcast
        to a (2^n, 2^n, m) table, 2 MiB here and 2 GiB at n = 12, m = 16."""
        f, g = random_vector(8, 4, 13), random_vector(8, 4, 14)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"expected one function, a \(2\^n,\) table, got shape \(256, 4\)"):
                young_bound_check(f, g, Norm.lp(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, peak

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_randomized_suite_never_violates(self, seed, p):
        rng = np.random.default_rng(200 + seed)
        f = random_vector(6, 3, 300 + seed)
        g = CubeFunction.from_values(6, rng.standard_normal(64))
        assert young_bound_check(f, g, Norm.lp(p)).holds


def test_constructor_takes_p_alone():
    """A norm is its p: the constructor and Norm.lp build the same norm, and the name spells p."""
    assert [Norm(p).name for p in (1, 2.0, 1.5, math.inf)] == ["l1", "l2", "l1.5", "linf"]
    assert [Norm.lp(p).p for p in (1, 2.0, 1.5, math.inf)] == [1.0, 2.0, 1.5, math.inf]
    with pytest.raises(ValueError):
        Norm("l2")


@pytest.mark.parametrize("p", [1, 1.1, 1.5, 2, 2.5, 3, 7, 1.0000000000000002, 1e20, math.inf])
def test_lp_name_reads_back(p):
    """l<p> with p an integer's digits or the float's repr: the name alone rebuilds the norm, and --norm reads it."""
    name = Norm.lp(p).name
    assert name[0] == "l" and Norm.lp(float(name[1:])).p == float(p)
    assert Norm.lp(float(name[1:])).name == name


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0, -math.inf, math.nan])
def test_lp_needs_p_at_least_one(p):
    """One rule for lp norms, and so for their sandwich: -inf would name min |v_i| linf, NaN no norm."""
    with pytest.raises(ValueError, match="lp norms need p >= 1"):
        Norm.lp(p)
    with pytest.raises(ValueError, match="lp norms need p >= 1"):
        Norm(p)


SANDWICH_NORMS = {
    "linf": Norm.lp(math.inf),
    "l1": Norm.lp(1),
    "l2": Norm.lp(2),
    "l1.5": Norm.lp(1.5),
    "l3": Norm.lp(3),
    "l7": Norm.lp(7),
}


class TestSandwich:
    @pytest.mark.parametrize("name", SANDWICH_NORMS)
    def test_gate_passes(self, name):
        norm = SANDWICH_NORMS[name]
        report = sandwich_validate(norm, 6)
        assert report.holds
        assert report.params["norm"] == name == norm.name

    @pytest.mark.parametrize("name", SANDWICH_NORMS)
    def test_holds_on_many_directions(self, name):
        """s ||x||_2 <= ||x|| <= d s ||x||_2 on 1,000 Gaussian vectors and the all-ones vector."""
        norm = SANDWICH_NORMS[name]
        m = 6
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

    @pytest.mark.parametrize("m", [1, 3, 300])
    def test_l2_is_attained_on_both_sides(self, m):
        """s = d = 1: every unit vector attains both sides; e_j exactly, ones/sqrt(m) up to rounding."""
        report = sandwich_validate(Norm.lp(2), m)
        assert report.lhs <= 2.0**-52
        assert m > 1 or report.lhs == 0.0

    def test_violation_reports_instead_of_raising(self, monkeypatch):
        # d = 1 at scale 1 cannot sandwich the sup norm: report fails, no crash
        monkeypatch.setattr(Norm, "sandwich", lambda self, m: (1.0, 1.0))
        report = sandwich_validate(Norm.lp(math.inf), 4)
        assert not report.holds
        assert report.params["worst_side"] == "lower"
        assert report.params["least_slack"] == -0.5 == -report.lhs

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 7.0, math.inf])
    @pytest.mark.parametrize("m", [1, 2, 4, 16, 64, 2895])
    def test_attained_on_both_sides(self, p, m):
        """Hoelder: each side of the lp sandwich is attained at e_j or at ones/sqrt(m), up to the gate's cap."""
        report = sandwich_validate(Norm.lp(p), m)
        assert report.holds and report.lhs <= 1e-9
        assert report.claim == "sandwich-attained" and report.rhs == 0.0

    @pytest.mark.parametrize("mutant", ["double d", "halve s"])
    @pytest.mark.parametrize("name", ["l1", "l2", "l3", "linf"])
    def test_a_wrong_sandwich_fires(self, monkeypatch, name, mutant):
        """Too large a d (the bound would loosen unseen) and too small an s each fail the claim, at m = 16."""
        norm = SANDWICH_NORMS[name]
        m = 16
        scale, distortion = norm.sandwich(m)
        wrong = (scale, 2.0 * distortion) if mutant == "double d" else (scale / 2.0, distortion)
        monkeypatch.setattr(Norm, "sandwich", lambda self, m: wrong)
        assert not sandwich_validate(norm, m).holds

    @pytest.mark.parametrize("where", ["sandwich", "norms"])
    def test_nan_fails(self, monkeypatch, where):
        """A NaN in the sandwich or in one norm fails the claim, whichever side it lands on."""
        if where == "sandwich":
            monkeypatch.setattr(Norm, "sandwich", lambda self, m: (1.0, math.nan))
        else:
            evaluate = Norm.evaluate_rows
            monkeypatch.setattr(Norm, "evaluate_rows", lambda self, rows: np.where(
                rows[:, -1] == -1.0, math.nan, evaluate(self, rows)))
        report = sandwich_validate(Norm.lp(1), 5)
        assert not report.holds and math.isnan(report.lhs)

    @pytest.mark.parametrize("m", [5, 3000])
    def test_gate_rows_come_in_blocks(self, m):
        """ones/sqrt(m) and its negative, then +-e_j a block of at most 2^16 doubles at a time: no (2m, m) table."""
        shapes = []
        norm = Norm.lp(2)
        original = norm.evaluate_rows
        norm.evaluate_rows = lambda points: shapes.append(points.shape) or original(points)
        sandwich_validate(norm, m)
        assert shapes[0] == (2, m) and sum(rows for rows, _ in shapes) == 2 * m + 2
        assert all(width == m and rows * m <= cube_fourier._BLOCK_DOUBLES for rows, width in shapes[1:])
        assert len(shapes) == 1 + math.ceil(m / (cube_fourier._BLOCK_DOUBLES // (2 * m)))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("m", [1, 7, 300])
    def test_gate_reports_equal_the_stacked_construction(self, p, m):
        """The gate's points by row block: the report of vstack, eye and whole-table norms."""
        scale, distortion = Norm.lp(p).sandwich(m)
        points = np.vstack([np.full((1, m), 1.0 / math.sqrt(m)), np.full((1, m), -1.0 / math.sqrt(m)),
                            np.eye(m), -np.eye(m)])
        target = np.linalg.norm(points, ord=p, axis=1)
        least = [min(target) - scale, distortion * scale - max(target)]
        side = 0 if abs(least[0]) >= abs(least[1]) else 1
        report = sandwich_validate(Norm.lp(p), m)
        assert (report.lhs, report.params["least_slack"]) == (abs(least[side]), least[side])
        assert report.params["worst_side"] == ("lower", "upper")[side]

    def test_gate_peak_is_a_few_row_blocks(self):
        """No eye, negated eye or stacked copy: at the cap m = 2895 the gate peaks at a few 512 KB row blocks."""
        tracemalloc.start()
        try:
            sandwich_validate(Norm.lp(3), 2895)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak

