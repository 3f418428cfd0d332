"""Witness constructions, truncation tails, instances, and the sparsity record."""

import math
import tracemalloc

import numpy as np
import pytest

from pisier_lab import (
    CubeFunction,
    Norm,
    ProxyKernel,
    ResourceLimitError,
    VectorFunction,
    build_chebyshev_witness,
    build_product_witness,
    build_truncated_witness,
    character_values,
    decomposition_audit,
    fwht,
    lower_bound_instance,
    proxy_eval_by_weight,
    proxy_l1,
    proxy_level_coeffs,
    rademacher_projection,
    sparsity_inequality_check,
    spectrum_sparsity,
    structural_sparsity,
    truncation_level,
    truncation_tail_bound,
    truncation_tail_chain,
)
from pisier_lab import cube_fourier, lower_bound
from pisier_lab.cube_fourier import MAX_DIM, popcount
from pisier_lab.lower_bound import MAX_INSTANCE_DIM, MAX_RECORD_DIM, WITNESS_VARIANTS
from pisier_lab.pisier_bench import MAX_AUDIT_DIM
from pisier_lab.report import TOLERANCES
from pisier_lab.vector_field import MAX_SUP_FUNCTIONAL_DIM

from oracles import constant_function


def product_witness_values_oracle(n):
    # evaluate Im prod_j (1 + i x_j / sqrt(n)) directly in complex arithmetic
    out = np.empty(1 << n)
    for x in range(1 << n):
        z = complex(1.0)
        for j in range(n):
            sign = -1.0 if (x >> j) & 1 else 1.0
            z *= 1.0 + 1j * sign / math.sqrt(n)
        out[x] = z.imag
    return out


def zero_audit(n, norm):
    """Audit a zero function whose n is set past its constructor's check, so the audit's own check runs."""
    f = VectorFunction.from_spectrum(1, np.zeros((2, 1)))
    f.n = n
    return decomposition_audit(f, norm)


# every library entry point with a capped dimension, as a function of n, and its cap
DIMENSION_CAPS = {
    "build_product_witness": (build_product_witness, MAX_RECORD_DIM),
    "build_truncated_witness": (build_truncated_witness, MAX_RECORD_DIM),
    "build_chebyshev_witness": (build_chebyshev_witness, MAX_RECORD_DIM),
    "lower_bound_instance": (lower_bound_instance, MAX_INSTANCE_DIM),
    "audit-lp": (lambda n: zero_audit(n, Norm.lp(2)), MAX_AUDIT_DIM),
    "audit-sup_functional": (lambda n: zero_audit(n, Norm.sup_functional(1, [0])), MAX_SUP_FUNCTIONAL_DIM),
    "Norm.sup_functional": (lambda n: Norm.sup_functional(n, [0]), MAX_DIM),
    "CubeFunction": (lambda n: CubeFunction(n, spectrum=[1.0, 0.0]), MAX_DIM),
    "character_values": (lambda n: character_values(n, [0]), MAX_DIM),
    "proxy_level_coeffs": (lambda n: proxy_level_coeffs(ProxyKernel(1), n), MAX_DIM),
    "proxy_eval_by_weight": (lambda n: proxy_eval_by_weight(ProxyKernel(1), n, 0), MAX_DIM),
    "proxy_l1": (lambda n: proxy_l1(ProxyKernel(1), n), MAX_DIM),
}


class TestProductWitness:
    def test_n1_is_first_coordinate(self):
        w = build_product_witness(1)
        assert np.array_equal(w.values, [1.0, -1.0])

    def test_n4_coefficients(self):
        w = build_product_witness(4)
        levels = popcount(np.arange(16, dtype=np.uint32))
        assert np.all(w.spectrum[levels == 1] == 0.5)
        assert np.all(w.spectrum[levels == 3] == -0.125)
        assert np.all(w.spectrum[levels % 2 == 0] == 0.0)

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_values_match_complex_product_oracle(self, n):
        w = build_product_witness(n)
        assert np.abs(w.values - product_witness_values_oracle(n)).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 17))
    def test_coefficient_magnitude_bound(self, n):
        """|coefficient at S| never exceeds n^(-|S|/2)."""
        w = build_product_witness(n)
        levels = popcount(np.arange(1 << n, dtype=np.uint32)).astype(np.float64)
        bound = (1.0 / math.sqrt(n)) ** levels
        assert np.all(np.abs(w.spectrum) <= bound)

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_sup_norm_at_most_three(self, n):
        assert build_product_witness(n).sup_norm() <= 3.0

    @pytest.mark.parametrize("bad", [0, -2, 21])
    def test_dimension_range(self, bad):
        with pytest.raises(ValueError):
            build_product_witness(bad)


class TestTruncatedWitness:
    def test_nothing_truncated_at_n4(self):
        # floor(3 sqrt(4)) = 6 >= 4
        h = build_product_witness(4)
        f = build_truncated_witness(4)
        assert np.array_equal(f.spectrum, h.spectrum)

    def test_levels_cut_at_n16(self):
        f = build_truncated_witness(16)
        levels = popcount(np.arange(1 << 16, dtype=np.uint32))
        assert truncation_level(16) == 12
        assert np.all(f.spectrum[levels > 12] == 0.0)
        assert np.any(f.spectrum[levels == 11] != 0.0)

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_singleton_coefficients(self, n):
        """Every singleton coefficient is 1/sqrt(n), at construction and after a round trip."""
        f = build_truncated_witness(n)
        singletons = [1 << j for j in range(n)]
        want = 1.0 / math.sqrt(n)
        assert np.abs(f.spectrum[singletons] - want).max() < 1e-12
        roundtrip = fwht(f.values)
        assert np.abs(roundtrip[singletons] - want).max() < 1e-12

    def test_truncation_error_below_tail(self):
        h = build_product_witness(16)
        f = build_truncated_witness(16)
        assert (h - f).sup_norm() <= truncation_tail_bound(16)

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_sup_norm_within_tail_of_three(self, n):
        f = build_truncated_witness(n)
        assert f.sup_norm() <= 3.0 + truncation_tail_bound(n)

    @pytest.mark.parametrize(("n", "want"), [(4, 8), (9, 256), (16, 32192)])
    def test_sparsity_structural_and_counted_agree(self, n, want):
        f = build_truncated_witness(n)
        assert structural_sparsity(n, "truncated") == want
        assert spectrum_sparsity(f) == want

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    def test_structural_sparsity_needs_a_positive_integer_dimension(self, variant, n):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            structural_sparsity(n, variant)

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    @pytest.mark.parametrize("count", [truncation_level, truncation_tail_bound, truncation_tail_chain]
                             + [pytest.param(entry, id=name) for name, (entry, _) in DIMENSION_CAPS.items()])
    def test_truncation_counts_need_a_positive_integer_dimension(self, count, n):
        """The counts take any positive integer n, every other entry point the same rule below its cap."""
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            count(n)

    @pytest.mark.parametrize(("entry", "cap"), DIMENSION_CAPS.values(), ids=DIMENSION_CAPS.keys())
    def test_capped_dimensions_stop_one_past_the_cap(self, entry, cap):
        with pytest.raises(ResourceLimitError, match=f"dimension {cap + 1} exceeds the cap {cap}"):
            entry(cap + 1)

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_sparsity_bounded_by_family_size(self, n):
        cut = truncation_level(n)
        family_bound = sum(math.comb(n, k) for k in range(0, min(cut, n) + 1))
        assert spectrum_sparsity(build_truncated_witness(n)) <= family_bound


class TestTruncationTail:
    def test_empty_sum_at_n4(self):
        assert truncation_tail_bound(4) == 0.0

    def test_exact_value_at_n16(self):
        want = math.fsum(math.comb(16, k) * 16.0 ** (-k / 2) for k in range(13, 17))
        assert truncation_tail_bound(16) == want

    @pytest.mark.parametrize("n", [13, 16, 20])
    def test_chain_dominates_exact(self, n):
        """The per-term binomial bound makes the chain value an upper estimate."""
        assert truncation_tail_bound(n) <= truncation_tail_chain(n)

    def test_levels(self):
        assert truncation_level(4) == 6
        assert truncation_level(9) == 9
        assert truncation_level(16) == 12
        assert truncation_level(1) == 3


class TestChebyshevWitness:
    def test_n1_is_first_coordinate(self):
        w = build_chebyshev_witness(1)
        assert np.array_equal(w.values, [1.0, -1.0])

    @pytest.mark.parametrize(("n", "k"), [(4, 1), (8, 1), (9, 3), (15, 3), (16, 3)])
    def test_degree_is_the_largest_odd_at_most_sqrt_n(self, n, k):
        """T_k of the coordinate average s/n; where floor(sqrt(n)) is even (n = 4, 8, 16) k is one less."""
        w = build_chebyshev_witness(n)
        s = n - 2 * popcount(np.arange(1 << n)).astype(np.int64)
        want = np.polynomial.chebyshev.chebval(s / n, [0] * k + [1])
        assert np.abs(w.values - want).max() <= 1e-14

    def test_even_degree_fails_the_singleton_mass_floor(self, monkeypatch):
        """Degree floor(sqrt(4)) = 2 makes T_2 even: no singleton mass, so the claim fires, and levels 0 and 2
        (1 + 6 subsets) are not the odd levels the structural count assumes."""
        monkeypatch.setattr(lower_bound, "_chebyshev_degree", math.isqrt)
        _, checks = lower_bound.witness_properties(build_chebyshev_witness(4), "chebyshev")
        failed = {c.claim: c for c in checks if not c.holds}
        assert list(failed) == ["singleton-mass-floor", "sparsity-exact"]
        assert failed["singleton-mass-floor"].rhs == 0.0 and failed["sparsity-exact"].lhs == 3

    @pytest.mark.parametrize("n", [1, 4, 9, 16])
    def test_bounded_by_one(self, n):
        assert build_chebyshev_witness(n).sup_norm() <= 1.0 + 1e-12

    def test_n9_singleton_coefficients(self):
        """All nine singleton coefficients equal -143/729 (enumeration oracle)."""
        w = build_chebyshev_witness(9)
        singles = w.spectrum[[1 << j for j in range(9)]]
        assert np.abs(singles - singles[0]).max() < 1e-13
        assert singles[0] == pytest.approx(-143.0 / 729.0, abs=1e-13)

    def test_n9_sparsity_structure(self):
        # degree-3 odd polynomial: levels 1 and 3 only
        w = build_chebyshev_witness(9)
        assert structural_sparsity(9, "chebyshev") == 9 + math.comb(9, 3)
        assert spectrum_sparsity(w) == 93


class TestInstance:
    def test_n4_constant_field_norm(self):
        instance = lower_bound_instance(4, "truncated")
        per_point = instance.norm.evaluate_rows(instance.vector.values_matrix())
        assert np.abs(per_point - instance.witness.sup_norm()).max() < 1e-10
        assert instance.field_norm_value == pytest.approx(build_product_witness(4).sup_norm())

    def test_n4_linear_norm_value(self):
        # sup_z |sum_j (x_j / 2) z_j| = 4 / 2 = 2 for every x
        instance = lower_bound_instance(4, "truncated")
        assert instance.linear_norm_value == pytest.approx(2.0, abs=1e-12)

    def test_n9_ratio_at_least_one(self):
        instance = lower_bound_instance(9, "truncated")
        assert instance.linear_norm_value == pytest.approx(3.0, abs=1e-12)
        assert instance.ratio >= 1.0

    @pytest.mark.parametrize("n", [4, 9, 12])
    def test_ratio_floor(self, n):
        """The projection ratio is at least sqrt(n) / (3 + truncation tail)."""
        instance = lower_bound_instance(n, "truncated")
        assert instance.ratio >= math.sqrt(n) / (3.0 + truncation_tail_bound(n))

    def test_vector_columns_are_scaled_characters(self):
        """Coordinate S of the instance is Fhat(S) chi_S(x), computed by direct character sums."""
        instance = lower_bound_instance(6, "truncated")
        values = instance.vector.values_matrix()
        for idx, mask in enumerate(instance.family):
            want = instance.witness.spectrum[mask] * character_values(6, mask)
            assert np.array_equal(values[:, idx], want)

    def test_family_sorted_ascending(self):
        instance = lower_bound_instance(6, "truncated")
        assert list(instance.family) == sorted(instance.family)

    @pytest.mark.parametrize("variant", ["truncated", "chebyshev"])
    def test_family_is_the_counted_support(self, variant):
        """The instance's family and the sparsity count read one support rule."""
        instance = lower_bound_instance(9, variant)
        assert list(instance.family) == cube_fourier.spectrum_support(instance.witness).tolist()
        assert len(instance.family) == spectrum_sparsity(instance.witness)

    def test_chebyshev_instance(self):
        instance = lower_bound_instance(9, "chebyshev")
        assert instance.field_norm_value == pytest.approx(instance.witness.sup_norm(), abs=1e-12)
        assert instance.linear_norm_value == pytest.approx(9 * 143.0 / 729.0, abs=1e-10)

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            lower_bound_instance(13, "truncated")

    def test_failed_invariant_is_a_bound_violation(self, monkeypatch):
        """Each invariant is a report at its own tolerance; a failed one is returned, not raised."""
        assert all(c.holds for c in lower_bound_instance(4, "truncated").checks)
        monkeypatch.setitem(TOLERANCES, "instance-field-norm", -1.0)
        report, *others = lower_bound_instance(4, "truncated").checks
        assert (report.claim, report.holds) == ("instance-field-norm", False)
        assert report.lhs < 1e-10 and report.rhs == 0.0  # |f(0) norm - sup norm| <= 0
        assert report.params == {"point": 0}
        assert all(c.holds for c in others)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            lower_bound_instance(4, "fancy")

    def test_vector_adopts_the_scatter_table(self, monkeypatch):
        """The (2^n, |family|) spectrum the instance scatters is handed over read-only and kept, not copied."""
        handed = []
        build = lower_bound.VectorFunction.from_spectrum

        def capture(n, spectra):
            handed.append(spectra)
            return build(n, spectra)

        monkeypatch.setattr(lower_bound.VectorFunction, "from_spectrum", capture)
        instance = lower_bound_instance(9, "truncated")
        assert len(handed) == 1
        assert instance.vector.spectrum is handed[0]
        assert not handed[0].flags.writeable

    @pytest.mark.parametrize(("variant", "failed"), [
        ("truncated", ["truncation-tail", "singleton-coefficient"]),
        ("chebyshev", ["chebyshev-witness-sup"]),
    ])
    def test_doubled_witness_fails_its_claims(self, variant, failed):
        """Twice a witness keeps its support and symmetry but breaks its bound and its coefficients."""
        witness = lower_bound.build_witness(9, variant)
        _, checks = lower_bound.witness_properties(witness, variant)
        assert all(c.holds for c in checks)
        doubled = CubeFunction.from_spectrum(9, 2.0 * witness.spectrum)
        _, checks = lower_bound.witness_properties(doubled, variant)
        assert [c.claim for c in checks if not c.holds] == failed

    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    @pytest.mark.parametrize("n", range(1, MAX_RECORD_DIM + 1))
    def test_singleton_mass_is_at_least_the_sup_norm(self, n, variant):
        """Every record's blow-up ratio is at least 1, with equality where the witness is linear."""
        _, checks = lower_bound.witness_properties(lower_bound.build_witness(n, variant), variant)
        floor = next(c for c in checks if c.claim == "singleton-mass-floor")
        assert floor.holds


class TestStructuralVerification:
    """The instance's norms come from x = 0 and its translation structure; these pin that."""

    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    @pytest.mark.parametrize("n", [2, 4, 6, 9, 10])
    def test_norms_match_per_point_scans(self, n, variant):
        """Both norms, scanned at every point, equal the constants the instance reports."""
        instance = lower_bound_instance(n, variant)
        field = instance.norm.evaluate_rows(instance.vector.values_matrix())
        linear = instance.norm.evaluate_rows(rademacher_projection(instance.vector).values_matrix())
        assert np.abs(field - instance.field_norm_value).max() <= 1e-12
        assert np.abs(linear - instance.linear_norm_value).max() <= 1e-12

    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    def test_two_norm_rows_per_instance(self, monkeypatch, variant):
        """One row for ||f(0)||, one for ||lin f(0)||: no per-point scan."""
        rows = []
        evaluate_rows = Norm.evaluate_rows

        def counted(norm, table):
            rows.append(len(table))
            return evaluate_rows(norm, table)

        monkeypatch.setattr(Norm, "evaluate_rows", counted)
        lower_bound_instance(9, variant)
        assert rows == [1, 1]

    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    def test_embedding_check_peak_is_a_few_cache_sized_blocks(self, variant):
        """At n = 12 the checked table is 66.7 MB (truncated) or 7.6 MB (chebyshev); the check's
        own allocations stay within four 512 KB row blocks, however large the table."""
        instance = lower_bound_instance(12, variant)
        values = instance.vector.values_matrix()
        family = np.asarray(instance.family)
        coeffs = instance.witness.spectrum[family]
        tracemalloc.start()
        try:
            lower_bound._embedding_check(values, family, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (512 << 10)

    def test_flipped_entry_is_an_embedding_violation(self, monkeypatch):
        """A sign flipped at one point x != 0 leaves f(0) intact and is named by its x.

        Blocks of 4 rows make the flipped row the third of four blocks.
        """
        point, column = 11, 3
        monkeypatch.setattr(lower_bound, "_SUP_CHUNK_DOUBLES", 32)
        build = lower_bound.VectorFunction.from_spectrum

        def tampered(n, spectra):
            values = build(n, spectra).values_matrix().copy()
            values[point, column] *= -1.0
            return lower_bound.VectorFunction.from_values(n, values)

        monkeypatch.setattr(lower_bound.VectorFunction, "from_spectrum", tampered)
        failed = [c for c in lower_bound_instance(4, "truncated").checks if not c.holds]
        # f(0) is intact; the flip also moves the spectrum, so the singleton claims fail with it
        assert [c.claim for c in failed] == ["instance-embedding", "instance-linear-spectrum",
                                             "instance-linear-norm"]
        report = failed[0]
        witness = build_truncated_witness(4)
        family = lower_bound.spectrum_support(witness)
        assert report.params["point"] == point
        assert report.params["subset"] == family[column]
        assert report.lhs == 2.0 * abs(witness.spectrum[family[column]]) != 0.0  # |-v - v|

    def test_moved_singleton_coefficient_is_a_linear_norm_violation(self, monkeypatch):
        """Fhat({0}) moved to the column of {1} keeps the norm of the sum, but not the structure."""
        spectrum = CubeFunction.spectrum.fget

        def moved(vector):
            spec = spectrum(vector).copy()
            spec[0b01, [0, 1]] = spec[0b01, [1, 0]]
            return spec

        monkeypatch.setattr(VectorFunction, "spectrum", property(moved))
        failed = [c for c in lower_bound_instance(4, "truncated").checks if not c.holds]
        assert [c.claim for c in failed] == ["instance-linear-spectrum"]
        report = failed[0]
        assert (report.params["subset"], report.params["coordinate"]) == (0b01, 0b01)
        assert (report.lhs, report.rhs) == (0.5, 0.0)  # |0.0 - 0.5| where Fhat({0}) belongs


class TestSparsityRecord:
    def test_single_character(self):
        f = CubeFunction.from_values(3, character_values(3, 0b001))
        report = sparsity_inequality_check(f)
        assert report.params["sparsity"] == 1
        assert report.params["level1_sum"] == 1.0
        assert report.lhs == 0.0
        assert report.params["ratio"] == 0.0

    def test_two_coordinate_average(self):
        spec = np.zeros(4)
        spec[0b01] = 0.5
        spec[0b10] = 0.5
        report = sparsity_inequality_check(CubeFunction.from_spectrum(2, spec))
        assert report.params["sparsity"] == 2
        assert report.params["level1_sum"] == 1.0
        assert report.params["ratio"] == 1.0

    def test_witness_at_n9(self):
        """Rescaled witness: ratio is log2(256) over 3 / ||F||_inf."""
        f = build_truncated_witness(9)
        report = sparsity_inequality_check(f, rescale=True)
        assert report.params["level1_sum_raw"] == 3.0
        assert report.lhs == 8.0
        want_ratio = 8.0 / (3.0 / f.sup_norm())
        assert report.params["ratio"] == pytest.approx(want_ratio, rel=1e-12)

    def test_rejects_unbounded_without_rescale(self):
        f = constant_function(3, 2.0)
        with pytest.raises(ValueError):
            sparsity_inequality_check(f)
        report = sparsity_inequality_check(f, rescale=True)
        assert report.params["scale"] == 2.0

    def test_values_only_input_transforms_once(self, monkeypatch):
        """A function held as values is rescaled on its spectrum: one transform in all."""
        calls = []
        butterfly = cube_fourier._walsh_butterfly

        def counted(a, **scaling):
            calls.append(a.shape)
            return butterfly(a, **scaling)

        f = CubeFunction.from_values(9, 2.0 * build_truncated_witness(9).values)
        monkeypatch.setattr(cube_fourier, "_walsh_butterfly", counted)
        report = sparsity_inequality_check(f, rescale=True)
        assert len(calls) == 1
        assert report.params["sparsity"] == 256
        assert report.params["level1_sum_raw"] == pytest.approx(6.0, rel=1e-12)

    def test_rejects_zero_function(self):
        with pytest.raises(ValueError):
            sparsity_inequality_check(constant_function(3, 0.0))
        # a (2^n, m) table is m functions, not one whose sparsity can be recorded
        with pytest.raises(ValueError, match="shape"):
            sparsity_inequality_check(CubeFunction.from_values(2, np.ones((4, 2))))
