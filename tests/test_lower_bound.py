"""Witness constructions, truncation tails, instances, and the sparsity record."""

import decimal
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
from pisier_lab import cli, cube_fourier, lower_bound
from pisier_lab.cube_fourier import MAX_DIM, popcount, spectrum_support
from pisier_lab.lower_bound import MAX_INSTANCE_DIM, MAX_RECORD_DIM, WITNESS_VARIANTS, _characters
from pisier_lab.report import TOLERANCES
from pisier_lab.vector_field import _gate_points

from oracles import (character_sums, character_table, characters_by_columns, constant_function,
                     embedding_check_by_rows)


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
    "audit-lp": (lambda n: zero_audit(n, Norm.lp(2)), MAX_DIM),
    "CubeFunction": (lambda n: CubeFunction(n, spectrum=[1.0, 0.0]), MAX_DIM),
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

    @pytest.mark.parametrize("n", [1030, 2000])
    def test_large_n_matches_a_decimal_reference(self, n):
        """Past n = 1029 binom(n, k) leaves double range and n^(-k/2) underflows, yet each term is rounded once
        from an exact rational: the sum stays within a few ulps of a 60-digit sum."""
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            root = decimal.Decimal(n).sqrt()
            want = sum(decimal.Decimal(math.comb(n, k)) / root**k for k in range(truncation_level(n) + 1, n + 1))
        assert truncation_tail_bound(n) == pytest.approx(float(want), rel=1e-15, abs=0.0)

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

    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    def test_vector_is_the_translates_of_the_witness_on_its_family(self, variant):
        """instance.vector is T f: V[x, z] = F'(x xor z), F' = sum_S Fhat(S) chi_S over the family, by direct
        character sums; each row is exactly a permutation of row 0, so every row has the norm of f(0)."""
        instance = lower_bound_instance(6, variant)
        family = np.asarray(instance.family)
        values = instance.vector.values_matrix()
        restricted = character_sums(6, family, instance.witness.spectrum[family][None])[0]
        points = np.arange(64)
        assert values.shape == (64, 64)
        np.testing.assert_allclose(values, restricted[points[:, None] ^ points], rtol=0.0, atol=1e-14)
        assert all(np.array_equal(values[x, points ^ x], values[0]) for x in points)
        assert float(np.abs(values[0]).max()) == instance.field_norm_value

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

    def test_each_column_block_adopts_its_scatter_table(self, monkeypatch):
        """Each column block's (2^n, cols) spectrum is handed over read-only and kept, not copied; the blocks
        side by side are the scatter of the whole family, and the table instance.vector builds is read-only too."""
        handed = []
        build = lower_bound.VectorFunction.from_spectrum

        def capture(n, spectra):
            vector = build(n, spectra)
            handed.append((spectra, vector))
            return vector

        monkeypatch.setattr(lower_bound, "_COLUMN_BLOCK_DOUBLES", 64 << 9)  # 64 of the 256 columns at n = 9
        monkeypatch.setattr(lower_bound.VectorFunction, "from_spectrum", capture)
        instance = lower_bound_instance(9, "truncated")
        assert [spectra.shape for spectra, _ in handed] == [(512, 64)] * 4
        for spectra, vector in handed:
            assert vector.spectrum is spectra
            assert not spectra.flags.writeable
        family = np.asarray(instance.family)
        whole = lower_bound._scattered(9, family, instance.witness.spectrum[family]).spectrum
        assert np.array_equal(whole, np.hstack([spectra for spectra, _ in handed[:4]]))
        assert not instance.vector.values_matrix().flags.writeable

    @pytest.mark.parametrize(("tampered", "reported"), [
        ({1: "flip", 3: "flip"}, 1),
        ({1: "nan", 3: "flip"}, 1),
        ({1: "flip", 3: "nan"}, 3),
        ({2: {5: "flip", 300: "nan"}}, (2, 300)),
        ({2: {5: "flip", 300: "flip"}}, (2, 5)),
    ])
    def test_blocks_report_the_first_worst_entry(self, monkeypatch, tampered, reported):
        """Four column blocks of 64 rows' row blocks, entries tampered at point 5 of blocks 1 and 3, or at
        points 5 and 300 of block 2: of two equal sign flips the earlier is reported, in column-block order
        and in row-block order alike, and a NaN is reported wherever it is; an untampered instance still
        reports point 0 and the family's first subset."""
        entries = {(k, point): kind for k, kinds in tampered.items()
                   for point, kind in (kinds.items() if isinstance(kinds, dict) else [(5, kinds)])}
        reported = reported if isinstance(reported, tuple) else (reported, 5)
        clean = lower_bound_instance(9, "truncated")
        witness, family = clean.witness, np.asarray(clean.family)
        assert clean.checks[1].params == {"point": 0, "subset": int(family[0])}
        # a level-3 column in each block, so every flip deviates by the same 2 |Fhat(S)|
        columns = {k: 64 * k + int(np.flatnonzero(popcount(family[64 * k : 64 * k + 64]) == 3)[0])
                   for k in tampered}
        calls = []
        build = lower_bound.VectorFunction.from_spectrum

        def tamper(n, spectra):
            k = len(calls)
            calls.append(k)
            if k not in tampered:
                return build(n, spectra)
            values = build(n, spectra).values_matrix().copy()
            for (block, point), kind in entries.items():
                if block == k:
                    entry = (point, columns[k] - 64 * k)
                    values[entry] = np.nan if kind == "nan" else -values[entry]
            return lower_bound.VectorFunction.from_values(n, values)

        monkeypatch.setattr(lower_bound, "_COLUMN_BLOCK_DOUBLES", 64 << 9)  # 64 of the 256 columns at n = 9
        monkeypatch.setattr(cube_fourier, "_BLOCK_DOUBLES", 64 * 64)  # row blocks of 64 of the 512 rows
        monkeypatch.setattr(lower_bound.VectorFunction, "from_spectrum", tamper)
        report = lower_bound_instance(9, "truncated").checks[1]
        assert calls == [0, 1, 2, 3]
        assert report.claim == "instance-embedding" and not report.holds
        k, point = reported
        assert report.params == {"point": point, "subset": int(family[columns[k]])}
        if entries[reported] == "flip":
            assert report.lhs == 2.0 * abs(witness.spectrum[family[columns[k]]])
        else:
            assert math.isnan(report.lhs)

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

    def test_instance_peak_is_a_few_column_blocks(self):
        """At n = 12 the truncated instance's (4096, 2036) table would take 66.7 MB for its spectrum and as
        much for its values; checked in 8 MB column blocks, each dropped before the next is built, the whole
        build stays under 24 MB (19.2 MB here; a block kept alive while the next is built makes it 27 MB)."""
        tracemalloc.start()
        try:
            lower_bound_instance(12, "truncated")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20

    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    def test_payload_is_byte_identical_at_every_worker_count(self, monkeypatch, variant):
        """Each column block is one multi-block butterfly table, so the phase pool runs it; at n = 12 the
        lower-bound JSON is the same bytes at 1, 2 and 3 workers."""
        texts = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
            texts.add(cli._json_text(cli.lower_bound_payload(12, variant)))
        assert len(texts) == 1

    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    def test_embedding_check_peak_is_a_few_cache_sized_blocks(self, variant):
        """At n = 12 the checked table is 66.7 MB (truncated) or 7.6 MB (chebyshev); the check's
        own allocations stay within four 512 KB row blocks, however large the table."""
        instance = lower_bound_instance(12, variant)
        family = np.asarray(instance.family)
        coeffs = instance.witness.spectrum[family]
        values = lower_bound._scattered(12, family, coeffs).values_matrix()
        tracemalloc.start()
        try:
            lower_bound._embedding_check(values, family, coeffs, (-1.0, 0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (512 << 10)

    def test_flipped_entry_is_an_embedding_violation(self, monkeypatch):
        """A sign flipped at one point x != 0 leaves f(0) intact and is named by its x.

        Blocks of 4 rows make the flipped row the third of four blocks.
        """
        point, column = 11, 3
        monkeypatch.setattr(cube_fourier, "_BLOCK_DOUBLES", 32)
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


def embedding_mutants(values, coeffs):
    """(name, table, starting worst, the worst entry's (x, column) or None) for the clean table and its mutants."""
    size, width = values.shape
    x, j = size - 1 - size // 4, width // 2  # past the first row block whenever there are several
    scaled, nan = values.copy(), values.copy()
    scaled[x, j] *= 1.0 + 1e-10
    nan[x, j] = np.nan
    # several entries at the largest deviation, 2 |Fhat(S)| for the largest |Fhat(S)|: the first in row-major order wins
    top = np.flatnonzero(np.abs(coeffs) == np.abs(coeffs).max())[:2]
    ties, late, early = values.copy(), size - 1, size // 4
    for row, col in dict.fromkeys([(late, top[0]), (early, top[-1]), (early, top[0])]):
        ties[row, col] = -ties[row, col]
    return [("clean", values, (-1.0, 0, 0), (0, 0)), ("scaled", scaled, (-1.0, 0, 0), (x, j)),
            ("nan", nan, (-1.0, 0, 0), (x, j)), ("ties", ties, (-1.0, 0, 0), (early, top[0])),
            ("nan-start", values, (math.nan, 3, 5), None)]


class TestEmbeddingCheckRoutes:
    """_embedding_check splits chi_S(x) at the high bits of aligned power-of-two row blocks; its worst tuple is the
    one of the route that builds every block's signs whole, to the bit, on the clean table and on each mutant."""

    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    @pytest.mark.parametrize("n", [1, 3, 5, 9, 12])
    def test_split_signs_give_the_worst_tuple_of_whole_signs(self, monkeypatch, n, variant):
        witness = lower_bound.build_witness(n, variant)
        family = lower_bound.spectrum_support(witness)
        coeffs = witness.spectrum[family]
        values = lower_bound._scattered(n, family, coeffs).values_matrix()
        for block in (1 << 5, 1 << 16):
            monkeypatch.setattr(cube_fourier, "_BLOCK_DOUBLES", block)
            for name, table, start, where in embedding_mutants(values, coeffs):
                got = lower_bound._embedding_check(table, family, coeffs, start)
                assert repr(got) == repr(embedding_check_by_rows(table, family, coeffs, start)), (name, block)
                if where is None:
                    assert got is start, name
                else:
                    assert got[1:] == (where[0], family[where[1]]), (name, block)
                    assert (got[0] > 0.0) == (name not in ("clean", "nan")), (name, got)


def family_norm(n, family, v):
    """The instance's norm of one family vector: the linf norm of its image under the character map."""
    rows = np.asarray(v, dtype=np.float64)[None]
    return float(Norm.lp(math.inf).evaluate_rows(_characters(n, np.asarray(family), rows))[0])


class TestCharacterMap:
    """The instance's family norm is linf after T v = sum_S v_S chi_S, an isometry into linf on the 2^n points."""

    @staticmethod
    def masks(n, family, rng):
        """The truncated witness's family, or n + 5 random masks (all 2^n when fewer), in ascending order."""
        if family == "witness":
            return spectrum_support(build_truncated_witness(n))
        return np.sort(rng.choice(1 << n, size=min(1 << n, n + 5), replace=False))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("family", ["witness", "random"])
    def test_characters_equal_the_character_sums(self, n, family):
        """_characters against whole character tables, on the truncated witness's family and on a random one."""
        rng = np.random.default_rng(n)
        masks = self.masks(n, family, rng)
        rows = rng.standard_normal((3, masks.size))
        got = _characters(n, masks, rows)
        assert got.shape == (3, 1 << n)
        np.testing.assert_allclose(got, character_sums(n, masks, rows), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 5, 9, 12])
    @pytest.mark.parametrize("family", ["witness", "random"])
    def test_bit_identical_to_the_column_route(self, n, family, k):
        """The row transform of the rows in a zero (k, 2^n) table has the bits of the column route, the rows
        embedded as columns of a (2^n, k) table, transformed along axis 0 and transposed."""
        rng = np.random.default_rng(n + k)
        masks = self.masks(n, family, rng)
        rows = rng.standard_normal((k, masks.size))
        got = _characters(n, masks, rows)
        assert got.shape == (k, 1 << n)
        assert got.tobytes() == characters_by_columns(n, masks, rows).tobytes()

    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    def test_family_norm_attains_its_sandwich(self, variant):
        """||v||_2 <= ||T v||_inf <= ||v||_1 <= sqrt(m) ||v||_2 by Parseval, so the family norm's sandwich on R^m is
        s = 1, d = sqrt(m), and it is sharp: ||T e_j||_inf = 1 and (T ones)(0) = m.  On the witness families at
        n <= 9, the gate's points +-e_j and +-ones/sqrt(m) attain both sides within the gate's tolerance."""
        tol = TOLERANCES["sandwich-attained"]
        for n in range(1, 10):
            family = spectrum_support(lower_bound.build_witness(n, variant))
            values = np.concatenate([Norm.lp(math.inf).evaluate_rows(_characters(n, family, points))
                                     for points in _gate_points(family.size)])
            assert abs(values.min() - 1.0) <= tol, (n, values.min())
            assert abs(values.max() - math.sqrt(family.size)) <= tol, (n, values.max())

    def test_empty_set_and_singletons(self):
        assert family_norm(3, [0], [1.0]) == 1.0
        assert family_norm(3, [0b01, 0b10], [1.0, 1.0]) == 2.0

    def test_witness_coefficients_give_the_sup_norm(self):
        witness = build_truncated_witness(4)
        family = spectrum_support(witness)
        assert family_norm(4, family, witness.spectrum[family]) == pytest.approx(witness.sup_norm(), abs=1e-14)

    def test_instance_rows_have_the_sup_norm(self):
        """Every row f(x)_S = Fhat(S) chi_S(x) of the n = 4 instance, mapped, has norm ||F||_inf."""
        witness = build_truncated_witness(4)
        family = spectrum_support(witness)
        rows = witness.spectrum[family] * character_table(4, family)
        per_point = Norm.lp(math.inf).evaluate_rows(_characters(4, family, rows))
        assert np.abs(per_point - witness.sup_norm()).max() < 1e-12

    def test_homogeneity_exact_for_dyadic_scalars(self):
        # dyadic scaling is error-free in floating point
        v = np.random.default_rng(12).standard_normal(32)
        base = family_norm(5, np.arange(32), v)
        for alpha in (0.5, 2.0, -4.0, 0.25, -1.0):
            assert family_norm(5, np.arange(32), alpha * v) == abs(alpha) * base

    @pytest.mark.parametrize("seed", range(6))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(400 + seed)
        family = np.arange(0, 64, 3)
        u, v = rng.standard_normal(family.size), rng.standard_normal(family.size)
        assert family_norm(6, family, u + v) <= family_norm(6, family, u) + family_norm(6, family, v) + 1e-12


class TestExactInstanceClaims:
    """instance-embedding and instance-linear-spectrum are exact: each column of f holds one nonzero coefficient,
    so its butterfly adds only exact zeros to it, and both claims have tolerance 0."""

    @pytest.mark.parametrize(("variant", "lhs"), [("truncated", 3.16e-11), ("chebyshev", 1.88e-11)])
    def test_one_coefficient_off_by_1e_10_fires_both(self, monkeypatch, variant, lhs):
        """The first family coefficient scaled by 1 + 1e-10 inside _scattered, at n = 10: both exact claims fail,
        by 1e-10 |Fhat(S)|, which the tolerance of the two norm claims, 1e-10, would not see."""
        clean = cli.lower_bound_payload(10, variant)
        exact = [c for c in clean["checks"] if c["claim"] in ("instance-embedding", "instance-linear-spectrum")]
        assert clean["violations"] == [] and [(c["lhs"], c["tol"]) for c in exact] == [(0.0, 0.0)] * 2
        scattered, first = lower_bound._scattered, int(spectrum_support(lower_bound.build_witness(10, variant))[0])

        def mutant(n, masks, coeffs):
            coeffs = coeffs.copy()
            if masks[0] == first:
                coeffs[0] *= 1.0 + 1e-10
            return scattered(n, masks, coeffs)

        monkeypatch.setattr(lower_bound, "_scattered", mutant)
        failed = [c for c in cli.lower_bound_payload(10, variant)["checks"] if not c["holds"]]
        assert [c["claim"] for c in failed] == ["instance-embedding", "instance-linear-spectrum"]
        assert [c["lhs"] for c in failed] == pytest.approx([lhs, lhs], rel=1e-2)


class TestSparsityRecord:
    def test_single_character(self):
        f = CubeFunction.from_values(3, character_table(3, 0b001))
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
