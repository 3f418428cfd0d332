"""Transform, character, convolution, and level-operator checks for the scalar core."""

import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from pisier_lab import (
    CubeFunction,
    ResourceLimitError,
    character_values,
    convolve,
    from_bytes,
    fwht,
    inverse_fwht,
    level_multiply,
    read_binary,
    spectrum_sparsity,
    to_bytes,
    to_spectrum_json,
    write_binary,
)
from pisier_lab import cube_fourier
from pisier_lab.cube_fourier import inverse_fwht_rows, popcount, spectrum_support
from pisier_lab.lower_bound import build_truncated_witness

from oracles import character_eval, constant_function, linear_function, walsh_butterfly_unblocked


def naive_spectrum(values):
    # O(4^n) character inner products, the independent oracle for the butterfly
    size = len(values)
    out = np.empty(size)
    for s in range(size):
        total = 0.0
        for x in range(size):
            sign = -1.0 if bin(s & x).count("1") % 2 else 1.0
            total += values[x] * sign
        out[s] = total / size
    return out


def brute_convolve_values(f_vals, g_vals):
    # direct definition E_Z[g(Z) f(x XOR Z)], no spectra involved
    size = len(f_vals)
    idx = np.bitwise_xor.outer(np.arange(size), np.arange(size))
    return np.asarray(f_vals)[idx] @ np.asarray(g_vals) / size


class TestFwht:
    def test_constant_function(self):
        spec = fwht(np.ones(8))
        assert spec[0] == 1.0
        assert np.all(spec[1:] == 0.0)

    def test_single_character(self):
        vals = character_values(3, 0b011)
        spec = fwht(vals)
        expected = np.zeros(8)
        expected[0b011] = 1.0
        assert np.array_equal(spec, expected)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        vals = rng.standard_normal(256)
        assert np.abs(fwht(vals) - naive_spectrum(vals)).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_round_trip(self, n):
        """inverse(fwht(v)) returns v to 1e-12 relative."""
        rng = np.random.default_rng(n)
        vals = rng.standard_normal(1 << n)
        back = inverse_fwht(fwht(vals))
        assert np.abs(back - vals).max() < 1e-12 * max(1.0, np.abs(vals).max())

    @pytest.mark.parametrize("bad", [[], [1.0, 2.0, 3.0], np.zeros(12)])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            fwht(bad)
        with pytest.raises(ValueError):
            inverse_fwht(bad)

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_parseval(self, n):
        """sum of squared coefficients equals E[f^2]."""
        rng = np.random.default_rng(100 + n)
        f = CubeFunction.from_values(n, rng.standard_normal(1 << n))
        energy = float(np.mean(f.values**2))
        assert abs(float(np.sum(f.spectrum**2)) - energy) < 1e-12 * max(1.0, energy)


class TestCharacters:
    def test_empty_set_is_one(self):
        for x in (0, 0b101, 0b111):
            assert character_eval(0, x) == 1

    def test_single_factor(self):
        # x = (-1, +1, ...) is mask 0b001
        assert character_eval(0b001, 0b001) == -1

    def test_two_negative_factors(self):
        # x = (-1, -1, +1, ...) is mask 0b011
        assert character_eval(0b011, 0b011) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orthonormality_by_enumeration(self, n):
        """E[chi_S chi_T] = 1 exactly when S = T, 0 otherwise."""
        size = 1 << n
        for s in range(size):
            for t in range(size):
                total = sum(character_eval(s, x) * character_eval(t, x) for x in range(size))
                assert total == (size if s == t else 0)


class TestGroupMul:
    """The coordinate-wise product of cube points is the XOR of their masks."""

    def test_identity_element(self):
        # the all-ones point is mask 0, where every character is 1
        assert 0b10110 ^ 0 == 0b10110
        assert all(character_eval(s, 0) == 1 for s in range(32))

    def test_self_inverse(self):
        assert 0b10110 ^ 0b10110 == 0

    def test_coordinate_product(self):
        # (-1, +1) . (-1, -1) = (+1, -1); characters are multiplicative under the product
        assert 0b01 ^ 0b11 == 0b10
        for s in range(8):
            for x in range(8):
                for z in range(8):
                    assert character_eval(s, x ^ z) == character_eval(s, x) * character_eval(s, z)


class TestConvolve:
    def test_with_constant_one(self):
        rng = np.random.default_rng(1)
        f = CubeFunction.from_values(4, rng.standard_normal(16))
        out = convolve(f, constant_function(4, 1.0))
        assert np.abs(out.values - f.spectrum[0]).max() < 1e-12

    def test_identity_element(self):
        # 2^n times the indicator of the all-ones point convolves to f itself
        rng = np.random.default_rng(2)
        f = CubeFunction.from_values(5, rng.standard_normal(32))
        delta = np.zeros(32)
        delta[0] = 32.0
        out = convolve(f, CubeFunction.from_values(5, delta))
        assert np.abs(out.values - f.values).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_bruteforce_definition(self, n):
        rng = np.random.default_rng(3 + n)
        f_vals = rng.standard_normal(1 << n)
        g_vals = rng.standard_normal(1 << n)
        out = convolve(CubeFunction.from_values(n, f_vals), CubeFunction.from_values(n, g_vals))
        assert np.abs(out.values - brute_convolve_values(f_vals, g_vals)).max() < 1e-12

    def test_matches_double_loop_small(self):
        rng = np.random.default_rng(4)
        f_vals, g_vals = rng.standard_normal(8), rng.standard_normal(8)
        direct = [
            sum(g_vals[z] * f_vals[x ^ z] for z in range(8)) / 8 for x in range(8)
        ]
        out = convolve(CubeFunction.from_values(3, f_vals), CubeFunction.from_values(3, g_vals))
        assert np.abs(out.values - direct).max() < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            convolve(constant_function(3, 1.0), constant_function(4, 1.0))


def level_one(n):
    """Level multipliers of the degree-one projection: keep |S| = 1, drop the rest."""
    c = np.zeros(n + 1)
    c[1] = 1.0
    return c


class TestProjectDegreeOne:
    """The scalar Rademacher projection is level_multiply with the level-1 indicator."""

    def test_constant_projects_to_zero(self):
        out = level_multiply(constant_function(4, 7.0).spectrum, level_one(4))
        assert np.all(out == 0.0)

    def test_coefficient_selection(self):
        # x1 x2 + 3 x3 keeps only 3 x3
        spec = np.zeros(8)
        spec[0b011] = 1.0
        spec[0b100] = 3.0
        expected = np.zeros(8)
        expected[0b100] = 3.0
        assert np.array_equal(level_multiply(spec, level_one(3)), expected)

    def test_equals_convolution_with_linear_function(self):
        rng = np.random.default_rng(5)
        f = CubeFunction.from_values(8, rng.standard_normal(256))
        via_convolve = convolve(f, linear_function(8))
        out = CubeFunction.from_spectrum(8, level_multiply(f.spectrum, level_one(8)))
        assert np.abs(out.values - via_convolve.values).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_projection_oracle_random(self, n):
        rng = np.random.default_rng(50 + n)
        f = CubeFunction.from_values(n, rng.standard_normal(1 << n))
        via_convolve = convolve(f, linear_function(n))
        assert np.abs(level_multiply(f.spectrum, level_one(n)) - via_convolve.spectrum).max() < 1e-12


class TestLevelMultiply:
    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_matches_convolution_with_a_symmetric_function(self, n):
        """Convolving with g whose coefficient depends only on |S| is spec[S] * c[|S|]."""
        rng = np.random.default_rng(60 + n)
        c = rng.standard_normal(n + 1)
        g = CubeFunction.from_spectrum(n, c[popcount(np.arange(1 << n))])
        f = CubeFunction.from_values(n, rng.standard_normal(1 << n))
        assert np.array_equal(level_multiply(f.spectrum, c), convolve(f, g).spectrum)

    def test_table_scales_every_column_alike(self):
        rng = np.random.default_rng(70)
        table = rng.standard_normal((64, 5))
        c = rng.standard_normal(7)
        out = level_multiply(table, c)
        assert out.shape == (64, 5)
        for j in range(5):
            assert np.array_equal(out[:, j], level_multiply(table[:, j], c))

    def test_rejects_wrong_level_count_and_length(self):
        with pytest.raises(ValueError):
            level_multiply(np.ones(8), np.ones(3))
        with pytest.raises(ValueError):
            level_multiply(np.ones((8, 2)), np.ones(5))
        with pytest.raises(ValueError):
            level_multiply(np.ones(6), np.ones(3))


def character_matrix(n):
    """Sylvester's H_n = H_1 (x) H_(n-1): entry (S, x) is chi_S(x), built with no bit counting."""
    h = np.ones((1, 1))
    for _ in range(n):
        h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), h)
    return h


class TestBatchedTransform:
    @pytest.mark.parametrize(("n", "m"), [(3, 1), (8, 5), (10, 16)])
    def test_transposed_table_matches_per_column_transforms(self, n, m):
        """A (2^n, m) table, and its transposed row view, transform exactly as single columns do."""
        rng = np.random.default_rng(80 + n)
        table = rng.standard_normal((1 << n, m))
        spectra, values, rows = fwht(table), inverse_fwht(table), inverse_fwht_rows(table.T)
        assert spectra.flags.c_contiguous and values.flags.c_contiguous
        for j in range(m):
            assert np.array_equal(spectra[:, j], fwht(table[:, j]))
            assert np.array_equal(values[:, j], inverse_fwht(table[:, j]))
            assert np.array_equal(rows[j], inverse_fwht(table[:, j]))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_character_matrix_oracle(self, n):
        """1-D, (2^n, m) and (2^n, 2, 3) tables against the O(4^n) character sums."""
        rng = np.random.default_rng(90 + n)
        h = character_matrix(n)
        for table in (rng.standard_normal(1 << n), rng.standard_normal((1 << n, 5)),
                      rng.standard_normal((1 << n, 2, 3))):
            scale = max(1.0, float(np.abs(table).max())) * (1 << n)
            want_spec = np.tensordot(h, table, axes=1) / (1 << n)
            want_vals = np.tensordot(h, table, axes=1)
            assert fwht(table).shape == table.shape
            assert np.abs(fwht(table) - want_spec).max() < 1e-12 * scale
            assert np.abs(inverse_fwht(table) - want_vals).max() < 1e-12 * scale

    def test_rejects_a_scalar_and_a_bad_axis_0(self):
        with pytest.raises(ValueError):
            fwht(1.0)
        with pytest.raises(ValueError):
            inverse_fwht(np.zeros((6, 2)))


def assert_matches_unblocked(table):
    """The butterfly equals the unblocked reference bit for bit, in a fresh array, leaving its input alone."""
    before = table.copy()
    out = cube_fourier._walsh_butterfly(table)
    assert np.array_equal(out, walsh_butterfly_unblocked(table))
    assert np.array_equal(table, before)
    assert out.shape == table.shape and out.flags.c_contiguous and out.flags.writeable
    assert not np.shares_memory(out, table)


class TestBlockedButterfly:
    @pytest.mark.parametrize("shape", [(1 << 17,), (1 << 16, 3), (1 << 12, 40), (2, 1 << 17)])
    def test_matches_unblocked_passes_at_the_block_size(self, shape):
        """Tables above one block, including a batch wider than a block, take both phases."""
        table = np.random.default_rng(sum(shape)).standard_normal(shape)
        assert table.size > cube_fourier._BLOCK_DOUBLES
        assert_matches_unblocked(table)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("block", [1 << 3, 1 << 4, 1 << 5, 1 << 6])
    def test_matches_unblocked_passes_with_small_blocks(self, monkeypatch, block, n):
        """Tiny blocks put runs, strips and batches wider than a block through every n, on 1, 2 and 3 workers."""
        monkeypatch.setattr(cube_fourier, "_BLOCK_DOUBLES", block)
        rng = np.random.default_rng(100 * n + block)
        for shape in [(1 << n,), (1 << n, 1), (1 << n, 3), (1 << n, 5), (1 << n, 64), (1 << n, 2, 3)]:
            table = rng.standard_normal(shape)
            for workers in (1, 2, 3):
                monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
                assert_matches_unblocked(table)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_transposed_and_read_only_inputs(self, monkeypatch, workers):
        """The blocked path reads a strided view through one C-order copy, and a read-only table in place."""
        monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
        rng = np.random.default_rng(11)
        transposed = rng.standard_normal((40, 1 << 12)).T
        assert not transposed.flags.c_contiguous
        assert_matches_unblocked(transposed)
        read_only = rng.standard_normal((1 << 14, 8))
        read_only.flags.writeable = False
        assert_matches_unblocked(read_only)

    @pytest.mark.parametrize("transform", [fwht, inverse_fwht])
    def test_transforms_leave_a_writable_input_alone(self, transform):
        """Phase 1 reads the input itself, and fwht scales blocks as they leave scratch: neither touches the input."""
        table = np.random.default_rng(12).standard_normal((1 << 16, 3))
        before = table.copy()
        out = transform(table)
        assert np.array_equal(table, before)
        assert not np.shares_memory(out, table)

    def test_many_threads_switching_often_stay_bit_identical(self, monkeypatch):
        """More workers than cores, the interpreter switching threads every few microseconds."""
        monkeypatch.setattr(cube_fourier, "_BLOCK_DOUBLES", 1 << 5)
        monkeypatch.setattr(cube_fourier, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rng = np.random.default_rng(13)
            for shape in [(1 << 12,), (1 << 10, 5), (1 << 9, 64)]:
                assert_matches_unblocked(rng.standard_normal(shape))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", ["calling thread", "worker thread"])
    def test_a_failing_share_raises_after_every_thread_joins(self, monkeypatch, failing):
        """The error of one share reaches the caller, and no worker thread outlives the transform."""
        monkeypatch.setattr(cube_fourier, "_BLOCK_DOUBLES", 1 << 4)
        monkeypatch.setattr(cube_fourier, "_WORKERS", 2)
        passes, caller = cube_fourier._radix2_passes, threading.current_thread()

        def fail_in_one_share(src, dst):
            if (threading.current_thread() is caller) == (failing == "calling thread"):
                raise RuntimeError(f"block failed in the {failing}")
            time.sleep(1e-3)  # the other share is still running when the failure happens
            return passes(src, dst)

        monkeypatch.setattr(cube_fourier, "_radix2_passes", fail_in_one_share)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"block failed in the {failing}"):
            cube_fourier._walsh_butterfly(np.ones((1 << 8, 3)))
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("transform", [fwht, inverse_fwht])
    def test_a_transform_leaves_no_thread_behind(self, monkeypatch, transform, workers):
        """Each phase joins the workers it started, so none outlives a successful transform."""
        monkeypatch.setattr(cube_fourier, "_BLOCK_DOUBLES", 1 << 4)
        monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: (started.append(thread), start(thread)))
        table = np.random.default_rng(workers).standard_normal((1 << 8, 3))
        before = threading.active_count()
        transform(table)
        assert started and not any(thread.is_alive() for thread in started)
        assert threading.active_count() == before

    @pytest.mark.parametrize("shape", [(1 << 15, 8), (1 << 18,)])
    def test_peak_memory_is_one_table_plus_two_blocks(self, monkeypatch, shape):
        """The scratch is two blocks per worker, not a second table; the slack covers numpy's
        ufunc iterator buffers (three operands of np.getbufsize() doubles) and object headers,
        which every worker allocates for itself while the others run."""
        table = np.random.default_rng(7).standard_normal(shape)
        slack = 4 * np.getbufsize() * 8
        for workers in (1, 2):
            monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
            tracemalloc.start()
            try:
                fwht(table)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= table.nbytes + workers * (2 * cube_fourier._BLOCK_DOUBLES * 8 + slack), workers

    @pytest.mark.parametrize("shape", [(1 << 8, 4), (1 << 12, 16), (1 << 16,), (1 << 13, 16)])
    def test_a_table_of_one_block_starts_no_thread(self, monkeypatch, shape):
        """Up to _BLOCK_DOUBLES doubles each phase has one block, which the calling thread runs."""
        monkeypatch.setattr(cube_fourier, "_WORKERS", 3)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: (started.append(thread), start(thread)))
        table = np.random.default_rng(shape[0]).standard_normal(shape)
        want = walsh_butterfly_unblocked(table)
        assert_same_bits(inverse_fwht(table), want)
        assert_same_bits(fwht(table), want / shape[0])
        assert bool(started) == (table.size > cube_fourier._BLOCK_DOUBLES)

    @pytest.mark.parametrize("shape", [(4, 0), (1, 0), (2, 0, 3)])
    def test_an_empty_batch_transforms_to_an_empty_table(self, shape):
        for transform in (fwht, inverse_fwht):
            out = transform(np.zeros(shape))
            assert out.shape == shape and out.dtype == np.float64

    @pytest.mark.parametrize("shape", [(1 << 16,), (1 << 16, 1)])
    def test_one_column_block_allocates_no_iterator_buffers(self, shape):
        """Constant-geometry passes give numpy 1-D operands only: a block's passes allocate almost nothing."""
        src, dst = np.random.default_rng(8).standard_normal(shape), np.empty(shape)
        want = walsh_butterfly_unblocked(src)
        tracemalloc.start()
        try:
            out = cube_fourier._radix2_passes(src, dst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096
        assert np.array_equal(out, want)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestScaleInTheLastPhase:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1 << 3, 1 << 16], ids=["blocked", "default-block"])
    @pytest.mark.parametrize("factor", [1.0, 1e-310, 1e307], ids=["random", "subnormal", "near-overflow"])
    def test_fwht_and_spectrum_fill_equal_a_division_afterwards(self, monkeypatch, workers, block, factor):
        """Scaling each block as it leaves scratch gives the bits of dividing the finished butterfly
        by the length; 16 rows of values below 1e307 cannot overflow."""
        monkeypatch.setattr(cube_fourier, "_BLOCK_DOUBLES", block)
        monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
        rng = np.random.default_rng(int(block) + workers)
        for shape in [(2,), (16,), (16, 1), (16, 3), (16, 2, 3)]:
            table = rng.uniform(-1.0, 1.0, shape) * factor
            want = cube_fourier._walsh_butterfly(table) / shape[0]
            assert_same_bits(fwht(table), want)
            if len(shape) <= 2:
                assert_same_bits(CubeFunction.from_values(shape[0].bit_length() - 1, table).spectrum, want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("factor", [1.0, 1e-310], ids=["random", "subnormal"])
    @pytest.mark.parametrize("shape", [(1 << 17,), (1 << 17, 1), (1 << 14, 8)])
    def test_blocked_tables_at_the_block_size(self, monkeypatch, workers, factor, shape):
        monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
        table = np.random.default_rng(shape[0] + workers).uniform(-1.0, 1.0, shape) * factor
        want = cube_fourier._walsh_butterfly(table) / shape[0]
        assert_same_bits(fwht(table), want)
        assert_same_bits(CubeFunction.from_values(shape[0].bit_length() - 1, table).spectrum, want)


class TestSparsity:
    def test_constant(self):
        assert spectrum_sparsity(constant_function(3, 1.0)) == 1

    def test_two_characters(self):
        spec = np.zeros(8)
        spec[0b001] = 1.0
        spec[0b010] = 1.0
        assert spectrum_sparsity(CubeFunction.from_spectrum(3, spec)) == 2

    def test_signed_scans_match_the_abs_form(self):
        """The support and the JSON keep mask test s > t or s < -t: the same set as |s| > t, signed zeros,
        values of exactly +-t and subnormals included."""
        t = cube_fourier.SPARSITY_THRESHOLD
        rng = np.random.default_rng(21)
        spec = rng.choice([0.0, -0.0, t, -t, np.nextafter(t, 1), -np.nextafter(t, 1), 5e-324, -5e-324,
                           2.5e-310, -1.0, 0.5], size=1 << 8)
        f = CubeFunction.from_spectrum(8, spec)
        assert spectrum_support(f).tolist() == np.nonzero(np.abs(spec) > t)[0].tolist()
        for threshold in (0.0, t, 5e-324, 0.5):
            kept = json.loads(to_spectrum_json(f, threshold=threshold))["spectrum"]
            assert sorted(map(int, kept)) == np.nonzero(np.abs(spec) > threshold)[0].tolist(), threshold

    def test_truncated_witness_n4(self):
        """The level-exact witness at n=4 keeps exactly the 8 odd-level subsets."""
        assert spectrum_sparsity(build_truncated_witness(4)) == 8

    def test_support_keeps_coefficients_above_the_threshold(self):
        spec = np.zeros(8)
        spec[[0b011, 0b101, 0b110]] = [-1.0, 1e-8, 2e-8]  # 1e-8 is at the threshold, not above it
        support = spectrum_support(CubeFunction.from_spectrum(3, spec))
        assert support.tolist() == [0b011, 0b110]


class TestCubeFunction:
    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            CubeFunction.from_spectrum(25, np.zeros(1 << 25))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            CubeFunction.from_values(0, [1.0])

    def test_takes_exactly_one_table(self):
        vals = character_values(3, 0b101)
        spec = np.zeros(8)
        spec[0b101] = 1.0
        for tables in ({}, {"values": vals, "spectrum": spec}):
            with pytest.raises(ValueError, match="exactly one"):
                CubeFunction(3, **tables)

    def test_arrays_read_only(self):
        f = CubeFunction.from_values(3, np.arange(8.0))
        with pytest.raises(ValueError):
            f.values[0] = 5.0
        with pytest.raises(ValueError):
            f.spectrum[0] = 5.0

    @pytest.mark.parametrize("table", [
        [-0.0] * 4, [0.0, -0.0, -0.0, 0.0], [-5e-324, 0.0, 2.5e-310, -0.0], [1.0, -3.0, 3.0, -0.0],
        [-2.0, -1.0, -0.5, -0.25], [1.0, np.nan, -4.0, 0.0], [-np.inf, 1.0, 2.0, 3.0],
    ], ids=["negative-zeros", "signed-zeros", "subnormals", "tie", "all-negative", "nan", "-inf"])
    def test_sup_norm_matches_the_abs_form(self, table):
        """max(max v, -min v), with -0.0 normalized to 0.0, has the bits of max |v|; NaN propagates."""
        f = CubeFunction.from_values(2, table)
        want = float(np.abs(f.values).max())
        got = f.sup_norm()
        assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)

    def test_difference(self):
        rng = np.random.default_rng(6)
        a = CubeFunction.from_values(4, rng.standard_normal(16))
        b = CubeFunction.from_spectrum(4, rng.standard_normal(16))
        assert np.array_equal((a - b).spectrum, a.spectrum - b.spectrum)
        assert np.abs((a - b).values - (a.values - b.values)).max() < 1e-12
        with pytest.raises(ValueError):
            a - constant_function(3, 1.0)
        with pytest.raises(TypeError):
            a - 1.0

    def test_mixed_shapes_rejected(self):
        """A (4,) function and a (4, 4) table would broadcast along the wrong axis."""
        rng = np.random.default_rng(8)
        f = CubeFunction.from_values(2, rng.standard_normal(4))
        table = CubeFunction.from_values(2, rng.standard_normal((4, 4)))
        for a, b in ((f, table), (table, f)):
            with pytest.raises(ValueError, match="shape"):
                a - b
            with pytest.raises(ValueError, match="shape"):
                convolve(a, b)

    def test_table_arithmetic_is_per_column(self):
        rng = np.random.default_rng(9)
        a = CubeFunction.from_spectrum(3, rng.standard_normal((8, 3)))
        b = CubeFunction.from_values(3, rng.standard_normal((8, 3)))
        difference, product = a - b, convolve(a, b)
        for j in range(3):
            col_a = CubeFunction.from_spectrum(3, a.spectrum[:, j])
            col_b = CubeFunction.from_values(3, b.values[:, j])
            assert np.array_equal(difference.values[:, j], (col_a - col_b).values)
            assert np.array_equal(product.spectrum[:, j], convolve(col_a, col_b).spectrum)


class TestSerialization:
    def test_binary_round_trip(self):
        rng = np.random.default_rng(7)
        f = CubeFunction.from_values(6, rng.standard_normal(64))
        g = from_bytes(to_bytes(f))
        assert g.n == 6
        assert np.array_equal(g.values, f.values)

    def test_binary_header_layout(self):
        f = CubeFunction.from_values(1, [2.0, -3.0])
        blob = to_bytes(f)
        assert blob[:4] == (1).to_bytes(4, "little")
        assert len(blob) == 4 + 16

    def test_binary_holds_one_function(self, tmp_path):
        # a (2^n, m) table would write m records, which from_bytes cannot read back
        table = CubeFunction.from_values(2, np.ones((4, 2)))
        with pytest.raises(ValueError, match=r"expected one function, a \(2\^n,\) table, got shape \(4, 2\)"):
            to_bytes(table)
        with pytest.raises(ValueError, match="shape"):
            write_binary(table, tmp_path / "table.bin")
        assert not (tmp_path / "table.bin").exists()

    def test_read_binary_holds_one_aligned_read_only_table(self, tmp_path):
        """The file is read into the table the function keeps: its peak is that table, not a second copy."""
        path = tmp_path / "table.bin"
        table = np.random.default_rng(18).standard_normal(1 << 18)
        write_binary(CubeFunction.from_values(18, table), path)
        tracemalloc.start()
        try:
            f = read_binary(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + 64 * 1024
        values = f.values
        assert values.dtype == np.float64 and values.flags.c_contiguous and values.flags.aligned
        assert not values.flags.writeable
        assert np.array_equal(values, table)

    @pytest.mark.parametrize("change", [-1, 8], ids=["one-byte-short", "one-double-long"])
    def test_read_binary_checks_the_length_first(self, tmp_path, change):
        path = tmp_path / "table.bin"
        blob = to_bytes(CubeFunction.from_values(3, np.arange(8.0)))
        path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
        message = f"blob length {68 + change} does not match n=3 (expected 68)"
        for read in (read_binary, lambda p: from_bytes(p.read_bytes())):
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                read(path)

    def test_read_binary_reads_a_pipe_whole(self, tmp_path):
        """A pipe has no length to check before reading; its bytes go through from_bytes."""
        path = tmp_path / "pipe"
        os.mkfifo(path)
        blob = to_bytes(CubeFunction.from_values(4, np.arange(16.0)))
        writer = threading.Thread(target=path.write_bytes, args=(blob,), daemon=True)  # never blocks the exit
        writer.start()
        try:
            f = read_binary(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(f.values, np.arange(16.0))

    def test_binary_rejects_truncated_blob(self):
        f = CubeFunction.from_values(3, np.arange(8.0))
        with pytest.raises(ValueError):
            from_bytes(to_bytes(f)[:-1])

    def test_spectrum_json_round_trip(self):
        spec = np.zeros(16)
        spec[0b0101] = 0.25
        spec[0b0001] = -1.5
        f = CubeFunction.from_spectrum(4, spec)
        assert json.loads(to_spectrum_json(f)) == {"n": 4, "spectrum": {"1": -1.5, "5": 0.25}}

    def test_spectrum_json_threshold(self):
        spec = np.zeros(8)
        spec[1] = 1.0
        spec[2] = 1e-12
        f = CubeFunction.from_spectrum(3, spec)
        assert json.loads(to_spectrum_json(f, threshold=1e-8))["spectrum"] == {"1": 1.0}

    @pytest.mark.parametrize("threshold", [-1.0, math.nan, math.inf])
    def test_spectrum_json_threshold_must_be_finite_and_nonnegative(self, threshold):
        # NaN would keep every nonzero coefficient and inf would write an empty spectrum
        with pytest.raises(ValueError, match="threshold must be"):
            to_spectrum_json(constant_function(2, 1.0), threshold=threshold)

    def test_spectrum_json_holds_one_function(self):
        # a (2^n, m) table has no single spectrum to write
        with pytest.raises(ValueError, match="shape"):
            to_spectrum_json(CubeFunction.from_values(2, np.ones((4, 2))))

    def test_spectrum_json_keeps_exactly_the_nonzero_coefficients_at_threshold_zero(self):
        spec = np.zeros(8)
        spec[[1, 2, 3]] = [5e-324, -0.0, -2.0]  # the least subnormal is kept, a signed zero is not
        text = to_spectrum_json(CubeFunction.from_spectrum(3, spec))
        assert json.loads(text)["spectrum"] == {"1": 5e-324, "3": -2.0}

    @pytest.mark.parametrize(("bad", "named"), [
        ([np.nan, np.nan], "nan"), ([np.inf, np.inf], "inf"), ([-np.inf, -np.inf], "-inf"),
        ([np.inf, np.nan, -np.inf, np.nan, np.inf], "-inf, inf, nan"),
    ], ids=["nan", "inf", "-inf", "mixed"])
    def test_non_finite_tables_are_rejected(self, bad, named):
        """Each distinct non-finite value is named once."""
        table = np.arange(8.0)
        table[1 : 1 + len(bad)] = bad
        with pytest.raises(ValueError, match=f"value table holds non-finite values: {named}$"):
            from_bytes(to_bytes(CubeFunction.from_values(3, table)))
        with pytest.raises(ValueError, match=f"spectrum holds non-finite values: {named}$"):
            to_spectrum_json(CubeFunction.from_spectrum(3, table))
