"""Projection-audit pipeline checks: parameter choice, splitting, derived bounds."""

import dataclasses
import math

import numpy as np
import pytest

from pisier_lab import (
    BoundViolationError,
    CubeFunction,
    Norm,
    ProxyKernel,
    SandwichTransform,
    VectorFunction,
    choose_ell,
    convolve,
    decomposition_audit,
    level_multiply,
    proxy_level_coeffs,
    rademacher_projection,
)
from pisier_lab import cube_fourier, pisier_bench
from pisier_lab.cube_fourier import popcount
from pisier_lab.lower_bound import lower_bound_instance

from oracles import constant_function, linear_function, proxy_as_cube_function


def random_vector(n, m, seed):
    rng = np.random.default_rng(seed)
    return VectorFunction.from_spectrum_matrix(n, rng.standard_normal((1 << n, m)))


def single_column(f: CubeFunction) -> VectorFunction:
    return VectorFunction.from_spectrum_matrix(f.n, f.spectrum[:, None])


def projection_ratio(f: VectorFunction, norm: Norm) -> tuple[float, float, float]:
    """msn(lin f), msn(f) and their ratio (0 for the zero function), the audited blow-up."""
    lhs = norm.mean_square(rademacher_projection(f).values_matrix())
    rhs = norm.mean_square(f.values_matrix())
    return lhs, rhs, (0.0 if rhs == 0.0 else lhs / rhs)


def oracle_terms(f: VectorFunction, norm: Norm, ell: int) -> dict:
    """The four audited norms, built column by column from scalar convolutions."""
    n = f.n
    proxy = proxy_as_cube_function(ProxyKernel(ell), n)
    linear = linear_function(n)
    columns = [CubeFunction.from_spectrum(n, f.spectrum_matrix()[:, j]) for j in range(f.m)]

    def msn(parts):
        table = np.column_stack([part.values for part in parts])
        return math.sqrt(float(np.mean(norm.evaluate_rows(table) ** 2)))

    return {
        "rhs_raw": msn(columns),
        "lhs": msn([convolve(c, linear) for c in columns]),
        "term_proxy": msn([convolve(c, proxy) for c in columns]),
        "term_remainder": msn([convolve(c, linear - proxy) for c in columns]),
    }


class TestChooseEll:
    @pytest.mark.parametrize(("m", "want"), [(1, 1), (2, 1), (4, 3), (8, 3), (16, 3), (64, 5), (1024, 7)])
    def test_values(self, m, want):
        assert choose_ell(m) == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            choose_ell(0)

    @pytest.mark.parametrize("m", [1, 3, 10, 100, 5000])
    def test_always_odd_and_large_enough(self, m):
        ell = choose_ell(m)
        assert ell % 2 == 1
        assert ell > 0.5 * math.log2(m)
        # smallest such odd: stepping down two crosses the threshold
        assert ell - 2 <= 0.5 * math.log2(m)


class TestPisierRatio:
    def test_constant_function(self):
        f = single_column(constant_function(5, 2.0))
        assert projection_ratio(f, Norm.lp(2))[2] == 0.0

    def test_purely_linear_function(self):
        f = single_column(linear_function(6))
        assert projection_ratio(f, Norm.lp(2))[2] == 1.0

    def test_zero_function(self):
        f = single_column(constant_function(4, 0.0))
        assert projection_ratio(f, Norm.lp(2)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_euclidean_never_expands(self, seed):
        f = random_vector(8, 4, seed)
        assert projection_ratio(f, Norm.lp(2))[2] <= 1.0 + 1e-12

    def test_witness_instance_beats_one(self):
        """At n=9 the tailored instance forces ratio sqrt(n) / ||F||_inf >= 1."""
        instance = lower_bound_instance(9, "truncated")
        lhs, rhs, ratio = projection_ratio(instance.vector, instance.norm)
        assert lhs == pytest.approx(3.0, abs=1e-10)
        assert rhs == pytest.approx(instance.witness_sup, abs=1e-10)
        assert ratio >= 1.0

    def test_dimension_cap(self):
        """Audits stop at n = 12 for sup-functional norms, whose scans cost n * 4^n."""
        with pytest.raises(ValueError, match="exceeds the cap 12"):
            decomposition_audit(
                VectorFunction.from_spectrum_matrix(13, np.zeros((1 << 13, 1))),
                Norm.sup_functional(13, [0]),
                SandwichTransform(matrix=np.eye(1), distortion=1.0),
            )
        f = random_vector(4, 2, 0)
        assert decomposition_audit(f, Norm.lp(1), SandwichTransform.for_lp(1.0, 2)).rhs_raw > 0


class TestDecompositionAudit:
    def test_random_instance_all_bounds_hold(self):
        f = random_vector(8, 4, 7)
        transform = SandwichTransform.for_lp(math.inf, 4)
        audit = decomposition_audit(f, Norm.lp(math.inf), transform)
        assert audit.ell == 3
        assert audit.lhs <= audit.term_proxy + audit.term_remainder + 1e-9
        assert audit.lhs <= audit.derived_constant * audit.rhs_raw + 1e-9
        assert audit.term_proxy <= 8 * audit.ell * audit.rhs_raw + 1e-9

    def test_euclidean_remainder_chain(self):
        f = random_vector(8, 4, 8)
        transform = SandwichTransform.for_lp(2.0, 4)
        audit = decomposition_audit(f, Norm.lp(2), transform)
        assert transform.distortion == 1.0
        assert audit.term_remainder <= (8 * audit.ell / 2**audit.ell) * audit.rhs_raw + 1e-9

    def test_mid_levels_vanish(self):
        """With spectrum on levels 2..ell only, both lin f and f * P vanish."""
        n, ell = 8, 3
        levels = popcount(np.arange(1 << n, dtype=np.uint32))
        rng = np.random.default_rng(9)
        spectra = rng.standard_normal((1 << n, 2))
        spectra[~((levels >= 2) & (levels <= ell))] = 0.0
        f = VectorFunction.from_spectrum_matrix(n, spectra)
        transform = SandwichTransform.for_lp(math.inf, 2)
        audit = decomposition_audit(f, Norm.lp(math.inf), transform, ell=ell)
        assert audit.lhs == 0.0
        assert audit.term_proxy < 1e-10

    def test_remainder_parseval_step(self):
        """E||T(f)*(L-P)||_2^2 equals the coefficient-space sum."""
        n, m, ell = 8, 4, 3
        f = random_vector(n, m, 10)
        transform = SandwichTransform.for_lp(math.inf, m)
        tf = VectorFunction.from_spectrum_matrix(n, f.spectrum_matrix() @ transform.matrix.T)
        gap = linear_function(n) - proxy_as_cube_function(ProxyKernel(ell), n)
        levels = np.zeros(n + 1)
        levels[1] = 1.0
        levels -= proxy_level_coeffs(ProxyKernel(ell), n)
        remainder = VectorFunction.from_spectrum_matrix(n, level_multiply(tf.spectrum_matrix(), levels))
        lhs = Norm.lp(2).mean_square(remainder.values_matrix()) ** 2
        rhs = float(np.sum((tf.spectrum_matrix() ** 2) * (gap.spectrum[:, None] ** 2)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_rejects_invalid_transform(self):
        f = random_vector(6, 4, 11)
        bad = SandwichTransform(matrix=np.eye(4), distortion=1.0)
        with pytest.raises(ValueError, match="rejected"):
            decomposition_audit(f, Norm.lp(math.inf), bad)

    def test_rejects_mismatched_transform(self):
        f = random_vector(6, 4, 12)
        with pytest.raises(ValueError):
            decomposition_audit(f, Norm.lp(2), SandwichTransform.for_lp(2.0, 3))

    def test_forced_ell_changes_constant(self):
        f = random_vector(8, 4, 13)
        transform = SandwichTransform.for_lp(1.0, 4)
        audit5 = decomposition_audit(f, Norm.lp(1), transform, ell=5)
        assert audit5.ell == 5
        assert audit5.derived_constant == pytest.approx(40 * (1 + 2 / 32))

    @pytest.mark.parametrize("norm_name", ["linf", "l1", "l2"])
    @pytest.mark.parametrize("seed", range(5))
    def test_derived_bound_over_random_grid(self, norm_name, seed):
        p = {"linf": math.inf, "l1": 1.0, "l2": 2.0}[norm_name]
        f = random_vector(7, 5, 500 + seed)
        audit = decomposition_audit(f, Norm.lp(p), SandwichTransform.for_lp(p, 5))
        assert audit.lhs <= audit.derived_constant * audit.rhs_raw + 1e-9

    @pytest.mark.parametrize("norm_name", ["linf", "l1", "l2"])
    @pytest.mark.parametrize("n", [1, 4, 7, 10])
    def test_matches_per_column_oracle(self, n, norm_name):
        """All four audited norms agree with column-by-column convolutions to 1e-12 relative.

        With no odd level above ell present (n <= 4 at ell = 3) the remainder
        vanishes exactly, so both sides are rounding noise: they must then
        stay below 1e-12 of the function's own norm instead.
        """
        p = {"linf": math.inf, "l1": 1.0, "l2": 2.0}[norm_name]
        m = 5
        f = random_vector(n, m, 600 + n)
        audit = decomposition_audit(f, Norm.lp(p), SandwichTransform.for_lp(p, m))
        oracle = oracle_terms(f, Norm.lp(p), audit.ell)
        noise = 1e-12 * oracle["rhs_raw"]
        for name, want in oracle.items():
            got = getattr(audit, name)
            if n <= audit.ell + 1 and name == "term_remainder":
                assert max(got, want) < noise
            else:
                assert got == pytest.approx(want, rel=1e-12), name

    def test_two_batched_transforms(self, monkeypatch):
        """One transform fills f's value table and one takes f*P to value space; lin f needs none."""
        calls = []
        butterfly = cube_fourier._walsh_butterfly

        def counted(a):
            calls.append(a.shape)
            return butterfly(a)

        f = random_vector(8, 4, 15)
        monkeypatch.setattr(cube_fourier, "_walsh_butterfly", counted)
        decomposition_audit(f, Norm.lp(math.inf), SandwichTransform.for_lp(math.inf, 4))
        assert calls == [(256, 4), (256, 4)]

    def test_every_failed_claim_is_reported(self, monkeypatch):
        """All four inequalities are checked; the message names each failure, the report the first."""
        f = random_vector(6, 4, 16)
        norm, transform = Norm.lp(2), SandwichTransform.for_lp(2.0, 4)
        audit = decomposition_audit(f, norm, transform)
        tol = -1e9
        monkeypatch.setattr(pisier_bench, "_AUDIT_TOL", tol)
        with pytest.raises(BoundViolationError) as caught:
            decomposition_audit(f, norm, transform)
        ell, d = audit.ell, audit.distortion
        claims = [
            ("proxy-term-bound", audit.term_proxy, 8.0 * ell * audit.rhs_raw),
            ("remainder-term-bound", audit.term_remainder, (8.0 * ell * d / 2.0**ell) * audit.rhs_raw),
            ("split-triangle-inequality", audit.lhs, audit.term_proxy + audit.term_remainder),
            ("projection-derived-bound", audit.lhs, audit.derived_constant * audit.rhs_raw),
        ]
        assert str(caught.value) == "; ".join(f"{c} violated: {a} > {b} + {tol}" for c, a, b in claims)
        report = caught.value.report
        assert (report.claim, report.lhs, report.rhs) == claims[0]
        assert report.params == audit.to_dict()

    def test_records_serialize_their_fields(self):
        f = random_vector(5, 3, 17)
        audit = decomposition_audit(f, Norm.lp(1), SandwichTransform.for_lp(1.0, 3))
        payload = audit.to_dict()
        assert set(payload) == {field.name for field in dataclasses.fields(audit)} | {"ratio", "slack"}
        assert (payload["ratio"], payload["slack"]) == (audit.ratio, audit.slack)
        assert audit.csv_row() == tuple(payload[name] for name in pisier_bench.AUDIT_CSV_FIELDS)

    def test_audit_serializes_cleanly(self):
        import json

        f = random_vector(6, 2, 14)
        audit = decomposition_audit(f, Norm.lp(2), SandwichTransform.for_lp(2.0, 2))
        payload = json.dumps(audit.to_dict(), sort_keys=True)
        assert json.loads(payload)["ell"] == audit.ell
