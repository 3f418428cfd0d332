"""Projection-audit pipeline checks: parameter choice, splitting, derived bounds."""

import dataclasses
import math

import numpy as np
import pytest

from pisier_lab import (
    CubeFunction,
    Norm,
    ProxyKernel,
    VectorFunction,
    choose_ell,
    convolve,
    decomposition_audit,
    level_multiply,
    proxy_level_coeffs,
    rademacher_projection,
)
from pisier_lab import cube_fourier
from pisier_lab.cube_fourier import popcount
from pisier_lab.lower_bound import lower_bound_instance
from pisier_lab.report import TOLERANCES

from oracles import constant_function, linear_function, proxy_as_cube_function


def random_vector(n, m, seed):
    rng = np.random.default_rng(seed)
    return VectorFunction.from_spectrum(n, rng.standard_normal((1 << n, m)))


def single_column(f: CubeFunction) -> VectorFunction:
    return VectorFunction.from_spectrum(f.n, f.spectrum[:, None])


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
    columns = [CubeFunction.from_spectrum(n, f.spectrum[:, j]) for j in range(f.m)]

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
                VectorFunction.from_spectrum(13, np.zeros((1 << 13, 1))),
                Norm.sup_functional(13, [0]),
            )
        f = random_vector(4, 2, 0)
        assert decomposition_audit(f, Norm.lp(1)).rhs_raw > 0


class TestDecompositionAudit:
    def test_random_instance_all_bounds_hold(self):
        f = random_vector(8, 4, 7)
        audit = decomposition_audit(f, Norm.lp(math.inf))
        assert audit.ell == 3
        assert audit.lhs <= audit.term_proxy + audit.term_remainder + 1e-9
        assert audit.lhs <= audit.derived_constant * audit.rhs_raw + 1e-9
        assert audit.term_proxy <= 8 * audit.ell * audit.rhs_raw + 1e-9

    def test_euclidean_remainder_chain(self):
        f = random_vector(8, 4, 8)
        audit = decomposition_audit(f, Norm.lp(2))
        assert audit.distortion == 1.0
        assert audit.term_remainder <= (8 * audit.ell / 2**audit.ell) * audit.rhs_raw + 1e-9

    def test_mid_levels_vanish(self):
        """With spectrum on levels 2..ell only, both lin f and f * P vanish."""
        n, ell = 8, 3
        levels = popcount(np.arange(1 << n, dtype=np.uint32))
        rng = np.random.default_rng(9)
        spectra = rng.standard_normal((1 << n, 2))
        spectra[~((levels >= 2) & (levels <= ell))] = 0.0
        f = VectorFunction.from_spectrum(n, spectra)
        audit = decomposition_audit(f, Norm.lp(math.inf), ell=ell)
        assert audit.lhs == 0.0
        assert audit.term_proxy < 1e-10

    def test_remainder_parseval_step(self):
        """E||s f*(L-P)||_2^2 equals the coefficient-space sum, s the linf sandwich's scale."""
        n, m, ell = 8, 4, 3
        f = random_vector(n, m, 10)
        scale, _ = Norm.lp(math.inf).sandwich(m)
        tf = VectorFunction.from_spectrum(n, scale * f.spectrum)
        gap = linear_function(n) - proxy_as_cube_function(ProxyKernel(ell), n)
        levels = np.zeros(n + 1)
        levels[1] = 1.0
        levels -= proxy_level_coeffs(ProxyKernel(ell), n)
        remainder = VectorFunction.from_spectrum(n, level_multiply(tf.spectrum, levels))
        lhs = Norm.lp(2).mean_square(remainder.values_matrix()) ** 2
        rhs = float(np.sum((tf.spectrum ** 2) * (gap.spectrum[:, None] ** 2)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_rejects_invalid_sandwich(self, monkeypatch):
        """A sandwich with d = 1 cannot hold for linf on R^4: the gate rejects it before the split."""
        f = random_vector(6, 4, 11)
        monkeypatch.setattr(Norm, "sandwich", lambda self, m: (1.0, 1.0))
        with pytest.raises(ValueError, match="sandwich of linf rejected: .* on the lower side"):
            decomposition_audit(f, Norm.lp(math.inf))

    def test_rejects_norm_of_another_size(self):
        """A sup-functional norm lives on R^|family|; a function into R^4 is not measured by one on R^3."""
        f = random_vector(6, 4, 12)
        with pytest.raises(ValueError, match=r"norm is on R\^3, got vectors in R\^4"):
            decomposition_audit(f, Norm.sup_functional(3, [1, 2, 4]))

    def test_forced_ell_changes_constant(self):
        f = random_vector(8, 4, 13)
        audit5 = decomposition_audit(f, Norm.lp(1), ell=5)
        assert audit5.ell == 5
        assert audit5.derived_constant == pytest.approx(40 * (1 + 2 / 32))

    @pytest.mark.parametrize("norm_name", ["linf", "l1", "l2"])
    @pytest.mark.parametrize("seed", range(5))
    def test_derived_bound_over_random_grid(self, norm_name, seed):
        p = {"linf": math.inf, "l1": 1.0, "l2": 2.0}[norm_name]
        f = random_vector(7, 5, 500 + seed)
        audit = decomposition_audit(f, Norm.lp(p))
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
        audit = decomposition_audit(f, Norm.lp(p))
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
        decomposition_audit(f, Norm.lp(math.inf))
        assert calls == [(256, 4), (256, 4)]

    def test_every_failed_claim_is_reported(self, monkeypatch):
        """All four inequalities are checked, and each one that fails is reported; none raises."""
        f = random_vector(6, 4, 16)
        norm = Norm.lp(2)
        audit = decomposition_audit(f, norm)
        ell, d = audit.ell, audit.distortion
        claims = [
            ("proxy-term-bound", audit.term_proxy, 8.0 * ell * audit.rhs_raw),
            ("remainder-term-bound", audit.term_remainder, (8.0 * ell * d / 2.0**ell) * audit.rhs_raw),
            ("split-triangle-inequality", audit.lhs, audit.term_proxy + audit.term_remainder),
            ("projection-derived-bound", audit.lhs, audit.derived_constant * audit.rhs_raw),
        ]
        assert [(c.claim, c.lhs, c.rhs, c.tol, c.holds) for c in audit.checks] == [
            (*claim, 1e-9, True) for claim in claims]
        for claim, _, _ in claims:
            monkeypatch.setitem(TOLERANCES, claim, -1e9)
        checks = decomposition_audit(f, norm).checks
        assert [(c.claim, c.lhs, c.rhs, c.holds) for c in checks] == [(*claim, False) for claim in claims]
        assert all(c.params == {} for c in checks)

    def test_records_serialize_their_fields(self):
        f = random_vector(5, 3, 17)
        audit = decomposition_audit(f, Norm.lp(1))
        payload = audit.to_dict()
        assert set(payload) == {field.name for field in dataclasses.fields(audit)} | {"ratio", "slack"}
        assert (payload["ratio"], payload["slack"]) == (audit.ratio, audit.slack)

    def test_audit_serializes_cleanly(self):
        import json

        f = random_vector(6, 2, 14)
        audit = decomposition_audit(f, Norm.lp(2))
        payload = json.dumps(audit.to_dict(), sort_keys=True)
        assert json.loads(payload)["ell"] == audit.ell


class TestLowerBoundInstanceAudit:
    """The witness instance audited through the sup-functional sandwich s = 1, d = sqrt(|family|)."""

    @pytest.mark.parametrize(("n", "variant"), [(6, "truncated"), (9, "truncated"), (9, "chebyshev")])
    def test_all_four_claims_hold_at_the_instance_ratio(self, n, variant):
        instance = lower_bound_instance(n, variant)
        audit = decomposition_audit(instance.vector, instance.norm)
        m = len(instance.family)
        assert (audit.m, audit.distortion) == (m, math.sqrt(m))
        assert audit.derived_constant == 8.0 * audit.ell * (1.0 + math.sqrt(m) / 2.0**audit.ell)
        assert audit.ratio == pytest.approx(instance.ratio, rel=1e-12)
        assert audit.ratio > 1.0
