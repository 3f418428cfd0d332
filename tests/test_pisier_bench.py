"""Projection-audit pipeline checks: parameter choice, splitting, derived bounds."""

import dataclasses
import json
import math
import tracemalloc

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
    inverse_fwht,
    level_multiply,
    proxy_level_coeffs,
    rademacher_projection,
)
from pisier_lab import cli, cube_fourier, pisier_bench
from pisier_lab.cube_fourier import popcount
from pisier_lab.lower_bound import WITNESS_VARIANTS, lower_bound_instance
from pisier_lab.report import TOLERANCES

from oracles import constant_function, linear_function, proxy_as_cube_function
from test_acceptance import AUDIT_GRID, AUDIT_SEEDS


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

    def test_is_the_smallest_odd_ell_with_four_to_the_ell_above_m(self):
        """Integer arithmetic: at 4^k - 1 for k = 27 and 31 a float log2 rounds up to k and overshoots by 2."""
        def smallest(m):
            ell = 1
            while 4**ell <= m:
                ell += 2
            return ell

        grid = list(range(1, 5001)) + [4**k + d for k in range(41) for d in (-1, 0, 1) if 4**k + d >= 1]
        assert [choose_ell(m) for m in grid] == [smallest(m) for m in grid]
        assert (choose_ell(4**27 - 1), choose_ell(4**31 - 1)) == (27, 31)
        assert (choose_ell(np.int64(16)), choose_ell(15.9), choose_ell(16.0)) == (3, 3, 3)

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

    def test_no_cap_below_the_table_cap(self):
        """Every audit norm is an lp norm, so an audit at n = 13 runs: only the table caps n."""
        audit = decomposition_audit(VectorFunction.from_spectrum(13, np.zeros((1 << 13, 1))), Norm.lp(math.inf))
        assert (audit.n, audit.lhs, audit.rhs_raw) == (13, 0.0, 0.0)
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
        """One transform fills f's value table and one takes f*P to value space at the even points, a half table;
        lin f needs none."""
        calls = []
        butterfly = cube_fourier._walsh_butterfly

        def counted(a, **kwargs):
            calls.append(a.shape)
            return butterfly(a, **kwargs)

        f = random_vector(8, 4, 15)
        monkeypatch.setattr(cube_fourier, "_walsh_butterfly", counted)
        decomposition_audit(f, Norm.lp(math.inf))
        assert calls == [(256, 4), (128, 4)]

    @pytest.mark.parametrize("level", [0, 2, 6])
    def test_an_even_level_proxy_coefficient_is_refused(self, monkeypatch, level):
        """The lp route measures f*P and f*(L-P) at the even points, which holds only if P lives on odd levels:
        a nonzero even-level coefficient raises before any table is made, by a raise that python -O keeps."""
        def noisy(kernel, n):
            coeffs = proxy_level_coeffs(kernel, n)
            coeffs[level] = 2.0e-19
            return coeffs

        monkeypatch.setattr(pisier_bench, "proxy_level_coeffs", noisy)
        with pytest.raises(ValueError, match="the proxy's even levels must vanish"):
            decomposition_audit(random_vector(8, 4, 18), Norm.lp(math.inf))

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


def whole_table_audit(f: VectorFunction, norm: Norm, ell: int) -> dict:
    """The six float fields of the audit by the per-point route from whole tables: f's values, f*P transformed
    out of place, lin f and lin f - f*P, each measured by np.linalg.norm over every row at once.  f is left
    holding what it held."""
    def msn(table):
        return float(np.sqrt(np.mean(np.linalg.norm(table, ord=norm.p, axis=1) ** 2)))

    rhs_raw = msn(f.values if f.holds_values else inverse_fwht(f.spectrum))
    split = inverse_fwht(level_multiply(f.spectrum, proxy_level_coeffs(ProxyKernel(ell), f.n)))
    term_proxy = msn(split)
    linear = rademacher_projection(f).values_matrix()
    d = norm.sandwich(f.m)[1]
    return {"distortion": d, "lhs": msn(linear), "rhs_raw": rhs_raw, "term_proxy": term_proxy,
            "term_remainder": msn(np.subtract(linear, split, out=split)),
            "derived_constant": 8.0 * ell * (1.0 + d / 2.0**ell)}


L2_TERMS = ("lhs", "rhs_raw", "term_proxy", "term_remainder")


def assert_l2_terms_close(audit, want: dict) -> None:
    """Each l2 term of the audit within gamma_K of the per-point route's, relative (TestParsevalRoute states K);
    the other fields equal."""
    n, m = audit.n, audit.m
    k = 3 * n + 2 * math.ceil(math.log2(m)) + math.comb(n, n // 2) + 70
    gamma = k * 2.0**-53 / (1.0 - k * 2.0**-53)
    scale = {**want, "term_remainder": want["lhs"] + want["term_proxy"] + want["term_remainder"]}
    for name in want:
        bound = gamma * scale[name] if name in L2_TERMS else 0.0
        assert abs(getattr(audit, name) - want[name]) <= bound, (name, getattr(audit, name), want[name])


class TestLeanAudit:
    """The per-point audit holds f's spectrum and one working table, and its fields keep every bit; the l2 audit
    holds no table beside the spectrum."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, math.inf])
    @pytest.mark.parametrize(("n", "m"), [(7, 1), (14, 5), (12, 64), (1, 3), (2, 1)],
                             ids=["m1-one-row-block", "m5-two-row-blocks", "m64-four-row-blocks", "n1", "n2"])
    @pytest.mark.parametrize("built", ["from-spectrum", "from-values"])
    def test_fields_equal_the_whole_table_audit(self, built, n, m, p):
        """A function built from values is measured on its own table; one built from its spectrum
        is left holding no value table.  The l2 terms, taken from the spectrum, are within gamma_K; at p != 2 the
        odd terms, measured at the even points, have the whole tables' bits, at the default ell, 9 and 15."""
        table = np.random.default_rng(700 + n).standard_normal((1 << n, m))
        f = VectorFunction(n, **{built.removeprefix("from-"): table})
        for ell in (None, 9, 15):
            audit = decomposition_audit(f, Norm.lp(p), ell)
            assert f.holds_values == (built == "from-values")
            want = whole_table_audit(f, Norm.lp(p), audit.ell)
            if p == 2.0:
                assert_l2_terms_close(audit, want)
            else:
                assert {name: getattr(audit, name) for name in want} == want, ell

    @pytest.mark.parametrize(("n", "m", "p", "tables"), [(14, 64, math.inf, 2.5), (14, 64, 2.0, 1.25), (20, 1, 2.0, 1.25)],
                             ids=["linf", "l2", "l2-m1"])
    def test_peak_is_under_the_routes_tables(self, n, m, p, tables):
        """f's spectrum plus the audit's own peak, in tables of 8 MB: under 2.5 for the per-point route, whose odd
        terms are half tables, and under 1.25 for the l2 route, whose cache blocks and level masses stay under a
        quarter table even at m = 1."""
        f = random_vector(n, m, 32)
        table = f.spectrum.nbytes
        tracemalloc.start()
        try:
            decomposition_audit(f, Norm.lp(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table + peak < tables * table, (table + peak) / table

    def test_l2_audit_builds_no_value_table(self, monkeypatch):
        """An l2 audit of a function built from its spectrum runs no butterfly, no level product, no projection
        and no mean square of rows; the same patches stop a linf audit."""
        def refuse(*args, **kwargs):
            raise AssertionError("the l2 route ran a per-point step")

        for owner, name in [(cube_fourier, "_walsh_butterfly"), (cube_fourier, "level_multiply"),
                            (pisier_bench, "level_multiply"), (pisier_bench, "_projection_passes"),
                            (pisier_bench, "_odd_mean_square"), (Norm, "mean_square")]:
            monkeypatch.setattr(owner, name, refuse)
        f = random_vector(10, 8, 41)
        audit = decomposition_audit(f, Norm.lp(2))
        assert not f.holds_values
        assert [c.holds for c in audit.checks] == [True] * 4
        with pytest.raises(AssertionError, match="per-point step"):
            decomposition_audit(f, Norm.lp(math.inf))

    @pytest.mark.parametrize("e", [600, -600])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["l1", "l2", "linf"])
    def test_far_binades_scale_every_field_exactly(self, p, e):
        """A spectrum times 2^e, far outside [2^-500, 2^500], is squared over a power of two: every field is 2^e
        times the unscaled audit's, bit for bit, where a mean square of the raw squares would be inf or 0.0."""
        f = random_vector(8, 4, 42)
        base = decomposition_audit(f, Norm.lp(p)).to_dict()
        far = decomposition_audit(VectorFunction.from_spectrum(8, np.ldexp(f.spectrum, e)), Norm.lp(p))
        scaled = {*L2_TERMS, "slack"}
        assert far.to_dict() == {name: math.ldexp(v, e) if name in scaled else v for name, v in base.items()}
        assert [c.holds for c in far.checks] == [True] * 4


class TestLowerBoundInstanceAudit:
    """The witness instance as it is held, T f in linf on the 2^n points: its audit runs through the linf sandwich
    of R^(2^n), d = 2^(n/2), not the family's sqrt(|family|), and has the instance's ratio."""

    @pytest.mark.parametrize(("n", "variant"), [(6, "truncated"), (9, "truncated"), (9, "chebyshev")])
    def test_all_four_claims_hold_at_the_instance_ratio(self, n, variant):
        instance = lower_bound_instance(n, variant)
        audit = decomposition_audit(instance.vector, instance.norm)
        assert (audit.m, audit.distortion) == (1 << n, 2.0 ** (n / 2))
        assert audit.derived_constant == 8.0 * audit.ell * (1.0 + 2.0 ** (n / 2) / 2.0**audit.ell)
        assert audit.ratio == pytest.approx(instance.ratio, rel=1e-12)
        assert audit.ratio > 1.0
        assert [c.holds for c in audit.checks] == [True] * 4


class TestTranslationRoute:
    """The instance a second way: row x of V[x, z] = F(x xor z) is a permutation of F's values, and lin of it
    at z is sum_j Fhat({j}) x_j z_j, so the plain linf audit of V, with no sup-functional code, has the
    instance's ratio.  V is built by index; its gate runs at m = 2^n."""

    @pytest.mark.parametrize("variant", WITNESS_VARIANTS)
    @pytest.mark.parametrize("n", [6, 8, 10, 11])
    def test_linf_audit_of_the_translates_is_the_instance(self, n, variant):
        instance = lower_bound_instance(n, variant)
        points = np.arange(1 << n)
        translates = instance.witness.values[points[:, None] ^ points]
        audit = decomposition_audit(VectorFunction.from_values(n, translates), Norm.lp(math.inf))
        assert (audit.m, audit.distortion) == (1 << n, 2.0 ** (n / 2))
        assert abs(audit.ratio - instance.ratio) <= 1e-12
        assert abs(audit.rhs_raw - instance.field_norm_value) <= 1e-12
        assert abs(audit.lhs - instance.linear_norm_value) <= 1e-12
        assert [c.holds for c in audit.checks] == [True] * 4


PARSEVAL_GRID = [(n, m, seed) for n, m in ((8, 4), (10, 8), (12, 16), (16, 16), (16, 64)) for seed in range(3)]


class TestParsevalRoute:
    """An l2 audit takes every term from the spectrum, by Parseval's identity on the cube.  With M_k =
    sum_{|S|=k} ||fhat(S)||_2^2 and c the proxy's level coefficients: rhs_raw^2 = sum_k M_k, lhs^2 = M_1,
    term_proxy^2 = sum_k c_k^2 M_k and term_remainder^2 = sum_k ([k=1] - c_k)^2 M_k.  The per-point route,
    whole value tables measured row by row, is the oracle: it shares no step with the masses.

    The bound, with gamma_k = k u / (1 - k u) and u = 2^-53 (Higham 2002, ch. 3-4).  Each table the oracle
    measures is the spectrum through at most one level product and n butterfly passes; each pass is sqrt(2)
    times an orthogonal map and rounds each entry once, so the table's normwise relative error is at most
    gamma_(n+1).  Its mean square sums m squares per row, then 2^n rows, pairwise, at depths of at most
    log2 m + 20 and n + 20.  The masses sum m squares pairwise, then the C(n, k) subsets of a level in order,
    and fsum the weighted levels.  So each term is within gamma_K of its root, relative, with
    K = 3n + 2 ceil(log2 m) + max_k C(n, k) + 70.  f*(L-P) is lin f - f*P formed entrywise, so its error is
    relative to lhs + term_proxy + term_remainder instead.
    """

    @pytest.mark.parametrize(("n", "m", "seed"), PARSEVAL_GRID + [(20, 16, 0)])
    def test_l2_audit_terms_match_the_per_point_route(self, n, m, seed):
        f = cli.random_vector_function(n, m, seed)
        audit = decomposition_audit(f, Norm.lp(2))
        assert_l2_terms_close(audit, whole_table_audit(f, Norm.lp(2), audit.ell))

    def test_every_acceptance_l2_ratio_is_at_most_one(self):
        """fsum is correctly rounded and monotone, and M_1 is one of the nonnegative masses it adds, so lhs <=
        rhs_raw and the ratio is at most 1.0 exactly on each of the acceptance grid's l2 audits."""
        ratios = [json.loads(cli.audit_report_json(n, m, "l2", seed))["audit"]["ratio"]
                  for n, m in AUDIT_GRID for seed in AUDIT_SEEDS]
        assert len(ratios) == 150
        assert max(ratios) <= 1.0
