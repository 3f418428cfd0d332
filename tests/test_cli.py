"""Subcommand behavior: exit codes, JSON/CSV shapes, determinism."""

import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pisier_lab import CubeFunction, Norm, build_truncated_witness, write_binary
from pisier_lab import cli, cube_fourier, linear_proxy, lower_bound, pisier_bench, vector_field
from pisier_lab.cube_fourier import MAX_DIM
from pisier_lab.linear_proxy import MAX_ELL
from pisier_lab.lower_bound import MAX_RECORD_DIM
from pisier_lab.report import TOLERANCES

from oracles import constant_function


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_main(args):
    return cli.main(args)


def failing(monkeypatch, prefix):
    """Give every claim whose name starts with prefix a tolerance no finite check meets."""
    for claim in [c for c in TOLERANCES if c.startswith(prefix)]:
        monkeypatch.setitem(TOLERANCES, claim, -1e9)


def failed_claims(payload):
    return [c["claim"] for c in payload["checks"] if not c["holds"]]


def library_error(call, *args):
    """The text of the ValueError the library call raises: the message a run prints after 'error: '."""
    with pytest.raises(ValueError) as raised:
        call(*args)
    return str(raised.value)


class TestProxyCheck:
    def test_ok_run(self, capsys, tmp_path):
        out = tmp_path / "proxy.json"
        assert run_main(["proxy-check", "--ell", "3", "--n", "16", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["proxy_l1"] <= 24.0
        assert payload["phi_l1"] <= 12.0
        assert payload["violations"] == []
        assert len(payload["level_coeffs"]) == 17

    def test_two_point_cube(self, capsys):
        assert run_main(["proxy-check", "--ell", "1", "--n", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["level_coeffs"][1] == 1.0
        assert payload["proxy_l1"] == 1.0

    def test_even_ell_is_usage_error(self, capsys):
        assert run_main(["proxy-check", "--ell", "2", "--n", "8"]) == 2

    def test_out_of_range_n(self, capsys):
        assert run_main(["proxy-check", "--ell", "3", "--n", "25"]) == 2

    def test_violation_reports_the_measured_value(self, capsys, monkeypatch):
        monkeypatch.setattr(linear_proxy, "proxy_eval_by_weight", lambda kernel, n, a: 100.0)
        assert run_main(["proxy-check", "--ell", "1", "--n", "4"]) == 1
        captured = capsys.readouterr()

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        payload = json.loads(captured.out, parse_constant=reject)
        assert payload["proxy_l1"] == 100.0
        assert failed_claims(payload) == ["proxy-l1-bound"]
        assert payload["violations"] == ["proxy-l1-bound: 100.0 <= 8.0 + 0.0 fails"]
        assert captured.err == "violation: proxy-l1-bound: 100.0 <= 8.0 + 0.0 fails\n"


class TestKernelSelfCheck:
    """A failed geometric-sum self-check is a precondition, as the sandwich gate is: exit 2, not 1."""

    @pytest.mark.parametrize("argv", [["audit", "--n", "3", "--m", "2"], ["proxy-check", "--ell", "3", "--n", "4"]])
    def test_failure_is_one_error_line(self, capsys, monkeypatch, argv):
        monkeypatch.setitem(TOLERANCES, "grid-geometric-sum", -1.0)
        assert run_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: grid geometric-sum identity failed at a=")

    def test_failure_is_an_error_row_in_a_sweep(self, capsys, monkeypatch):
        monkeypatch.setitem(TOLERANCES, "grid-geometric-sum", -1.0)
        run_main(["sweep", "proxy-check", "--ell", "3", "--n", "4"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["status"] for row in rows] == ["error"]
        assert rows[0]["error"].startswith("grid geometric-sum identity failed at a=")


class TestAudit:
    def test_basic_run(self, capsys):
        assert run_main(["audit", "--n", "8", "--m", "4", "--norm", "linf", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        audit = payload["audit"]
        assert audit["lhs"] <= audit["derived_constant"] * audit["rhs_raw"] + 1e-9
        assert audit["ell"] == 3

    def test_euclidean_ratio_contracts(self, capsys):
        assert run_main(["audit", "--n", "8", "--m", "4", "--norm", "l2", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["audit"]["ratio"] <= 1.0 + 1e-12

    def test_ell_auto_choice(self, capsys):
        assert run_main(["audit", "--n", "6", "--m", "64", "--norm", "l2", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["audit"]["ell"] == 5

    def test_the_drawn_spectrum_is_adopted(self):
        """The instance holds the drawn table itself: the peak is one (2^n, m) table, not a copy besides."""
        cli.random_vector_function(1, 1, 0)  # numpy's first draw allocates lasting state, outside the peak
        tracemalloc.start()
        try:
            spectrum = cli.random_vector_function(10, 64, 0).spectrum
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spectrum.shape == (1 << 10, 64) and not spectrum.flags.writeable
        assert peak < 1.5 * spectrum.nbytes

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["audit", "--n", "8", "--m", "4", "--norm", "linf", "--seed", "3"]
        assert run_main(args + ["--out", str(a)]) == 0
        assert run_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("norm", ["linf", "l1", "l2", "l3", "l2.5", "l1.0000000000000002"])
    def test_norm_is_named_as_norm_name_prints_it(self, capsys, norm):
        """--norm takes Norm.name's spelling, and the config and the audit object both echo it unchanged."""
        assert run_main(["audit", "--n", "3", "--m", "2", "--norm", norm]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["norm"] == payload["audit"]["norm"] == norm
        assert "p" not in payload["config"]

    def test_help_names_the_norms(self, capsys):
        with pytest.raises(SystemExit):
            run_main(["audit", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--p" not in text
        assert "linf (default), l1, l2, l3, l2.5" in text

    def test_table_cap(self, capsys):
        """2^n * m above 2^MAX_DIM is a usage error before any table is drawn."""
        assert run_main(["audit", "--n", "16", "--m", "257"]) == 2
        assert capsys.readouterr().err == (
            f"error: --n 16 --m 257 asks for a 2^16 x 257 table; 2^n * m is capped at 2^{MAX_DIM} doubles\n")
        with pytest.raises(SystemExit):
            run_main(["audit", "--help"])
        assert f"2**n * m <= 2**{MAX_DIM}" in " ".join(capsys.readouterr().out.split())

    def test_gate_cap(self, capsys, tmp_path):
        """The sandwich gate's 2m + 2 rows of m are capped like the value table: m <= 2895."""
        assert (2 * 2895 + 2) * 2895 <= 1 << MAX_DIM < (2 * 2896 + 2) * 2896
        assert run_main(["audit", "--n", "1", "--m", "2895", "--out", str(tmp_path / "a.json")]) == 0
        for m in (2896, 4096, 1 << 22):
            assert run_main(["audit", "--n", "1", "--m", str(m)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: --m {m} asks for a sandwich gate of {2 * m + 2} rows of {m}; "
                f"(2m + 2) * m is capped at 2^{MAX_DIM} doubles\n")
        with pytest.raises(SystemExit):
            run_main(["audit", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"(2m + 2) * m <= 2**{MAX_DIM}" in text
        assert "64 +" not in text and "sample" not in text

    def test_config_is_the_flags(self, capsys):
        """The config echoes the five flags and nothing else: the gate draws no samples to count."""
        assert run_main(["audit", "--n", "4", "--m", "3", "--norm", "l1"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {"n": 4, "m": 3, "ell": None, "norm": "l1", "seed": 0}

    @pytest.mark.parametrize(("scale", "distortion", "least"), [(1.0, 2.0, "1.000e+00"), (0.5, 1.0, "-5.000e-01")])
    def test_a_wrong_sandwich_is_rejected(self, capsys, monkeypatch, scale, distortion, least):
        """linf on R^4 has s = 1/2, d = 2.  With d doubled the upper side is not attained (ones/2 leaves 1); with s
        halved it fails (e_1 exceeds d s = 1/2 by 1/2).  The first would loosen every bound.  Either way: exit 2."""
        sandwich = Norm.sandwich
        monkeypatch.setattr(Norm, "sandwich", lambda self, m: (
            sandwich(self, m)[0] * scale, sandwich(self, m)[1] * distortion))
        assert run_main(["audit", "--n", "8", "--m", "4", "--norm", "linf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sandwich of linf rejected: least slack {least} on the upper side, not 0\n"

    @pytest.mark.parametrize("argv", [
        ["--n", "6", "--m", "4", "--norm", "l1000", "--seed", "1"],  # |x|^1000 of the table overflows
        ["--n", "6", "--m", "64", "--norm", "l1000"],  # the gate's flat vector underflows
        ["--n", "12", "--m", "4", "--norm", "l128"],
        ["--n", "3", "--m", "4", "--norm", "l32"],  # the remainder rows are rounding noise, and (1e-16)^32 underflows
        ["--n", "10", "--m", "4", "--ell", "15", "--norm", "l24"],
    ], ids=["l1000-overflow", "l1000-underflow", "l128", "l32-noise", "l24-noise"])
    def test_an_lp_norm_of_large_p_gives_a_finite_audit(self, capsys, argv):
        """No Infinity, NaN, warning or false violation where |x|^p leaves double range: exit 0 with a finite audit."""
        assert run_main(["audit", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "Infinity" not in captured.out and "NaN" not in captured.out
        payload = json.loads(captured.out)
        assert payload["violations"] == [] and all(check["holds"] for check in payload["checks"])

    def test_bound_violation_exit_code(self, capsys, monkeypatch):
        """A failed claim still prints the audit, and each failure is one stderr line."""
        failing(monkeypatch, "projection-derived-bound")
        assert run_main(["audit", "--n", "6", "--m", "4"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert failed_claims(payload) == ["projection-derived-bound"]
        assert captured.err == "".join(f"violation: {v}\n" for v in payload["violations"])
        assert captured.err.startswith("violation: projection-derived-bound: ")


class TestLowerBound:
    def test_n9_truncated(self, capsys):
        assert run_main(["lower-bound", "--n", "9", "--variant", "truncated"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["singleton_coefficient"] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert payload["mode"] == "instance"
        assert payload["ratio"] >= 1.0

    def test_n4_chebyshev_bounded(self, capsys):
        assert run_main(["lower-bound", "--n", "4", "--variant", "chebyshev"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness_sup"] <= 1.0

    def test_scalar_mode_above_instance_cap(self, capsys):
        assert run_main(["lower-bound", "--n", "16", "--variant", "truncated"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "scalar"
        assert "ratio" not in payload

    @pytest.mark.parametrize("command", ["lower-bound", "sparsity"])
    def test_unknown_variant_is_the_library_error(self, capsys, command):
        """--variant has no choices list: the witness builder's check is the one rule (a sweep row: below)."""
        assert run_main([command, "--n", "4", "--variant", "foo"]) == 2
        assert capsys.readouterr() == ("", "error: unknown witness variant 'foo'\n")

    def test_dimension_cap(self, capsys):
        assert run_main(["lower-bound", "--n", "17"]) == 2

    def test_failed_instance_invariant_exits_1(self, capsys, monkeypatch):
        failing(monkeypatch, "instance-")
        assert run_main(["lower-bound", "--n", "4"]) == 1
        captured = capsys.readouterr()
        assert failed_claims(json.loads(captured.out)) == [
            "instance-field-norm", "instance-embedding", "instance-linear-spectrum", "instance-linear-norm"]
        assert captured.err.startswith("violation: instance-field-norm: ")

    @pytest.mark.parametrize(("n", "variant"), [(6, "truncated"), (6, "chebyshev"),
                                                (14, "truncated")])
    def test_witness_built_once(self, monkeypatch, n, variant):
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        build = lower_bound.build_witness
        monkeypatch.setattr(lower_bound, "build_witness", counted)
        cli.lower_bound_payload(n, variant)
        assert calls == [(n, variant)]


class TestChecks:
    """Every checking subcommand reports each claim it checked, and its verdict comes from that list."""

    RUNS = [
        ["proxy-check", "--ell", "3", "--n", "5"],
        ["proxy-check", "--ell", "5", "--n", "2"],
        ["audit", "--n", "5", "--m", "3", "--norm", "l2"],
        ["lower-bound", "--n", "6", "--variant", "truncated"],
        ["lower-bound", "--n", "6", "--variant", "chebyshev"],
        ["lower-bound", "--n", "14", "--variant", "truncated"],
    ]
    CLAIMS = [
        [*(f"kernel-moment[{k}]" for k in range(4)), "kernel-l1-bound", "proxy-l1-bound",
         "proxy-low-level-match", "proxy-level-deviation"],
        [*(f"kernel-moment[{k}]" for k in range(6)), "kernel-l1-bound", "proxy-l1-bound",
         "proxy-low-level-match", "proxy-level-deviation"],
        ["proxy-term-bound", "remainder-term-bound", "split-triangle-inequality", "projection-derived-bound"],
        ["product-witness-sup", "truncation-tail", "singleton-coefficient", "singleton-spread",
         "singleton-roundtrip", "singleton-mass-floor", "sparsity-exact", "instance-field-norm",
         "instance-embedding", "instance-linear-spectrum", "instance-linear-norm"],
        ["chebyshev-witness-sup", "singleton-spread", "singleton-mass-floor", "sparsity-exact",
         "instance-field-norm", "instance-embedding", "instance-linear-spectrum", "instance-linear-norm"],
        ["product-witness-sup", "truncation-tail", "singleton-coefficient", "singleton-spread",
         "singleton-roundtrip", "singleton-mass-floor", "sparsity-exact"],
    ]

    @pytest.mark.parametrize(("argv", "claims"), zip(RUNS, CLAIMS), ids=[" ".join(a) for a in RUNS])
    def test_passing_run_names_every_claim(self, capsys, argv, claims):
        assert run_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["claim"] for c in payload["checks"]] == claims
        for entry in payload["checks"]:
            assert set(entry) == {"claim", "lhs", "rhs", "slack", "tol", "holds"}
            assert entry["holds"] and entry["slack"] == entry["rhs"] - entry["lhs"]
            assert entry["tol"] == TOLERANCES[entry["claim"].partition("[")[0]]
        assert payload["violations"] == []

    def test_acceptance_audits_carry_their_checks(self):
        """The audit JSON of the acceptance grid: four holding claims, slack rhs - lhs, no params."""
        for n, m in ((8, 4), (10, 8), (12, 16)):
            for norm in ("linf", "l1", "l2"):
                payload = json.loads(cli.audit_report_json(n, m, norm, 3))
                checks = payload["checks"]
                assert len(checks) == 4 and all(c["holds"] for c in checks)
                assert all(c["slack"] == c["rhs"] - c["lhs"] for c in checks)
                assert checks[3]["slack"] == payload["audit"]["slack"]
                assert payload["violations"] == []


class TestNaN:
    """A NaN on either side of a claim fails that claim: the run exits 1 and names it."""

    def test_proxy_check(self, capsys, monkeypatch):
        monkeypatch.setattr(linear_proxy, "proxy_eval_by_weight", lambda kernel, n, a: math.nan)
        assert run_main(["proxy-check", "--ell", "3", "--n", "6"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert math.isnan(payload["proxy_l1"])
        assert failed_claims(payload) == ["proxy-l1-bound"]
        assert captured.err == "violation: proxy-l1-bound: nan <= 24.0 + 0.0 fails\n"

    def test_audit(self, capsys, monkeypatch):
        """Every row of the audit's tables, f's 32 values and the odd terms' 16 even points, has a NaN norm; the
        gate's blocks of 2 and 6 unit vectors keep theirs, so the gate holds and the four claims are checked."""
        evaluate = Norm.evaluate_rows
        monkeypatch.setattr(Norm, "evaluate_rows", lambda self, rows: np.full(len(rows), math.nan)
                            if len(rows) >= 16 else evaluate(self, rows))
        assert run_main(["audit", "--n", "5", "--m", "3"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert math.isnan(payload["audit"]["lhs"])
        assert failed_claims(payload) == [
            "proxy-term-bound", "remainder-term-bound", "split-triangle-inequality", "projection-derived-bound"]

    @pytest.mark.parametrize("n", [4, 13], ids=["instance", "scalar"])
    def test_lower_bound_chebyshev_witness_sup(self, capsys, monkeypatch, n):
        monkeypatch.setattr(CubeFunction, "sup_norm", lambda self: math.nan)
        assert run_main(["lower-bound", "--n", str(n), "--variant", "chebyshev"]) == 1
        payload = json.loads(capsys.readouterr().out)
        checks = {c["claim"]: c for c in payload["checks"]}
        assert math.isnan(checks["chebyshev-witness-sup"]["lhs"])
        assert not checks["chebyshev-witness-sup"]["holds"]
        # the witness sup is the left-hand side of the mass floor and the right-hand side of the field-norm invariant
        assert failed_claims(payload) == (["chebyshev-witness-sup", "singleton-mass-floor"]
                                          + (["instance-field-norm"] if n == 4 else []))


class TestSparsity:
    def test_witness_mode(self, capsys):
        assert run_main(["sparsity", "--n", "9", "--variant", "truncated"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["level1_sum_raw"] == 3.0
        assert payload["params"]["sparsity"] == 256

    def test_file_mode(self, capsys, tmp_path):
        path = tmp_path / "f.bin"
        write_binary(build_truncated_witness(4), path)
        assert run_main(["sparsity", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["sparsity"] == 8

    def test_file_mode_bytes_do_not_depend_on_the_directory(self, tmp_path):
        """The record names the input by its file name, so one table gives one output wherever it lies."""
        outputs = []
        for folder in (tmp_path / "a", tmp_path / "a much longer" / "directory name"):
            folder.mkdir(parents=True)
            write_binary(build_truncated_witness(4), folder / "f.bin")
            assert run_main(["sparsity", "--input", str(folder / "f.bin"), "--out", str(folder / "s.json")]) == 0
            outputs.append((folder / "s.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["source"] == "file:f.bin"

    def test_requires_exactly_one_source(self, capsys):
        assert run_main(["sparsity"]) == 2
        assert run_main(["sparsity", "--n", "4", "--input", "x.bin"]) == 2

    def test_variant_applies_only_to_a_witness(self, capsys, tmp_path):
        """--variant names a witness, so with --input it is a usage error."""
        path = tmp_path / "f.bin"
        write_binary(build_truncated_witness(4), path)
        assert run_main(["sparsity", "--input", str(path), "--variant", "chebyshev"]) == 2
        assert capsys.readouterr() == ("", "error: --variant applies only to --n\n")
        assert run_main(["sparsity", "--n", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["source"] == "witness:truncated:4"

    def test_input_above_sup_norm_one_is_rescaled(self, capsys, tmp_path):
        path = tmp_path / "big.bin"
        write_binary(constant_function(3, 5.0), path)
        assert run_main(["sparsity", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["scale"] == 5.0


@pytest.mark.parametrize("command", ["sparsity", "fourier"])
def test_missing_input_is_a_usage_error(capsys, tmp_path, command):
    missing = tmp_path / "missing.bin"
    assert run_main([command, "--input", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("change", [-1, 8], ids=["one-byte-short", "one-double-long"])
@pytest.mark.parametrize("command", ["sparsity", "fourier"])
def test_input_of_the_wrong_length_is_a_usage_error(capsys, tmp_path, command, change):
    """The length is checked against the header before the table is read: exit 2, print nothing."""
    path = tmp_path / "table.bin"
    write_binary(CubeFunction.from_values(3, np.arange(8.0)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
    assert run_main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: blob length {68 + change} does not match n=3 (expected 68)\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["sparsity", "fourier"])
def test_non_finite_input_is_a_usage_error(capsys, tmp_path, command, bad):
    """A table holding NaN or +-inf has no meaningful spectrum: exit 2 naming the value, print nothing."""
    values = np.arange(8.0)
    values[[2, 5]] = bad
    path = tmp_path / "bad.bin"
    write_binary(CubeFunction.from_values(3, values), path)
    assert run_main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: value table holds non-finite values: {bad}\n"


@pytest.mark.parametrize("command", ["sparsity", "fourier"])
def test_overflowing_spectrum_is_a_usage_error(capsys, tmp_path, command):
    """A finite table whose spectrum overflows to +-inf: exit 2 with one message for both commands."""
    path = tmp_path / "huge.bin"
    write_binary(CubeFunction.from_values(2, np.array([1e308, 1e308, 1e308, -1e308])), path)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert run_main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spectrum holds non-finite values: -inf, inf\n"


CAPPED_FLAGS = [
    (["proxy-check", "--n", "3", "--ell"], MAX_ELL),
    (["proxy-check", "--ell", "1", "--n"], MAX_DIM),
    (["audit", "--n", "4", "--m", "1", "--ell"], MAX_ELL),
    (["audit", "--m", "1", "--n"], MAX_DIM),
    (["lower-bound", "--n"], MAX_RECORD_DIM),
    (["sparsity", "--n"], MAX_RECORD_DIM),
]


class TestCaps:
    @pytest.mark.parametrize(("argv", "limit"), CAPPED_FLAGS,
                             ids=[" ".join(argv) for argv, _ in CAPPED_FLAGS])
    def test_accepts_limit_rejects_next(self, capsys, tmp_path, argv, limit):
        out = ["--out", str(tmp_path / "out.json")]
        assert run_main(argv + [str(limit)] + out) == 0
        assert run_main(argv + [str(limit + 1)] + out) == 2
        if argv[-1] == "--ell":
            message = library_error(linear_proxy._check_ell, limit + 1)
        else:
            message = library_error(cube_fourier._check_dim, limit + 1, limit)
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_help_states_the_caps(self, capsys):
        with pytest.raises(SystemExit):
            run_main(["proxy-check", "--help"])
        text = capsys.readouterr().out
        assert f"1..{MAX_ELL}" in text
        assert f"1..{MAX_DIM}" in text


ALL_ERRORS = "every row of the sweep is an error row, so it checked nothing"
# names that do not read back through Norm.lp to themselves: no p, a float spelling of an integer, p < 1,
# no number, a p that overflows to the inf of linf, and a capital letter
NOT_NORM_NAMES = ["lp", "l3.0", "l0.5", "lnan", "l1e999", "L2"]


def _no_norm(name):
    return f"--norm must be l<p> for p >= 1 as Norm.name spells it (linf, l1, l2, l3, l2.5), got {name!r}"


# Audit sweep tables, byte for byte: the norm cell is the --norm flag, which is the audit object's norm name.
AUDIT_SWEEP_TABLES = [
    (["--n", "3,25", "--m", "2", "--norm", "l3", "--seed", "0,1"], """\
kind,n,m,ell,norm,seed,lhs,rhs_raw,ratio,derived_constant,slack,status,error
audit,3,2,1,l3,0,1.6014309329120553,3.4306789128084056,0.46679708990926805,12.489848193237492,41.247227887805977,ok,
audit,3,2,1,l3,1,1.6495760255926657,2.2733760502191802,0.72560631816000132,12.489848193237492,26.744545727786747,ok,
audit,25,2,,l3,0,,,,,,error,dimension 25 exceeds the cap 24
audit,25,2,,l3,1,,,,,,error,dimension 25 exceeds the cap 24
"""),
    (["--n", "3", "--m", "2,3", "--ell", "3", "--norm", "l1"], """\
kind,n,m,ell,norm,seed,lhs,rhs_raw,ratio,derived_constant,slack,status,error
audit,3,2,3,l1,0,2.2764815065869084,4.8751383094940097,0.46695731732443591,28.242640687119287,135.41029806846254,ok,
audit,3,3,3,l1,0,4.64628259059306,5.7634817975531307,0.80615897712483897,29.196152422706632,163.62521045626335,ok,
"""),
    (["--n", "4", "--m", "2"], """\
kind,n,m,ell,norm,seed,lhs,rhs_raw,ratio,derived_constant,slack,status,error
audit,4,2,1,linf,0,1.5903142367077299,3.9636304243922571,0.40122667010549362,13.65685424949238,52.540408768070954,ok,
"""),
]


# the columns of each sweep that hold its command's flags, in CSV order
SWEEP_FLAG_COLUMNS = {"proxy-check": ["ell", "n"], "audit": ["n", "m", "ell", "norm", "seed"],
                      "lower-bound": ["n", "variant"]}


def _cell(value):
    """A JSON value as a sweep writes it: empty if absent, floats to 17 significant digits."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _no_value(flag, text):
    """argparse's message for a grid flag whose list is empty."""
    return f"argument {flag}: {text!r} names no value, so the sweep would check nothing"


class TestSweep:
    def test_proxy_grid(self, capsys):
        assert run_main(["sweep", "proxy-check", "--ell", "1,3,5,7", "--n", "16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(cli.PROXY_SWEEP_FIELDS)
        assert len(lines) == 5
        assert all(line.split(",")[-2] == "ok" for line in lines[1:])

    def test_lower_bound_grid(self, capsys):
        assert run_main(["sweep", "lower-bound", "--n", "4,9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("variant", ["truncated", "chebyshev"])
    @pytest.mark.parametrize("n", [4, 13], ids=["instance", "scalar"])
    def test_lower_bound_row_is_the_lower_bound_json(self, capsys, tmp_path, n, variant):
        """Each cell of a lower-bound row is the same field of lower-bound's JSON, empty where it has none."""
        assert run_main(["lower-bound", "--n", str(n), "--variant", variant, "--out", str(tmp_path / "l.json")]) == 0
        payload = json.loads((tmp_path / "l.json").read_text())
        assert run_main(["sweep", "lower-bound", "--n", str(n), "--variant", variant]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["kind", "n", "variant", "mode", "witness_sup", "product_sup", "diff_sup", "tail_exact",
                          "tail_chain", "singleton_coefficient", "sparsity_counted", "sparsity_structural",
                          "field_norm_value", "linear_norm_value", "ratio", "status", "error"]
        assert row == ["lower-bound", *(_cell(payload.get(name)) for name in header[1:-2]), "ok", ""]
        assert payload["mode"] == ("instance" if n == 4 else "scalar")
        assert (row[header.index("ratio")] == "") == (n == 13)

    @pytest.mark.parametrize(("command", "grid", "count"), [
        ("proxy-check", ["--ell", "1,3", "--n", "1,8"], 4),
        ("audit", ["--n", "4", "--m", "2"], 1),
        ("audit", ["--n", "4,5", "--m", "3", "--norm", "linf,l3,l2.5", "--seed", "2"], 6),
        ("audit", ["--n", "4", "--m", "2", "--ell", "1,5", "--norm", "l1,l2", "--seed", "0:2"], 8),
        ("lower-bound", ["--n", "4,13", "--variant", "truncated,chebyshev"], 4),
    ], ids=["proxy-check", "audit-default", "audit-norms", "audit-ell-and-seeds", "lower-bound"])
    def test_row_is_its_commands_json(self, capsys, tmp_path, command, grid, count):
        """Each row re-runs as its command: the argv rebuilt from its flag cells prints JSON that echoes those
        flags, and every other cell is the same field of that JSON (an audit's, of its audit object)."""
        assert run_main(["sweep", command, *grid]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == count
        for cells in rows:
            assert (cells.pop("kind"), cells.pop("status"), cells.pop("error")) == (
                {"proxy-check": "proxy"}.get(command, command), "ok", "")
            flags = {name: cells.pop(name) for name in SWEEP_FLAG_COLUMNS[command]}
            out = tmp_path / "run.json"
            assert run_main([command, *(token for name, value in flags.items() for token in (f"--{name}", value)),
                             "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert {name: _cell(payload.get("config", payload)[name]) for name in flags} == flags
            fields = payload.get("audit", payload)
            assert cells == {name: _cell(fields.get(name)) for name in cells}
            if command != "lower-bound":  # only lower-bound has fields that one mode or variant lacks
                assert "" not in cells.values()

    def test_one_command_runs_an_acceptance_cell(self, capsys):
        """Every audit flag is a sweep axis: one sweep holds each audit the acceptance suite runs at (8, 4)."""
        assert run_main(["sweep", "audit", "--n", "8", "--m", "4", "--norm", "linf,l1,l2", "--seed", "0:50"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(row["norm"], row["seed"]) for row in rows] == [
            (norm, str(seed)) for norm in ("linf", "l1", "l2") for seed in range(50)]
        for row in rows:
            audit = json.loads(cli.audit_report_json(8, 4, row["norm"], int(row["seed"])))["audit"]
            assert row["status"] == "ok"
            assert [row[name] for name in ("lhs", "rhs_raw", "ratio", "derived_constant")] == [
                _cell(audit[name]) for name in ("lhs", "rhs_raw", "ratio", "derived_constant")]

    @pytest.mark.parametrize(("flags", "table"), AUDIT_SWEEP_TABLES,
                             ids=["l3-with-errors", "l1-fixed-ell", "linf-default"])
    def test_audit_table_bytes_are_unchanged(self, capsys, flags, table):
        assert run_main(["sweep", "audit", *flags]) == 0
        assert capsys.readouterr().out == table

    @pytest.mark.parametrize(("flags", "usage_error"), [
        (["proxy-check", "--ell", "", "--n", ""], _no_value("--ell", "")),
        (["proxy-check", "--n", "4"], "the following arguments are required: --ell"),
        (["proxy-check", "--ell", "3", "--n", "5:3"], _no_value("--n", "5:3")),
        (["lower-bound", "--n", "5:3"], _no_value("--n", "5:3")),
        (["lower-bound"], "the following arguments are required: --n"),
        (["audit", "--n", "5:3", "--m", "2"], _no_value("--n", "5:3")),
        (["audit", "--n", "5"], "the following arguments are required: --m"),
        (["audit", "--n", "3", "--m", "2", "--seed", "5:3"], _no_value("--seed", "5:3")),
        (["lower-bound", "--n", "3", "--variant", ","], _no_value("--variant", ",")),
    ], ids=["proxy-empty-ell-and-n", "proxy-no-ell", "proxy-empty-n", "lower-bound-empty-n", "lower-bound-no-n",
            "audit-empty-n", "audit-no-m", "audit-empty-seed", "lower-bound-empty-variant"])
    def test_empty_grid_is_a_usage_error(self, capsys, flags, usage_error):
        """A sweep that would check nothing cannot report that every bound holds: argparse names the flag."""
        with pytest.raises(SystemExit) as exit_:
            run_main(["sweep", *flags])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"\npisier-lab sweep {flags[0]}: error: {usage_error}\n")

    @pytest.mark.parametrize(("flags", "token"), [
        (["audit", "--n", "x", "--m", "2"], "x"),
        (["audit", "--n", "1:3:5", "--m", "2"], "1:3:5"),
        (["proxy-check", "--ell", "3", "--n", "4,5:y"], "5:y"),
    ], ids=["audit-n-word", "audit-n-two-colons", "proxy-n-bad-range"])
    def test_a_token_that_is_no_integer_is_a_usage_error(self, capsys, flags, token):
        """argparse names the flag and the token in the flag's own words, not the parsing function's name."""
        with pytest.raises(SystemExit) as exit_:
            run_main(["sweep", *flags])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"\npisier-lab sweep {flags[0]}: error: argument --n: "
                                     f"{token!r} is not an integer or a lo:hi range\n")

    def test_audit_rows_take_the_audit_ell(self, capsys, tmp_path):
        """--ell of an audit sweep is the audit's --ell: the row is the audit at that ell."""
        assert run_main(["audit", "--ell", "5", "--n", "4", "--m", "2", "--out", str(tmp_path / "a.json")]) == 0
        audit = json.loads((tmp_path / "a.json").read_text())["audit"]
        assert run_main(["sweep", "audit", "--ell", "5", "--n", "4", "--m", "2"]) == 0
        [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["ell"] == "5" == str(audit["ell"])
        assert [row[name] for name in ("lhs", "rhs_raw", "ratio")] == [_cell(audit[name]) for name in ("lhs", "rhs_raw", "ratio")]

    @pytest.mark.parametrize("argv", [
        ["proxy-check", "--ell", "3", "--n", "4", "--m", "5"],
        ["lower-bound", "--n", "4", "--ell", "3"],
        ["proxy-check", "--ell", "3", "--n", "4", "--seed", "1:3"],
        ["audit", "--n", "4", "--m", "2", "--variant", "chebyshev"],
    ], ids=["proxy-m", "lower-bound-ell", "proxy-seed", "audit-variant"])
    def test_a_flag_its_rows_do_not_read_is_a_usage_error(self, capsys, tmp_path, argv):
        """A sweep takes exactly its command's flags: any other exits 2 before any row runs."""
        out = tmp_path / "grid.csv"
        with pytest.raises(SystemExit) as exit_:
            run_main(["sweep", *argv, "--out", str(out)])
        assert exit_.value.code == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_audit_grid_with_seed_range(self, capsys):
        assert run_main(["sweep", "audit", "--n", "6", "--m", "4,8", "--seed", "0:3", "--norm", "l2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7

    def test_failed_instance_invariant_is_a_violation_row(self, capsys, monkeypatch):
        failing(monkeypatch, "instance-")
        assert run_main(["sweep", "lower-bound", "--n", "4,13"]) == 1
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (rows[0]["n"], rows[0]["status"]) == ("4", "violation")
        assert rows[0]["error"].startswith("instance-field-norm: ")
        assert rows[0]["witness_sup"] != ""  # a failed check leaves the row's measurements in place
        assert rows[1]["status"] == "ok"  # scalar mode builds no instance

    @pytest.mark.parametrize(("kind", "flags", "prefix"), [
        ("proxy-check", ["--ell", "1,3", "--n", "4"], "proxy-l1-bound"),
        ("audit", ["--n", "4", "--m", "2", "--seed", "0:2"], "split-triangle-inequality"),
    ])
    def test_failed_claim_is_a_violation_row(self, capsys, monkeypatch, kind, flags, prefix):
        failing(monkeypatch, prefix)
        assert run_main(["sweep", kind, *flags]) == 1
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["status"] for row in rows] == ["violation", "violation"]
        assert all(row["error"].startswith(f"{prefix}: ") and ";" not in row["error"] for row in rows)

    @pytest.mark.parametrize(("flags", "message"), [
        *((["--m", "2", "--norm", name], _no_norm(name)) for name in NOT_NORM_NAMES),
        (["--m", "0"], "--m must be positive, got 0"),
        (["--m", "2", "--seed", "-1"], "--seed must be nonnegative"),
        (["--m", "524289"], f"--n 5 --m 524289 asks for a 2^5 x 524289 table; 2^n * m is capped at 2^{MAX_DIM} doubles"),
    ])
    def test_audit_rows_get_the_audit_preconditions(self, capsys, flags, message):
        assert run_main(["audit", "--n", "5", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run_main(["sweep", "audit", "--n", "5", *flags]) == 2
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [(row["status"], row["error"]) for row in rows] == [("error", message)]
        assert captured.err == f"error: {ALL_ERRORS}\n"

    @pytest.mark.parametrize(("command", "flags", "message"), [
        ("proxy-check", ["--ell", "2", "--n", "8"], f"ell must be odd in 1..{MAX_ELL}, got 2"),
        ("proxy-check", ["--ell", "3", "--n", "30"], f"dimension 30 exceeds the cap {MAX_DIM}"),
        ("lower-bound", ["--n", "17"], f"dimension 17 exceeds the cap {MAX_RECORD_DIM}"),
        ("lower-bound", ["--n", "19"], f"dimension 19 exceeds the cap {MAX_RECORD_DIM}"),
        ("lower-bound", ["--n", "4", "--variant", "foo"], "unknown witness variant 'foo'"),
    ], ids=["proxy-even-ell", "proxy-n-above-cap", "lower-bound-n-17", "lower-bound-n-19", "lower-bound-variant"])
    def test_rows_get_their_command_preconditions(self, capsys, command, flags, message):
        """Above a cap a row is an error with the command's message, not a row past the cap."""
        assert run_main([command, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run_main(["sweep", command, *flags]) == 2
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [(row["status"], row["error"]) for row in rows] == [("error", message)]
        assert captured.err == f"error: {ALL_ERRORS}\n"

    def test_a_sweep_of_error_rows_writes_its_table_then_exits_2(self, capsys, tmp_path):
        """Every row an error: the table is still written, then one error line, since nothing was checked."""
        out = tmp_path / "grid.csv"
        assert run_main(["sweep", "lower-bound", "--n", "17,18", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {ALL_ERRORS}\n")
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(row["n"], row["status"], row["error"]) for row in rows] == [
            (str(n), "error", f"dimension {n} exceeds the cap {MAX_RECORD_DIM}") for n in (17, 18)]

    def test_a_violation_outranks_error_rows(self, capsys, monkeypatch):
        failing(monkeypatch, "proxy-l1-bound")
        assert run_main(["sweep", "proxy-check", "--ell", "2,3", "--n", "4"]) == 1
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["status"] for row in rows] == ["error", "violation"]

    @pytest.mark.parametrize(("command", "flags", "module", "name", "hit"), [
        ("proxy-check", ["--ell", "3"], linear_proxy, "proxy_properties", lambda kernel, n: n == 5),
        ("audit", ["--m", "2"], pisier_bench, "decomposition_audit", lambda f, norm, ell: f.n == 5),
    ], ids=["proxy-check", "audit"])
    def test_any_other_exception_stops_a_sweep_as_it_stops_a_run(self, capsys, monkeypatch, command, flags,
                                                                  module, name, hit):
        """Only a usage or precondition error is an error row: a programming error is no row's outcome."""
        original = getattr(module, name)

        def broken(*args, **kwargs):
            if hit(*args, **kwargs):
                raise TypeError("list indices must be integers or slices, not str")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, broken)
        for argv in ([command, *flags, "--n", "5"], ["sweep", command, *flags, "--n", "4,5"]):
            with pytest.raises(TypeError, match="^list indices must be integers"):
                run_main(argv)

    def test_row_errors_recorded_not_fatal(self, capsys):
        # even ell rows fail, the sweep still completes
        import csv as csv_mod
        import io

        assert run_main(["sweep", "proxy-check", "--ell", "2,3", "--n", "4"]) == 0
        rows = list(csv_mod.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3
        status = rows[0].index("status")
        assert rows[1][status] == "error"
        assert rows[2][status] == "ok"


# Flags that break a rule the library states, for each command that takes them: the cube dimension
# (--n 0 and one above the command's cap), ell (even and above MAX_ELL) and the witness variant; and
# the library call that owns the rule, with the arguments that break it.
BROKEN_LIBRARY_RULES = [
    *((command, [*flags, "--n", str(n)], cube_fourier._check_dim, (n, cap))
      for command, flags, cap in [("proxy-check", ["--ell", "3"], MAX_DIM), ("audit", ["--m", "2"], MAX_DIM),
                                  ("lower-bound", [], MAX_RECORD_DIM), ("sparsity", [], MAX_RECORD_DIM)]
      for n in (0, cap + 1)),
    *((command, [*flags, "--ell", str(ell)], linear_proxy._check_ell, (ell,))
      for command, flags in [("proxy-check", ["--n", "4"]), ("audit", ["--n", "4", "--m", "2"])]
      for ell in (2, MAX_ELL + 2)),
    *((command, ["--n", "4", "--variant", "foo"], lower_bound.build_witness, (4, "foo"))
      for command in ("lower-bound", "sparsity")),
]


class TestLibraryRules:
    """The CLI states no rule of its own for n, ell or the variant: a run prints the library's error, and a
    sweep row holds it."""

    @pytest.mark.parametrize(("command", "flags", "call", "args"), BROKEN_LIBRARY_RULES,
                             ids=[" ".join([command, *flags]) for command, flags, *_ in BROKEN_LIBRARY_RULES])
    def test_a_broken_rule_is_the_library_error(self, capsys, command, flags, call, args):
        message = library_error(call, *args)
        assert run_main([command, *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        if command == "sparsity":  # no sweep
            return
        assert run_main(["sweep", command, *flags]) == 2
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [(row["status"], row["error"]) for row in rows] == [("error", message)]
        assert captured.err == f"error: {ALL_ERRORS}\n"

    @pytest.mark.parametrize("flags", [["--n", str(MAX_DIM + 1), "--m", "2"],
                                       ["--n", "4", "--m", "2", "--ell", "2"]], ids=["n-above-cap", "even-ell"])
    def test_an_audit_fails_before_it_draws(self, monkeypatch, flags):
        def draw(n, m, seed):
            raise AssertionError("the audit drew its table before it checked its flags")

        monkeypatch.setattr(cli, "random_vector_function", draw)
        assert run_main(["audit", *flags]) == 2


class TestFourier:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "f.bin"
        rng = np.random.default_rng(0)
        f = CubeFunction.from_values(5, rng.standard_normal(32))
        write_binary(f, path)
        assert run_main(["fourier", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 5
        rebuilt = np.zeros(32)
        for mask, coeff in payload["spectrum"].items():
            rebuilt[int(mask)] = coeff
        assert np.abs(rebuilt - f.spectrum).max() < 1e-15

    def test_threshold_drops_noise(self, capsys, tmp_path):
        path = tmp_path / "w.bin"
        write_binary(build_truncated_witness(4), path)
        assert run_main(["fourier", "--input", str(path), "--threshold", "1e-8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["spectrum"]) == 8

    def test_streamed_output_is_the_library_text(self, capsys, tmp_path, monkeypatch):
        """Written a piece at a time, to stdout or --out: to_spectrum_json's text and a newline."""
        monkeypatch.setattr(cube_fourier, "_JSON_ENTRIES", 1 << 10)
        path = tmp_path / "f.bin"
        f = CubeFunction.from_values(12, np.random.default_rng(12).standard_normal(1 << 12))
        write_binary(f, path)
        want = cube_fourier.to_spectrum_json(f) + "\n"
        assert run_main(["fourier", "--input", str(path)]) == 0
        assert capsys.readouterr().out == want
        out = tmp_path / "spectrum.json"
        assert run_main(["fourier", "--input", str(path), "--out", str(out)]) == 0
        assert out.read_text() == want

    def test_a_failed_check_opens_no_out_file(self, capsys, tmp_path):
        path = tmp_path / "w.bin"
        write_binary(build_truncated_witness(4), path)
        out = tmp_path / "spectrum.json"
        assert run_main(["fourier", "--input", str(path), "--threshold", "nan", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_threshold_must_be_finite(self, capsys, tmp_path, threshold):
        path = tmp_path / "w.bin"
        write_binary(build_truncated_witness(4), path)
        assert run_main(["fourier", "--input", str(path), "--threshold", threshold]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: threshold must be finite, got {float(threshold)}\n"


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pisier_lab.cli", "proxy-check", "--ell", "1", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ell"] == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5", " 2"])
    def test_import_touches_no_environment_variable(self, value):
        """Importing the package neither fails on a variable's value nor writes a variable."""
        import os

        env = dict(os.environ, PISIER_LAB_THREADS=value)
        for var in BLAS_THREAD_VARS + ("NUMEXPR_NUM_THREADS",):
            env.pop(var, None)
        script = ("import os, sys; before = dict(os.environ); import pisier_lab; "
                  "after = dict(os.environ); "
                  "sys.exit(0 if after == before else f'changed: {set(before.items()) ^ set(after.items())}')")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        """An n = 18 table: above one butterfly block, so its transform runs on every worker."""
        path = tmp_path_factory.mktemp("threads") / "table.bin"
        write_binary(CubeFunction.from_values(18, np.random.default_rng(18).standard_normal(1 << 18)), path)
        return path

    @pytest.mark.parametrize("argv", [
        ["audit", "--n", "14", "--m", "32"],
        ["lower-bound", "--n", "12", "--variant", "truncated"],
        ["fourier", "--input", "{table}"],
        ["sparsity", "--input", "{table}"],
    ], ids=["audit", "lower-bound", "fourier", "sparsity"])
    def test_output_is_byte_identical_at_every_worker_count(self, argv, table, capsys, monkeypatch):
        """Tables above one butterfly block print the same bytes at 1, 2 and 3 butterfly workers."""
        argv = [arg.format(table=table) for arg in argv]
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
            assert run_main(argv) == 0, argv
            outputs.append(capsys.readouterr().out.encode())
        assert len(set(outputs)) == 1, argv

    def test_output_is_byte_identical_at_every_thread_count(self, capsys):
        """The audit prints the same bytes in process and with numpy's BLAS on one thread or two, or on the
        kernels of older CPUs: the package makes no BLAS call whose summation order could show.  At m = 2895 the
        l2 audit reads only the spectrum, so its linf twin is what builds lin f at that shape."""
        import os

        cases = [(["audit", "--n", "14", "--m", "32"], [dict.fromkeys(BLAS_THREAD_VARS, t) for t in ("1", "2")]),
                 *[(["audit", "--n", "8", "--m", "2895", "--norm", norm],
                    [{"OPENBLAS_CORETYPE": core} for core in ("Nehalem", "Prescott")]) for norm in ("l2", "linf")]]
        for argv, settings in cases:
            assert run_main(argv) == 0
            outputs = [capsys.readouterr().out.encode()]
            for setting in settings:
                env = dict(os.environ, **setting)
                proc = subprocess.run([sys.executable, "-m", "pisier_lab.cli", *argv], capture_output=True, env=env)
                assert proc.returncode == 0, proc.stderr
                outputs.append(proc.stdout)
            assert len(set(outputs)) == 1, (argv, settings)

    @pytest.mark.parametrize("patched", [False, True])
    def test_verdict_survives_python_optimize(self, patched):
        """Under python -O, which strips assert statements, a failed claim still exits 1 with its line."""
        script = "import sys; from pisier_lab import cli, report; "
        if patched:
            script += "report.TOLERANCES['kernel-l1-bound'] = -1e9; "
        script += "sys.exit(cli.main(['proxy-check', '--ell', '3', '--n', '4']))"
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
        if not patched:
            assert (proc.returncode, proc.stderr) == (0, "")
            return
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("violation: kernel-l1-bound: ")

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pisier_lab.cli", "audit", "--n", "99", "--m", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


AUDIT_SCANS = {"norm rows", "gate", "level rows"}


class TestOneBlockSize:
    """cube_fourier._BLOCK_DOUBLES sizes every blocked scan, and no block size changes an output."""

    BLOCK = 1 << 6

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        """An n = 9 table: its spectrum, 512 doubles, spans several blocks of BLOCK."""
        path = tmp_path_factory.mktemp("block") / "table.bin"
        write_binary(CubeFunction.from_values(9, np.random.default_rng(9).standard_normal(1 << 9)), path)
        return path

    @staticmethod
    def spy(monkeypatch):
        """(scan, items, doubles per item) of every block the norm rows, the sandwich gate, the level multiplier's
        rows, the l2 audit's spectrum rows, the embedding check and the sparsity count take."""
        blocks = []
        lp_rows, gate_points = Norm._lp_rows, vector_field._gate_points
        odd_parity, above, walk = lower_bound._odd_parity, lower_bound._above, cube_fourier._blocks
        walkers = {"level_multiply": "level rows", "_parseval_terms": "mass rows"}

        def spied_lp(norm, block):
            blocks.append(("norm rows", block.shape[0], block.shape[1]))
            return lp_rows(norm, block)

        def spied_gate(m):
            points = gate_points(m)
            yield next(points)  # the flat vectors, one pair of rows and no walk
            for block in points:
                blocks.append(("gate", block.shape[0] // 2, 2 * m))
                yield block

        def spied_parity(rows, masks):
            blocks.append(("embedding check", rows.stop - rows.start, len(masks)))
            return odd_parity(rows, masks)

        def spied_above(spec, threshold):
            blocks.append(("sparsity count", spec.size, 1))
            return above(spec, threshold)

        def spied_walk(count, width, budget=None):
            scan = walkers.get(sys._getframe(1).f_code.co_name)  # the function that takes the walk
            for block in walk(count, width, budget):
                if scan:
                    blocks.append((scan, block.stop - block.start, width))
                yield block

        monkeypatch.setattr(Norm, "_lp_rows", spied_lp)
        monkeypatch.setattr(vector_field, "_gate_points", spied_gate)
        monkeypatch.setattr(lower_bound, "_odd_parity", spied_parity)
        monkeypatch.setattr(lower_bound, "_above", spied_above)
        monkeypatch.setattr(cube_fourier, "_blocks", spied_walk)
        monkeypatch.setattr(vector_field, "_blocks", spied_walk)
        monkeypatch.setattr(pisier_bench, "_blocks", spied_walk)
        return blocks

    @pytest.mark.parametrize(("argv", "scans"), [
        (["audit", "--n", "8", "--m", "4", "--norm", "l2"], {"norm rows", "gate", "mass rows"}),
        (["audit", "--n", "8", "--m", "4", "--norm", "l3"], AUDIT_SCANS),
        (["audit", "--n", "8", "--m", "4", "--norm", "linf"], AUDIT_SCANS),
        (["lower-bound", "--n", "9", "--variant", "truncated"], {"norm rows", "embedding check"}),
        (["lower-bound", "--n", "9", "--variant", "chebyshev"], {"norm rows", "embedding check"}),
        (["sparsity", "--input", "{table}"], {"sparsity count"}),
        (["fourier", "--input", "{table}"], set()),
    ], ids=["audit-l2", "audit-l3", "audit-linf", "lower-bound-truncated", "lower-bound-chebyshev", "sparsity",
            "fourier"])
    def test_blocks_of_one_size_print_the_same_bytes(self, argv, scans, table, capsys, monkeypatch):
        """With _BLOCK_DOUBLES at 2^6, at 1 and 2 workers, each command prints the bytes it prints at 2^16,
        and every scan it runs takes blocks of at most 2^6 doubles, or of one item where an item is wider."""
        argv = [arg.format(table=table) for arg in argv]
        assert run_main(argv) == 0
        want = capsys.readouterr().out
        blocks = self.spy(monkeypatch)
        monkeypatch.setattr(cube_fourier, "_BLOCK_DOUBLES", self.BLOCK)
        for workers in (1, 2):
            monkeypatch.setattr(cube_fourier, "_WORKERS", workers)
            assert run_main(argv) == 0
            assert capsys.readouterr().out == want
        assert {scan for scan, _, _ in blocks} == scans
        assert [b for b in blocks if b[1] > max(1, self.BLOCK // b[2])] == []
