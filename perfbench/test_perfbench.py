"""Checks on the benchmark itself, on reduced sizes of each workload's op mix.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import spans
import workloads
from pisier_lab import cli, cube_fourier, vector_field


def small_workloads(tmp_path, seed=5):
    spectrum_n = 10
    workloads.write_reference_table(workloads.spectrum_table_path(tmp_path, seed), spectrum_n,
                                    workloads.seeded_spectrum(seed, spectrum_n))
    return {
        "audit-large": workloads.audit_large(seed, n=8, ms=(16, 4)),
        "audit-sweep": workloads.audit_sweep(seed, grid=((6, 2), (8, 4)), seeds_per_cell=2),
        "lower-bound-instance": workloads.lower_bound_instance(seed, n=9),
        "spectrum-io": workloads.spectrum_io(seed, tmp_path, n=spectrum_n),
    }


# The layers each workload is meant to stress, and a count that must be positive there.
STRESSED = {
    "audit-large": {"cube_fourier": "cube_fourier.transform_calls",
                    "vector_field": "vector_field.norm_rows", "cli": "cli.output_bytes"},
    "audit-sweep": {"linear_proxy": "linear_proxy.kernel_builds",
                    "pisier_bench": "pisier_bench.audits", "cli": "cli.output_bytes"},
    "lower-bound-instance": {"lower_bound": "lower_bound.family_size",
                             "vector_field": "vector_field.norm_rows",
                             "cube_fourier": "cube_fourier.functions_built"},
    "spectrum-io": {"cube_fourier": "cube_fourier.io_bytes", "cli": "cli.output_bytes"},
}


def run_ops(workload):
    outputs = []
    for op in workload.ops:
        output = op.call()
        op.check(output)
        outputs.append(op.output_bytes(output))
    return outputs


def traced_run(workload):
    tracer = spans.Tracer()
    with tracer:
        outputs = run_ops(workload)
    return tracer, outputs


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Untraced outputs and two traced runs of every workload."""
    tmp_path = tmp_path_factory.mktemp("perfbench")
    out = {}
    for name, workload in small_workloads(tmp_path).items():
        plain = run_ops(workload)
        first, first_outputs = traced_run(workload)
        second, second_outputs = traced_run(workload)
        out[name] = (plain, (first, first_outputs), (second, second_outputs))
    return out


@pytest.mark.parametrize("name", sorted(STRESSED))
def test_stressed_layers_record_spans(runs, name):
    tracer = runs[name][1][0]
    metrics = tracer.metrics(1.0)
    for layer, count in STRESSED[name].items():
        assert tracer.spans[layer] > 0, f"{layer} recorded no span on {name}"
        assert metrics[count] > 0, f"{count} is zero on {name}"
    assert all(metrics[f"{layer}.errors"] == 0 for layer in spans.LAYERS)


@pytest.mark.parametrize("name", sorted(STRESSED))
def test_traced_outputs_are_byte_identical(runs, name):
    plain, (_, first_outputs), (_, second_outputs) = runs[name]
    assert first_outputs == plain
    assert second_outputs == plain


@pytest.mark.parametrize("name", sorted(STRESSED))
def test_counts_repeat_between_traced_runs(runs, name):
    first, second = runs[name][1][0], runs[name][2][0]
    assert first.counts == second.counts
    assert first.spans == second.spans
    assert first.errors == second.errors


def test_every_per_layer_metric_is_reported(runs):
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_s"}
    for name in STRESSED:
        assert set(runs[name][1][0].metrics(1.0)) == names


def test_uninstall_restores_every_binding():
    originals = (cube_fourier.fwht, vector_field.inverse_fwht_rows, cli._HANDLERS["audit"],
                 cube_fourier.CubeFunction.__dict__["values"], vector_field.Norm.evaluate_rows)
    with spans.Tracer():
        assert vector_field.inverse_fwht_rows is not originals[1]
        assert cli._HANDLERS["audit"] is not originals[2]
    assert (cube_fourier.fwht, vector_field.inverse_fwht_rows, cli._HANDLERS["audit"],
            cube_fourier.CubeFunction.__dict__["values"], vector_field.Norm.evaluate_rows) == originals


def test_lazy_fill_counts_only_when_the_slot_is_empty():
    f = cube_fourier.CubeFunction.from_spectrum(6, [1.0] + [0.0] * 63)
    with spans.Tracer() as tracer:
        f.values
        f.values
        f.spectrum
    assert tracer.counts["transform_calls"] == 1
    assert tracer.counts["transform_points"] == 64
    assert tracer.counts["transform_ops"] == 6 * 64


def test_oracles_reject_wrong_outputs(tmp_path):
    text = cli.audit_report_json(6, 4, "l2", 1)
    payload = json.loads(text)
    payload["audit"]["lhs"] = payload["audit"]["derived_constant"] * payload["audit"]["rhs_raw"] + 1e-6
    with pytest.raises(workloads.CheckFailed):
        workloads.check_audit(json.dumps(payload), 6, 4, "l2", 1)
    payload = json.loads(text)
    payload["audit"]["ell"] += 2
    with pytest.raises(workloads.CheckFailed):
        workloads.check_audit(json.dumps(payload), 6, 4, "l2", 1)

    lower = cli.lower_bound_payload(9, "chebyshev")
    workloads.check_lower_bound(lower, 9, "chebyshev")
    lower["linear_norm_value"] += 1e-9
    with pytest.raises(workloads.CheckFailed):
        workloads.check_lower_bound(lower, 9, "chebyshev")

    spectrum = workloads.seeded_spectrum(2, 10)
    mask, coeff = next(iter(spectrum.items()))
    shifted = {**spectrum, mask: coeff * (1 + 1e-11)}
    table = workloads.spectrum_table_path(tmp_path, 2)
    workloads.write_reference_table(table, 10, shifted)
    fourier = cube_fourier.to_spectrum_json(cube_fourier.read_binary(table), threshold=1e-9)
    workloads.check_fourier(fourier, 10, shifted)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_fourier(fourier, 10, spectrum)


def test_reference_table_matches_the_library_format(tmp_path):
    spectrum = workloads.seeded_spectrum(4, 10)
    table = workloads.spectrum_table_path(tmp_path, 4)
    workloads.write_reference_table(table, 10, spectrum)
    f = cube_fourier.read_binary(table)
    assert cube_fourier.to_bytes(f) == table.read_bytes()
    assert cube_fourier.spectrum_sparsity(f) == len(spectrum)
