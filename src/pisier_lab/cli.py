"""Batch experiment runner: every verification as a subcommand.

Exit codes: 0 all checked bounds hold, 1 a checked bound was violated,
2 usage or precondition error.  JSON output is emitted with sorted keys so
identical configurations produce byte-identical files; CSV uses '.' decimals
and 17 significant digits so doubles round-trip.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from . import cube_fourier, linear_proxy, lower_bound, pisier_bench, vector_field
from .cube_fourier import MAX_DIM
from .linear_proxy import MAX_ELL
from .lower_bound import MAX_RECORD_DIM, WITNESS_VARIANTS
from .pisier_bench import AUDIT_CSV_FIELDS, MAX_AUDIT_DIM
from .report import BoundViolationError
from .vector_field import GATE_SAMPLES

_MOMENT_TOL = 1e-10

LOWER_CSV_FIELDS = (
    "n", "variant", "mode", "witness_sup", "product_sup", "diff_sup", "tail_exact",
    "tail_chain", "singleton_coefficient", "sparsity_counted", "sparsity_structural",
    "field_norm_value", "linear_norm_value", "ratio",
)
PROXY_SWEEP_FIELDS = (
    "kind", "ell", "n", "phi_l1", "phi_l1_bound", "proxy_l1", "proxy_l1_bound",
    "max_deviation", "deviation_bound", "status", "error",
)
LOWER_SWEEP_FIELDS = (
    "kind", "n", "variant", "witness_sup", "singleton_coefficient", "sparsity",
    "ratio", "status", "error",
)
AUDIT_SWEEP_FIELDS = (
    "kind", "n", "m", "ell", "norm", "seed", "lhs", "rhs_raw", "ratio",
    "derived_constant", "slack", "status", "error",
)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _require_n(n: int, cap: int) -> None:
    _require(1 <= n <= cap, f"--n must lie in 1..{cap}, got {n}")


def _require_ell(ell: int) -> None:
    _require(ell % 2 == 1 and 1 <= ell <= MAX_ELL, f"--ell must be odd in 1..{MAX_ELL}, got {ell}")


def _emit_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_rows(fh, fields: tuple | None, rows: list[tuple]) -> None:
    """CSV rows with '.' decimals and 17 significant digits; the header unless fields is None."""
    writer = csv.writer(fh, lineterminator="\n")
    if fields is not None:
        writer.writerow(fields)
    writer.writerows([_fmt_cell(v) for v in row] for row in rows)


def _csv_text(fields: tuple, rows: list[tuple]) -> str:
    buf = io.StringIO()
    _write_rows(buf, fields, rows)
    return buf.getvalue()


def _append_csv(path: str, fields: tuple, rows: list[tuple]) -> None:
    target = Path(path)
    fresh = not target.exists() or target.stat().st_size == 0
    with open(target, "a", newline="") as fh:
        _write_rows(fh, fields if fresh else None, rows)


def _norm(name: str, p: float | None) -> vector_field.Norm:
    return vector_field.Norm.lp({"linf": math.inf, "l1": 1.0, "l2": 2.0}.get(name, p))


def random_vector_function(n: int, m: int, seed: int) -> vector_field.VectorFunction:
    """Seeded instance: spectrum entries i.i.d. standard normal, drawn as (2^n, m)."""
    rng = np.random.default_rng(seed)
    return vector_field.VectorFunction.from_spectrum_matrix(n, rng.standard_normal((1 << n, m)))


# ---------------------------------------------------------------------------
# proxy-check


def proxy_check_payload(ell: int, n: int) -> dict[str, Any]:
    """Check the preconditions, then every kernel and proxy claim: proxy-check and each proxy sweep row."""
    _require_ell(ell)
    _require_n(n, MAX_DIM)
    kernel = linear_proxy.ProxyKernel(ell)
    violations: list[str] = []

    moments = [linear_proxy.kernel_moment(kernel, k) for k in range(ell + 1)]
    for k, value in enumerate(moments):
        target = 1.0 if k == 1 else 0.0
        if abs(value - target) > _MOMENT_TOL:
            violations.append(f"moment[{k}] = {value!r} misses {target} beyond {_MOMENT_TOL}")

    try:
        phi_l1 = linear_proxy.kernel_l1(kernel)
    except BoundViolationError as exc:
        violations.append(str(exc))
        phi_l1 = exc.report.lhs
    try:
        p_l1 = linear_proxy.proxy_l1(kernel, n)
    except BoundViolationError as exc:
        violations.append(str(exc))
        p_l1 = exc.report.lhs

    coeffs = linear_proxy.proxy_level_coeffs(kernel, n)
    dev_bound = linear_proxy.deviation_bound(ell)
    linear_levels = np.zeros(n + 1)
    linear_levels[1] = 1.0
    mismatch_low = float(np.abs(coeffs[: min(ell, n) + 1] - linear_levels[: min(ell, n) + 1]).max())
    if mismatch_low > _MOMENT_TOL:
        violations.append(f"proxy differs from the linear levels below ell by {mismatch_low!r}")
    max_dev = float(np.abs(coeffs - linear_levels).max())
    if max_dev > dev_bound:
        violations.append(f"level deviation {max_dev!r} exceeds 8*ell/2^ell = {dev_bound!r}")

    return {
        "command": "proxy-check",
        "ell": ell,
        "n": n,
        "grid_size": kernel.size,
        "moments": [float(v) for v in moments],
        "phi_l1": float(phi_l1),
        "phi_l1_bound": 4.0 * ell,
        "proxy_l1": float(p_l1),
        "proxy_l1_bound": 8.0 * ell,
        "level_coeffs": [float(c) for c in coeffs],
        "deviation_bound": dev_bound,
        "max_deviation": max_dev,
        "mismatch_below_ell": mismatch_low,
        "violations": violations,
    }


def cmd_proxy_check(args: argparse.Namespace) -> int:
    payload = proxy_check_payload(args.ell, args.n)
    _emit_text(_json_text(payload), args.out)
    for violation in payload["violations"]:
        print(f"violation: {violation}", file=sys.stderr)
    return 1 if payload["violations"] else 0


# ---------------------------------------------------------------------------
# audit


def run_audit(n: int, m: int, norm: str, seed: int, ell: int | None,
              p: float | None) -> pisier_bench.PisierAudit:
    """Check the preconditions, then audit the seeded instance: the one path of audit and its sweep."""
    _require_n(n, MAX_AUDIT_DIM)
    _require(m >= 1, f"--m must be positive, got {m}")
    _require((1 << n) * m <= 1 << MAX_DIM,
             f"--n {n} --m {m} asks for a 2^{n} x {m} table; 2^n * m is capped at 2^{MAX_DIM} doubles")
    _require((GATE_SAMPLES + 2 * m) * m <= 1 << MAX_DIM,
             f"--m {m} asks for a {GATE_SAMPLES + 2 * m} x {m} sandwich gate table; "
             f"({GATE_SAMPLES} + 2m) * m is capped at 2^{MAX_DIM} doubles")
    if ell is not None:
        _require_ell(ell)
    _require(norm != "lp" or (p is not None and p >= 1), "--norm lp needs --p >= 1")
    _require(p is None or math.isfinite(p), f"--p must be finite, got {p}; use --norm linf for the sup norm")
    _require(p is None or norm == "lp", "--p applies only to --norm lp")
    _require(seed >= 0, "--seed must be nonnegative")
    f = random_vector_function(n, m, seed)
    return pisier_bench.decomposition_audit(f, _norm(norm, p), ell=ell)


def _audit_text(audit: pisier_bench.PisierAudit, config: dict[str, Any]) -> str:
    payload = {
        "command": "audit",
        "config": {**config, "sample_count": GATE_SAMPLES},
        "audit": audit.to_dict(),
    }
    return _json_text(payload)


def audit_report_json(n: int, m: int, norm: str, seed: int) -> str:
    """The audit subcommand's exact JSON text at the default ell, shared with the test suite."""
    config = {"n": n, "m": m, "ell": None, "norm": norm, "p": None, "seed": seed}
    return _audit_text(run_audit(**config), config)


def cmd_audit(args: argparse.Namespace) -> int:
    config = {key: getattr(args, key) for key in ("n", "m", "ell", "norm", "p", "seed")}
    audit = run_audit(**config)
    _emit_text(_audit_text(audit, config), args.out)
    if args.csv_path:
        _append_csv(args.csv_path, AUDIT_CSV_FIELDS, [audit.csv_row()])
    return 0


# ---------------------------------------------------------------------------
# lower-bound


def lower_bound_payload(n: int, variant: str, scalar_only: bool = False) -> dict[str, Any]:
    """Check the preconditions, then build and verify the witness: lower-bound and each of its sweep rows."""
    _require_n(n, MAX_RECORD_DIM)
    instance_mode = n <= lower_bound.MAX_INSTANCE_DIM and not scalar_only
    violations: list[str] = []

    instance = lower_bound.lower_bound_instance(n, variant) if instance_mode else None
    witness = instance.witness if instance_mode else lower_bound.build_witness(n, variant)
    witness_sup = witness.sup_norm()
    singletons = [1 << j for j in range(n)]
    singles = witness.spectrum[singletons]
    roundtrip = cube_fourier.fwht(witness.values)[singletons]
    counted = cube_fourier.spectrum_sparsity(witness)
    structural = lower_bound.structural_sparsity(n, variant)

    payload: dict[str, Any] = {
        "command": "lower-bound",
        "n": n,
        "variant": variant,
        "mode": "instance" if instance_mode else "scalar",
        "witness_sup": witness_sup,
        "singleton_coefficient": float(singles[0]),
        "singleton_spread": float(np.abs(singles - singles[0]).max()),
        "singleton_roundtrip_dev": float(np.abs(roundtrip - singles).max()),
        "sparsity_counted": int(counted),
        "sparsity_structural": int(structural),
        "family_log": math.log(max(counted, 1)),
        "family_loglog_ratio": (math.log(counted) / math.log(math.log(counted))
                                if counted > 3 else 0.0),
    }

    if variant == "truncated":
        product = lower_bound.build_product_witness(n)
        tail = lower_bound.truncation_tail_bound(n)
        diff_sup = (product - witness).sup_norm()
        payload.update({
            "product_sup": product.sup_norm(),
            "diff_sup": diff_sup,
            "tail_exact": tail,
            "tail_chain": lower_bound.truncation_tail_chain(n),
            "truncation_level": lower_bound.truncation_level(n),
        })
        if payload["product_sup"] > 3.0:
            violations.append(f"product witness sup norm {payload['product_sup']!r} exceeds 3")
        if diff_sup > tail + 1e-15:
            violations.append(f"truncation error {diff_sup!r} exceeds the tail bound {tail!r}")
        expected = 1.0 / math.sqrt(n)
        if abs(float(singles[0]) - expected) > 1e-12 or payload["singleton_spread"] > 1e-12:
            violations.append("singleton coefficients miss 1/sqrt(n) beyond 1e-12")
        if payload["singleton_roundtrip_dev"] > 1e-12:
            violations.append("singleton coefficients drift beyond 1e-12 after a transform round trip")
        if counted != structural:
            violations.append(f"counted sparsity {counted} != structural count {structural}")
    else:
        if witness_sup > 1.0 + 1e-12:
            violations.append(f"chebyshev witness sup norm {witness_sup!r} exceeds 1")
        if payload["singleton_spread"] > 1e-12:
            violations.append("singleton coefficients are not symmetric across coordinates")
        if counted > structural:
            violations.append(f"counted sparsity {counted} exceeds the structural bound {structural}")

    if instance_mode:
        payload.update({
            "family_size": len(instance.family),
            "field_norm_value": instance.field_norm_value,
            "linear_norm_value": instance.linear_norm_value,
            "ratio": instance.ratio,
        })

    payload["violations"] = violations
    return payload


def cmd_lower_bound(args: argparse.Namespace) -> int:
    payload = lower_bound_payload(args.n, args.variant, args.scalar_only)
    if args.emit == "json":
        _emit_text(_json_text(payload), args.out)
    else:
        row = tuple(payload.get(k) for k in LOWER_CSV_FIELDS)
        if args.out:
            _append_csv(args.out, LOWER_CSV_FIELDS, [row])
        else:
            sys.stdout.write(_csv_text(LOWER_CSV_FIELDS, [row]))
    for violation in payload["violations"]:
        print(f"violation: {violation}", file=sys.stderr)
    return 1 if payload["violations"] else 0


# ---------------------------------------------------------------------------
# sparsity


def cmd_sparsity(args: argparse.Namespace) -> int:
    _require((args.input_path is None) != (args.n is None), "pass exactly one of --input or --n")
    if args.input_path is not None:
        f = cube_fourier.read_binary(args.input_path)
        source = f"file:{args.input_path}"
    else:
        _require_n(args.n, MAX_RECORD_DIM)
        f = lower_bound.build_witness(args.n, args.variant)
        source = f"witness:{args.variant}:{args.n}"
    report = lower_bound.sparsity_inequality_check(f, rescale=args.rescale)
    payload = {"command": "sparsity", "source": source, **report.to_dict()}
    _emit_text(_json_text(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_rows(fields: tuple, grid, row) -> tuple[list[tuple], bool]:
    """Run row(*base[1:]) for each base in grid; base fills the leading columns.

    row returns a mapping from column name to value; its "violations" make the
    row a violation, as does a BoundViolationError.  Any other exception is
    recorded as an error and the sweep goes on.  Unfilled columns stay empty.
    """
    rows, violated = [], False
    for base in grid:
        cells = dict(zip(fields, base))
        try:
            values = row(*base[1:])
            cells.update(values)
            problems = values.get("violations", [])
            status, error = ("violation" if problems else "ok"), "; ".join(problems)
        except BoundViolationError as exc:
            status, error = "violation", str(exc)
        except Exception as exc:  # noqa: BLE001 - recorded per row, sweep continues
            status, error = "error", str(exc)
        violated |= status == "violation"
        rows.append(tuple(cells.get(name) for name in fields[:-2]) + (status, error))
    return rows, violated


def _lower_sweep_row(n: int, variant: str, scalar_only: bool) -> dict[str, Any]:
    payload = lower_bound_payload(n, variant, scalar_only)
    return {**payload, "sparsity": payload["sparsity_counted"]}


def _audit_sweep_row(n: int, m: int, ell: int | None, norm: str, seed: int,
                     p: float | None) -> dict[str, Any]:
    return dict(zip(AUDIT_CSV_FIELDS, run_audit(n, m, norm, seed, ell, p).csv_row()))


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.kind == "proxy":
        fields, row = PROXY_SWEEP_FIELDS, proxy_check_payload
        grid = [("proxy", ell, n) for ell in args.ells for n in args.ns]
    elif args.kind == "lower-bound":
        fields, row = LOWER_SWEEP_FIELDS, partial(_lower_sweep_row, scalar_only=args.scalar_only)
        grid = [("lower-bound", n, variant)
                for n in args.ns for variant in args.variants or ["truncated"]]
    else:
        fields, row = AUDIT_SWEEP_FIELDS, partial(_audit_sweep_row, p=args.p)
        grid = [("audit", n, m, args.ell, args.norm, seed)
                for n in args.ns for m in args.ms for seed in args.seeds or [0]]
    rows, violated = _sweep_rows(fields, grid, row)
    _emit_text(_csv_text(fields, rows), args.out)
    return 1 if violated else 0


# ---------------------------------------------------------------------------
# fourier


def cmd_fourier(args: argparse.Namespace) -> int:
    f = cube_fourier.read_binary(args.input_path)
    _emit_text(cube_fourier.to_spectrum_json(f, threshold=args.threshold) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _int_list(text: str) -> list[int]:
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            lo, hi = token.split(":", 1)
            out.extend(range(int(lo), int(hi)))
        else:
            out.append(int(token))
    return out


def _str_list(text: str) -> list[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pisier-lab",
        description="Verifications for cube Fourier analysis, the linear proxy, "
                    "projection audits, and lower-bound witnesses.",
        epilog="Exit codes: 0 all bounds hold, 1 a bound was violated, 2 usage error. "
               "Set PISIER_LAB_THREADS to cap numeric thread pools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("proxy-check", help="verify the kernel and proxy bounds for one (ell, n)")
    p.add_argument("--ell", type=int, required=True, help=f"odd proxy parameter in 1..{MAX_ELL}")
    p.add_argument("--n", type=int, required=True, help=f"cube dimension in 1..{MAX_DIM}")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("audit", help="audit one seeded random instance end to end")
    p.add_argument("--n", type=int, required=True, help=f"cube dimension in 1..{MAX_AUDIT_DIM}")
    p.add_argument("--m", type=int, required=True,
                   help=f"target dimension; the 2**n x m table is capped at 2**n * m <= 2**{MAX_DIM}, "
                        f"the sandwich gate's ({GATE_SAMPLES} + 2m) x m table at ({GATE_SAMPLES} + 2m) * m "
                        f"<= 2**{MAX_DIM}")
    p.add_argument("--ell", type=int, default=None,
                   help="override the proxy parameter (default: smallest odd > log2(m)/2)")
    p.add_argument("--norm", default="linf", choices=["linf", "l1", "l2", "lp"])
    p.add_argument("--p", type=float, default=None, help="finite exponent >= 1 for --norm lp")
    p.add_argument("--seed", type=int, default=0,
                   help="spectrum entries are standard_normal((2**n, m)) from default_rng(seed)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--csv", dest="csv_path",
                   help=f"append a CSV row here (columns: {', '.join(AUDIT_CSV_FIELDS)})")

    p = sub.add_parser("lower-bound", help="build a witness and verify its properties")
    p.add_argument("--n", type=int, required=True,
                   help=f"cube dimension; instance mode up to {lower_bound.MAX_INSTANCE_DIM}, "
                        f"scalar mode up to {MAX_RECORD_DIM}")
    p.add_argument("--variant", default="truncated", choices=WITNESS_VARIANTS)
    p.add_argument("--scalar-only", action="store_true", help="skip the norm instance")
    p.add_argument("--emit", default="json", choices=["json", "csv"])
    p.add_argument("--out", help="write (json) or append (csv) here instead of stdout")

    p = sub.add_parser("sparsity", help="record log2 spectrum sparsity vs singleton mass")
    p.add_argument("--n", type=int, default=None,
                   help=f"build the witness at this dimension, in 1..{MAX_RECORD_DIM}")
    p.add_argument("--variant", default="truncated", choices=WITNESS_VARIANTS)
    p.add_argument("--input", dest="input_path", default=None,
                   help="check a serialized cube function instead of a witness")
    p.add_argument("--no-rescale", dest="rescale", action="store_false",
                   help="reject functions with sup norm above 1 instead of normalizing")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("sweep", help="grid-run one verification kind into a CSV table")
    p.add_argument("--kind", required=True, choices=["proxy", "lower-bound", "audit"])
    p.add_argument("--ell", dest="ells", type=_int_list, default=[],
                   help="comma list or lo:hi ranges (proxy kind)")
    p.add_argument("--fixed-ell", dest="ell", type=int, default=None,
                   help="proxy parameter override (audit kind)")
    p.add_argument("--n", dest="ns", type=_int_list, default=[], help="comma list or lo:hi ranges")
    p.add_argument("--m", dest="ms", type=_int_list, default=[], help="comma list (audit kind)")
    p.add_argument("--seeds", dest="seeds", type=_int_list, default=[],
                   help="comma list or lo:hi (audit kind)")
    p.add_argument("--variants", dest="variants", type=_str_list, default=[],
                   help="comma list (lower-bound kind)")
    p.add_argument("--norm", default="linf", choices=["linf", "l1", "l2", "lp"])
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--scalar-only", action="store_true")
    p.add_argument("--out", help="write the CSV table here instead of stdout")

    p = sub.add_parser("fourier", help="transform a serialized value table to a sparse spectrum")
    p.add_argument("--input", dest="input_path", required=True, help="binary cube-function file")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="drop coefficients at or below this magnitude (default: exact zeros)")
    p.add_argument("--out", help="write JSON here instead of stdout")

    return parser


_HANDLERS = {
    "proxy-check": cmd_proxy_check,
    "audit": cmd_audit,
    "lower-bound": cmd_lower_bound,
    "sparsity": cmd_sparsity,
    "sweep": cmd_sweep,
    "fourier": cmd_fourier,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BoundViolationError as exc:
        print(f"bound violated: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # OSError: an unreadable --input or unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
