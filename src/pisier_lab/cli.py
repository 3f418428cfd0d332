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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import cube_fourier, linear_proxy, lower_bound, pisier_bench, vector_field
from .cube_fourier import MAX_DIM
from .linear_proxy import MAX_ELL
from .lower_bound import MAX_RECORD_DIM, WITNESS_VARIANTS
from .pisier_bench import AUDIT_CSV_FIELDS, MAX_AUDIT_DIM
from .report import BoundViolationError

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


@dataclass
class RunConfig:
    """One parsed invocation; validated against module preconditions before dispatch."""

    command: str
    n: int | None = None
    m: int | None = None
    ell: int | None = None
    p: float | None = None
    variant: str = "truncated"
    seed: int = 0
    sample_count: int = 64
    norm: str = "linf"
    emit: str = "json"
    out: str | None = None
    csv_path: str | None = None
    threshold: float = 0.0
    scalar_only: bool = False
    rescale: bool = True
    input_path: str | None = None
    kind: str | None = None
    ells: list[int] = field(default_factory=list)
    ns: list[int] = field(default_factory=list)
    ms: list[int] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    variants: list[str] = field(default_factory=list)

    def validate(self) -> None:
        if self.command == "proxy-check":
            _require(self.ell is not None and self.ell % 2 == 1 and 1 <= self.ell <= MAX_ELL,
                     f"--ell must be odd in 1..{MAX_ELL}, got {self.ell}")
            _require(self.n is not None and 1 <= self.n <= MAX_DIM,
                     f"--n must lie in 1..{MAX_DIM}, got {self.n}")
        elif self.command == "audit":
            _require(self.n is not None and 1 <= self.n <= MAX_AUDIT_DIM,
                     f"--n must lie in 1..{MAX_AUDIT_DIM}, got {self.n}")
            _require(self.m is not None and self.m >= 1, f"--m must be positive, got {self.m}")
            _require(self.ell is None or (self.ell % 2 == 1 and 1 <= self.ell <= MAX_ELL),
                     f"--ell must be odd in 1..{MAX_ELL}, got {self.ell}")
            _require(self.norm in ("linf", "l1", "l2", "lp"), f"unknown norm {self.norm!r}")
            _require(self.norm != "lp" or (self.p is not None and self.p >= 1),
                     "--norm lp needs --p >= 1")
            _require(self.seed >= 0, "--seed must be nonnegative")
        elif self.command == "lower-bound":
            _require(self.n is not None and 1 <= self.n <= MAX_RECORD_DIM,
                     f"--n must lie in 1..{MAX_RECORD_DIM}, got {self.n}")
            _require(self.variant in WITNESS_VARIANTS, f"unknown variant {self.variant!r}")
            _require(self.emit in ("json", "csv"), f"--emit must be json or csv, got {self.emit!r}")
        elif self.command == "sparsity":
            _require((self.input_path is None) != (self.n is None),
                     "pass exactly one of --input or --n")
            if self.n is not None:
                _require(1 <= self.n <= MAX_RECORD_DIM, f"--n must lie in 1..{MAX_RECORD_DIM}, got {self.n}")
                _require(self.variant in WITNESS_VARIANTS, f"unknown variant {self.variant!r}")
        elif self.command == "sweep":
            _require(self.kind in ("proxy", "lower-bound", "audit"), f"unknown sweep kind {self.kind!r}")
        elif self.command == "fourier":
            _require(self.input_path is not None, "--input is required")
        else:
            raise ValueError(f"unknown command {self.command!r}")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


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


def _csv_text(fields: tuple, rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def _append_csv(path: str, fields: tuple, rows: list[tuple]) -> None:
    target = Path(path)
    fresh = not target.exists() or target.stat().st_size == 0
    with open(target, "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fresh:
            writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def _norm_and_transform(name: str, p: float | None, m: int):
    if name == "linf":
        p_val = math.inf
    elif name == "l1":
        p_val = 1.0
    elif name == "l2":
        p_val = 2.0
    else:
        p_val = float(p)
    return vector_field.Norm.lp(p_val), vector_field.SandwichTransform.for_lp(p_val, m)


def random_vector_function(n: int, m: int, seed: int) -> vector_field.VectorFunction:
    """Seeded instance: spectrum entries i.i.d. standard normal, drawn as (2^n, m)."""
    rng = np.random.default_rng(seed)
    return vector_field.VectorFunction.from_spectrum_matrix(n, rng.standard_normal((1 << n, m)))


# ---------------------------------------------------------------------------
# proxy-check


def proxy_check_payload(ell: int, n: int) -> dict[str, Any]:
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
        phi_l1 = math.fsum(np.abs(kernel.phi)) / kernel.phi.size
    try:
        p_l1 = linear_proxy.proxy_l1(kernel, n)
    except BoundViolationError as exc:
        violations.append(str(exc))
        p_l1 = float("nan")

    coeffs = linear_proxy.proxy_level_coeffs(kernel, n)
    dev_bound = linear_proxy.deviation_bound(ell)
    linear_levels = np.zeros(n + 1)
    if n >= 1:
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
        "grid_size": 4 * ell,
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


def cmd_proxy_check(cfg: RunConfig) -> int:
    payload = proxy_check_payload(cfg.ell, cfg.n)
    _emit_text(_json_text(payload), cfg.out)
    for violation in payload["violations"]:
        print(f"violation: {violation}", file=sys.stderr)
    return 1 if payload["violations"] else 0


# ---------------------------------------------------------------------------
# audit


def audit_report_json(n: int, m: int, norm: str, seed: int, ell: int | None = None,
                      p: float | None = None, sample_count: int = 64) -> str:
    """The audit subcommand's exact JSON text, shared with the test suite."""
    f = random_vector_function(n, m, seed)
    norm_obj, transform = _norm_and_transform(norm, p, m)
    audit = pisier_bench.decomposition_audit(f, norm_obj, transform, ell=ell,
                                             gate_samples=sample_count)
    payload = {
        "command": "audit",
        "config": {"n": n, "m": m, "ell": ell, "norm": norm, "p": p, "seed": seed,
                   "sample_count": sample_count},
        "audit": audit.to_dict(),
    }
    return _json_text(payload)


def cmd_audit(cfg: RunConfig) -> int:
    text = audit_report_json(cfg.n, cfg.m, cfg.norm, cfg.seed, ell=cfg.ell, p=cfg.p,
                             sample_count=cfg.sample_count)
    _emit_text(text, cfg.out)
    if cfg.csv_path:
        audit = json.loads(text)["audit"]
        row = tuple(audit[k] for k in AUDIT_CSV_FIELDS)
        _append_csv(cfg.csv_path, AUDIT_CSV_FIELDS, [row])
    return 0


# ---------------------------------------------------------------------------
# lower-bound


def lower_bound_payload(n: int, variant: str, scalar_only: bool = False) -> dict[str, Any]:
    instance_mode = n <= lower_bound.MAX_INSTANCE_DIM and not scalar_only
    violations: list[str] = []

    witness = lower_bound.build_witness(n, variant)
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
        "singleton_coefficient": float(singles[0]) if n >= 1 else 0.0,
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
        instance = lower_bound.lower_bound_instance(n, variant)
        payload.update({
            "family_size": len(instance.family),
            "field_norm_value": instance.field_norm_value,
            "linear_norm_value": instance.linear_norm_value,
            "ratio": instance.ratio,
        })

    payload["violations"] = violations
    return payload


def cmd_lower_bound(cfg: RunConfig) -> int:
    if cfg.n > lower_bound.MAX_INSTANCE_DIM:
        cfg.scalar_only = True
    payload = lower_bound_payload(cfg.n, cfg.variant, cfg.scalar_only)
    if cfg.emit == "json":
        _emit_text(_json_text(payload), cfg.out)
    else:
        row = tuple(payload.get(k) for k in LOWER_CSV_FIELDS)
        if cfg.out:
            _append_csv(cfg.out, LOWER_CSV_FIELDS, [row])
        else:
            sys.stdout.write(_csv_text(LOWER_CSV_FIELDS, [row]))
    for violation in payload["violations"]:
        print(f"violation: {violation}", file=sys.stderr)
    return 1 if payload["violations"] else 0


# ---------------------------------------------------------------------------
# sparsity


def cmd_sparsity(cfg: RunConfig) -> int:
    if cfg.input_path is not None:
        f = cube_fourier.read_binary(cfg.input_path)
        source = f"file:{cfg.input_path}"
    else:
        f = lower_bound.build_witness(cfg.n, cfg.variant)
        source = f"witness:{cfg.variant}:{cfg.n}"
    report = lower_bound.sparsity_inequality_check(f, rescale=cfg.rescale)
    payload = {"command": "sparsity", "source": source, **report.to_dict()}
    _emit_text(_json_text(payload), cfg.out)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _proxy_sweep_rows(cfg: RunConfig):
    rows, violated = [], False
    for ell in cfg.ells:
        for n in cfg.ns:
            base = ["proxy", ell, n]
            try:
                payload = proxy_check_payload(ell, n)
                status = "violation" if payload["violations"] else "ok"
                violated |= bool(payload["violations"])
                rows.append(tuple(base + [
                    payload["phi_l1"], payload["phi_l1_bound"], payload["proxy_l1"],
                    payload["proxy_l1_bound"], payload["max_deviation"],
                    payload["deviation_bound"], status,
                    "; ".join(payload["violations"]),
                ]))
            except Exception as exc:  # noqa: BLE001 - recorded per row, sweep continues
                rows.append(tuple(base + [None] * 6 + ["error", str(exc)]))
    return rows, violated


def _lower_sweep_rows(cfg: RunConfig):
    rows, violated = [], False
    variants = cfg.variants or ["truncated"]
    for n in cfg.ns:
        for variant in variants:
            base = ["lower-bound", n, variant]
            try:
                payload = lower_bound_payload(n, variant, cfg.scalar_only)
                status = "violation" if payload["violations"] else "ok"
                violated |= bool(payload["violations"])
                rows.append(tuple(base + [
                    payload["witness_sup"], payload["singleton_coefficient"],
                    payload["sparsity_counted"], payload.get("ratio"), status,
                    "; ".join(payload["violations"]),
                ]))
            except Exception as exc:  # noqa: BLE001
                rows.append(tuple(base + [None] * 4 + ["error", str(exc)]))
    return rows, violated


def _audit_sweep_rows(cfg: RunConfig):
    rows, violated = [], False
    seeds = cfg.seeds or [cfg.seed]
    for n in cfg.ns:
        for m in cfg.ms:
            for seed in seeds:
                base = ["audit", n, m, cfg.ell, cfg.norm, seed]
                try:
                    f = random_vector_function(n, m, seed)
                    norm_obj, transform = _norm_and_transform(cfg.norm, cfg.p, m)
                    audit = pisier_bench.decomposition_audit(
                        f, norm_obj, transform, ell=cfg.ell, gate_samples=cfg.sample_count)
                    base[3] = audit.ell
                    rows.append(tuple(base + [
                        audit.lhs, audit.rhs_raw, audit.ratio, audit.derived_constant,
                        audit.slack, "ok", "",
                    ]))
                except BoundViolationError as exc:
                    violated = True
                    rows.append(tuple(base + [None] * 5 + ["violation", str(exc)]))
                except Exception as exc:  # noqa: BLE001
                    rows.append(tuple(base + [None] * 5 + ["error", str(exc)]))
    return rows, violated


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.kind == "proxy":
        fields, (rows, violated) = PROXY_SWEEP_FIELDS, _proxy_sweep_rows(cfg)
    elif cfg.kind == "lower-bound":
        fields, (rows, violated) = LOWER_SWEEP_FIELDS, _lower_sweep_rows(cfg)
    else:
        fields, (rows, violated) = AUDIT_SWEEP_FIELDS, _audit_sweep_rows(cfg)
    text = _csv_text(fields, rows)
    _emit_text(text, cfg.out)
    return 1 if violated else 0


# ---------------------------------------------------------------------------
# fourier


def cmd_fourier(cfg: RunConfig) -> int:
    f = cube_fourier.read_binary(cfg.input_path)
    _emit_text(cube_fourier.to_spectrum_json(f, threshold=cfg.threshold) + "\n", cfg.out)
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
    p.add_argument("--m", type=int, required=True, help="target dimension")
    p.add_argument("--ell", type=int, default=None,
                   help="override the proxy parameter (default: smallest odd > log2(m)/2)")
    p.add_argument("--norm", default="linf", choices=["linf", "l1", "l2", "lp"])
    p.add_argument("--p", type=float, default=None, help="exponent for --norm lp")
    p.add_argument("--seed", type=int, default=0,
                   help="spectrum entries are standard_normal((2**n, m)) from default_rng(seed)")
    p.add_argument("--sample-count", type=int, default=64,
                   help="random directions for the sandwich validation gate")
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
    p.add_argument("--sample-count", type=int, default=64)
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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in vars(cfg):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args)
    try:
        cfg.validate()
        return _HANDLERS[cfg.command](cfg)
    except BoundViolationError as exc:
        print(f"bound violated: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
