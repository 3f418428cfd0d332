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
import itertools
import json
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from . import cube_fourier, linear_proxy, lower_bound, pisier_bench, vector_field
from .cube_fourier import MAX_DIM
from .linear_proxy import MAX_ELL
from .lower_bound import MAX_RECORD_DIM, WITNESS_VARIANTS
from .report import BoundReport

PROXY_SWEEP_FIELDS = (
    "kind", "ell", "n", "phi_l1", "phi_l1_bound", "proxy_l1", "proxy_l1_bound",
    "max_deviation", "deviation_bound", "status", "error",
)
LOWER_SWEEP_FIELDS = (
    "kind", "n", "variant", "mode", "witness_sup", "product_sup", "diff_sup", "tail_exact",
    "tail_chain", "singleton_coefficient", "sparsity_counted", "sparsity_structural",
    "field_norm_value", "linear_norm_value", "ratio", "status", "error",
)
AUDIT_SWEEP_FIELDS = (
    "kind", "n", "m", "ell", "norm", "seed", "lhs", "rhs_raw", "ratio",
    "derived_constant", "slack", "status", "error",
)
_VARIANT_HELP = f"witness variant: {' or '.join(WITNESS_VARIANTS)}"
_USAGE_ERRORS = (ValueError, OSError)  # a usage or precondition error: exit 2 in a run, an error row in a sweep


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _verdict(checks: Sequence[BoundReport]) -> dict[str, list]:
    """A payload's checks array, and its violations: one line for each check that fails."""
    return {"checks": [c.to_dict() for c in checks],
            "violations": [f"{c.claim}: {c.lhs!r} <= {c.rhs!r} + {c.tol!r} fails"
                           for c in checks if not c.holds]}


def _emit_text(text: str, path: str | None) -> None:
    _emit_pieces([text], path)


def _emit_pieces(pieces: Iterable[str], path: str | None) -> None:
    """The text of the pieces, to the --out file at path or to stdout, written as they come."""
    if path:
        with open(path, "w") as file:
            file.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _json_text(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(fields: tuple, rows: list[tuple]) -> str:
    """A header and rows, with '.' decimals and 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([_fmt_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def random_vector_function(n: int, m: int, seed: int) -> vector_field.VectorFunction:
    """Seeded instance: spectrum entries i.i.d. standard normal, drawn as (2^n, m)."""
    spectrum = np.random.default_rng(seed).standard_normal((1 << n, m))
    spectrum.flags.writeable = False  # read-only, so the vector adopts it rather than copying it
    return vector_field.VectorFunction.from_spectrum(n, spectrum)


# ---------------------------------------------------------------------------
# proxy-check


def proxy_check_payload(ell: int, n: int) -> dict[str, Any]:
    """Check every kernel and proxy claim, ell and n by the library's rules: proxy-check and each proxy sweep row."""
    kernel = linear_proxy.ProxyKernel(ell)
    measured, checks = linear_proxy.proxy_properties(kernel, n)
    return {
        "command": "proxy-check",
        "ell": ell,
        "n": n,
        "grid_size": kernel.size,
        **measured,
        **_verdict(checks),
    }


# ---------------------------------------------------------------------------
# audit


def audit_payload(n: int, m: int, ell: int | None, norm: str, seed: int) -> dict[str, Any]:
    """Check the preconditions, then audit the seeded instance: audit and each audit sweep row."""
    cube_fourier._check_dim(n)  # the library's checks, called before the table is drawn
    _require(m >= 1, f"--m must be positive, got {m}")
    _require((1 << n) * m <= 1 << MAX_DIM,
             f"--n {n} --m {m} asks for a 2^{n} x {m} table; 2^n * m is capped at 2^{MAX_DIM} doubles")
    _require((2 * m + 2) * m <= 1 << MAX_DIM,
             f"--m {m} asks for a sandwich gate of {2 * m + 2} rows of {m}; (2m + 2) * m is capped at "
             f"2^{MAX_DIM} doubles")
    if ell is not None:
        linear_proxy._check_ell(ell)
    try:  # the one spelling rule is Norm.name's: a name that does not read back to itself names no norm
        target_norm = vector_field.Norm.lp(float(norm[1:]))
    except ValueError:  # no number after the first letter, or p < 1
        target_norm = None
    _require(target_norm is not None and target_norm.name == norm,
             f"--norm must be l<p> for p >= 1 as Norm.name spells it (linf, l1, l2, l3, l2.5), got {norm!r}")
    _require(seed >= 0, "--seed must be nonnegative")
    audit = pisier_bench.decomposition_audit(random_vector_function(n, m, seed), target_norm, ell=ell)
    return {
        "command": "audit",
        "config": {"n": n, "m": m, "ell": ell, "norm": norm, "seed": seed},
        "audit": audit.to_dict(),
        **_verdict(audit.checks),
    }


def audit_report_json(n: int, m: int, norm: str, seed: int) -> str:
    """The audit subcommand's exact JSON text at the default ell, shared with the test suite."""
    return _json_text(audit_payload(n, m, None, norm, seed))


# ---------------------------------------------------------------------------
# lower-bound


def lower_bound_payload(n: int, variant: str) -> dict[str, Any]:
    """Build and verify the witness, n and the variant by the library's rules: lower-bound and each sweep row.

    n alone picks the mode: the norm instance is built exactly when n <= MAX_INSTANCE_DIM.
    """
    instance_mode = n <= lower_bound.MAX_INSTANCE_DIM
    instance = lower_bound.lower_bound_instance(n, variant) if instance_mode else None
    witness = instance.witness if instance_mode else lower_bound.build_witness(n, variant)
    measured, checks = lower_bound.witness_properties(witness, variant)
    payload: dict[str, Any] = {
        "command": "lower-bound",
        "n": n,
        "variant": variant,
        "mode": "instance" if instance_mode else "scalar",
        **measured,
    }
    if instance_mode:
        payload.update({
            "family_size": len(instance.family),
            "field_norm_value": instance.field_norm_value,
            "linear_norm_value": instance.linear_norm_value,
            "ratio": instance.ratio,
        })
        checks += instance.checks
    return {**payload, **_verdict(checks)}


# ---------------------------------------------------------------------------
# a run and a sweep of a checking command


def _flag_values(args: argparse.Namespace) -> dict[str, Any]:
    """The checking command's own parsed flags by dest: the keyword arguments of its payload function."""
    return {dest: value for dest, value in vars(args).items() if dest not in ("command", "kind", "out")}


def cmd_check(args: argparse.Namespace) -> int:
    """proxy-check, audit or lower-bound: its payload from the parsed flags as JSON, each violation on stderr."""
    payload = _CHECKING_COMMANDS[args.command][2](**_flag_values(args))
    _emit_text(_json_text(payload), args.out)
    for violation in payload["violations"]:
        print(f"violation: {violation}", file=sys.stderr)
    return 1 if payload["violations"] else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """One CSV row per point of the grid: the product of the flags parsed as lists, varied in column order."""
    _, _, payload_of, fields, kind = _CHECKING_COMMANDS[args.kind]
    flags = _flag_values(args)
    grid = [name for name in fields if isinstance(flags.get(name), list)]
    rows = []
    for point in itertools.product(*(flags[name] for name in grid)):
        given = {**flags, **dict(zip(grid, point))}
        cells = {"kind": kind}
        try:
            payload = payload_of(**given)
            cells.update(payload.get("audit", payload))  # an audit row's fields are its audit object's
            status, error = ("violation" if payload["violations"] else "ok"), "; ".join(payload["violations"])
        except _USAGE_ERRORS as exc:
            status, error = "error", str(exc)
        # then each flag as the row was given it: an error row's grid point, an audit row's seed
        cells.update((name, value) for name, value in given.items() if value is not None)
        rows.append(tuple(cells.get(name) for name in fields[:-2]) + (status, error))
    _emit_text(_csv_text(fields, rows), args.out)
    statuses = {cells[-2] for cells in rows}
    _require(statuses != {"error"}, "every row of the sweep is an error row, so it checked nothing")
    return 1 if "violation" in statuses else 0


# ---------------------------------------------------------------------------
# sparsity


def cmd_sparsity(args: argparse.Namespace) -> int:
    _require((args.input_path is None) != (args.n is None), "pass exactly one of --input or --n")
    if args.input_path is not None:
        _require(args.variant is None, "--variant applies only to --n")
        f = cube_fourier.read_binary(args.input_path)
        source = f"file:{Path(args.input_path).name}"  # not the path, so the bytes do not depend on it
    else:
        variant = args.variant or "truncated"
        f = lower_bound.build_witness(args.n, variant)
        source = f"witness:{variant}:{args.n}"
    report = lower_bound.sparsity_inequality_check(f, rescale=True)
    payload = {"command": "sparsity", "source": source, "claim": report.claim, "lhs": report.lhs,
               "rhs": report.rhs, "slack": report.slack, "params": report.params}
    _emit_text(_json_text(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# fourier


def cmd_fourier(args: argparse.Namespace) -> int:
    f = cube_fourier.read_binary(args.input_path)
    pieces = cube_fourier.spectrum_json_pieces(f, threshold=args.threshold)  # checked before --out is opened
    _emit_pieces(itertools.chain(pieces, ["\n"]), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _nonempty(values: list, text: str) -> list:
    """A grid axis with no value would make a sweep that checks nothing."""
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} names no value, so the sweep would check nothing")
    return values


def _int_list(text: str) -> list[int]:
    out: list[int] = []
    for token in filter(None, map(str.strip, text.split(","))):
        lo, colon, hi = token.partition(":")
        try:
            out.extend(range(int(lo), int(hi)) if colon else [int(lo)])
        except ValueError:
            raise argparse.ArgumentTypeError(f"{token!r} is not an integer or a lo:hi range") from None
    return _nonempty(out, text)


def _str_list(text: str) -> list[str]:
    return _nonempty([token.strip() for token in text.split(",") if token.strip()], text)


def _axis(p: argparse.ArgumentParser, flag: str, kind: type, text: str, grid: bool, **kwargs) -> None:
    """A flag a sweep varies: one value in a run; in a sweep a comma list, with lo:hi ranges for integers."""
    if grid:
        kind, text = (_int_list, f"{text}; a comma list or lo:hi ranges") if kind is int else (
            _str_list, f"{text}; a comma list")
    p.add_argument(flag, type=kind, help=text, **kwargs)


def _proxy_check_flags(p: argparse.ArgumentParser, grid: bool) -> None:
    _axis(p, "--ell", int, f"odd proxy parameter in 1..{MAX_ELL}", grid, required=True)
    _axis(p, "--n", int, f"cube dimension in 1..{MAX_DIM}", grid, required=True)


def _audit_flags(p: argparse.ArgumentParser, grid: bool) -> None:
    _axis(p, "--n", int, f"cube dimension in 1..{MAX_DIM}, under the table cap of --m", grid, required=True)
    _axis(p, "--m", int, f"target dimension; the 2**n x m table is capped at 2**n * m <= 2**{MAX_DIM}, the "
                         f"sandwich gate's 2m + 2 rows of m at (2m + 2) * m <= 2**{MAX_DIM}", grid, required=True)
    _axis(p, "--ell", int, f"odd proxy parameter in 1..{MAX_ELL} (default: smallest odd > log2(m)/2)", grid,
          default=None)
    _axis(p, "--norm", str, "lp norm on R^m, l<p> for p >= 1 exactly as Norm.name prints it: linf (default), "
                            "l1, l2, l3, l2.5; not lp, l3.0 or L2", grid, default="linf")
    _axis(p, "--seed", int, "spectrum entries are standard normal, one (2**n, m) draw of numpy's PCG64 at this seed",
          grid, default="0")  # a string default goes through the type: a one-value axis in a sweep


def _lower_bound_flags(p: argparse.ArgumentParser, grid: bool) -> None:
    _axis(p, "--n", int, f"cube dimension; instance mode up to {lower_bound.MAX_INSTANCE_DIM}, "
                         f"scalar mode up to {MAX_RECORD_DIM}", grid, required=True)
    _axis(p, "--variant", str, _VARIANT_HELP, grid, default="truncated")


# each checking command: its help; its flags, added for the command (grid=False) and for its sweep
# (grid=True); its payload function, whose parameters are the flags' dests; its CSV columns; its kind cell
_CHECKING_COMMANDS = {
    "proxy-check": ("verify the kernel and proxy bounds for one (ell, n)", _proxy_check_flags,
                    proxy_check_payload, PROXY_SWEEP_FIELDS, "proxy"),
    "audit": ("audit one seeded random instance end to end", _audit_flags,
              audit_payload, AUDIT_SWEEP_FIELDS, "audit"),
    "lower-bound": ("build a witness and verify its properties", _lower_bound_flags,
                    lower_bound_payload, LOWER_SWEEP_FIELDS, "lower-bound"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pisier-lab",
        description="Verifications for cube Fourier analysis, the linear proxy, "
                    "projection audits, and lower-bound witnesses.",
        epilog="Exit codes: 0 all bounds hold, 1 a bound was violated, 2 usage error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags, *_) in _CHECKING_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        add_flags(p, grid=False)
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("sparsity", help="record log2 spectrum sparsity vs singleton mass")
    p.add_argument("--n", type=int, default=None,
                   help=f"build the witness at this dimension, in 1..{MAX_RECORD_DIM}")
    p.add_argument("--variant", default=None, help=f"{_VARIANT_HELP}, with --n only (default: truncated)")
    p.add_argument("--input", dest="input_path", default=None,
                   help="check a serialized cube function instead of a witness, scaled to sup norm 1 if above it")
    p.add_argument("--out", help="write JSON here instead of stdout")

    kinds = sub.add_parser("sweep", help="grid-run one checking command into a CSV table").add_subparsers(
        dest="kind", required=True)
    for name, (text, add_flags, *_) in _CHECKING_COMMANDS.items():
        p = kinds.add_parser(name, help=f"{name} over a grid: each flag but --out takes a list")
        add_flags(p, grid=True)
        p.add_argument("--out", help="write the CSV table here instead of stdout")

    p = sub.add_parser("fourier", help="transform a serialized value table to a sparse spectrum")
    p.add_argument("--input", dest="input_path", required=True, help="binary cube-function file")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="drop coefficients at or below this magnitude (default: exact zeros)")
    p.add_argument("--out", help="write JSON here instead of stdout")

    return parser


_HANDLERS = {**dict.fromkeys(_CHECKING_COMMANDS, cmd_check),
             "sparsity": cmd_sparsity, "sweep": cmd_sweep, "fourier": cmd_fourier}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _USAGE_ERRORS as exc:  # OSError: an unreadable --input or unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
