"""The benchmark's workloads: seeded inputs, the ops that call pisier_lab, and their oracles.

Every op is one call into a public entry point of ``pisier_lab.cli`` and is
checked against an oracle that does not reuse the code under test, at the
tolerances the library and its acceptance suite already state.  Import
``pisier_lab`` before this module so the package's thread cap is in place
before numpy loads (the harness also sets the cap in the environment).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from pisier_lab import cli

AUDIT_SLACK_TOL = 1e-9  # criterion 5: derived-bound slack >= -1e-9
L2_RATIO_TOL = 1e-12  # criterion 5: Euclidean ratio <= 1 + 1e-12
INSTANCE_TOL = 1e-10  # lower_bound._INSTANCE_TOL
COEFF_RTOL = 1e-12  # cube_fourier._CONSISTENCY_RTOL

LOWER_N = 12
SPECTRUM_N = 22
SPECTRUM_LEVELS = range(1, 9)
SPECTRUM_PER_LEVEL = 4
SPECTRUM_THRESHOLD = "1e-9"


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One closed-loop operation: the call, its oracle, and the bytes it produced."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    output_bytes: Callable[[Any], bytes]

    def digest(self, output: Any) -> str:
        return hashlib.sha256(self.output_bytes(output)).hexdigest()


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op  # one op at the workload's smallest size
    sizes: dict[str, Any]


# ---------------------------------------------------------------------------
# audits


def expected_ell(m: int) -> int:
    """Smallest odd ell > log2(m)/2, i.e. the smallest odd ell with 4^ell > m."""
    ell = 1
    while 4**ell <= m:
        ell += 2
    return ell


def check_audit(text: str, n: int, m: int, norm: str, seed: int) -> None:
    payload = json.loads(text)
    config, audit = payload["config"], payload["audit"]
    _require((config["n"], config["m"], config["norm"], config["seed"]) == (n, m, norm, seed),
             f"audit config {config} does not echo its inputs")
    _require(audit["ell"] == expected_ell(m), f"ell {audit['ell']} != {expected_ell(m)} for m={m}")
    slack = audit["derived_constant"] * audit["rhs_raw"] + AUDIT_SLACK_TOL - audit["lhs"]
    _require(slack >= 0.0, f"derived-bound slack {slack!r} below -{AUDIT_SLACK_TOL}")
    if norm == "l2":
        _require(audit["ratio"] <= 1.0 + L2_RATIO_TOL, f"l2 ratio {audit['ratio']!r} exceeds 1")


def audit_op(n: int, m: int, norm: str, seed: int) -> Op:
    return Op(
        label=f"audit n={n} m={m} {norm} seed={seed}",
        call=lambda: cli.audit_report_json(n, m, norm, seed),
        check=lambda text: check_audit(text, n, m, norm, seed),
        output_bytes=str.encode,
    )


def audit_large(seed: int, n: int = 16, ms: tuple[int, ...] = (64, 16)) -> Workload:
    rng = random.Random(seed)
    cases = [(m, norm, rng.randrange(2**31)) for m in ms for norm in ("l2", "linf")]
    ops = [audit_op(n, m, norm, s) for m, norm, s in cases]
    return Workload(ops, warmup=ops[-2],
                    sizes={"n": n, "audits": [list(c) for c in cases]})


SWEEP_GRID = ((8, 4), (10, 8), (12, 16))
SWEEP_NORMS = ("linf", "l1", "l2")
SWEEP_SEEDS = 50


def audit_sweep(seed: int, grid=SWEEP_GRID, seeds_per_cell: int = SWEEP_SEEDS) -> Workload:
    first = seed * seeds_per_cell
    ops = [audit_op(n, m, norm, first + s)
           for n, m in grid for norm in SWEEP_NORMS for s in range(seeds_per_cell)]
    return Workload(ops, warmup=ops[0],
                    sizes={"grid": [list(c) for c in grid], "norms": list(SWEEP_NORMS),
                           "audit_seeds": [first, first + seeds_per_cell - 1]})


# ---------------------------------------------------------------------------
# lower bound


def structural_family_size(n: int, variant: str) -> int:
    """Support size by construction: odd levels up to floor(3 sqrt n), or Chebyshev's parity class."""
    if variant == "truncated":
        return sum(math.comb(n, k) for k in range(1, math.isqrt(9 * n) + 1, 2))
    degree = math.isqrt(n)
    return sum(math.comb(n, j) for j in range(degree % 2, degree + 1, 2))


def singleton_mass(n: int, variant: str) -> float:
    """Sum over j of |Fhat({j})|, from closed forms that share no code with the library.

    Truncated witness: every singleton coefficient is 1/sqrt(n).  Chebyshev
    witness T_k(s/n): E[F x_1] summed by Hamming weight a, with
    T_k(t) = cos(k arccos t) and x_1 = +1 on C(n-1, a) points of weight a.
    """
    if variant == "truncated":
        return math.sqrt(n)
    degree = math.isqrt(n)
    coeff = math.fsum(
        math.cos(degree * math.acos((n - 2 * a) / n))
        * (math.comb(n - 1, a) - (math.comb(n - 1, a - 1) if a else 0))
        for a in range(n + 1)
    ) / 2**n
    return n * abs(coeff)


def check_lower_bound(payload: dict, n: int, variant: str) -> None:
    _require(payload["violations"] == [], f"violations: {payload['violations']}")
    _require(payload["mode"] == "instance", f"mode {payload['mode']!r}, expected instance")
    want_family = structural_family_size(n, variant)
    _require(payload["family_size"] == want_family,
             f"family size {payload['family_size']} != structural {want_family}")
    gap = abs(payload["field_norm_value"] - payload["witness_sup"])
    _require(gap <= INSTANCE_TOL, f"||f(x)|| misses ||F||_inf by {gap:.3e}")
    gap = abs(payload["linear_norm_value"] - singleton_mass(n, variant))
    _require(gap <= INSTANCE_TOL, f"||lin f(x)|| misses the singleton mass by {gap:.3e}")


def lower_bound_op(n: int, variant: str) -> Op:
    return Op(
        label=f"lower-bound n={n} {variant}",
        call=lambda: cli.lower_bound_payload(n, variant),
        check=lambda payload: check_lower_bound(payload, n, variant),
        output_bytes=lambda payload: json.dumps(payload, sort_keys=True).encode(),
    )


def lower_bound_instance(seed: int, n: int = LOWER_N) -> Workload:
    # The instance has no random input; the seed only orders the two variants.
    variants = ["truncated", "chebyshev"]
    random.Random(seed).shuffle(variants)
    ops = [lower_bound_op(n, v) for v in variants]
    smallest = ops[variants.index("chebyshev")]  # 232 coordinates against 2,036 at n=12
    return Workload(ops, warmup=smallest,
                    sizes={"n": n, "variants": variants,
                           "family_sizes": {v: structural_family_size(n, v) for v in variants}})


# ---------------------------------------------------------------------------
# spectrum I/O


def seeded_spectrum(seed: int, n: int = SPECTRUM_N) -> dict[int, float]:
    """SPECTRUM_PER_LEVEL distinct subsets on each level, coefficients of magnitude in [0.5, 1.5)."""
    rng = random.Random(seed)
    spectrum: dict[int, float] = {}
    for level in SPECTRUM_LEVELS:
        while sum(1 for s in spectrum if s.bit_count() == level) < SPECTRUM_PER_LEVEL:
            mask = sum(1 << j for j in rng.sample(range(n), level))
            spectrum[mask] = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    return spectrum


def write_reference_table(path: Path, n: int, spectrum: dict[int, float]) -> None:
    """Value table sum_S c_S chi_S(x), chi_S(x) = (-1)^popcount(S & x), in the binary format.

    The format is the one cube_fourier documents: u32 little-endian n, then
    2^n little-endian doubles in point order.  Neither the library's
    transform nor its writer is used.
    """
    points = np.arange(1 << n, dtype=np.uint32)
    values = np.zeros(1 << n)
    for mask, coeff in sorted(spectrum.items()):
        parity = np.bitwise_count(points & np.uint32(mask)) & 1
        values += coeff * (1.0 - 2.0 * parity)
    Path(path).write_bytes(struct.pack("<I", n) + values.astype("<f8").tobytes())


def check_fourier(text: str, n: int, spectrum: dict[int, float]) -> None:
    payload = json.loads(text)
    _require(payload["n"] == n, f"n {payload['n']} != {n}")
    got = {int(k): v for k, v in payload["spectrum"].items()}
    _require(set(got) == set(spectrum),
             f"{len(set(got) ^ set(spectrum))} subsets differ from the seeded support")
    for mask, want in spectrum.items():
        _require(abs(got[mask] - want) <= COEFF_RTOL * abs(want),
                 f"coefficient {mask}: {got[mask]!r} != {want!r} within {COEFF_RTOL} relative")


def check_sparsity(text: str, spectrum: dict[int, float]) -> None:
    params = json.loads(text)["params"]
    _require(params["sparsity"] == len(spectrum),
             f"sparsity {params['sparsity']} != {len(spectrum)} seeded coefficients")


def cli_op(label: str, argv: list[str], out: Path, check: Callable[[str], None]) -> Op:
    def call() -> bytes:
        code = cli.main(argv + ["--out", str(out)])
        _require(code == 0, f"{label} exited {code}")
        return out.read_bytes()

    return Op(label, call, check=lambda blob: check(blob.decode()), output_bytes=bytes)


def spectrum_table_path(workdir: Path, seed: int) -> Path:
    return Path(workdir) / f"spectrum-{seed}.bin"


def spectrum_io(seed: int, workdir: Path, n: int = SPECTRUM_N) -> Workload:
    spectrum = seeded_spectrum(seed, n)
    table = spectrum_table_path(workdir, seed)
    fourier = cli_op("fourier", ["fourier", "--input", str(table), "--threshold", SPECTRUM_THRESHOLD],
                     Path(workdir) / "fourier.json", lambda text: check_fourier(text, n, spectrum))
    sparsity = cli_op("sparsity", ["sparsity", "--input", str(table)],
                      Path(workdir) / "sparsity.json", lambda text: check_sparsity(text, spectrum))
    return Workload([fourier, sparsity], warmup=fourier,
                    sizes={"n": n, "k": len(spectrum), "levels": list(SPECTRUM_LEVELS),
                           "table_bytes": 4 + 8 * (1 << n)})


def generate_inputs(name: str, seed: int, workdir: Path) -> None:
    """Write the files a workload reads; only spectrum-io has any."""
    if name == "spectrum-io":
        write_reference_table(spectrum_table_path(workdir, seed), SPECTRUM_N, seeded_spectrum(seed))


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "audit-large":
        return audit_large(seed)
    if name == "audit-sweep":
        return audit_sweep(seed)
    if name == "lower-bound-instance":
        return lower_bound_instance(seed)
    if name == "spectrum-io":
        return spectrum_io(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
