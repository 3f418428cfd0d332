"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import pisier_lab

SOURCES = sorted(Path(pisier_lab.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    """Checks must raise: python -O strips assert statements."""
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "cube_fourier.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_transform_and_record_format_have_one_owner():
    """Only cube_fourier names the butterfly, its blocking and the binary record header."""
    owned = {"_walsh_butterfly", "_radix2_passes", "_BLOCK_DOUBLES", "_HEADER"}
    found = []
    for path in SOURCES:
        if path.name == "cube_fourier.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
            found += [f"{path.name}:{getattr(node, 'lineno', '?')}:{name}" for name in names & owned]
    assert found == []


PUBLIC_NAMES = [
    "BoundReport", "BoundViolationError", "CubeFunction", "LowerBoundInstance",
    "MAX_DIM", "Norm", "PisierAudit", "ProxyKernel", "ResourceLimitError", "SandwichTransform",
    "VectorFunction", "build_chebyshev_witness", "build_product_witness",
    "build_truncated_witness", "character_values", "choose_ell", "convolve",
    "decomposition_audit", "deviation_bound", "from_bytes", "from_spectrum_json", "fwht",
    "inverse_fwht", "kernel_l1", "kernel_moment", "level_multiply", "lower_bound_instance",
    "proxy_eval_by_weight", "proxy_l1", "proxy_level_coeffs", "rademacher_projection",
    "read_binary", "sandwich_validate", "sparsity_inequality_check", "spectrum_sparsity",
    "structural_sparsity", "to_bytes", "to_spectrum_json", "truncation_level",
    "truncation_tail_bound", "truncation_tail_chain", "write_binary", "young_bound_check",
]


def test_public_surface():
    """The package exports what the CLI and the checks of the paper's claims use, and no more."""
    assert len(PUBLIC_NAMES) == 43
    assert sorted(pisier_lab.__all__) == PUBLIC_NAMES
    missing = [name for name in PUBLIC_NAMES if not hasattr(pisier_lab, name)]
    assert missing == []
