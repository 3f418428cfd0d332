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


def test_each_limit_has_one_home():
    """Each cap is assigned once, and cube_fourier._check_dim is the one dimension check behind every cap."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assigned = sorted(
        target.id
        for tree in trees.values()
        for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    )
    assert assigned and len(assigned) == len(set(assigned)), assigned

    def raises_limit(node):
        return isinstance(node, ast.Raise) and any(
            getattr(sub, "id", None) == "ResourceLimitError" for sub in ast.walk(node))

    functions = [(name, fn) for name, tree in trees.items() for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    raising = [f"{name}:{fn.name}" for name, fn in functions for node in ast.walk(fn) if raises_limit(node)]
    total = sum(raises_limit(node) for tree in trees.values() for node in ast.walk(tree))
    assert raising == ["cube_fourier.py:_check_dim"] and total == 1, raising

    checks = [f"{name}:{fn.name}" for name, fn in functions
              if name != "cube_fourier.py" and "check" in fn.name and "dim" in fn.name]
    assert checks == []


PUBLIC_NAMES = [
    "BoundReport", "BoundViolationError", "CubeFunction", "LowerBoundInstance",
    "Norm", "PisierAudit", "ProxyKernel", "ResourceLimitError", "SandwichTransform",
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
    assert len(PUBLIC_NAMES) == 42
    assert sorted(pisier_lab.__all__) == PUBLIC_NAMES
    missing = [name for name in PUBLIC_NAMES if not hasattr(pisier_lab, name)]
    assert missing == []
