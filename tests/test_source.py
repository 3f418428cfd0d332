"""Source-level checks on the package itself."""

import ast
import sys
from pathlib import Path

import numpy as np

import pisier_lab
from pisier_lab import CubeFunction, cli, write_binary
from pisier_lab.report import TOLERANCES

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


def test_each_tolerance_has_one_home():
    """Every tolerance is an entry of report.TOLERANCES, and the CLI decides no verdict itself."""
    assigned = [
        f"{path.name}:{node.lineno}:{target.id}"
        for path in SOURCES if path.name != "report.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_TOL")
    ]
    assert assigned == []

    cli_source = Path(cli.__file__)
    float_comparisons = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(ast.parse(cli_source.read_text(), filename=str(cli_source)))
        if isinstance(node, ast.Compare)
        for sub in ast.walk(node) if isinstance(sub, ast.Constant) and isinstance(sub.value, float)
    ]
    assert float_comparisons == []

    # each claim in the table is named by the code that checks it
    code = "".join(path.read_text() for path in SOURCES if path.name != "report.py")
    assert [claim for claim in TOLERANCES if f'"{claim}' not in code] == []


PUBLIC_NAMES = [
    "BoundReport", "CubeFunction", "LowerBoundInstance",
    "Norm", "PisierAudit", "ProxyKernel", "ResourceLimitError", "VectorFunction",
    "build_chebyshev_witness", "build_product_witness",
    "build_truncated_witness", "character_values", "choose_ell", "convolve",
    "decomposition_audit", "deviation_bound", "from_bytes", "fwht",
    "inverse_fwht", "kernel_l1", "kernel_moment", "level_multiply", "lower_bound_instance",
    "proxy_eval_by_weight", "proxy_l1", "proxy_level_coeffs", "rademacher_projection",
    "read_binary", "sandwich_validate", "sparsity_inequality_check", "spectrum_sparsity",
    "structural_sparsity", "to_bytes", "to_spectrum_json", "truncation_level",
    "truncation_tail_bound", "truncation_tail_chain", "write_binary", "young_bound_check",
]


def test_public_surface():
    """The package exports what the CLI and the checks of the paper's claims use, and no more."""
    assert len(PUBLIC_NAMES) == 39
    assert sorted(pisier_lab.__all__) == PUBLIC_NAMES
    missing = [name for name in PUBLIC_NAMES if not hasattr(pisier_lab, name)]
    assert missing == []


# Each subcommand's options: a flag is added or removed by editing this table on purpose.
OPTIONS = {
    "proxy-check": ["--ell", "--n", "--out"],
    "audit": ["--ell", "--m", "--n", "--norm", "--out", "--p", "--seed"],
    "lower-bound": ["--n", "--out", "--variant"],
    "sparsity": ["--input", "--n", "--no-rescale", "--out", "--variant"],
    "sweep": ["--ell", "--fixed-ell", "--kind", "--m", "--n", "--norm", "--out", "--p", "--seeds", "--variants"],
    "fourier": ["--input", "--out", "--threshold"],
}


def test_option_sets():
    """No option that nobody chose to add: each subcommand has exactly the flags of OPTIONS, and --help."""
    parser = cli.build_parser()
    [subparsers] = [action for action in parser._actions if action.choices and action.dest == "command"]
    found = {
        name: sorted(flag for action in sub._actions for flag in action.option_strings if flag not in ("-h", "--help"))
        for name, sub in subparsers.choices.items()
    }
    assert found == OPTIONS


REPO = Path(__file__).resolve().parent.parent
# where a default may be overridden: the package, the acceptance suite and the benchmark
KNOB_CALLERS = SOURCES + [REPO / "tests" / "test_acceptance.py"] + sorted((REPO / "perfbench").glob("*.py"))


def _defaulted_parameters(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position or None if keyword-only) of each parameter that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    found = [(arg.arg, i) for i, arg in enumerate(positional) if i >= len(positional) - len(fn.args.defaults)]
    return found + [(arg.arg, None) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if default is not None]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call sets the parameter, by keyword, by position, or through * or ** unpacking."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)


def test_every_default_is_overridden_somewhere():
    """No knob that no caller turns: each defaulted parameter of a public function is passed by some call."""
    calls = {}
    for path in KNOB_CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unturned = [
        f"{path.stem}.{fn.name}({name})"
        for path in SOURCES
        for fn in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        for name, position in _defaulted_parameters(fn)
        if not any(_passes(call, name, position) for call in calls.get(fn.name, []))
    ]
    assert unturned == []


# Functions no CLI subcommand reaches, each with the reason it stays.
UNREACHED_BY_THE_CLI = {
    "cli.audit_report_json": "the audit JSON entry point of the acceptance suite and the benchmark",
    "cube_fourier.convolve": "acceptance criterion 4 checks convolution against its definition",
    "cube_fourier.inverse_fwht_rows": "the row transform perfbench/test_perfbench.py binds",
    "vector_field.young_bound_check": "the convolution contraction, to be folded into the audit",
    "cube_fourier.CubeFunction.__repr__": "read in a debugger or a failing test, never in a run",
    "vector_field.Norm.__repr__": "read in a debugger or a failing test, never in a run",
}


def _defined_functions() -> dict[tuple[Path, int], str]:
    """(source path, first line, decorators included) -> module-qualified name of every def."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), path.resolve(), "")
    return found


def _run_every_subcommand(tmp_path) -> None:
    """Each subcommand once, sweep once per kind; the fourier input is written by the library's writer."""
    table = tmp_path / "table.bin"
    write_binary(CubeFunction.from_values(4, np.arange(16.0)), table)
    blocked = tmp_path / "blocked.bin"  # above one butterfly block, so its phases run from this thread too
    write_binary(CubeFunction.from_values(17, np.arange(2.0**17)), blocked)
    runs = [
        ["proxy-check", "--ell", "3", "--n", "8"],
        ["audit", "--n", "4", "--m", "3", "--ell", "3", "--norm", "lp", "--p", "3"],
        ["lower-bound", "--n", "9", "--variant", "chebyshev", "--out", str(tmp_path / "lower.json")],
        ["sparsity", "--n", "4"],
        ["sweep", "--kind", "proxy", "--ell", "1,3", "--n", "4"],
        ["sweep", "--kind", "lower-bound", "--n", "4", "--variants", "truncated"],
        ["sweep", "--kind", "audit", "--n", "3", "--m", "2", "--seeds", "0:2"],
        ["fourier", "--input", str(table), "--out", str(tmp_path / "spectrum.json")],
        ["fourier", "--input", str(blocked), "--out", str(tmp_path / "blocked.json")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv


def test_every_function_runs_or_says_why_not(tmp_path, capsys):
    """Only what runs: each function is reached by some subcommand, or is listed with its reason."""
    defined = _defined_functions()
    assert set(UNREACHED_BY_THE_CLI) <= set(defined.values())
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run_every_subcommand(tmp_path)
    finally:
        sys.setprofile(previous)
    reached = {(Path(name).resolve(), line) for name, line in calls}
    unreached = {name for key, name in defined.items() if key not in reached}
    assert unreached == set(UNREACHED_BY_THE_CLI)
