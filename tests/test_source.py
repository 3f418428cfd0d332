"""Source-level checks on the package itself."""

import ast
import io
import json
import sys
import threading
import tokenize
from pathlib import Path

import numpy as np

import pisier_lab
from pisier_lab import CubeFunction, cli, cube_fourier, write_binary
from pisier_lab.lower_bound import WITNESS_VARIANTS
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
    """Only cube_fourier names the butterfly, its blocking, the character parity and the binary record header;
    the one blocked walk is cube_fourier._blocks, and the one other block size the instance's column block."""
    owned = {"_walsh_butterfly", "_radix2_passes", "_BLOCK_DOUBLES", "_HEADER", "bitwise_and"}
    found, walks, sizes = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        # the innermost function around each node; functions come outer first, so an inner one overwrites
        owner = {id(node): fn.name for fn in functions for node in ast.walk(fn)}
        for node in ast.walk(tree):
            # a range with a computed step: a walk in steps of a block
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range" and len(node.args) == 3
                    and not isinstance(node.args[2], ast.Constant)):
                walks.append(f"{path.name}:{owner.get(id(node), '<module>')}")
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                sizes += [f"{path.name}:{t.id}" for t in targets
                          if isinstance(t, ast.Name) and t.id.endswith("_DOUBLES") and path.name != "cube_fourier.py"]
            if path.name != "cube_fourier.py":
                names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
                found += [f"{path.name}:{getattr(node, 'lineno', '?')}:{name}" for name in names & owned]
    assert found == []
    assert walks == ["cube_fourier.py:_blocks"]
    assert sizes == ["lower_bound.py:_COLUMN_BLOCK_DOUBLES"]


def test_each_limit_has_one_home():
    """Each cap is assigned once, cube_fourier._check_dim is the one dimension check behind every cap, and
    linear_proxy._check_ell the one ell check; the CLI compares against a cap only for the rules it alone
    states, and one place rejects an unknown witness variant."""
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

    # the innermost function around each node; functions come outer first, so an inner one overwrites
    owner = {id(node): f"{name}:{fn.name}" for name, fn in functions for node in ast.walk(fn)}

    def comparisons(files, names_cap):
        """Where each comparison that names a matching cap, by a name or an attribute, stands."""
        return sorted(owner.get(id(node), f"{name}:<module>") for name in files for node in ast.walk(trees[name])
                      if isinstance(node, ast.Compare) and any(
                          names_cap(getattr(sub, "id", None) or getattr(sub, "attr", None) or "")
                          for sub in ast.walk(node)))

    assert comparisons(trees, lambda name: name == "MAX_ELL") == ["linear_proxy.py:_check_ell"]
    # the table cap and the gate cap of an audit, and the mode choice of a lower-bound run
    assert comparisons(["cli.py"], lambda name: name.startswith("MAX_")) == [
        "cli.py:audit_payload", "cli.py:audit_payload", "cli.py:lower_bound_payload"]
    assert sum(path.read_text().count("unknown witness variant") for path in SOURCES) == 1


def test_each_cap_states_its_reason():
    """README's promise for the caps: every MAX_ assignment carries its reason as a comment, on its own line or
    on the comment line directly above it."""
    bare = []
    for path in SOURCES:
        text = path.read_text()
        lines = text.splitlines()
        commented = {token.start[0] for token in tokenize.generate_tokens(io.StringIO(text).readline)
                     if token.type == tokenize.COMMENT}
        bare += [f"{path.name}:{node.lineno}:{target.id}"
                 for node in ast.walk(ast.parse(text, filename=str(path)))
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and target.id.startswith("MAX_")
                 and node.lineno not in commented and not lines[node.lineno - 2].lstrip().startswith("#")]
    assert bare == []


def test_the_package_reads_no_environment_variable():
    """No module names os.environ or the getenv family: the thread count comes from the affinity set."""
    named = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None))
        in {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
    ]
    assert named == []


def blas_calls(tree: ast.AST) -> list[int]:
    """Lines of the tree that may call BLAS: @, matmul, dot, vdot, inner, tensordot, einsum, and any linalg name but
    linalg.norm called with axis=, which reduces each row elementwise (without an axis, norm of a vector calls dot)."""
    axis_norms = {id(node.func.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "norm"
                  and getattr(node.func.value, "attr", None) == "linalg" and any(k.arg == "axis" for k in node.keywords)}
    found = []
    for node in ast.walk(tree):
        name = next((n for n in (getattr(node, key, None) for key in ("id", "attr", "name", "module"))
                     if isinstance(n, str)), "")
        if (isinstance(getattr(node, "op", None), ast.MatMult)
                or name in {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}
                or ("linalg" in name.split(".") and id(node) not in axis_norms)):
            found.append(node.lineno)
    return found


def test_the_package_makes_no_blas_call():
    """BLAS picks its summation order for each CPU kernel, so a BLAS call would make the bytes a command prints
    depend on the machine; no module makes one."""
    assert [f"{path.name}:{line}" for path in SOURCES
            for line in blas_calls(ast.parse(path.read_text(), filename=str(path)))] == []
    rejected = ["a @ b", "a @= b", "np.matmul(a, b, out=c)", "np.dot(a, b)", "a.dot(b)", "np.einsum('ij,jk', a, b)",
                "np.linalg.norm(v)", "np.linalg.svd(a)", "from numpy.linalg import norm", "import numpy.linalg",
                "from numpy import inner"]
    assert [snippet for snippet in rejected if not blas_calls(ast.parse(snippet))] == []
    assert blas_calls(ast.parse("np.linalg.norm(block, ord=p, axis=1)")) == []


def test_only_the_seeded_instance_draws_random_numbers():
    """No check samples: np.random and default_rng appear, even in text, only in cli.random_vector_function."""
    tree = ast.parse(Path(cli.__file__).read_text())
    drawer = next(node for node in tree.body if getattr(node, "name", None) == "random_vector_function")
    found = [
        f"{path.name}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if any(word in line for word in ("np.random", "numpy.random", "default_rng"))
        and not (path.name == "cli.py" and drawer.lineno <= number <= drawer.end_lineno)
    ]
    assert found == []


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
    "build_truncated_witness", "choose_ell", "convolve",
    "decomposition_audit", "deviation_bound", "from_bytes", "fwht",
    "inverse_fwht", "kernel_l1", "kernel_moment", "level_multiply", "lower_bound_instance",
    "proxy_eval_by_weight", "proxy_l1", "proxy_level_coeffs", "rademacher_projection",
    "read_binary", "sandwich_validate", "sparsity_inequality_check", "spectrum_sparsity",
    "structural_sparsity", "to_bytes", "to_spectrum_json", "truncation_level",
    "truncation_tail_bound", "truncation_tail_chain", "write_binary",
]


def test_one_norm_kind():
    """Norm is the lp norm alone: the family norm of the lower-bound instance is linf after the character map, so
    no second kind, its family or its cap is named in the package, and the constructor takes p and nothing else."""
    named = [f"{path.name}:{number}" for path in SOURCES
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if any(word in line for word in ("sup_functional", "n_dual", "MAX_SUP_FUNCTIONAL_DIM"))]
    assert named == []
    tree = ast.parse(Path(pisier_lab.vector_field.__file__).read_text())
    [norm] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Norm"]
    [init] = [node for node in norm.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    args = init.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["self", "p"]
    assert args.vararg is None and args.kwarg is None


def test_transforms_return_new_tables():
    """A transform takes a table and returns a new one: no function of the package fills a buffer of the caller's,
    so none has a parameter named out, and inverse_fwht takes the spectrum and nothing else."""
    params = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
                params.append((f"{path.name}:{getattr(node, 'name', '<lambda>')}", names))
    assert [name for name, names in params if "out" in names] == []
    assert [names for name, names in params if name == "cube_fourier.py:inverse_fwht"] == [["spectrum"]]


def test_public_surface():
    """The package exports what the CLI and the checks of the paper's claims use, and no more."""
    assert len(PUBLIC_NAMES) == 37
    assert sorted(pisier_lab.__all__) == PUBLIC_NAMES
    missing = [name for name in PUBLIC_NAMES if not hasattr(pisier_lab, name)]
    assert missing == []


# Each subcommand's options: a flag is added or removed by editing this table on purpose.
OPTIONS = {
    "proxy-check": ["--ell", "--n", "--out"],
    "audit": ["--ell", "--m", "--n", "--norm", "--out", "--seed"],
    "lower-bound": ["--n", "--out", "--variant"],
    "sparsity": ["--input", "--n", "--out", "--variant"],
    "sweep": [],
    "fourier": ["--input", "--out", "--threshold"],
}


def _subcommands(parser, dest):
    """The parsers of the sub-commands whose name parser stores in dest."""
    [subparsers] = [action for action in parser._actions if action.choices and action.dest == dest]
    return subparsers.choices


def _flags(parser):
    return sorted(flag for action in parser._actions for flag in action.option_strings if flag not in ("-h", "--help"))


def test_option_sets():
    """No option that nobody chose to add: each subcommand has exactly the flags of OPTIONS, and --help."""
    found = {name: _flags(sub) for name, sub in _subcommands(cli.build_parser(), "command").items()}
    assert found == OPTIONS
    assert set(cli._HANDLERS) == set(OPTIONS)


def test_each_sweep_takes_exactly_its_commands_flags():
    """`sweep <command>` is built by its command's flag code: the same flags, no more and no fewer, and each
    flag but --out is a sweep axis, so it parses to a list."""
    sweep = _subcommands(cli.build_parser(), "command")["sweep"]
    found = {name: _flags(sub) for name, sub in _subcommands(sweep, "kind").items()}
    assert found == {name: OPTIONS[name] for name in ("proxy-check", "audit", "lower-bound")}
    for name, flags in found.items():
        axes = [flag for flag in flags if flag != "--out"]
        args = vars(cli.build_parser().parse_args(["sweep", name, *(token for flag in axes for token in (flag, "1"))]))
        assert [flag for flag in axes if not isinstance(args[flag[2:]], list)] == [], name


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
    "cube_fourier.to_spectrum_json": "the sparse spectrum as one string, for library callers and perfbench; "
                                     "the fourier command writes spectrum_json_pieces as they come",
    "cube_fourier.CubeFunction.__repr__": "read in a debugger or a failing test, never in a run",
    "vector_field.Norm.__repr__": "read in a debugger or a failing test, never in a run",
    "pisier_bench.rademacher_projection": "lin f as a whole table, which acceptance criterion 6 builds for the "
                                          "instance; it shares _projection_passes with the audit, which "
                                          "measures lin f at the even points alone",
    "lower_bound.LowerBoundInstance.vector": "T f, the (2^n, 2^n) table of translates (128 MB at n = 12), built "
                                             "on demand for acceptance criterion 6 and the instance tests; no run "
                                             "builds it",
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


def _reject(name):
    raise ValueError(f"not JSON: {name}")


def _run_every_subcommand(tmp_path, capsys) -> None:
    """Each subcommand once, sweep once per kind; the fourier input is written by the library's writer.

    Every JSON document a run writes, to stdout or to --out, is strict JSON: no NaN or Infinity.
    """
    table = tmp_path / "table.bin"
    write_binary(CubeFunction.from_values(4, np.arange(16.0)), table)
    blocked = tmp_path / "blocked.bin"  # above one butterfly block, so its phases run from this thread too
    write_binary(CubeFunction.from_values(17, np.arange(2.0**17)), blocked)
    runs = [
        ["proxy-check", "--ell", "3", "--n", "8"],
        ["audit", "--n", "4", "--m", "3", "--ell", "3", "--norm", "l3"],
        ["audit", "--n", "4", "--m", "3", "--norm", "l2.5"],
        ["audit", "--n", "4", "--m", "3", "--norm", "l2"],
        ["audit", "--n", "4", "--m", "3", "--norm", "linf", "--out", str(tmp_path / "audit.json")],
        ["lower-bound", "--n", "9", "--variant", "chebyshev", "--out", str(tmp_path / "lower.json")],
        ["sparsity", "--n", "4"],
        ["sweep", "proxy-check", "--ell", "1,3", "--n", "4"],
        ["sweep", "lower-bound", "--n", "4", "--variant", "truncated"],
        ["sweep", "audit", "--n", "3", "--m", "2", "--seed", "0:2"],
        ["fourier", "--input", str(table), "--out", str(tmp_path / "spectrum.json")],
        ["fourier", "--input", str(blocked), "--out", str(tmp_path / "blocked.json")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
        stdout = capsys.readouterr().out
        if argv[0] != "sweep":
            json.loads(Path(argv[-1]).read_text() if "--out" in argv else stdout, parse_constant=_reject)


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
        _run_every_subcommand(tmp_path, capsys)
    finally:
        sys.setprofile(previous)
    reached = {(Path(name).resolve(), line) for name, line in calls}
    unreached = {name for key, name in defined.items() if key not in reached}
    assert unreached == set(UNREACHED_BY_THE_CLI)


# What a worker thread may enter of the package: a butterfly share and its passes.  perfbench's tracer
# wraps package functions and is not thread-safe, so no other package code may run off the calling thread.
WORKER_CODE = {"_run_share", "_run_share.<genexpr>", "_radix2_passes"}


def test_worker_threads_run_only_the_butterfly_share(tmp_path, capsys, monkeypatch):
    """Every subcommand, and the n = 12 instance of both witnesses, at two workers: each package frame
    entered off the calling thread is a butterfly share, its generator or its passes."""
    caller = threading.get_ident()
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and threading.get_ident() != caller:
            code = frame.f_code
            # a generator is named by the function that resumes it
            name = f"{frame.f_back.f_code.co_name}.{code.co_name}" if code.co_name == "<genexpr>" else code.co_name
            entered.add((code.co_filename, name))

    monkeypatch.setattr(cube_fourier, "_WORKERS", 2)
    threading.setprofile(profile)
    try:
        _run_every_subcommand(tmp_path, capsys)
        for variant in WITNESS_VARIANTS:
            cli.lower_bound_payload(12, variant)
    finally:
        threading.setprofile(None)
    package = {path.resolve() for path in SOURCES}
    ran = {name for filename, name in entered if Path(filename).resolve() in package}
    assert "_radix2_passes" in ran  # the pool ran
    assert ran <= WORKER_CODE, ran - WORKER_CODE
