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
    """Only cube_fourier names the butterfly and the binary record header."""
    owned = {"_walsh_butterfly", "_HEADER"}
    found = []
    for path in SOURCES:
        if path.name == "cube_fourier.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
            found += [f"{path.name}:{getattr(node, 'lineno', '?')}:{name}" for name in names & owned]
    assert found == []
