"""Rules the library's own source keeps."""

import ast
from pathlib import Path

import oddsafe


def test_library_guards_are_not_asserts():
    # python -O strips assert statements, so a safety guard must raise instead
    paths = sorted(Path(oddsafe.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
