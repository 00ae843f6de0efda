"""Rules on the package source itself."""

import ast
import pathlib

import hirzebruch


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an internal check written as
    # one would silently stop running
    modules = sorted(pathlib.Path(hirzebruch.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
