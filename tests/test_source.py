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


def test_no_private_names_imported_across_modules():
    # an underscore name is a module's own business; another module that
    # needs it should get a public name instead
    package = pathlib.Path(hirzebruch.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("hirzebruch"):
                continue
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []


def test_one_list_of_public_names():
    # the package `__all__` is the one export list: no module keeps its
    # own copy, and it names exactly what `__init__` imports
    package = pathlib.Path(hirzebruch.__file__).parent
    assigners = [
        path.name
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
    ]
    assert assigners == ["__init__.py"]
    tree = ast.parse((package / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(hirzebruch.__all__) == len(set(hirzebruch.__all__))
    assert set(hirzebruch.__all__) == imported
