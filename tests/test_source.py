"""Rules on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

import hirzebruch


def _assert_statements(paths):
    # python -O strips assert statements, so a check written as one would
    # silently stop running
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_no_assert_statements_in_the_package():
    modules = sorted(pathlib.Path(hirzebruch.__file__).parent.rglob("*.py"))
    assert modules
    assert _assert_statements(modules) == []


def test_no_assert_statements_in_the_demos():
    # the demos check what they print, and must still check it under -O
    demos = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
    assert demos
    assert _assert_statements(demos) == []


def test_every_module_level_definition_is_exported_or_used():
    # a function or class that no package code names and `__all__` does
    # not export is dead: only a test could still reach it
    package = pathlib.Path(hirzebruch.__file__).parent
    defined, used = [], set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [
            (path.name, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert defined
    dead = [
        f"{module}:{name}"
        for module, name in defined
        if name not in hirzebruch.__all__ and name not in used
    ]
    assert dead == []


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


def test_integers_are_checked_by_the_types_that_hold_them():
    # a class coordinate or a point count is checked once, when its type
    # is built: a type's own `__init__` checks its arguments before it
    # stores them, so no `require_ints` call reads an attribute, whether
    # off an argument (`c.a`, `model.config.z`) or off `self`
    package = pathlib.Path(hirzebruch.__file__).parent
    found = [
        f"{path.name}:{node.lineno} {ast.unparse(arg)}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "require_ints"
        for arg in node.args
        if any(isinstance(n, ast.Attribute) for n in ast.walk(arg))
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # the value types are `picard.Record` subclasses: `dataclasses` would
    # load `inspect`, `ast`, `dis` and `tokenize` into every process and
    # generate each type's methods at import
    package = pathlib.Path(hirzebruch.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_records_write_their_fields_in_one_way():
    # a slotted record's `__init__` writes its fields through
    # `object.__setattr__`; reading a slot descriptor's `__set__`, by
    # attribute or by name, would be a second write path
    package = pathlib.Path(hirzebruch.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "__set__")
        or (isinstance(node, ast.Constant) and node.value == "__set__")
    ]
    assert found == []


def test_the_package_import_loads_no_code_introspection_modules():
    # a fresh interpreter, so modules that pytest or another test loaded
    # do not hide one the package loads; modules that interpreter start-up
    # loaded are not the package's doing.  `cli` loads argparse (and the
    # gettext it imports) only to explain a declined command line, and
    # csv only to write CSV.  The import still loads all seven layers,
    # which the benchmark's per-layer import probe reads
    probe = (
        "import sys; before = set(sys.modules); import hirzebruch, hirzebruch.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize',"
        " 'argparse', 'gettext', 'csv') if m in sys.modules and m not in before)); "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('hirzebruch.'))))"
    )
    src = pathlib.Path(hirzebruch.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded, layers = done.stdout.split("\n")[:2]
    assert loaded.split() == []
    seven = ("picard", "cohomology", "sheaves", "natural", "bundles", "audit", "cli")
    assert layers.split() == [f"hirzebruch.{layer}" for layer in sorted(seven)]


def test_the_construction_path_checks_each_input_once():
    # `construct_extension` and `classify_region` check their plain ints
    # once, on entry, and read the construction from the unchecked kernels
    # (`_construction`, `_c1_obstructed`); naming a checked function there
    # would check the same ints again
    tree = ast.parse((pathlib.Path(hirzebruch.__file__).parent / "bundles.py").read_text())
    checked = {"section_count_bounds", "construction_c2", "c1_obstructed"}
    bodies = {"construct_extension", "classify_region", "_c2_witness"}
    seen, found = set(), []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in bodies:
            seen.add(node.name)
            found += [
                f"bundles.py:{name.lineno} {node.name} names {name.id}"
                for name in ast.walk(node)
                if isinstance(name, ast.Name) and name.id in checked
            ]
    assert seen == bodies
    assert found == []


def test_holds_and_indeterminate_verdicts_are_shared():
    # a HOLDS or INDETERMINATE verdict carries no witness and verdicts are
    # frozen, so the package builds each once, as `natural`'s constants,
    # and every answer that needs one shares it
    package = pathlib.Path(hirzebruch.__file__).parent
    shared = {"HOLDS_VERDICT", "INDETERMINATE_VERDICT"}
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions = {
            id(node.value)
            for node in tree.body
            if path.name == "natural.py"
            and isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and ast.unparse(node.targets[0]) in shared
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Verdict"
            ):
                continue
            outcome = node.args[0] if node.args else None
            outcome = next((k.value for k in node.keywords if k.arg == "outcome"), outcome)
            if outcome is None or id(node) in definitions:
                continue
            if ast.unparse(outcome) in ("Outcome.HOLDS", "Outcome.INDETERMINATE"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_json_is_written_in_one_place():
    # `cli._json_text` writes every JSON record; a `json.dumps` call in the
    # package would be a second way to compute the same bytes
    package = pathlib.Path(hirzebruch.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            dumps = (
                isinstance(node, ast.Attribute) and node.attr in ("dumps", "dump")
                and isinstance(node.value, ast.Name) and node.value.id == "json"
            ) or (
                isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(alias.name in ("dumps", "dump") for alias in node.names)
            )
            if dumps:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_closed_forms_call_no_kernel():
    # each closed form has a referee that shares no code with it: the
    # scans and the walks go through the kernels, so the closed forms
    # must not call them
    package = pathlib.Path(hirzebruch.__file__).parent
    kernels = {"sections", "counts", "sections_twist", "effective_twist", "run_edges"}
    closed_forms = {
        "natural.py": {
            "line_natural_wrt_m",
            "line_unconditional_wrt_m",
            "line_natural_wrt_r",
            "direct_sum_natural_wrt_m",
        },
        "cohomology.py": {"h1_vanishes"},
    }
    seen, found = set(), []
    for module, names in closed_forms.items():
        tree = ast.parse((package / module).read_text(), filename=module)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                seen.add(node.name)
                found += [
                    f"{module}:{call.lineno} {node.name} calls {ast.unparse(call.func)}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and (
                        call.func.id if isinstance(call.func, ast.Name)
                        else getattr(call.func, "attr", None)
                    ) in kernels
                ]
    assert seen == set().union(*closed_forms.values())
    assert found == []
