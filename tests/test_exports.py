import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fermatcalc

# fermatcalc.__main__ runs the command line on import
MODULES = sorted(
    m.name
    for m in pkgutil.iter_modules(fermatcalc.__path__, "fermatcalc.")
    if m.name != "fermatcalc.__main__"
)


@pytest.mark.parametrize("name", ["fermatcalc", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_private_name_of_another(name):
    # a name with a leading underscore stays private to the module defining it
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fermatcalc")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("name", ["fermatcalc", *MODULES])
def test_every_imported_name_is_used_or_exported(name):
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []


@pytest.mark.parametrize("name", ["fermatcalc.exactnum", "fermatcalc.echelon", "fermatcalc.record"])
def test_leaf_modules_import_no_other_module_of_the_package(name):
    # the field layer, the echelon engine and the record base sit at the bottom of the stack
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in imported if m.split(".")[0] == "fermatcalc"] == []


def test_cli_start_up_loads_no_introspection_modules():
    # a one-shot call pays every import: the records need neither dataclasses
    # nor what it pulls in, and annotations take their names from collections.abc
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    code = f"import sys, fermatcalc.cli\nprint(sorted(m for m in {heavy!r} if m in sys.modules))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
    )
    assert proc.stdout == "[]\n"
