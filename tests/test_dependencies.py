"""The package imports nothing outside the standard library and itself."""

import ast
import pathlib
import sys

import loqc_ancilla

PACKAGE = pathlib.Path(loqc_ancilla.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"loqc_ancilla"}


def foreign_imports(path):
    """(line, top-level name) of every absolute import outside ALLOWED,
    wherever in the module it stands."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            root = name.split(".")[0]
            if root not in ALLOWED:
                yield node.lineno, root


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "fock.py" in modules
    found = [f"{p.name}:{line}: {root}" for p in modules for line, root in foreign_imports(p)]
    assert found == []


def test_import_check_sees_every_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path, numpy\n"
        "from . import fock\n"
        "from loqc_ancilla.fock import SparseState\n"
        "def f():\n"
        "    from scipy.linalg import expm\n"
        "    import mpmath as mp\n"
    )
    assert list(foreign_imports(module)) == [(2, "numpy"), (6, "scipy"), (7, "mpmath")]
