"""Checks of the source: the package imports nothing outside the standard
library and itself, imports no name it never uses, keeps its start-up free
of ``dataclasses`` and ``inspect``, and applies no sign as a float phase,
and the tests keep one reference per layer."""

import ast
import pathlib
import subprocess
import sys

import loqc_ancilla
from conftest import CHILD_ENV

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


def unused_imports(path):
    """(line, bound name) of every import whose name the module never reads.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        imported += [(node.lineno, name) for name in names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_package_modules_import_no_unused_name():
    # Every CLI process compiles each import, as the package ships no
    # bytecode; ``__init__.py`` imports names to re-export them.
    modules = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
    assert PACKAGE / "cli.py" in modules
    found = [f"{p.name}:{line}: {name}" for p in modules for line, name in unused_imports(p)]
    assert found == []


def test_unused_import_check_sees_every_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path, json\n"
        "import math as m, re as regex\n"
        "from . import fock, gates\n"
        "from typing import Callable, Union as U\n"
        "def f(x: Callable) -> fock.SparseState:\n"
        "    import sys\n"
        "    from itertools import chain\n"
        "    return os.path.join(m.pi, chain)\n"
    )
    assert unused_imports(module) == [
        (2, "json"), (3, "regex"), (4, "gates"), (5, "U"), (7, "sys")
    ]


def modules_loaded_by(code):
    """Names in ``sys.modules`` once a fresh interpreter has run ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))"],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
        check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Each costs the start-up of every CLI process; the bare interpreter,
    # started the same way, keeps what ``site`` imports out of the count.
    added = modules_loaded_by("import loqc_ancilla.cli") - modules_loaded_by("pass")
    assert "loqc_ancilla.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


PHASE_METHODS = {"apply_phase", "apply_basis_phase"}


def phase_calls(path):
    """(line, method) of every call of a phase method of ``SparseState``;
    the methods stay for callers outside the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PHASE_METHODS
        ):
            yield node.lineno, node.func.attr


def test_package_applies_no_phase_through_sparse_state():
    # Signs are exact negations and the dot-array phases one exact pass.
    modules = sorted(PACKAGE.glob("*.py"))
    found = [f"{p.name}:{line}: {name}" for p in modules for line, name in phase_calls(p)]
    assert found == []


def test_phase_check_sees_every_call_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def apply_phase(state):\n"
        "    return state\n"
        "s = state.apply_phase(0, 1.0)\n"
        "t = f(state).apply_basis_phase(\n"
        "    lambda occ: 0.0)\n"
        "u = apply_phase(state)\n"
        "v = SparseState.apply_phase\n"
    )
    assert list(phase_calls(module)) == [(3, "apply_phase"), (4, "apply_basis_phase")]


TESTS = pathlib.Path(__file__).resolve().parent

# One reference per layer, each built another way than the code it checks.
# A bit-for-bit change proves itself against these, the pinned digests and
# ``invariants.check_state``; it adds no copy of the code it replaces.
KEPT_REFERENCES = {
    "test_fock.py:reference_transform",  # the permanent formula
    "test_fock.py:reference_measure",  # grouping by enumeration
    "test_gates.py:reference_controlled_sign",  # a float pi phase
    "test_teleport.py:reference_phase_feedforward",  # a phase after the transform
    "test_teleport.py:reference_teleport",  # the qubit photon through the transform
    "test_teleport.py:reference_joint_state_cz",  # both sides on one state
}


def top_level_references(path):
    """Names of the module-level functions of ``path`` named reference_*."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_function and node.name.startswith("reference_"):
            yield node.name


def test_tests_keep_one_reference_per_layer():
    modules = TESTS.rglob("*.py")
    found = {f"{p.relative_to(TESTS)}:{name}" for p in modules for name in top_level_references(p)}
    assert found == KEPT_REFERENCES


def test_reference_check_sees_module_level_functions_only(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def reference_a():\n"
        "    def reference_nested(): pass\n"
        "async def reference_b(): pass\n"
        "class C:\n"
        "    def reference_method(self): pass\n"
    )
    assert list(top_level_references(module)) == ["reference_a", "reference_b"]
