"""Static check: every top-level import of a package module is used.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead: a name bound by a top-level import must be read
somewhere in the module.  The package's star import is checked too.
"""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import stoch_h2hinf

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stoch_h2hinf"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_detects_an_unused_import():
    source = (
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x = os.sep\n"
    )
    assert unused_imports(source) == ["field"]
    assert "qlearn.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_star_import_binds_no_module():
    # __all__ is the package's import lists, without the submodules they bind
    namespace = {}
    exec("from stoch_h2hinf import *", namespace)
    namespace.pop("__builtins__")
    assert not [n for n, obj in namespace.items() if isinstance(obj, ModuleType)]
    for name in stoch_h2hinf.__all__:
        assert getattr(stoch_h2hinf, name) is namespace[name]
    assert {"SdltiSystem", "run_q_learning", "f16_system"} <= set(namespace)
