"""Static checks: every top-level import, private name and public name of the package is used.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead: a name bound by a top-level import must be read
somewhere in the module, a private top-level name (a `_x` def, class or
assignment) somewhere in the package, and a public name somewhere outside
the tests: in a package module, in the benchmark, or in the README.  A
public name is reached by a load of the bare name, by an attribute read on a
package module (`sim.step`, `stoch_h2hinf.step`) or by a README code token
that does not follow a `.`; an attribute of any other object, such as
`report.termination`, is another name.  The package's star import is checked
too, and so are the modules a fresh `import stoch_h2hinf` loads.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import stoch_h2hinf
from stoch_h2hinf import _kernels

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stoch_h2hinf"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the names a package module is read through
MODULE_NAMES = {"stoch_h2hinf"} | {Path(m).stem for m in MODULES}


def unused_imports(source):
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def names_read(tree):
    """The names the syntax tree loads and the attribute names it reads."""
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
    return read


def unread_private_names(sources):
    """Private top-level names defined in any of the sources and read in none."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        read |= names_read(tree)
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - read)


def names_reached(tree):
    """The names the syntax tree loads and the attributes it reads on a
    package module."""
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in MODULE_NAMES):
            read.add(n.attr)
    return read


def unreached_public_names(public, sources, readme):
    """Public names reached in none of the sources and named in no code span
    or fenced block of the readme, other than as an attribute."""
    read = set().union(*(names_reached(ast.parse(source)) for source in sources))
    spans = re.findall(r"```.*?```|`[^`]+`", readme, flags=re.S)
    named = set(re.findall(r"(?<![.\w])\w+", " ".join(spans)))
    return sorted(set(public) - read - named)


def matmuls_outside(source, allowed):
    """Top-level functions of the source, other than those allowed, that
    apply matmul (`@` or `@=`); `<module>` for one outside any function."""
    found = set()
    for node in ast.parse(source).body:
        name = getattr(node, "name", "<module>")
        if name not in allowed and any(isinstance(n, ast.MatMult) for n in ast.walk(node)):
            found.add(name)
    return sorted(found)


def call_sites(source, name):
    """The top-level functions of the source, one entry per call of name in
    them (a bare name or an attribute); `<module>` for a call outside any."""
    found = []
    for node in ast.parse(source).body:
        for n in ast.walk(node):
            if isinstance(n, ast.Call) and name in (getattr(n.func, "id", None),
                                                    getattr(n.func, "attr", None)):
                found.append(getattr(node, "name", "<module>"))
    return found


# the functions of the coupled-Riccati sweep (gare and its Q-form core in
# qfunction) that take (S, ., .) stacks; every other product of two matrices
# in the sweep is ndarray.dot, at about half matmul's dispatch cost
GARE_STACK_FUNCTIONS = {"_mm", "_residuals", "_policy_step", "_h_stack", "_sandwich"}
SWEEP_MODULES = ("gare.py", "qfunction.py")


def test_detects_a_matmul_outside_the_allowed_functions():
    source = ("@dataclass\nclass A:\n    @property\n    def x(self):\n        return 1\n"
              "def f(a, b):\n    return a @ b\n"
              "def g(a):\n    a @= a\n    return a.dot(a)\n"
              "def h(a):\n    return a.dot(a)\n"
              "X = np.eye(2) @ np.eye(2)\n")
    assert matmuls_outside(source, {"f"}) == ["<module>", "g"]


def test_gare_sweep_products_are_dot():
    sources = [(PACKAGE / m).read_text() for m in SWEEP_MODULES]
    # q_value's z'Hz on one vector is no part of the sweep
    assert [f for src in sources for f in matmuls_outside(src, GARE_STACK_FUNCTIONS)] \
        == ["q_value"]
    # each allowed function still takes stacks through matmul
    assert sorted(f for src in sources for f in matmuls_outside(src, set())) \
        == sorted(GARE_STACK_FUNCTIONS | {"q_value"})


def test_detects_each_call_site():
    source = ("def f(a):\n    return R(a) if a else gare.R(a, a)\n"
              "def g(a):\n    return R\n"
              "X = R(1)\n")
    assert call_sites(source, "R") == ["f", "f", "<module>"]


def test_one_solve_report_construction():
    # both coupled-Riccati solvers build their report in one place
    sites = [(m, f) for m in MODULES
             for f in call_sites((PACKAGE / m).read_text(), "SolveReport")]
    assert sites == [("gare.py", "_solve")]


def test_one_gain_system_solve():
    # the solver and the learner read their gains from H through one core:
    # np.linalg.solve runs the stacked gain system in _gain_solve alone,
    # beside the residuals' two Delta solves and the policy values' Lyapunov
    # system
    sites = [(m, f) for m in MODULES for f in call_sites((PACKAGE / m).read_text(), "solve")]
    assert sites == [("gare.py", "_residuals"), ("gare.py", "_residuals"),
                     ("gare.py", "_policy_values"), ("qfunction.py", "_gain_solve")]
    sites = [(m, f) for m in MODULES
             for f in call_sites((PACKAGE / m).read_text(), "_gain_solve")]
    assert sites == [("gare.py", "_gains"), ("qfunction.py", "_q_gains")]
    # the learner's loop and the public gains_from_q share _q_gains
    sites = [(m, f) for m in MODULES
             for f in call_sites((PACKAGE / m).read_text(), "_q_gains")]
    assert sites == [("qfunction.py", "gains_from_q"), ("qlearn.py", "run_q_learning")]


def test_value_iteration_consumers_hold_the_float_error_context():
    # the loop enters no np.errstate, so that none is held across a yield:
    # each consumer runs it under its own, and a new consumer is named here
    sites = [(m, f) for m in MODULES
             for f in call_sites((PACKAGE / m).read_text(), "_value_iteration")]
    assert sites == [("gare.py", "_solve"), ("gare.py", "random_feasible_system"),
                     ("qlearn.py", "run_value_iteration")]
    contexts = {(m, f) for m in MODULES
                for f in call_sites((PACKAGE / m).read_text(), "errstate")}
    assert set(sites) <= contexts
    assert ("gare.py", "_value_iteration") not in contexts


def test_detects_an_unread_private_name():
    sources = [
        "_USED = 1\n_LEFTOVER = ('a', 'b')\ndef _helper():\n    return 2\n",
        "from .a import _helper\nx = _helper() + mod._USED\n",
    ]
    assert unread_private_names(sources) == ["_LEFTOVER"]


def test_no_unread_private_name():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


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


def test_detects_a_public_name_only_tests_reach():
    sources = ["def solve():\n    return _step()\n",
               "import stoch_h2hinf\nstoch_h2hinf.report()\n"]
    readme = "```sh\nrun\n```\nCall `solve(sys)`; the helper step is internal.\n"
    public = ["solve", "report", "step", "helper"]
    assert unreached_public_names(public, sources, readme) == ["helper", "step"]


def test_an_attribute_of_another_object_reaches_no_public_name():
    # report.termination is a field, not the function termination; sim.step
    # and stoch_h2hinf.solve read the package's names
    sources = ["import sim\nx = report.termination + sim.step\n",
               "import stoch_h2hinf\nstoch_h2hinf.solve()\n"]
    readme = "Print `report.termination`; `sim.step` and `report` are shown.\n"
    public = ["termination", "step", "solve", "report"]
    assert unreached_public_names(public, sources, readme) == ["termination"]


def test_every_public_name_is_reached():
    # a name that only the tests call is surface to delete, or to document
    sources = [(PACKAGE / m).read_text() for m in MODULES]
    sources += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    assert unreached_public_names(stoch_h2hinf.__all__, sources, readme) == []


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


def test_import_loads_no_process_pool():
    # the benchmark's setup_s times the import: the trajectory writer forks
    # with os.fork and a pipe, and the package loads no process machinery
    heavy = ("multiprocessing", "concurrent.futures", "subprocess")
    code = ("import sys, stoch_h2hinf\n"
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n")
    paths = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")


def test_source_parses_as_the_oldest_supported_python():
    # pyproject.toml's requires-python floor; the loops the kernel generates
    # at run time are source too, one per n and pattern of zero entries
    floor = (3, 9)
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=path.name, feature_version=floor)
    for n in range(2, 6):
        for zeros in ([], [0], list(range(n))):
            b1, c1, c2 = ([0.0 if i in zeros else 1.5 for i in range(n)] for _ in range(3))
            ast.parse(_kernels._single_input_source(b1, c1, c2), feature_version=floor)
