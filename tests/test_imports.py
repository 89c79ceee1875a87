"""Every name a module of the package or of the tests imports is referenced in
that module, every parameter of a package function is read in its body, and no
package function imports a package module in its body, checked on the parsed
source with the standard-library ``ast``.  The package runs on numpy alone
below the banded crossover: checked in a fresh interpreter, and on the source,
where the one scipy import is the sparse one of the banded penalty path."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gpalign").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in ``source`` that no
    expression reads.  ``from __future__`` imports and the names ``__all__``
    lists (re-exports) are not counted."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read | exported]


def unused_parameters(source: str) -> list[str]:
    """Parameters of every function defined in ``source`` that its body (nested
    functions included) never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a for a in (*args.posonlyargs, *args.args, args.vararg,
                              *args.kwonlyargs, args.kwarg) if a is not None]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [f"{node.name}: {a.arg} (line {node.lineno})" for a in params
                  if a.arg not in read]
    return found


def deferred_package_imports(source: str) -> list[str]:
    """Functions defined in ``source`` whose body imports a module of the
    package (``from . import x``, ``from .x import y``).  Such an import hides
    a cycle between modules that a module-top import would expose; deferred
    imports of other packages are not counted."""
    return [f"{node.name} (line {stmt.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for stmt in ast.walk(node)
            if isinstance(stmt, ast.ImportFrom) and stmt.level > 0]


def _module_id(path: Path) -> str:
    return f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=_module_id)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=_module_id)
def test_no_deferred_package_imports(path):
    assert deferred_package_imports(path.read_text()) == []


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports from (``from .x import y``,
    ``from . import x``), by module name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_sampler_depends_on_the_model_not_the_fitter():
    # the block table lives in model.py: the sampler reads the laws the
    # variational fit sets q to from there, never from the fitter's module,
    # and the noisy blocks are entries there too, with no module of their own
    imported = package_imports((ROOT / "src" / "gpalign" / "mcmc.py").read_text())
    assert "model" in imported
    assert "avb" not in imported
    assert importlib.util.find_spec("gpalign.smoothing") is None


def test_scan_finds_package_imports():
    source = ("import os\nfrom .model import a\nfrom . import avb, io\n"
              "def f():\n    from .smoothing import b\n    return b\n")
    assert package_imports(source) == {"model", "avb", "io", "smoothing"}


def test_scan_finds_unused_and_skips_reexports():
    source = ("from __future__ import annotations\n"
              "import os, json\nimport numpy.linalg\n"
              "from math import pi as PI, tau\n"
              "__all__ = ['tau']\n"
              "def f():\n    from math import e\n    return json.dumps(PI)\n")
    assert unused_imports(source) == ["e (line 7)", "numpy (line 3)", "os (line 2)"]


def test_scan_finds_unused_parameters():
    source = ("def f(a, b, /, c, *args, d=1, **kw):\n"
              "    def g(e):\n        return a + kw['x']\n"
              "    c = 2\n    return g\n"
              "class K:\n    async def m(self, x):\n        return self\n")
    assert unused_parameters(source) == [
        "f: b (line 1)", "f: c (line 1)", "f: args (line 1)", "f: d (line 1)",
        "g: e (line 2)", "m: x (line 7)"]


def test_scan_finds_deferred_package_imports():
    source = ("from . import a\nfrom .b import c\n"
              "def f():\n    import os\n    from scipy import sparse\n"
              "    return os, sparse\n"
              "def g():\n    from . import d\n    return d\n"
              "class K:\n    async def m(self):\n"
              "        from ..e import h\n        return h\n")
    assert deferred_package_imports(source) == ["g (line 8)", "m (line 12)"]


def scipy_imports(source: str) -> list[str]:
    """``function: module`` for every import of scipy in ``source``, with the
    function whose body holds it (``<module>`` at the top level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                modules = []
            found.extend(f"{owner}: {m}" for m in modules if m.split(".")[0] == "scipy")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_one_scipy_import_is_the_banded_sparse_one():
    found = {_module_id(path): scipy_imports(path.read_text()) for path in PACKAGE}
    assert {k: v for k, v in found.items() if v} == {
        "gpalign/penalties.py": ["_sparse_D: scipy.sparse"]}


def test_scan_finds_scipy_imports():
    source = ("import scipy\nimport numpy, scipy.linalg as sl\n"
              "def f():\n    from scipy.special import gammaln\n"
              "    def g():\n        from scipy import sparse\n"
              "    from . import scipy_like\n")
    assert scipy_imports(source) == ["<module>: scipy", "<module>: scipy.linalg",
                                     "f: scipy.special", "g: scipy"]


def test_fits_chains_and_bootstrap_below_the_crossover_load_no_scipy():
    # a fresh interpreter: the test session itself has imported scipy.  The
    # penalty build past the crossover loads no scipy either, and keeps no
    # dense penalty
    code = ("import json\nimport numpy as np\nimport gpalign\nimport numpy_only\n"
            "numpy_only.run_below_crossover(30)\n"
            "assert numpy_only.dense_penalties_held(800) == []\n"
            "print(json.dumps(numpy_only.scipy_modules()))\n"
            "grid = gpalign.build_time_grid(np.linspace(0.0, 1.0, 400))\n"
            "sim = gpalign.simulate_dataset('gauss3mix', 4, grid, seed=1)\n"
            "gpalign.avb_fit(sim.Y, gpalign.ModelConfig(gamma_R=1e3, gamma_w=20.0,"
            " lambda_w=200.0), gpalign.build_penalty_set(grid), max_iters=2)\n"
            "print(json.dumps(numpy_only.scipy_modules()))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    below, wide = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert below == []
    assert "scipy.sparse" in wide
    assert not any(m.startswith(("scipy.special", "scipy.linalg")) for m in wide)
