import ast
import json
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rareflow"


def test_no_assert_statements():
    # python -O strips assert statements: invariants must be explicit checks
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert list(PACKAGE.glob("*.py"))
    assert found == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def _imports_of(tree, module):
    return [node for node in ast.walk(tree)
            if any(name == module or name.startswith(module + ".") for name in _imported_modules(node))]


def _package_imports(module):
    return [(path.name, node.lineno)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in _imports_of(ast.parse(path.read_text(), filename=str(path)), module)]


def test_no_scipy_stats_import():
    # importing scipy.stats costs about half a second; scipy.special has
    # every distribution function the package needs
    assert _package_imports("scipy.stats") == []


def test_no_scipy_optimize_and_integrate_only_inside_the_quadrature_oracles():
    # scipy.integrate, with the scipy.optimize it loads, costs a cold start
    # about 0.3 s: the root finder is tilt._brent, and only the two
    # quadrature oracles import scipy.integrate, where they integrate
    assert _package_imports("scipy.optimize") == []
    oracles = ast.parse((PACKAGE / "oracles.py").read_text())
    allowed = [("oracles.py", node.lineno)
               for func in ast.walk(oracles)
               if isinstance(func, ast.FunctionDef) and func.name in ("up_out_call_price", "credit_tail_quadrature")
               for node in _imports_of(func, "scipy.integrate")]
    assert len(allowed) == 2
    assert _package_imports("scipy.integrate") == allowed


def test_cold_import_loads_neither_optimize_nor_integrate():
    script = (
        "import json, sys\n"
        "import rareflow.cli\n"
        "cold = [m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules]\n"
        "from rareflow import oracles\n"
        "credit = oracles.credit_tail_quadrature(20, 0.1, 0.4, 0.5)\n"
        "call = oracles.up_out_call_price(1.0, 1.0, 1.3, 0.05, 0.2, 1.0)\n"
        "print(json.dumps([cold, 'scipy.integrate' in sys.modules, credit, call]))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    cold, loaded, credit, call = json.loads(out.stdout)
    assert cold == []
    assert loaded
    assert 0.0 < credit < 1.0
    assert call > 0.0
